"""Truncated-SVD feature projection onto a shared target dimension.

The right singular vectors are the top eigenvectors of the d x d Gram
matrix X^T X, taken from one symmetric eigendecomposition. Output is the
score matrix U_k S_k so relative feature energy across nodes survives the
projection. Columns beyond the available rank are zero-padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .graphstore import GraphDataset


@dataclass
class ProjectionConfig:
    d_p: int = 100

    def __post_init__(self):
        if self.d_p < 1:
            raise errors.InvalidArgument("d_p must be >= 1")


@dataclass
class ProjectedFeatures:
    matrix: np.ndarray              # |V| x d_p scores, float32
    singular_values: np.ndarray     # nonincreasing, length min(d_p, d, n)
    basis: np.ndarray = None        # d x k right singular vectors, float64
    source_name: str = ""


def svd_project(x: np.ndarray, cfg: ProjectionConfig) -> ProjectedFeatures:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise errors.ShapeMismatch(f"expected nonempty 2-D matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise errors.NonFiniteInput("projection input has non-finite entries")
    n, d = x.shape
    k = min(cfg.d_p, d, n)

    lam, vecs = np.linalg.eigh(x.T @ x)  # Gram matrix eigenvalues, ascending
    order = np.argsort(-lam, kind="stable")[:k]
    sigma = np.sqrt(np.maximum(lam[order], 0.0))
    q = vecs[:, order]

    scores = x @ q  # = U_k S_k
    # sign convention: largest-magnitude entry of each left singular vector positive
    for j in range(k):
        if sigma[j] > 1e-12 * max(sigma[0], 1e-300):
            idx = int(np.argmax(np.abs(scores[:, j])))
            if scores[idx, j] < 0:
                scores[:, j] = -scores[:, j]
                q[:, j] = -q[:, j]
        else:
            sigma[j] = 0.0
            scores[:, j] = 0.0
            q[:, j] = 0.0

    out = np.zeros((n, cfg.d_p), dtype=np.float32)
    out[:, :k] = scores.astype(np.float32)
    return ProjectedFeatures(matrix=out, singular_values=sigma.astype(np.float64),
                             basis=q)


def project_all(graphs: list[GraphDataset], cfg: ProjectionConfig) -> list[ProjectedFeatures]:
    if not graphs:
        raise errors.EmptyDatasetList("need at least one dataset to project")
    out = []
    for g in graphs:
        try:
            p = svd_project(g.features, cfg)
        except errors.GcopeError as e:
            raise type(e)(f"{g.name}: {e}") from e
        p.source_name = g.name
        out.append(p)
    return out
