"""Joint multi-dataset graph with coordinator virtual nodes.

Ordinary nodes of all datasets come first, followed by the coordinators, so
the adjacency is [[block_diag(sources), X], [X^T, C]]: X wires each
coordinator to every node of its dataset, and C wires coordinators to each
other according to `inter_mode`.
Coordinator features are learnable parameters shared with the training
graph via `feature_tensor`. `per_dataset=0` is the graph without
coordinators: the block-diagonal union of the sources.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import errors
from .autodiff import Param, Tensor, concat_rows
from .graphstore import binary_adjacency
from .projection import ProjectedFeatures


@dataclass
class CoordinatorSet:
    """Learnable coordinator features plus wiring policy."""

    per_dataset: int = 1
    inter_mode: str = "full"           # "full", "none", or "dynamic"
    dynamic_threshold: float = 0.0
    features: Param = field(default=None, repr=False)

    def __post_init__(self):
        if self.per_dataset < 0:
            raise errors.InvalidArgument(
                f"coordinators_per_dataset must be >= 0, got {self.per_dataset}")

    def init_features(self, num_datasets: int, d_p: int, seed: int = 0) -> Param:
        """Draw each coordinator's features from N(0, 1/d_p), as float32."""
        rng = np.random.default_rng([seed, 0xC00])
        sigma = 1.0 / np.sqrt(d_p)
        data = sigma * rng.standard_normal((num_datasets * self.per_dataset, d_p))
        self.features = Param(data.astype(np.float32), name="coordinators")
        return self.features


@dataclass
class JointGraph:
    adjacency: sp.csr_matrix            # (N + M*c) x (N + M*c), symmetric binary
    base_features: np.ndarray           # N x d_p, projected ordinary-node features
    coords: CoordinatorSet
    origin: np.ndarray                  # per-node dataset index (coordinators too)

    @property
    def num_ordinary(self) -> int:
        return self.base_features.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_coordinators(self) -> int:
        return self.num_nodes - self.num_ordinary

    def feature_tensor(self) -> Tensor:
        """Differentiable feature matrix; gradients reach coordinator features."""
        if self.num_coordinators == 0:   # a 0-row Param would make x need a gradient
            return Tensor(self.base_features)
        return concat_rows([Tensor(self.base_features), self.coords.features])

    def is_coordinator(self, idx) -> np.ndarray:
        return np.asarray(idx) >= self.num_ordinary


def build_joint_graph(projected: list[ProjectedFeatures],
                      adjacencies: list[sp.csr_matrix],
                      coords: CoordinatorSet,
                      seed: int = 0) -> JointGraph:
    if not projected:
        raise errors.EmptyDatasetList("no datasets to amalgamate")
    if len(projected) != len(adjacencies):
        raise errors.DimensionMismatch("projected/adjacency list length mismatch")
    d_p = projected[0].matrix.shape[1]
    for p in projected:
        if p.matrix.shape[1] != d_p:
            raise errors.DimensionMismatch(
                f"{p.source_name}: {p.matrix.shape[1]} columns, expected {d_p}")
    sizes = [p.matrix.shape[0] for p in projected]
    for a, sz in zip(adjacencies, sizes):
        if a.shape != (sz, sz):
            raise errors.DimensionMismatch("adjacency shape does not match features")
    m, n = len(sizes), sum(sizes)
    c = coords.per_dataset
    if coords.features is None:
        coords.init_features(m, d_p, seed=seed)
    if coords.features.data.shape != (m * c, d_p):
        raise errors.DimensionMismatch(
            f"coordinator features shape {coords.features.data.shape}, "
            f"expected {(m * c, d_p)}")
    origin = np.concatenate([np.repeat(np.arange(m), sizes), np.repeat(np.arange(m), c)])
    # X pairs node v with coordinators origin[v]*c, ..., origin[v]*c + c - 1
    x = np.vstack([np.repeat(np.arange(n), c),
                   n + (origin[:n, None] * c + np.arange(c)).ravel()])
    sources = sp.block_diag(adjacencies, format="coo")
    static = np.hstack([np.vstack([sources.row, sources.col]), x, x[::-1]])
    base = np.vstack([p.matrix for p in projected]).astype(np.float32)
    return JointGraph(adjacency=_joint_adjacency(static, _coordinator_block(coords), n),
                      base_features=base, coords=coords, origin=origin)


def _joint_adjacency(static: np.ndarray, linked: np.ndarray, n: int) -> sp.csr_matrix:
    """Canonical binary CSR of the static (row, col) pairs plus the coordinator
    block `linked` from node n on; a pair stored more than once is one edge."""
    rows, cols = np.hstack([static, n + np.argwhere(linked).T])
    return binary_adjacency(rows, cols, n + len(linked))


def _coordinator_block(coords: CoordinatorSet) -> np.ndarray:
    """Boolean m*c x m*c coordinator-coordinator adjacency under `inter_mode`,
    self loops on the diagonal."""
    mc = coords.features.data.shape[0]
    if coords.inter_mode == "full":
        linked = np.ones((mc, mc), dtype=bool)
    elif coords.inter_mode == "none":
        linked = np.zeros((mc, mc), dtype=bool)
    elif coords.inter_mode == "dynamic":
        f = coords.features.data.astype(np.float64)
        nrm = np.linalg.norm(f, axis=1)
        zero = nrm == 0
        if zero.any():
            warnings.warn("zero coordinator feature vector: similarity undefined, "
                          "treated as not connected")
        scale = np.where(zero, 1.0, nrm)
        cos = (f @ f.T) / np.outer(scale, scale)
        # decide each pair once, so the block is symmetric whatever the rounding
        linked = np.triu((cos >= coords.dynamic_threshold) & np.outer(~zero, ~zero), 1)
        linked |= linked.T
    else:
        raise errors.InvalidArgument(f"unknown inter_mode {coords.inter_mode!r}")
    np.fill_diagonal(linked, True)
    return linked


def refresh_dynamic_edges(jg: JointGraph, coords: CoordinatorSet) -> JointGraph:
    """Rewire coordinator-coordinator edges from current feature cosine similarity."""
    if coords.inter_mode != "dynamic":
        raise errors.InvalidArgument("refresh_dynamic_edges requires inter_mode='dynamic'")
    n, a = jg.num_ordinary, jg.adjacency.tocoo()
    static = np.vstack([a.row, a.col])[:, (a.row < n) | (a.col < n)]
    jg.adjacency = _joint_adjacency(static, _coordinator_block(coords), n)
    return jg


def sample_joint_batch(jg: JointGraph, batch_size: int, hops: int,
                       rng_seed: int, epoch: int = 0) -> list[np.ndarray]:
    """Induced-subgraph samples around uniformly drawn ordinary centers.

    Each sample's randomness derives only from (seed, epoch, index), so
    results are independent of scheduling. Returns per-sample global node
    index arrays with the center first, then BFS order (ties by index).
    """
    if batch_size < 1 or hops < 1:
        raise errors.InvalidArgument("batch_size and hops must be >= 1")
    centers = [int(np.random.default_rng([rng_seed, epoch, k]).integers(jg.num_ordinary))
               for k in range(batch_size)]
    return [bfs_ball(jg.adjacency, center, hops) for center in centers]


def bfs_ball(adj: sp.csr_matrix, center: int, hops: int) -> np.ndarray:
    """Node indices within `hops` of center: center first, then BFS order
    with ties broken by index."""
    indptr, indices = adj.indptr, adj.indices
    visited = {center}
    order = [center]
    frontier = [center]
    for _ in range(hops):
        nxt = set()
        for u in frontier:
            for v in indices[indptr[u]:indptr[u + 1]]:
                if v not in visited:
                    nxt.add(int(v))
        frontier = sorted(nxt)
        order.extend(frontier)
        visited.update(nxt)
    return np.asarray(order, dtype=np.int64)
