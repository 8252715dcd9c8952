"""Joint multi-dataset graph with coordinator virtual nodes.

Ordinary nodes of all datasets come first (block-diagonal adjacency),
followed by the coordinators. Each coordinator is wired to every node of
its dataset; coordinators are mutually wired according to `inter_mode`.
Coordinator features are learnable parameters shared with the training
graph via `feature_tensor`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import errors
from .autodiff import Param, Tensor, concat_rows
from .projection import ProjectedFeatures


@dataclass
class CoordinatorSet:
    """Learnable coordinator features plus wiring policy."""

    per_dataset: int = 1
    init_scheme: str = "gaussian"      # "zeros" or "gaussian" (sigma 1/sqrt(d_p))
    inter_mode: str = "full"           # "full", "none", or "dynamic"
    dynamic_threshold: float = 0.0
    self_loops: bool = True
    features: Param = field(default=None, repr=False)

    def init_features(self, num_datasets: int, d_p: int, seed: int = 0,
                      dtype=np.float32) -> Param:
        rows = num_datasets * self.per_dataset
        if self.init_scheme == "zeros":
            data = np.zeros((rows, d_p), dtype=dtype)
        elif self.init_scheme == "gaussian":
            sigma = 1.0 / np.sqrt(d_p)
            rng = np.random.default_rng([seed, 0xC00])
            data = (sigma * rng.standard_normal((rows, d_p))).astype(dtype)
        else:
            raise errors.InvalidArgument(f"unknown init scheme {self.init_scheme!r}")
        self.features = Param(data, name="coordinators")
        return self.features


@dataclass
class JointGraph:
    adjacency: sp.csr_matrix            # (N + M*c) x (N + M*c), symmetric binary
    base_features: np.ndarray           # N x d_p, projected ordinary-node features
    coords: CoordinatorSet | None
    dataset_ranges: list[tuple[int, int]]
    coordinator_ranges: list[tuple[int, int]]
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
        if self.coords is None or self.num_coordinators == 0:
            return Tensor(self.base_features)
        return concat_rows([Tensor(self.base_features), self.coords.features])

    def is_coordinator(self, idx) -> np.ndarray:
        return np.asarray(idx) >= self.num_ordinary


def build_joint_graph(projected: list[ProjectedFeatures],
                      adjacencies: list[sp.csr_matrix],
                      coords: CoordinatorSet | None,
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
    m = len(projected)
    sizes = [p.matrix.shape[0] for p in projected]
    n = sum(sizes)
    c = coords.per_dataset if coords is not None else 0
    total = n + m * c

    base = np.vstack([p.matrix for p in projected]).astype(np.float32)

    rows, cols = [], []
    # block-diagonal source adjacencies
    ofs = 0
    for a, sz in zip(adjacencies, sizes):
        if a.shape != (sz, sz):
            raise errors.DimensionMismatch("adjacency shape does not match features")
        coo = a.tocoo()
        rows.append(coo.row + ofs)
        cols.append(coo.col + ofs)
        ofs += sz
    # coordinator cross connections: coordinator (i, t) <-> every node of dataset i
    dataset_ranges = []
    lo = 0
    for sz in sizes:
        dataset_ranges.append((lo, lo + sz))
        lo += sz
    coordinator_ranges = []
    for i in range(m):
        coordinator_ranges.append((n + i * c, n + (i + 1) * c))
    for i in range(m):
        lo, hi = dataset_ranges[i]
        for t in range(c):
            cid = n + i * c + t
            block = np.arange(lo, hi)
            rows.append(np.full(block.size, cid))
            cols.append(block)
            rows.append(block)
            cols.append(np.full(block.size, cid))
    if coords is not None and c > 0:
        if coords.features is None:
            coords.init_features(m, d_p, seed=seed)
        if coords.features.data.shape != (m * c, d_p):
            raise errors.DimensionMismatch(
                f"coordinator features shape {coords.features.data.shape}, "
                f"expected {(m * c, d_p)}")
        cr, cc = _coordinator_block(coords, n, m * c)
        rows.append(cr)
        cols.append(cc)

    origin = np.empty(total, dtype=np.int64)
    for i, (lo, hi) in enumerate(dataset_ranges):
        origin[lo:hi] = i
    for i, (lo, hi) in enumerate(coordinator_ranges):
        origin[lo:hi] = i

    rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    adj = sp.coo_matrix((np.ones(rows.size, dtype=np.float32), (rows, cols)),
                        shape=(total, total)).tocsr()
    adj.data[:] = 1.0
    return JointGraph(adjacency=adj, base_features=base, coords=coords,
                      dataset_ranges=dataset_ranges,
                      coordinator_ranges=coordinator_ranges, origin=origin)


def _coordinator_block(coords: CoordinatorSet, n: int, mc: int):
    """Row/col indices (global) of coordinator-coordinator edges."""
    rows, cols = [], []
    if coords.inter_mode == "full":
        for p in range(mc):
            for q in range(mc):
                if p != q:
                    rows.append(n + p)
                    cols.append(n + q)
    elif coords.inter_mode == "dynamic":
        f = coords.features.data.astype(np.float64)
        nrm = np.linalg.norm(f, axis=1)
        zero = nrm == 0
        if zero.any():
            warnings.warn("zero coordinator feature vector: similarity undefined, "
                          "treated as not connected")
        for p in range(mc):
            for q in range(p + 1, mc):
                if zero[p] or zero[q]:
                    continue
                cossim = float(f[p] @ f[q]) / (nrm[p] * nrm[q])
                if cossim >= coords.dynamic_threshold:
                    rows += [n + p, n + q]
                    cols += [n + q, n + p]
    elif coords.inter_mode != "none":
        raise errors.InvalidArgument(f"unknown inter_mode {coords.inter_mode!r}")
    if coords.self_loops:
        for p in range(mc):
            rows.append(n + p)
            cols.append(n + p)
    return (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))


def refresh_dynamic_edges(jg: JointGraph, coords: CoordinatorSet) -> JointGraph:
    """Rewire coordinator-coordinator edges from current feature cosine similarity."""
    if coords.inter_mode != "dynamic":
        raise errors.InvalidArgument("refresh_dynamic_edges requires inter_mode='dynamic'")
    n, mc = jg.num_ordinary, jg.num_coordinators
    adj = jg.adjacency.tolil(copy=True)
    adj[n:, n:] = 0
    rows, cols = _coordinator_block(coords, n, mc)
    for r, c_ in zip(rows, cols):
        adj[r, c_] = 1.0
    jg.adjacency = adj.tocsr()
    jg.adjacency.eliminate_zeros()
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
    n = jg.num_ordinary
    out = []
    for k in range(batch_size):
        rng = np.random.default_rng([rng_seed, epoch, k])
        center = int(rng.integers(n))
        out.append(bfs_ball(jg.adjacency, center, hops))
    return out


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
