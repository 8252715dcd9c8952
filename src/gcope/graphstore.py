"""Graph dataset loading, synthesis, and statistics.

On-disk dataset directory format (all UTF-8 text, LF endings):
    meta.tsv      key<TAB>value lines: name, num_nodes, num_classes, feature_dim
    features.tsv  one node per line, feature_dim tab-separated reals
    edges.tsv     one undirected edge per line: u<TAB>v
    labels.tsv    one integer label per line (-1 = unlabeled)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import errors

_FILES = ("meta.tsv", "features.tsv", "edges.tsv", "labels.tsv")


@dataclass
class GraphDataset:
    """One source or target graph held fully in memory.

    `edges` stores each undirected edge once as (min(u,v), max(u,v));
    `adjacency` is the symmetric binary CSR matrix derived from it.
    """

    name: str
    features: np.ndarray          # |V| x d, float32
    edges: np.ndarray             # m x 2 undirected pairs, int64
    labels: np.ndarray            # |V|, int64, -1 = unlabeled
    num_classes: int
    adjacency: sp.csr_matrix = field(repr=False, default=None)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 2:
            raise errors.ShapeMismatch("features must be 2-D")
        if not np.isfinite(self.features).all():
            raise errors.NonFiniteFeature(f"{self.name}: non-finite feature entry")
        n = self.features.shape[0]
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if self.edges.size:
            if self.edges.min() < 0 or self.edges.max() >= n:
                raise errors.IndexOutOfRange(
                    f"{self.name}: edge endpoint outside [0, {n})")
            if (self.edges[:, 0] == self.edges[:, 1]).any():
                raise errors.InvalidArgument(f"{self.name}: self-loop in edge list")
            self.edges = np.unique(np.sort(self.edges, axis=1), axis=0)  # canonical, dedup
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (n,):
            raise errors.ShapeMismatch(
                f"{self.name}: {self.labels.shape[0]} labels for {n} nodes")
        valid = (self.labels == -1) | ((self.labels >= 0) & (self.labels < self.num_classes))
        if not valid.all():
            raise errors.IndexOutOfRange(f"{self.name}: label outside [0, num_classes)")
        if self.adjacency is None:
            self.adjacency = edges_to_adjacency(self.edges, n)

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class DatasetMeta:
    node_count: int
    edge_count: int      # directed entries, i.e. 2x undirected edges
    feature_dim: int
    label_count: int
    homophily: float


def binary_adjacency(rows: np.ndarray, cols: np.ndarray, n: int) -> sp.csr_matrix:
    """Canonical float32 n x n CSR with a 1 at every (rows[k], cols[k]); a
    pair given more than once is stored once."""
    a = sp.csr_matrix((np.ones(len(rows), dtype=np.float32), (rows, cols)), shape=(n, n))
    a.data[:] = 1.0
    return a


def edges_to_adjacency(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """Symmetric binary CSR adjacency from an undirected edge list."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return binary_adjacency(np.concatenate([edges[:, 0], edges[:, 1]]),
                            np.concatenate([edges[:, 1], edges[:, 0]]), n)


def compute_homophily(g: GraphDataset) -> float:
    """Edge homophily ratio: fraction of undirected edges joining same-label endpoints."""
    if g.edges.shape[0] == 0:
        raise errors.NoEdges(f"{g.name}: homophily undefined without edges")
    lab = g.labels
    if (lab[g.edges.ravel()] == -1).any():
        raise errors.UnlabeledNode(f"{g.name}: edge endpoint without a label")
    same = lab[g.edges[:, 0]] == lab[g.edges[:, 1]]
    return float(same.sum()) / g.edges.shape[0]


def describe(g: GraphDataset) -> DatasetMeta:
    """Counts and homophily; homophily is nan where it is undefined."""
    try:
        homophily = compute_homophily(g)
    except (errors.NoEdges, errors.UnlabeledNode):
        homophily = float("nan")
    return DatasetMeta(
        node_count=g.num_nodes,
        edge_count=2 * g.edges.shape[0],
        feature_dim=g.feature_dim,
        label_count=g.num_classes,
        homophily=homophily,
    )


SYNTH_AVG_DEGREE = 4.0   # target mean degree of a synthetic graph
SYNTH_MEAN_SCALE = 3.0   # std of the per-class feature means


def synth_dataset(n: int, c: int, d: int, target_h: float, seed: int) -> GraphDataset:
    """Stochastic generator with controllable edge homophily.

    Labels are assigned round-robin; each candidate edge is intra-class with
    probability `target_h`. Class features are isotropic Gaussians with
    per-class means drawn from the seed. Deterministic for fixed arguments.
    """
    if c < 2 or n < c:
        raise errors.InvalidArgument(f"need n >= c >= 2, got n={n}, c={c}")
    if not (0.0 <= target_h <= 1.0):
        raise errors.InvalidArgument(f"target_h must be in [0,1], got {target_h}")
    rng = np.random.default_rng([seed, n, c, d])
    labels = np.arange(n, dtype=np.int64) % c
    by_class = [np.flatnonzero(labels == k) for k in range(c)]
    multi = [k for k in range(c) if by_class[k].size >= 2]

    target_edges = max(n // 2, int(round(SYNTH_AVG_DEGREE * n / 2)))
    edges = set()   # (min(u, v), max(u, v))

    def try_add(u, v):
        key = (min(u, v), max(u, v))
        if u == v or key in edges:
            return False
        edges.add(key)
        return True

    attempts = 0
    while len(edges) < target_edges and attempts < 50 * target_edges:
        attempts += 1
        intra = rng.random() < target_h
        if intra:
            if not multi:
                continue
            k = multi[rng.integers(len(multi))]
            u, v = rng.choice(by_class[k], size=2, replace=False)
        else:
            u = int(rng.integers(n))
            others = np.flatnonzero(labels != labels[u])
            if others.size == 0:
                continue
            v = int(others[rng.integers(others.size)])
        try_add(int(u), int(v))

    # every node needs degree >= 1
    deg = np.bincount(np.array(list(edges), dtype=np.int64).ravel(), minlength=n)
    for u in np.flatnonzero(deg == 0):
        intra = rng.random() < target_h
        pool = by_class[labels[u]] if intra else np.flatnonzero(labels != labels[u])
        pool = pool[pool != u]
        if pool.size == 0:
            pool = np.flatnonzero(np.arange(n) != u)
        for _ in range(100):
            v = int(pool[rng.integers(pool.size)])
            if try_add(int(u), v):
                break

    means = rng.normal(0.0, SYNTH_MEAN_SCALE, size=(c, d))
    feats = means[labels] + rng.normal(0.0, 1.0, size=(n, d))
    return GraphDataset(name=f"synth_n{n}_c{c}_h{target_h:g}_s{seed}",
                        features=feats.astype(np.float32),
                        edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2),
                        labels=labels, num_classes=c)


def _fmt(x: float) -> str:
    """Shortest positional form that reads back as the same float32."""
    return np.format_float_positional(np.float32(x), unique=True, trim="0")


def write_dataset(g: GraphDataset, dir_path: str) -> None:
    os.makedirs(dir_path, exist_ok=True)
    meta, feats, edges, labels = (os.path.join(dir_path, f) for f in _FILES)
    with open(meta, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"name\t{g.name}\nnum_nodes\t{g.num_nodes}\n"
                f"num_classes\t{g.num_classes}\nfeature_dim\t{g.feature_dim}\n")
    with open(feats, "w", encoding="utf-8", newline="\n") as f:
        f.writelines("\t".join(map(_fmt, row)) + "\n" for row in g.features)
    np.savetxt(edges, g.edges, fmt="%d", delimiter="\t")
    np.savetxt(labels, g.labels, fmt="%d")


def _read_meta(path: str) -> tuple[str, int, int, int]:
    """name, num_nodes, feature_dim and num_classes from a meta.tsv."""
    try:
        with open(path, encoding="utf-8") as f:
            meta = dict(line.partition("\t")[::2] for line in f.read().split("\n") if line)
        return (meta["name"],
                *(int(meta[k]) for k in ("num_nodes", "feature_dim", "num_classes")))
    except KeyError as e:
        raise errors.IoError(f"{path}: missing key {e}") from None
    except ValueError as e:
        raise errors.IoError(f"{path}: {e}") from None


def _read_table(path: str, dtype, width: int, fixed: bool = True) -> np.ndarray:
    """The rows of a tab-separated file as a 2-D array. Each line is stripped
    of surrounding whitespace and skipped if that leaves nothing; without
    other lines the table is 0 x `width`. A field that does not parse, a row
    of another length than the first or, if `fixed`, rows not `width` fields
    long raise IoError."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(filter(None, map(str.strip, f)))
        table = (np.loadtxt(lines, dtype=dtype, delimiter="\t", ndmin=2, comments=None)
                 if lines else np.empty((0, width), dtype))
    except ValueError as e:
        raise errors.IoError(f"{path}: {e}") from None
    if fixed and table.shape[1] != width:
        raise errors.IoError(f"{path}: {table.shape[1]} fields per line, not {width}")
    return table


def load_dataset(dir_path: str) -> GraphDataset:
    """Read a dataset directory. The GraphDataset constructor validates the
    contents; this only checks the files' format and shape against meta.tsv."""
    paths = [os.path.join(dir_path, f) for f in _FILES]
    for fname, path in zip(_FILES, paths):
        if not os.path.isfile(path):
            raise errors.MissingFile(f"{dir_path}: missing {fname}")
    name, n, d, num_classes = _read_meta(paths[0])
    feats = _read_table(paths[1], np.float64, d, fixed=False)
    if feats.shape != (n, d):
        raise errors.ShapeMismatch(
            f"{dir_path}: {feats.shape[0]}x{feats.shape[1]} features, meta says {n}x{d}")
    return GraphDataset(name=name, features=feats, edges=_read_table(paths[2], np.int64, 2),
                        labels=_read_table(paths[3], np.int64, 1)[:, 0],
                        num_classes=num_classes)
