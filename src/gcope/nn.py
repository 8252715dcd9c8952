"""Encoders, reconstruction decoder, Adam optimizer, and mean graph readout."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import errors
from .autodiff import Param, Tensor, dense, edge_spmm, gather_rows, scatter_add_rows, spmm


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
           dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def gcn_normalize(adj: sp.csr_matrix) -> sp.csr_matrix:
    """D^-1/2 (A + I) D^-1/2 with degrees of (A + I)."""
    a = (adj + sp.eye(adj.shape[0], format="csr", dtype=adj.dtype)).tocsr()
    a.data = np.minimum(a.data, 1.0)  # keep binary if adj already had self-loops
    dinv = 1.0 / np.sqrt(np.add.reduceat(a.data, a.indptr[:-1]))  # no row is empty
    a.data = np.repeat(dinv, np.diff(a.indptr)) * a.data * dinv[a.indices]
    return a


class GcnEncoder:
    """Stack of GCN layers: H' = act(D^-1/2 (A+I) D^-1/2 H W + b), each one
    `spmm` op, so a layer keeps one nodes x width array, its output."""

    kind = "gcn"

    def __init__(self, dims: list[int], activation: str = "relu",
                 seed: int = 0, dtype=np.float32):
        if len(dims) < 2:
            raise errors.InvalidArgument("need at least input and output dims")
        if activation not in ("relu", "tanh"):
            raise errors.InvalidArgument(f"unknown activation {activation!r}")
        self.dims = list(dims)
        self.activation = activation
        rng = np.random.default_rng([seed, 0xE0C])
        self.weights = [Param(glorot(rng, dims[i], dims[i + 1], dtype=dtype),
                              name=f"gcn.w{i}") for i in range(len(dims) - 1)]
        self.biases = [Param(np.zeros(dims[i + 1], dtype=dtype), name=f"gcn.b{i}")
                       for i in range(len(dims) - 1)]

    @property
    def out_dim(self) -> int:
        return self.dims[-1]

    def params(self) -> list[Param]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out += [w, b]
        return out

    def prepare(self, adj: sp.csr_matrix) -> sp.csr_matrix:
        """A graph's constant operator for `forward`, built once per graph:
        its normalised adjacency in the parameters' dtype."""
        return gcn_normalize(adj.astype(self.weights[0].data.dtype, copy=False))

    def forward(self, x: Tensor, a_hat: sp.csr_matrix, rows=None) -> Tensor:
        """Embeddings of node features `x`, or with `rows` of x[rows], on the graph
        `prepare` gave `a_hat` for; layer 1 reads the rows itself, keeping no copy."""
        shape = x.shape if rows is None else (len(rows), x.shape[1])
        if shape != (a_hat.shape[0], self.dims[0]):
            raise errors.ShapeMismatch(f"encoder expects {a_hat.shape[0]} x "
                                       f"{self.dims[0]} features, got {shape}")
        h = x
        for w, b in zip(self.weights, self.biases):
            h, rows = spmm(a_hat, h, w, b, self.activation, rows), None
        if not np.isfinite(h.data).all():
            raise errors.NonFiniteActivation("encoder produced non-finite activations")
        return h


class FagcnEncoder:
    """Frequency-adaptive layers with gated signed edge weights.

    h0 = x @ W_in + b_in; each layer computes
    h_i' = eps * h0_i + sum_{j in N(i)} alpha_ij / sqrt(d_i d_j) * h_j
    with alpha_ij = tanh(g_top . h_i + g_bot . h_j) = tanh(g . [h_i || h_j]),
    where g_top and g_bot are the halves of the 2*hidden x 1 gate g. So the
    gate needs two node-level products, gathered to the edges, and the sum is
    one `edge_spmm`, so a layer keeps no edges x hidden array. The residual
    eps * h0 is formed once, in the parameters' dtype, so a float32 encoder
    returns float32.
    """

    kind = "fagcn"

    def __init__(self, in_dim: int, hidden: int = 100, num_layers: int = 2,
                 eps: float = 0.3, seed: int = 0, dtype=np.float32):
        if not (0.0 <= eps <= 1.0):
            raise errors.InvalidArgument("eps must lie in [0, 1]")
        self.in_dim, self.hidden, self.num_layers, self.eps = in_dim, hidden, num_layers, eps
        rng = np.random.default_rng([seed, 0xFA6])
        self.w_in = Param(glorot(rng, in_dim, hidden, dtype=dtype), name="fagcn.w_in")
        self.b_in = Param(np.zeros(hidden, dtype=dtype), name="fagcn.b_in")
        self.gates = [Param(glorot(rng, 2 * hidden, 1, dtype=dtype),
                            name=f"fagcn.g{i}") for i in range(num_layers)]

    @property
    def out_dim(self) -> int:
        return self.hidden

    def params(self) -> list[Param]:
        return [self.w_in, self.b_in] + list(self.gates)

    def prepare(self, adj: sp.csr_matrix) -> tuple:
        """A graph's constant operator for `forward`, built once per graph: `adj`'s
        indptr, each edge's row and col in CSR order (all of the CSR's index dtype,
        so no layer copies them), and 1/sqrt(d_i d_j) per edge as an E x 1 tensor."""
        indptr, cols = adj.indptr, adj.indices
        rows = np.repeat(np.arange(adj.shape[0], dtype=cols.dtype), np.diff(indptr))
        deg = np.asarray(adj.sum(axis=1)).ravel()
        coef = (1.0 / np.sqrt(deg[rows] * deg[cols])).reshape(-1, 1)
        return indptr, rows, cols, Tensor(coef.astype(self.w_in.data.dtype))

    def forward(self, x: Tensor, operator: tuple, rows=None) -> Tensor:
        """Embeddings of node features `x`, or with `rows` of x[rows], on the graph
        `prepare` gave `operator` for; the input layer reads the rows itself."""
        indptr, edge_rows, cols, coef = operator
        n = indptr.size - 1
        shape = x.shape if rows is None else (len(rows), x.shape[1])
        if shape != (n, self.in_dim):
            raise errors.ShapeMismatch(
                f"encoder expects {n} x {self.in_dim} features, got {shape}")
        h0 = dense(x, self.w_in, self.b_in, rows=rows)
        residual = h0 * Tensor(np.asarray(self.eps, dtype=h0.dtype))
        top, bottom = np.arange(self.hidden), np.arange(self.hidden, 2 * self.hidden)
        h = h0
        for g in self.gates:
            alpha = (gather_rows(h @ gather_rows(g, top), edge_rows)
                     + gather_rows(h @ gather_rows(g, bottom), cols)).tanh()  # E x 1
            h = residual + edge_spmm(indptr, cols, alpha * coef, h)
        if not np.isfinite(h.data).all():
            raise errors.NonFiniteActivation("encoder produced non-finite activations")
        return h


# the checkpoint's architecture record: make_encoder's first six parameters
ARCHITECTURE = ("enc_kind", "d_p", "hidden", "num_layers", "activation", "fagcn_eps")


def make_encoder(enc_kind: str, d_p: int, hidden: int = 100, num_layers: int = 2,
                 activation: str = "relu", fagcn_eps: float = 0.3, seed: int = 0,
                 dtype=np.float32):
    """An encoder from `d_p` projected input dims to `hidden` output dims."""
    if hidden < 1:
        raise errors.InvalidArgument(f"hidden must be >= 1, got {hidden}")
    if enc_kind == "gcn":
        dims = [d_p] + [hidden] * num_layers
        return GcnEncoder(dims, activation=activation, seed=seed, dtype=dtype)
    if enc_kind == "fagcn":
        return FagcnEncoder(d_p, hidden=hidden, num_layers=num_layers,
                            eps=fagcn_eps, seed=seed, dtype=dtype)
    raise errors.InvalidArgument(f"unknown encoder kind {enc_kind!r}")


class MlpDecoder:
    """Two `dense` layers d_emb -> hidden -> d_out with relu between. Given
    `rows`, the first reads h[rows] itself, keeping no copy."""

    def __init__(self, d_emb: int, hidden: int, d_out: int, seed: int = 0,
                 dtype=np.float32):
        rng = np.random.default_rng([seed, 0xDEC])
        self.d_emb, self.hidden, self.d_out = d_emb, hidden, d_out
        self.w1 = Param(glorot(rng, d_emb, hidden, dtype=dtype), name="dec.w1")
        self.b1 = Param(np.zeros(hidden, dtype=dtype), name="dec.b1")
        self.w2 = Param(glorot(rng, hidden, d_out, dtype=dtype), name="dec.w2")
        self.b2 = Param(np.zeros(d_out, dtype=dtype), name="dec.b2")

    def params(self) -> list[Param]:
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, h: Tensor, rows=None) -> Tensor:
        return dense(dense(h, self.w1, self.b1, "relu", rows), self.w2, self.b2)


class Adam:
    """Bias-corrected Adam; zeroes grads after each step."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Param], lr: float = 1e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            g = g.astype(p.data.dtype, copy=False)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.t)
            vhat = self.v[i] / (1 - b2 ** self.t)
            with np.errstate(invalid="ignore", over="ignore"):
                p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)
            if not np.isfinite(p.data).all():
                raise errors.NonFiniteUpdate(f"param {p.name!r} has non-finite entries")
            p.zero_grad()


def graph_readout(embeddings: Tensor, offsets) -> Tensor:
    """Mean embedding of each graph in a batch, one row per graph: graph b is
    rows offsets[b]:offsets[b + 1]. Each graph's rows are summed in order, so
    its mean is bit-identical to the mean of those rows alone."""
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    if sizes.size == 0 or sizes.min() < 1:
        raise errors.EmptySubset("readout over an empty graph")
    if offsets[0] != 0 or offsets[-1] != embeddings.shape[0]:
        raise errors.IndexOutOfRange(f"offsets do not span {embeddings.shape[0]} rows")
    segment = np.repeat(np.arange(sizes.size), sizes)
    return scatter_add_rows(embeddings, segment, sizes.size) * (1.0 / sizes[:, None])
