"""Independent reference implementations used only to check the library.

Everything here is deliberately brute-force and written without reusing
library internals: cyclic Jacobi eigensolver, dense joint-adjacency
materialization, loop-based losses, scalar Adam, np.add.at row sums,
the per-graph subset mean, diagonal-matrix GCN normalisation, Floyd-Warshall distances, central finite
differences. The diagonal-mask NT-Xent, the sparse product, the matmul, add
and activation chain, the subtract, square and mean chain and the gather
chains are the exceptions: they are built from the library's tape ops, so
that their gradients can be compared byte for byte.
"""

import numpy as np
import scipy.sparse as sp

from gcope.autodiff import Tensor, gather_rows, logsumexp_rows, mse, normalize_rows


def jacobi_eigh(a: np.ndarray, sweeps: int = 100, tol: float = 1e-13):
    """Cyclic Jacobi for a symmetric matrix; eigenvalues descending."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sum(a ** 2) - np.sum(np.diag(a) ** 2)
        if off < tol ** 2 * max(np.sum(a ** 2), 1e-300):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                with np.errstate(over="ignore"):
                    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:
                    with np.errstate(over="ignore"):
                        t = 0.0 if np.isinf(theta) else 1.0 / (2.0 * theta)
                else:
                    t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                jp, jq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * jp - s * jq
                a[:, q] = s * jp + c * jq
                jp, jq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * jp - s * jq
                a[q, :] = s * jp + c * jq
                jp, jq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * jp - s * jq
                v[:, q] = s * jp + c * jq
    w = np.diag(a).copy()
    order = np.argsort(-w)
    return w[order], v[:, order]


def svd_truncation_error(x: np.ndarray, k: int) -> float:
    """Eckart-Young optimum via Jacobi on x^T x."""
    w, _ = jacobi_eigh(x.T @ x)
    w = np.maximum(w, 0.0)
    return float(np.sqrt(np.sum(w[k:])))


def dense_joint_adjacency(adjacencies, sizes, c, inter_mode, self_loops):
    """Literal dense materialization of the block joint adjacency."""
    m = len(sizes)
    n = sum(sizes)
    total = n + m * c
    a = np.zeros((total, total))
    ofs = 0
    for blk, sz in zip(adjacencies, sizes):
        a[ofs:ofs + sz, ofs:ofs + sz] = np.asarray(blk.todense())
        ofs += sz
    # indicator rows: coordinator t of dataset i covers exactly block i (the
    # paper's prose semantics; its printed index form is off by one block)
    for i in range(m):
        lo = sum(sizes[:i])
        for t in range(c):
            cid = n + i * c + t
            for j in range(lo, lo + sizes[i]):
                a[cid, j] = 1
                a[j, cid] = 1
    if inter_mode == "full":
        for p in range(m * c):
            for q in range(m * c):
                if p != q:
                    a[n + p, n + q] = 1
    if self_loops:
        for p in range(m * c):
            a[n + p, n + p] = 1
    return a


def brute_nt_xent(anchors: np.ndarray, positives: np.ndarray, tau: float) -> float:
    """Loop-based NT-Xent with cosine similarity and in-batch positives."""
    b = anchors.shape[0]
    za = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
    zp = positives / np.linalg.norm(positives, axis=1, keepdims=True)
    total = 0.0
    for i in range(b):
        sims = np.array([za[i] @ zp[j] / tau for j in range(b)])
        total += -np.log(np.exp(sims[i]) / np.sum(np.exp(sims)))
    return total / b


def eye_mask_nt_xent(anchors: Tensor, positives: Tensor, tau: float) -> Tensor:
    """NT-Xent as pretraining computed it before it went through
    `softmax_cross_entropy`: each row's log-sum-exp minus its diagonal
    similarity, picked out by an identity mask."""
    sims = (normalize_rows(anchors) @ normalize_rows(positives).T) * (1.0 / tau)
    diag = (sims * Tensor(np.eye(sims.shape[0], dtype=sims.data.dtype))) \
        .sum(axis=1, keepdims=True)
    return (logsumexp_rows(sims) - diag).mean()


def affine_chain(x: Tensor, w: Tensor, b: Tensor, activation=None) -> Tensor:
    """activation(x @ w + b) as the layers computed it before `dense`: a matmul,
    an add and an activation op, each keeping its own output on the tape."""
    s = x @ w + b
    if activation == "tanh":
        return s.tanh()
    if activation == "relu":
        def bwd(g):
            s._accum(g * (s.data > 0))
        return Tensor(np.maximum(s.data, 0), parents=(s,), backward=bwd)
    return s


def sparse_product(a, t: Tensor) -> Tensor:
    """a @ t for a constant sparse `a`, as a GCN layer computed it before it was
    one `spmm`: a product op that keeps its output on the tape."""
    def bwd(g):
        t._accum(a.T @ g)
    return Tensor(a @ t.data, parents=(t,), backward=bwd)


def mse_chain(pred: Tensor, target: Tensor) -> Tensor:
    """The mean squared error as the subtract, square and mean ops computed it
    before `mse` was one op."""
    return (pred - target).square().mean()


def masked_gather(t: Tensor, idx: np.ndarray, mask: np.ndarray) -> Tensor:
    """A masked view's input as it was computed before the mask went into
    `gather_rows`: a gather op and a product op, each keeping its output."""
    return gather_rows(t, idx) * Tensor(mask)


def gather_forward(encoder, x: Tensor, operator, rows: np.ndarray) -> Tensor:
    """An encoder on x[rows] as it ran before the encoders took `rows`: a gather
    op that keeps its output, then the forward."""
    return encoder.forward(gather_rows(x, rows), operator)


def gather_encode_view(encoder, features: Tensor, view, operator) -> Tensor:
    """A view's embeddings as pretraining computed them before the encoder read
    the view's rows itself: a gather, a product with the mask, then the forward."""
    x = gather_rows(features, view.nodes)
    if view.feature_mask is not None:
        x = x * Tensor(view.feature_mask.astype(x.dtype))
    return encoder.forward(x, operator)


def gather_reconstruction_loss(decoder, embeddings: Tensor, targets: Tensor,
                               rows=None) -> Tensor:
    """The reconstruction loss as it was computed before the decoder read its
    rows itself: a gather of the embeddings, then the decoder and the MSE."""
    if rows is not None:
        embeddings = gather_rows(embeddings, rows)
    return mse(decoder.forward(embeddings), targets)


def add_at_row_sum(rows: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """out[r] = sum of rows[k] with idx[k] == r, added one k at a time."""
    out = np.zeros((n_rows,) + rows.shape[1:], dtype=rows.dtype)
    np.add.at(out, idx, rows)
    return out


def subset_mean(embeddings: np.ndarray, subset) -> np.ndarray:
    """The mean of the rows in `subset`, computed the way the per-graph
    readout did before batching: sorted rows summed along axis 0, then one
    product with 1/count in float64."""
    idx = np.unique(np.asarray(subset, dtype=np.int64))
    return embeddings[idx].sum(axis=0) * np.float64(1.0 / idx.size)


def diags_gcn_normalize(adj):
    """D^-1/2 (A + I) D^-1/2 as two products with a sparse diagonal matrix,
    with the degrees of the binary A + I."""
    n = adj.shape[0]
    a = (adj + sp.eye(n, format="csr", dtype=adj.dtype)).tocsr()
    a.data = np.minimum(a.data, 1.0)
    d = sp.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
    return (d @ a @ d).tocsr()


def brute_mse(pred: np.ndarray, target: np.ndarray) -> float:
    total = 0.0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            total += (pred[i, j] - target[i, j]) ** 2
    return total / (pred.shape[0] * pred.shape[1])


def scalar_adam_trajectory(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference scalar Adam; returns the parameter after each step."""
    x, m, v = float(x0), 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
        out.append(x)
    return out


def floyd_warshall(adj_dense: np.ndarray) -> np.ndarray:
    n = adj_dense.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[adj_dense > 0] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar f w.r.t. array x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / denom)
