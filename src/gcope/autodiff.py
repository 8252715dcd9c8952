"""Minimal reverse-mode autodiff over dense numpy arrays.

Tensors form a DAG. `backward()` on a scalar walks it in reverse
topological order and frees it on the way, so a graph can be
backpropagated once and afterwards only leaves (such as `Param`s) hold a
`.grad`. Tensors made under `no_grad()` record no graph. Sparse matrices
enter as constants (adjacencies through `spmm`; the row sums behind
`gather_rows`' backward and `scatter_add_rows`' forward, as products with
the transpose of a 0/1 selector whose row k holds a 1 in column idx[k]), or
in `edge_spmm` as a constant structure whose data is a tensor. SciPy adds a
CSR or CSC product's terms in stored order, k = 0, 1, ...: `np.add.at`'s
order. So selector row sums (exact products by 1) equal its sequential ones
bit for bit. An affine layer is one `dense` op and a GCN layer one `spmm` op
that recomputes its a @ x in backward; given `rows`, either reads x[rows] itself.
`tape_arrays` reads what a tape keeps off its tensors and backward closures, so
ops declare nothing. The op set is exactly what the layers and losses need.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from . import errors


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _backpropagated(_g):
    raise errors.InvalidArgument("graph was already backpropagated")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")
    _recording = True    # False inside no_grad()

    def __init__(self, data, requires_grad=False, parents=(), backward=None, name=""):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad or (
            Tensor._recording and any(p.requires_grad for p in parents))
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}, name={self.name!r})"

    # ---- graph walk ----

    def backward(self):
        if self.data.ndim != 0 and self.data.size != 1:
            raise errors.ShapeMismatch("backward() requires a scalar loss")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _backpropagated, ()

    def _accum(self, g):
        """Add `g` to this tensor's gradient.

        The first gradient is kept without a copy, so several tensors may
        hold the same (possibly read-only) array. That is safe because
        gradients are never written in place: this method rebinds
        `self.grad`, `backward` drops an intermediate's gradient once it has
        been passed on, and `Adam.step` only reads a leaf's.
        """
        g = np.asarray(g)
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=False).reshape(self.data.shape)
        else:
            self.grad = self.grad + g.reshape(self.data.shape)

    def zero_grad(self):
        self.grad = None

    # ---- elementwise arithmetic ----

    def __add__(self, other):
        other = as_tensor(other)

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))
        return Tensor(self.data + other.data, parents=(self, other), backward=bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(g):
            self._accum(-g)
        return Tensor(-self.data, parents=(self,), backward=bwd)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))
        return Tensor(self.data * other.data, parents=(self, other), backward=bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-g * self.data / other.data ** 2,
                                          other.data.shape))
        return Tensor(self.data / other.data, parents=(self, other), backward=bwd)

    def __matmul__(self, other):
        other = as_tensor(other)

        def bwd(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ g)
        return Tensor(self.data @ other.data, parents=(self, other), backward=bwd)

    # ---- unary ----

    def tanh(self):
        t = np.tanh(self.data)

        def bwd(g):
            self._accum(g * (1.0 - t * t))
        return Tensor(t, parents=(self,), backward=bwd)

    def exp(self):
        e = np.exp(self.data)

        def bwd(g):
            self._accum(g * e)
        return Tensor(e, parents=(self,), backward=bwd)

    def log(self):
        def bwd(g):
            self._accum(g / self.data)
        return Tensor(np.log(self.data), parents=(self,), backward=bwd)

    def sqrt(self):
        r = np.sqrt(self.data)

        def bwd(g):
            self._accum(g * 0.5 / r)
        return Tensor(r, parents=(self,), backward=bwd)

    def square(self):
        return self * self

    @property
    def T(self):
        def bwd(g):
            self._accum(g.T)
        return Tensor(self.data.T, parents=(self,), backward=bwd)

    def reshape(self, *shape):
        def bwd(g):
            self._accum(g.reshape(self.data.shape))
        return Tensor(self.data.reshape(*shape), parents=(self,), backward=bwd)

    # ---- reductions ----

    def sum(self, axis=None, keepdims=False):
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))
        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,),
                      backward=bwd)

    def mean(self):
        return self.sum() * (1.0 / self.data.size)


class Param(Tensor):
    """Learnable tensor; always participates in the grad graph."""

    def __init__(self, data, name=""):
        super().__init__(np.asarray(data), requires_grad=True, name=name)


@contextmanager
def no_grad():
    """Tensors made inside the block record no parents and no closure."""
    outer, Tensor._recording = Tensor._recording, False
    try:
        yield
    finally:
        Tensor._recording = outer


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def tape_arrays(roots) -> list[np.ndarray]:
    """The distinct arrays the tapes of `roots` keep: each reachable tensor's data, and
    each array, sparse matrix (data, indices, indptr), tensor or nested function that a
    `_backward` closure holds. A view counts as its base. Ops declare nothing."""
    arrays, seen, stack = {}, set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            stack += [obj.data, *obj._parents, obj._backward]
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            arrays[id(obj)] = obj
        elif sp.issparse(obj):
            stack += [obj.data, obj.indices, obj.indptr]
        else:
            stack += [c.cell_contents for c in getattr(obj, "__closure__", None) or ()]
    return list(arrays.values())


# ---- structural ops ----

def concat_rows(tensors: list[Tensor]) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]

    def bwd(g):
        ofs = 0
        for t in tensors:
            n = t.data.shape[0]
            if t.requires_grad:
                t._accum(g[ofs:ofs + n])
            ofs += n
    return Tensor(np.concatenate([t.data for t in tensors], axis=0),
                  parents=tuple(tensors), backward=bwd)


def _in_range(idx: np.ndarray, n: int) -> np.ndarray:
    """idx as an array; raises IndexError unless 0 <= idx < n."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row index out of range [0, {n})")
    return idx


def _selector(idx: np.ndarray, n: int, dtype) -> sp.csr_matrix:
    """The len(idx) x n 0/1 matrix whose row k has its 1 in column idx[k]."""
    idx = _in_range(idx, n)
    return sp.csr_matrix((np.ones(idx.size, dtype=dtype), idx, np.arange(idx.size + 1)),
                         shape=(idx.size, n))


def gather_rows(t: Tensor, idx: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """t's rows idx, times a constant 0/1 `mask` of their shape if one is given. The
    mask is applied in place and kept as bools, so the op keeps one array and a byte
    an entry: bit-identical, gradient too, to gather_rows(t, idx) * Tensor(mask)."""
    t = as_tensor(t)
    idx = np.asarray(idx)
    out = t.data[idx]
    if mask is not None:
        mask = np.asarray(mask) != 0
        out *= mask

    def bwd(g):
        if mask is not None:
            g = g * mask
        t._accum(_selector(idx, t.data.shape[0], g.dtype).T @ g)
    return Tensor(out, parents=(t,), backward=bwd)


def scatter_add_rows(t: Tensor, idx: np.ndarray, n_rows: int) -> Tensor:
    """out[r] = sum of rows k with idx[k] == r."""
    t = as_tensor(t)
    idx = np.asarray(idx)

    def bwd(g):
        t._accum(g[idx])
    return Tensor(_selector(idx, n_rows, t.data.dtype).T @ t.data, parents=(t,),
                  backward=bwd)


def edge_spmm(indptr: np.ndarray, cols: np.ndarray, w: Tensor, h: Tensor) -> Tensor:
    """A_w @ h for the CSR matrix A_w with structure (indptr, cols) and data w,
    an E x 1 tensor. Bit-identical, gradients too, to scatter_add_rows(
    gather_rows(h, cols) * w, rows, n), but keeps no E x hidden array: h's
    gradient is A_w.T @ g, and w's the row sums of g[rows] * h[cols]."""
    w, h = as_tensor(w), as_tensor(h)
    a = sp.csr_matrix((w.data.ravel(), cols, indptr), shape=(indptr.size - 1, h.shape[0]))

    def bwd(g):
        if h.requires_grad:
            h._accum(a.T @ g)
        if w.requires_grad:
            rows = np.repeat(np.arange(a.shape[0]), np.diff(indptr))
            w._accum((g[rows] * h.data[cols]).sum(axis=1, keepdims=True))
    return Tensor(a @ h.data, parents=(w, h), backward=bwd)


def _affine(a: sp.csr_matrix | None, x: Tensor, w: Tensor, b: Tensor,
            activation: str | None, rows: np.ndarray | None = None) -> Tensor:
    """activation((a @ x) @ w + b), activation "relu", "tanh" or None, for a constant
    sparse `a` or, with `a` None, activation(x @ w + b); with `rows`, of x[rows]. It
    keeps only x and the output, off which the backward reads the derivative, and
    recomputes a @ x and x[rows] for w's gradient. Bit-identical, gradients too, to
    the gather, sparse product, matmul, add and activation chain: it casts where
    their `_accum`s do."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)

    def read():
        xr = x.data if rows is None else x.data[rows]
        return xr if a is None else a @ xr
    ax = read()
    ax_dtype, g_dtype = ax.dtype, np.result_type(ax, w.data)
    out = (ax @ w.data).astype(np.result_type(ax, w.data, b.data), copy=False)
    out += b.data   # in place: under no_grad the caller's x is still alive here
    if activation == "relu":
        np.maximum(out, 0, out=out)
    elif activation == "tanh":
        np.tanh(out, out=out)

    def bwd(g):
        if activation == "relu":
            g = (g * (out > 0)).astype(out.dtype, copy=False)
        elif activation == "tanh":
            g = (g * (1.0 - out * out)).astype(out.dtype, copy=False)
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))
        g = g.astype(g_dtype, copy=False)
        if x.requires_grad:
            gx = g @ w.data.T
            if a is not None:
                gx = a.T @ gx.astype(ax_dtype, copy=False)
            if rows is not None:
                gx = _selector(rows, x.data.shape[0], ax_dtype).T @ gx.astype(ax_dtype, copy=False)
            x._accum(gx)
        if w.requires_grad:
            w._accum(read().T @ g)
    return Tensor(out, parents=(x, w, b), backward=bwd)


def spmm(a: sp.csr_matrix, x: Tensor, w: Tensor, b: Tensor,
         activation: str | None = None, rows: np.ndarray | None = None) -> Tensor:
    """A GCN layer, activation((a @ x) @ w + b), as one op that keeps no a @ x. With
    `rows`, the layer on x[rows] through a with column j read as rows[j]: it adds each
    product's terms in a's stored order, so is bit-identical to a gather of x first."""
    if rows is not None:
        cols = _in_range(rows, x.shape[0])[a.indices]
        a = sp.csr_matrix((a.data, cols, a.indptr), shape=(a.shape[0], x.shape[0]))
    return _affine(a, x, w, b, activation)


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str | None = None,
          rows: np.ndarray | None = None) -> Tensor:
    """An affine layer, activation(x @ w + b), as one op. With `rows`, the layer
    on x[rows], which it reads again in backward rather than keep: bit-identical,
    gradients too, to a gather of x first."""
    rows = None if rows is None else _in_range(rows, x.shape[0])
    return _affine(None, x, w, b, activation, rows)


# ---- composites ----

def logsumexp_rows(t: Tensor) -> Tensor:
    """Row-wise log-sum-exp, max-shifted for stability (shift is detached)."""
    m = t.data.max(axis=1, keepdims=True)
    shifted = t - Tensor(m)
    return shifted.exp().sum(axis=1, keepdims=True).log() + Tensor(m)

def softmax_rows(t: Tensor) -> Tensor:
    m = t.data.max(axis=1, keepdims=True)
    e = (t - Tensor(m)).exp()
    return e / e.sum(axis=1, keepdims=True)


def normalize_rows(t: Tensor) -> Tensor:
    """Rows scaled to unit Euclidean norm. Raises on (near-)zero rows."""
    sq = t.square().sum(axis=1, keepdims=True)
    if (sq.data <= 1e-24).any():
        raise errors.ZeroEmbedding("cannot normalize a zero row")
    return t / sq.sqrt()


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error against a constant target, keeping only pred - target.
    Bit-identical, gradient too, to (pred - target).square().mean()."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise errors.ShapeMismatch(
            f"mse shapes differ: {pred.data.shape} vs {target.data.shape}")
    if target.requires_grad:
        raise errors.InvalidArgument("mse takes its target as a constant")
    diff = pred.data - target.data
    scale = np.asarray(1.0 / diff.size)

    def bwd(g):
        half = (g * scale).astype(diff.dtype) * diff
        pred._accum(half + half)   # square's two `_accum`s
    return Tensor(np.asarray((diff * diff).sum()) * scale, parents=(pred,), backward=bwd)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of row-wise softmax against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    lse = logsumexp_rows(logits)                      # B x 1
    # select the label logit per row via a 0/1 mask
    mask = np.zeros_like(logits.data)
    mask[np.arange(labels.shape[0]), labels] = 1.0
    label_logit = (logits * Tensor(mask)).sum(axis=1, keepdims=True)
    return (lse - label_logit).mean()
