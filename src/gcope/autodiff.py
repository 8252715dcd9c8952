"""Minimal reverse-mode autodiff over dense numpy arrays.

Tensors form a DAG; `backward()` on a scalar walks it in reverse
topological order. Sparse matrices enter only as constants: adjacencies
through `spmm`, and the row sums behind `gather_rows`' backward and
`scatter_add_rows`' forward as products with a constant 0/1 CSR matrix.
That matrix lists each output row's source rows in ascending order (a
stable argsort of the index), and SciPy adds a row's terms in that order
with exact multiplications by 1, so the sums are bit-identical to
`np.add.at`'s sequential ones. The op set is exactly what the encoders,
decoder, and losses need; nothing more.
"""

from __future__ import annotations

import math

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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, name=""):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
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
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def _accum(self, g):
        """Add `g` to this tensor's gradient.

        The first gradient is kept without a copy, so several tensors may
        hold the same (possibly read-only) array. That is safe because
        gradients are never written in place: this method rebinds
        `self.grad`, and `Adam.step` only reads it.
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
        out = Tensor(self.data + other.data, parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))
        out._backward = bwd if out.requires_grad else None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, parents=(self,))

        def bwd(g):
            self._accum(-g)
        out._backward = bwd if out.requires_grad else None
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))
        out._backward = bwd if out.requires_grad else None
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data / other.data, parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-g * self.data / other.data ** 2,
                                          other.data.shape))
        out._backward = bwd if out.requires_grad else None
        return out

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ g)
        out._backward = bwd if out.requires_grad else None
        return out

    # ---- unary ----

    def relu(self):
        out = Tensor(np.maximum(self.data, 0), parents=(self,))

        def bwd(g):
            self._accum(g * (self.data > 0))
        out._backward = bwd if out.requires_grad else None
        return out

    def tanh(self):
        t = np.tanh(self.data)
        out = Tensor(t, parents=(self,))

        def bwd(g):
            self._accum(g * (1.0 - t * t))
        out._backward = bwd if out.requires_grad else None
        return out

    def exp(self):
        e = np.exp(self.data)
        out = Tensor(e, parents=(self,))

        def bwd(g):
            self._accum(g * e)
        out._backward = bwd if out.requires_grad else None
        return out

    def log(self):
        out = Tensor(np.log(self.data), parents=(self,))

        def bwd(g):
            self._accum(g / self.data)
        out._backward = bwd if out.requires_grad else None
        return out

    def sqrt(self):
        r = np.sqrt(self.data)
        out = Tensor(r, parents=(self,))

        def bwd(g):
            self._accum(g * 0.5 / r)
        out._backward = bwd if out.requires_grad else None
        return out

    def square(self):
        return self * self

    @property
    def T(self):
        out = Tensor(self.data.T, parents=(self,))

        def bwd(g):
            self._accum(g.T)
        out._backward = bwd if out.requires_grad else None
        return out

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), parents=(self,))

        def bwd(g):
            self._accum(g.reshape(self.data.shape))
        out._backward = bwd if out.requires_grad else None
        return out

    # ---- reductions ----

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,))

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))
        out._backward = bwd if out.requires_grad else None
        return out

    def mean(self, axis=None, keepdims=False):
        denom = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)


class Param(Tensor):
    """Learnable tensor; always participates in the grad graph."""

    def __init__(self, data, name=""):
        super().__init__(np.asarray(data), requires_grad=True, name=name)

    def check_finite(self):
        if not np.isfinite(self.data).all():
            raise errors.NonFiniteUpdate(f"param {self.name!r} has non-finite entries")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


# ---- structural ops ----

def concat_rows(tensors: list[Tensor]) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=0), parents=tuple(tensors))

    def bwd(g):
        ofs = 0
        for t in tensors:
            n = t.data.shape[0]
            if t.requires_grad:
                t._accum(g[ofs:ofs + n])
            ofs += n
    out._backward = bwd if out.requires_grad else None
    return out


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(np.concatenate([a.data, b.data], axis=1), parents=(a, b))
    na = a.data.shape[1]

    def bwd(g):
        if a.requires_grad:
            a._accum(g[:, :na])
        if b.requires_grad:
            b._accum(g[:, na:])
    out._backward = bwd if out.requires_grad else None
    return out


def _sum_rows(rows: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """out[r] = sum of rows[k] over k with idx[k] == r, bit-identical to
    `np.add.at` into zeros of rows' dtype (see the module docstring).

    Raises IndexError unless 0 <= idx < n_rows.
    """
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise IndexError(f"row index out of range [0, {n_rows})")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=n_rows), out=indptr[1:])
    ones = sp.csr_matrix((np.ones(idx.size, dtype=rows.dtype),
                          np.argsort(idx, kind="stable"), indptr),
                         shape=(n_rows, idx.size))
    flat = rows.reshape(idx.size, math.prod(rows.shape[1:]))
    return (ones @ flat).reshape((n_rows,) + rows.shape[1:])


def gather_rows(t: Tensor, idx: np.ndarray) -> Tensor:
    t = as_tensor(t)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(t.data[idx], parents=(t,))

    def bwd(g):
        t._accum(_sum_rows(g, idx, t.data.shape[0]))
    out._backward = bwd if out.requires_grad else None
    return out


def scatter_add_rows(t: Tensor, idx: np.ndarray, n_rows: int) -> Tensor:
    """out[r] = sum of rows k with idx[k] == r."""
    t = as_tensor(t)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(_sum_rows(t.data, idx, n_rows), parents=(t,))

    def bwd(g):
        t._accum(g[idx])
    out._backward = bwd if out.requires_grad else None
    return out


def spmm(a: sp.csr_matrix, t: Tensor) -> Tensor:
    """Constant sparse matrix times dense tensor."""
    t = as_tensor(t)
    out = Tensor(a @ t.data, parents=(t,))

    def bwd(g):
        t._accum(a.T @ g)
    out._backward = bwd if out.requires_grad else None
    return out


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


def normalize_rows(t: Tensor, eps: float = 0.0) -> Tensor:
    """Rows scaled to unit Euclidean norm. Raises on (near-)zero rows."""
    sq = t.square().sum(axis=1, keepdims=True)
    if (sq.data <= max(eps, 1e-24)).any():
        raise errors.ZeroEmbedding("cannot normalize a zero row")
    return t / sq.sqrt()


def mse(pred: Tensor, target: Tensor) -> Tensor:
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise errors.ShapeMismatch(
            f"mse shapes differ: {pred.data.shape} vs {target.data.shape}")
    return (pred - target).square().mean()


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of row-wise softmax against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    lse = logsumexp_rows(logits)                      # B x 1
    # select the label logit per row via a 0/1 mask
    mask = np.zeros_like(logits.data)
    mask[np.arange(labels.shape[0]), labels] = 1.0
    label_logit = (logits * Tensor(mask)).sum(axis=1, keepdims=True)
    return (lse - label_logit).mean()
