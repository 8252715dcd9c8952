"""Minimal reverse-mode autodiff over dense numpy arrays.

Tensors form a DAG. `backward()` on a scalar walks it in reverse
topological order and frees it on the way, so a graph can be
backpropagated once and afterwards only leaves (such as `Param`s) hold a
`.grad`. Tensors made under `no_grad()` record no graph. Sparse matrices
enter only as constants: adjacencies through `spmm`, and the row sums
behind `gather_rows`' backward and `scatter_add_rows`' forward as products
with the transpose of a 0/1 selector (row k holds a 1 in column idx[k]).
That transpose is a CSC matrix, which SciPy multiplies one column at a
time, k = 0, 1, ..., adding rows[k] onto row idx[k]: `np.add.at`'s order,
with exact multiplications by 1, so the sums are bit-identical to its
sequential ones. The op set is exactly what the encoders, decoder, and
losses need; nothing more.
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

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

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

    def relu(self):
        def bwd(g):
            self._accum(g * (self.data > 0))
        return Tensor(np.maximum(self.data, 0), parents=(self,), backward=bwd)

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

    def mean(self, axis=None, keepdims=False):
        denom = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)


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


def _selector(idx: np.ndarray, n: int, dtype) -> sp.csr_matrix:
    """The len(idx) x n 0/1 matrix whose row k has its 1 in column idx[k].

    Raises IndexError unless 0 <= idx < n.
    """
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row index out of range [0, {n})")
    return sp.csr_matrix((np.ones(idx.size, dtype=dtype), idx, np.arange(idx.size + 1)),
                         shape=(idx.size, n))


def gather_rows(t: Tensor, idx: np.ndarray) -> Tensor:
    t = as_tensor(t)
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        t._accum(_selector(idx, t.data.shape[0], g.dtype).T @ g)
    return Tensor(t.data[idx], parents=(t,), backward=bwd)


def scatter_add_rows(t: Tensor, idx: np.ndarray, n_rows: int) -> Tensor:
    """out[r] = sum of rows k with idx[k] == r."""
    t = as_tensor(t)
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        t._accum(g[idx])
    return Tensor(_selector(idx, n_rows, t.data.dtype).T @ t.data, parents=(t,),
                  backward=bwd)


def spmm(a: sp.csr_matrix, t: Tensor) -> Tensor:
    """Constant sparse matrix times dense tensor."""
    t = as_tensor(t)

    def bwd(g):
        t._accum(a.T @ g)
    return Tensor(a @ t.data, parents=(t,), backward=bwd)


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
