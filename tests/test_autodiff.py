import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from gcope import errors
from gcope.autodiff import (Param, Tensor, concat_rows, gather_rows,
                            logsumexp_rows, mse, no_grad, normalize_rows,
                            scatter_add_rows, softmax_cross_entropy, softmax_rows, spmm)
from gcope.nn import make_encoder
from gcope.transfer import InducedSubgraph, TrainedModel

from oracles import add_at_row_sum, finite_diff_grad, rel_err


def check_grad(build_loss, *params, tol=1e-4):
    """Compare tape gradients against central finite differences (64-bit)."""
    loss = build_loss()
    loss.backward()
    for p in params:
        got = p.grad.copy()
        p.zero_grad()
        want = finite_diff_grad(lambda: float(build_loss().data), p.data)
        assert rel_err(got, want) < tol, p.name


def rnd(rng, *shape):
    return Param(rng.standard_normal(shape), name=f"p{shape}")


def test_sum_of_param_grad_is_ones():
    p = Param(np.arange(4.0).reshape(2, 2))
    loss = p.sum()
    loss.backward()
    assert np.array_equal(p.grad, np.ones((2, 2)))


def test_quadratic_grad_is_param():
    w = Param(np.array([[1.0, -2.0], [0.5, 3.0]]))
    loss = (w * w).sum() * 0.5
    loss.backward()
    assert np.allclose(w.grad, w.data)


@pytest.mark.parametrize("seed", range(10))
def test_arithmetic_ops_grads(seed):
    rng = np.random.default_rng(seed)
    a, b = rnd(rng, 3, 4), rnd(rng, 3, 4)
    check_grad(lambda: ((a * b + a - b) / (b * b + 3.0)).sum(), a, b)


@pytest.mark.parametrize("seed", range(10))
def test_matmul_broadcast_bias_grads(seed):
    rng = np.random.default_rng(seed)
    x, w, bias = rnd(rng, 4, 3), rnd(rng, 3, 2), rnd(rng, 2)
    check_grad(lambda: ((x @ w + bias).tanh()).square().sum(), x, w, bias)


@pytest.mark.parametrize("seed", range(5))
def test_unary_ops_grads(seed):
    rng = np.random.default_rng(seed)
    p = Param(rng.uniform(0.5, 2.0, size=(3, 3)), name="pos")
    check_grad(lambda: (p.log() + p.sqrt() + p.exp()).relu().sum(), p)


@pytest.mark.parametrize("seed", range(5))
def test_structural_ops_grads(seed):
    rng = np.random.default_rng(seed)
    a, b = rnd(rng, 3, 2), rnd(rng, 2, 2)
    idx = np.array([0, 2, 2, 4, 1])

    def loss():
        stacked = concat_rows([a, b])                    # 5 x 2
        gathered = gather_rows(stacked, idx)             # 5 x 2
        pooled = scatter_add_rows(gathered, np.array([0, 1, 0, 1, 0]), 2)
        return pooled.square().sum()
    check_grad(loss, a, b)


@pytest.mark.parametrize("seed", range(5))
def test_spmm_grad(seed):
    rng = np.random.default_rng(seed)
    a = sp.random(5, 5, density=0.4, random_state=seed, format="csr")
    x = rnd(rng, 5, 3)
    check_grad(lambda: spmm(a, x).square().sum(), x)


@pytest.mark.parametrize("seed", range(5))
def test_softmax_logsumexp_normalize_grads(seed):
    rng = np.random.default_rng(seed)
    z = rnd(rng, 4, 3)
    check_grad(lambda: (softmax_rows(z) * logsumexp_rows(z)).sum(), z)
    check_grad(lambda: normalize_rows(z + 5.0).sum(), z)


@pytest.mark.parametrize("seed", range(5))
def test_losses_grads(seed):
    rng = np.random.default_rng(seed)
    pred, tgt = rnd(rng, 4, 3), Tensor(rng.standard_normal((4, 3)))
    check_grad(lambda: mse(pred, tgt), pred)
    logits = rnd(rng, 5, 3)
    labels = rng.integers(0, 3, size=5)
    check_grad(lambda: softmax_cross_entropy(logits, labels), logits)


# 300 unsorted indices into 8 rows, so every hit row sums dozens of terms;
# rows 1, 5 and 6 are never hit. FAGCN's edge rows come sorted, its columns not.
ROW_SUM_IDX = np.random.default_rng(1).choice([0, 2, 3, 4, 7], size=300)


# widths () and (1,) take SciPy's one-vector product, (3,) and (64,) its
# multi-column one
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [(), (3,), (1,), (64,)])
@pytest.mark.parametrize("idx", [ROW_SUM_IDX, np.sort(ROW_SUM_IDX),
                                 np.zeros(0, dtype=np.int64)],
                         ids=["mixed", "sorted", "empty"])
def test_row_sums_match_add_at(dtype, width, idx):
    rng = np.random.default_rng(0)
    # magnitudes spread over 1e-4..1e4 so any change of summation order shows
    scale = 10.0 ** rng.uniform(-4, 4, size=(idx.size,) + width)
    rows = (rng.standard_normal((idx.size,) + width) * scale).astype(dtype)
    want = add_at_row_sum(rows, idx, 8)

    out = scatter_add_rows(Tensor(rows), idx, 8)
    assert out.data.dtype == dtype and np.array_equal(out.data, want)

    t = Param(rng.standard_normal((8,) + width).astype(dtype))
    (gather_rows(t, idx) * Tensor(rows)).sum().backward()
    assert t.grad.dtype == dtype and np.array_equal(t.grad, want)


def test_row_sum_index_out_of_range_raises():
    with pytest.raises(IndexError):
        scatter_add_rows(Tensor(np.ones((3, 2))), np.array([0, 3, 1]), 3)
    # -1 passes the forward gather (NumPy wraps it); the backward must refuse it
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            gather_rows(Param(np.ones((3, 2))), np.array([0, bad, 1])).sum().backward()


def test_shared_first_gradient_survives_accumulation():
    # Both leaves of a + b receive the same gradient array from sum().
    rng = np.random.default_rng(0)
    a, b = rnd(rng, 3, 2), rnd(rng, 3, 2)
    (a + b).sum().backward()
    b_grad = b.grad.copy()
    (a * a).sum().backward()
    assert np.array_equal(b.grad, b_grad)
    want = finite_diff_grad(lambda: float(((a + b).sum() + (a * a).sum()).data), a.data)
    assert rel_err(a.grad, want) < 1e-4


def test_grad_accumulates_across_reuse():
    p = Param(np.array([2.0]))
    loss = (p * p + p * 3.0).sum()
    loss.backward()
    assert np.allclose(p.grad, [2 * 2.0 + 3.0])


def test_backward_requires_scalar():
    p = Param(np.ones((2, 2)))
    with pytest.raises(errors.ShapeMismatch):
        (p * 2).backward()


def test_normalize_rows_zero_row_raises():
    with pytest.raises(errors.ZeroEmbedding):
        normalize_rows(Tensor(np.zeros((2, 3))))


def test_softmax_cross_entropy_value():
    logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1]])))
    loss = softmax_cross_entropy(logits, np.array([0]))
    assert float(loss.data) == pytest.approx(-np.log(0.7), abs=1e-12)


def test_mse_shape_mismatch():
    with pytest.raises(errors.ShapeMismatch):
        mse(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


# ------------------------------------------------------------ tape lifetime

def retained_backward(loss):
    """The walk without release, as `Tensor.backward` ran before it freed the
    graph: same topological order, every node keeps its gradient and closure."""
    topo, seen = [], set()
    stack = [(loss, False)]
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
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def shared_node_graph(seed):
    """A loss whose hidden layer `h` feeds four consumers, so its gradient is
    a sum whose order matters to the last bit."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((6, 4)))
    w = Param(rng.standard_normal((4, 3)), name="w")
    b = Param(rng.standard_normal(3), name="b")
    rows, cols = np.array([0, 1, 1, 3, 5, 2]), np.array([1, 0, 3, 1, 2, 5])
    h = (x @ w + b).tanh()
    msg = gather_rows(h, rows) * gather_rows(h, cols)
    loss = scatter_add_rows(msg, rows, 6).sum() + (h * h).mean()
    return loss, h, (w, b)


@pytest.mark.parametrize("seed", range(3))
def test_backward_releases_intermediates_and_keeps_param_grads(seed):
    loss, h, params = shared_node_graph(seed)
    loss.backward()
    assert h._parents == () and h.grad is None
    assert loss._parents == () and loss.grad is None
    ref_loss, ref_h, ref_params = shared_node_graph(seed)
    retained_backward(ref_loss)
    assert ref_h.grad is not None and ref_h._parents != ()
    for p, ref in zip(params, ref_params):
        assert p.grad.tobytes() == ref.grad.tobytes(), p.name


def test_second_backward_raises_and_leaves_param_grads():
    p = Param(np.array([1.0, 2.0]), name="p")
    h = p * 3.0
    loss = (h * h).sum()
    loss.backward()
    want = p.grad.copy()
    with pytest.raises(errors.InvalidArgument, match="already backpropagated"):
        loss.backward()
    # a released node cannot seed a new graph either
    with pytest.raises(errors.InvalidArgument, match="already backpropagated"):
        (h + 1.0).sum().backward()
    assert np.array_equal(p.grad, want)


def test_backward_peak_stays_well_below_the_forward_tape():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4000, 64)))
    ws = [Param(rng.standard_normal((64, 64)) / 8.0, name=f"w{i}") for i in range(6)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        h = x
        for w in ws:
            h = (h @ w).tanh()
        loss = h.sum()
        del h
        before_backward = tracemalloc.get_traced_memory()[0]
        forward = before_backward - start
        tracemalloc.reset_peak()
        loss.backward()
        extra = tracemalloc.get_traced_memory()[1] - before_backward
    finally:
        tracemalloc.stop()
    assert forward >= 12 * x.data.nbytes      # two 4000 x 64 buffers per layer
    assert extra < 0.5 * forward, (extra, forward)
    assert all(w.grad is not None for w in ws)


def test_no_grad_builds_no_tape_and_computes_the_same_data():
    rng = np.random.default_rng(0)
    x, w = Tensor(rng.standard_normal((4, 3))), Param(rng.standard_normal((3, 2)))
    want = softmax_rows((x @ w).tanh())
    with no_grad():
        got = softmax_rows((x @ w).tanh())
        assert w.requires_grad
    assert not got.requires_grad
    assert got._parents == () and got._backward is None
    assert got.data.tobytes() == want.data.tobytes()
    assert want.requires_grad and want._parents


def test_no_grad_nests_and_restores_recording_after_an_exception():
    p = Param(np.ones(2))
    with no_grad():
        with no_grad():
            assert not (p * 2.0).requires_grad
        assert not (p * 2.0).requires_grad
    assert (p * 2.0).requires_grad
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    out = p * 2.0
    assert out.requires_grad and len(out._parents) == 2


@pytest.mark.parametrize("prompt", [False, True], ids=["finetune", "prompt"])
def test_logits_for_under_no_grad_has_no_tape(prompt):
    rng = np.random.default_rng(0)
    tokens = Param(rng.standard_normal((2, 4)), name="tokens") if prompt else None
    model = TrainedModel(encoder=make_encoder("gcn", 4, hidden=5, seed=0),
                         head_w=Param(rng.standard_normal((5, 3)), name="head.w"),
                         head_b=Param(np.zeros(3), name="head.b"), prompt_tokens=tokens)
    sub = InducedSubgraph(nodes=np.arange(4),
                          adjacency=sp.csr_matrix(np.ones((4, 4)) - np.eye(4)),
                          features=rng.standard_normal((4, 4)).astype(np.float32))
    taped = model.logits_for(sub)
    with no_grad():
        out = model.logits_for(sub)
    assert taped.requires_grad
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert out.data.tobytes() == taped.data.tobytes()
