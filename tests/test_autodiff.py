import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from gcope import errors
from gcope.autodiff import (Param, Tensor, concat_rows, dense, edge_spmm, gather_rows,
                            logsumexp_rows, mse, no_grad, normalize_rows,
                            scatter_add_rows, softmax_cross_entropy, softmax_rows, spmm,
                            tape_arrays)
from gcope.nn import make_encoder
from gcope.transfer import InducedSubgraph, TrainedModel

from oracles import (add_at_row_sum, affine_chain, finite_diff_grad, masked_gather,
                     mse_chain, rel_err, sparse_product)


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
    check_grad(lambda: (p.log() + p.sqrt() + p.exp()).sum(), p)


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
    x, w, bias = rnd(rng, 5, 3), rnd(rng, 3, 2), rnd(rng, 2)
    check_grad(lambda: spmm(a, x, w, bias, "tanh").square().sum(), x, w, bias)


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


def edge_structure(n_rows, n_cols, n_edges, seed):
    """A CSR structure of `n_edges` edges in row order with unsorted, repeated
    columns and some empty rows: indptr, each edge's row, cols (int32, SciPy's
    index dtype at this size)."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(np.arange(0, n_rows, 2), size=n_edges)).astype(np.int32)
    cols = rng.integers(0, n_cols, size=n_edges).astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
    return indptr.astype(np.int32), rows, cols


@pytest.mark.parametrize("seed", range(5))
def test_edge_spmm_matches_dense_product(seed):
    indptr, rows, cols = edge_structure(6, 5, 20, seed)
    rng = np.random.default_rng(seed)
    w, h = rng.standard_normal((20, 1)), rng.standard_normal((5, 3))
    dense = np.zeros((6, 5))
    np.add.at(dense, (rows, cols), w.ravel())
    assert np.allclose(edge_spmm(indptr, cols, Tensor(w), Tensor(h)).data, dense @ h)


@pytest.mark.parametrize("seed", range(5))
def test_edge_spmm_grads(seed):
    indptr, _, cols = edge_structure(6, 5, 20, seed)
    rng = np.random.default_rng(seed)
    w, h = rnd(rng, 20, 1), rnd(rng, 5, 3)
    check_grad(lambda: edge_spmm(indptr, cols, w, h).tanh().square().sum(), w, h)


# the upstream gradient's dtype: the same as the operands', or float64 against
# float32 weights and features (a float64 loss over a float32 encoder)
@pytest.mark.parametrize("dtype,upstream", [(np.float32, np.float32),
                                            (np.float64, np.float64),
                                            (np.float32, np.float64)])
@pytest.mark.parametrize("width", [1, 3, 64])
def test_edge_spmm_is_bitwise_the_gather_multiply_scatter_chain(dtype, upstream, width):
    indptr, rows, cols = edge_structure(8, 8, 300, 1)
    rng = np.random.default_rng(0)
    # magnitudes spread over 1e-4..1e4 so any change of summation order shows
    spread = lambda *shape: rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)
    w0, h0, u = spread(300, 1).astype(dtype), spread(8, width).astype(dtype), spread(8, width)
    results = []
    for op in (lambda w, h: edge_spmm(indptr, cols, w, h),
               lambda w, h: scatter_add_rows(gather_rows(h, cols) * w, rows, 8)):
        w, h = Param(w0.copy()), Param(h0.copy())
        out = op(w, h)
        (out * Tensor(u.astype(upstream))).sum().backward()
        results.append((out.data, w.grad, h.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_edge_spmm_under_no_grad_records_no_parents():
    indptr, _, cols = edge_structure(6, 5, 20, 0)
    rng = np.random.default_rng(0)
    w, h = rnd(rng, 20, 1), rnd(rng, 5, 3)
    with no_grad():
        out = edge_spmm(indptr, cols, w, h)
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert out.data.tobytes() == edge_spmm(indptr, cols, w, h).data.tobytes()


ACTIVATIONS = [None, "relu", "tanh"]


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("seed", range(5))
def test_dense_grads(activation, seed):
    rng = np.random.default_rng(seed)
    x, w, bias = rnd(rng, 6, 3), rnd(rng, 3, 4), rnd(rng, 4)
    # keep every pre-activation clear of relu's kink at 0
    out = x.data @ w.data + bias.data
    bias.data = bias.data + np.where(np.abs(out).min(axis=0) < 1e-2, 0.5, 0.0)
    check_grad(lambda: dense(x, w, bias, activation).square().sum(), x, w, bias)


# dtypes of x, w, b and the upstream gradient: one dtype throughout; a float64
# loss over float32 layers; the transfer head's float64 readout into float32
# weights; and a bias wider than x @ w
@pytest.mark.parametrize("dtypes", [(np.float32,) * 4, (np.float64,) * 4,
                                    (np.float32,) * 3 + (np.float64,),
                                    (np.float64, np.float32, np.float32, np.float64),
                                    (np.float32, np.float32, np.float64, np.float32)],
                         ids=["f32", "f64", "f64-upstream", "head", "wide-bias"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_dense_is_bitwise_the_matmul_add_activation_chain(dtypes, activation):
    rng = np.random.default_rng(0)
    x0, w0, b0, u = (rng.standard_normal(shape).astype(dt)
                     for shape, dt in zip([(40, 16), (16, 8), (8,), (40, 8)], dtypes))
    results = []
    for op in (dense, affine_chain):
        x, w, b = Param(x0.copy()), Param(w0.copy()), Param(b0.copy())
        out = op(x, w, b, activation)
        # two consumers, so a float64 upstream gradient reaches the op uncast
        (out * Tensor(u) + out * Tensor(u[::-1])).sum().backward()
        results.append((out.data, x.grad, w.grad, b.grad))
    assert results[0][0].dtype == np.result_type(x0, w0, b0)
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_dense_under_no_grad_records_no_parents(activation):
    rng = np.random.default_rng(0)
    x, w, bias = rnd(rng, 6, 3), rnd(rng, 3, 4), rnd(rng, 4)
    with no_grad():
        out = dense(x, w, bias, activation)
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert out.data.tobytes() == dense(x, w, bias, activation).data.tobytes()


def shuffled_csr(n: int, per_row: int, seed: int, dtype) -> sp.csr_matrix:
    """An n x n CSR with `per_row` entries a row, each row's columns stored in
    shuffled order, magnitudes spread over 1e-4..1 so any change of summation
    order shows."""
    rng = np.random.default_rng(seed)
    cols = np.concatenate([rng.choice(n, per_row, replace=False) for _ in range(n)])
    data = rng.standard_normal(cols.size) * 10.0 ** rng.uniform(-4, 0, cols.size)
    return sp.csr_matrix((data.astype(dtype), cols, np.arange(0, cols.size + 1, per_row)),
                         shape=(n, n))


# dtypes of a, x, w, b and the upstream gradient: one dtype throughout; a float64
# loss over float32 layers; and weights wider than a @ x, so x's gradient is cast
# back to a @ x's dtype before the product with a's transpose
@pytest.mark.parametrize("dtypes", [(np.float32,) * 5, (np.float64,) * 5,
                                    (np.float32,) * 4 + (np.float64,),
                                    (np.float32, np.float32, np.float64, np.float32,
                                     np.float32)],
                         ids=["f32", "f64", "f64-upstream", "wide-weights"])
@pytest.mark.parametrize("layout", ["unsorted", "sorted"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_spmm_is_bitwise_the_sparse_product_and_affine_chain(dtypes, layout, activation):
    a = shuffled_csr(40, 20, 0, dtypes[0])
    a = a.sorted_indices() if layout == "sorted" else a
    assert a.has_sorted_indices == (layout == "sorted")
    rng = np.random.default_rng(1)
    x0, w0, b0, u = (rng.standard_normal(shape).astype(dt)
                     for shape, dt in zip([(40, 16), (16, 8), (8,), (40, 8)], dtypes[1:]))
    results = []
    for op in (spmm, lambda a, x, w, b, act: affine_chain(sparse_product(a, x), w, b, act)):
        x, w, b = Param(x0.copy()), Param(w0.copy()), Param(b0.copy())
        out = op(a, x, w, b, activation)
        # two consumers, so a float64 upstream gradient reaches the op uncast
        (out * Tensor(u) + out * Tensor(u[::-1])).sum().backward()
        results.append((out.data, x.grad, w.grad, b.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_spmm_under_no_grad_records_no_parents(activation):
    rng = np.random.default_rng(0)
    a = shuffled_csr(6, 3, 0, np.float64)
    x, w, bias = rnd(rng, 6, 3), rnd(rng, 3, 4), rnd(rng, 4)
    with no_grad():
        out = spmm(a, x, w, bias, activation)
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert out.data.tobytes() == spmm(a, x, w, bias, activation).data.tobytes()


# 40 of 60 rows in shuffled order, so the gradient's unread rows are zero
READ_ROWS = np.random.default_rng(2).permutation(60)[:40]


def rows_results(op, x0, w0, b0, u):
    """The output and the gradients of x, w and b of `op(x, w, b)`, under two
    consumers of the output."""
    x, w, b = Param(x0.copy()), Param(w0.copy()), Param(b0.copy())
    out = op(x, w, b)
    (out * Tensor(u) + out * Tensor(u[::-1])).sum().backward()
    return out.data, x.grad, w.grad, b.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["unsorted", "sorted"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_spmm_rows_is_bitwise_the_gather_then_spmm(dtype, layout, activation):
    """Mapping a's columns through `rows` adds each product's terms in a's
    stored order, as the product with the gathered rows does."""
    a = shuffled_csr(40, 20, 0, dtype)
    a = a.sorted_indices() if layout == "sorted" else a
    rng = np.random.default_rng(1)
    x0, w0, b0, u = (rng.standard_normal(s).astype(dtype)
                     for s in [(60, 16), (16, 8), (8,), (40, 8)])
    got = rows_results(lambda x, w, b: spmm(a, x, w, b, activation, READ_ROWS),
                       x0, w0, b0, u)
    want = rows_results(lambda x, w, b: spmm(a, gather_rows(x, READ_ROWS), w, b,
                                             activation), x0, w0, b0, u)
    for g, e in zip(got, want):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_dense_rows_is_bitwise_the_gather_then_dense(dtype, activation):
    rng = np.random.default_rng(1)
    x0, w0, b0, u = (rng.standard_normal(s).astype(dtype)
                     for s in [(60, 16), (16, 8), (8,), (40, 8)])
    got = rows_results(lambda x, w, b: dense(x, w, b, activation, READ_ROWS),
                       x0, w0, b0, u)
    want = rows_results(lambda x, w, b: dense(gather_rows(x, READ_ROWS), w, b,
                                              activation), x0, w0, b0, u)
    for g, e in zip(got, want):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_gather_is_bitwise_the_gather_times_mask(dtype):
    rng = np.random.default_rng(3)
    t0, u = rng.standard_normal((60, 16)).astype(dtype), rng.standard_normal((40, 16))
    mask = (rng.uniform(size=(40, 16)) > 0.3).astype(dtype)
    results = []
    for op in (gather_rows, masked_gather):
        t = Param(t0.copy())
        out = op(t, READ_ROWS, mask)
        (out * Tensor(u)).sum().backward()
        results.append((out.data, t.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_reading_rows_out_of_range_raises():
    rng = np.random.default_rng(0)
    a, x, w, b = shuffled_csr(4, 2, 0, np.float64), rnd(rng, 5, 3), rnd(rng, 3, 2), rnd(rng, 2)
    for bad in (-1, 5):
        rows = np.array([0, bad, 1, 2])
        with pytest.raises(IndexError):
            spmm(a, x, w, b, None, rows)
        with pytest.raises(IndexError):
            dense(x, w, b, None, rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mse_is_bitwise_the_subtract_square_mean_chain(dtype):
    rng = np.random.default_rng(0)
    spread = lambda: rng.standard_normal((40, 8)) * 10.0 ** rng.uniform(-3, 3, (40, 8))
    p0, t0 = spread().astype(dtype), spread().astype(dtype)
    results = []
    for op in (mse, mse_chain):
        pred = Param(p0.copy())
        loss = op(pred, Tensor(t0))
        (loss * 0.37).backward()
        results.append((loss.data, pred.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_mse_rejects_a_target_that_needs_a_gradient():
    with pytest.raises(errors.InvalidArgument):
        mse(Param(np.zeros((2, 2))), Param(np.ones((2, 2))))


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


def test_mse_keeps_only_pred_on_the_tape():
    rng = np.random.default_rng(0)
    pred, target = rnd(rng, 4, 3), Tensor(rng.standard_normal((4, 3)))
    assert mse(pred, target)._parents == (pred,)


def test_tape_arrays_sees_what_backward_closures_hold():
    """The walk finds the arrays only a backward closure holds: mse's pred - target,
    a masked gather's bool mask and index array, the operator `spmm` remaps through
    `rows` and `edge_spmm`'s CSR. A view counts once as its base, and a tape already
    backpropagated keeps only its root's data."""
    rng = np.random.default_rng(0)
    idx = np.array(READ_ROWS)

    def kept(root, want):
        return any(arr.dtype.kind == want.dtype.kind and np.array_equal(arr, want)
                   for arr in tape_arrays([root]))

    pred, target = rnd(rng, 4, 3), Tensor(rng.standard_normal((4, 3)))
    assert kept(mse(pred, target), pred.data - target.data)
    mask = (rng.uniform(size=(40, 16)) > 0.3).astype(np.float64)
    masked = gather_rows(rnd(rng, 60, 16), idx, mask)
    assert kept(masked, mask != 0) and any(arr is idx for arr in tape_arrays([masked]))
    a = shuffled_csr(40, 3, 0, np.float64)
    assert kept(spmm(a, rnd(rng, 60, 16), rnd(rng, 16, 8), rnd(rng, 8), "relu", idx),
                idx[a.indices])
    indptr, cols = np.array([0, 2, 3, 5], dtype=np.int32), np.array([0, 2, 1, 0, 1],
                                                                   dtype=np.int32)
    aggregated = edge_spmm(indptr, cols, rnd(rng, 5, 1), rnd(rng, 3, 2))
    assert {id(indptr), id(cols)} <= {id(arr) for arr in tape_arrays([aggregated])}

    x = rnd(rng, 4, 3)
    assert [arr is x.data for arr in tape_arrays([x.T, x.reshape(12), x])] == [True]
    loss = mse(x.T, Tensor(np.zeros((3, 4))))
    loss.backward()
    assert [arr is loss.data for arr in tape_arrays([loss])] == [True]


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
    enc = make_encoder("gcn", 4, hidden=5, seed=0)
    model = TrainedModel(encoder=enc,
                         head_w=Param(rng.standard_normal((5, 3)), name="head.w"),
                         head_b=Param(np.zeros(3), name="head.b"), prompt_tokens=tokens)
    sub = InducedSubgraph(nodes=np.arange(4), offsets=np.array([0, 4]), adjacency=None,
                          features=rng.standard_normal((4, 4)).astype(np.float32),
                          operator=enc.prepare(sp.csr_matrix(np.ones((4, 4)) - np.eye(4))))
    taped = model.logits_for(sub)
    with no_grad():
        out = model.logits_for(sub)
    assert taped.requires_grad
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert out.data.tobytes() == taped.data.tobytes()
