import numpy as np
import pytest
import scipy.sparse as sp

from gcope import errors
from gcope.autodiff import (Param, Tensor, concat_cols, concat_rows, gather_rows,
                            logsumexp_rows, mse, normalize_rows, scatter_add_rows,
                            softmax_cross_entropy, softmax_rows, spmm)

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
        side = concat_cols(gathered, gathered * 2.0)     # 5 x 4
        pooled = scatter_add_rows(side, np.array([0, 1, 0, 1, 0]), 2)
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
# rows 1, 5 and 6 are never hit
ROW_SUM_IDX = np.random.default_rng(1).choice([0, 2, 3, 4, 7], size=300)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [(), (3,)])
@pytest.mark.parametrize("idx", [ROW_SUM_IDX, np.zeros(0, dtype=np.int64)],
                         ids=["mixed", "empty"])
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
