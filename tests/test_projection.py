import numpy as np
import pytest

from gcope import errors
from gcope.graphstore import synth_dataset
from gcope.projection import ProjectionConfig, project_all, svd_project

from oracles import jacobi_eigh, svd_truncation_error


def test_rank_one_exact():
    pf = svd_project(np.array([[3.0, 0.0], [0.0, 0.0]]), ProjectionConfig(d_p=1))
    assert np.allclose(pf.matrix[:, 0], [3.0, 0.0], atol=1e-6)
    assert pf.singular_values[0] == pytest.approx(3.0, abs=1e-9)


def test_energy_preserved_without_truncation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 4))
    pf = svd_project(x, ProjectionConfig(d_p=4))
    assert np.linalg.norm(pf.matrix) == pytest.approx(np.linalg.norm(x), abs=1e-5)


def test_truncation_error_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 4))
    pf = svd_project(x, ProjectionConfig(d_p=2))
    xk = (x @ pf.basis) @ pf.basis.T
    got = np.linalg.norm(x - xk)
    assert got == pytest.approx(svd_truncation_error(x, 2), abs=1e-6)


@pytest.mark.parametrize("seed", range(40))
def test_eckart_young_random_matrices(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 13)), int(rng.integers(2, 13))
    x = rng.standard_normal((n, d))
    dp = int(rng.integers(1, d + 1))
    pf = svd_project(x, ProjectionConfig(d_p=dp))
    k = min(dp, d, n)
    xk = (x @ pf.basis) @ pf.basis.T
    assert np.linalg.norm(x - xk) == pytest.approx(
        svd_truncation_error(x, k), abs=1e-6)


def test_singular_values_match_oracle_and_sorted():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9, 6))
    pf = svd_project(x, ProjectionConfig(d_p=6))
    w, _ = jacobi_eigh(x.T @ x)
    assert np.allclose(pf.singular_values, np.sqrt(np.maximum(w, 0)), atol=1e-8)
    assert (np.diff(pf.singular_values) <= 1e-12).all()


def test_left_vectors_orthogonal():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(10, 5))
    pf = svd_project(x, ProjectionConfig(d_p=5))
    u = pf.matrix[:, :5].astype(np.float64) / pf.singular_values
    gram = u.T @ u
    assert np.abs(gram - np.eye(5)).max() < 1e-5


def test_zero_padding_beyond_rank():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 2))
    pf = svd_project(x, ProjectionConfig(d_p=4))
    assert pf.matrix.shape == (5, 4)
    assert np.all(pf.matrix[:, 2:] == 0.0)


def test_deterministic_bit_identical():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 12))
    a = svd_project(x, ProjectionConfig(d_p=6))
    b = svd_project(x, ProjectionConfig(d_p=6))
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.singular_values.tobytes() == b.singular_values.tobytes()


def test_nonfinite_rejected():
    x = np.array([[1.0, np.inf]])
    with pytest.raises(errors.NonFiniteInput):
        svd_project(x, ProjectionConfig(d_p=1))


def test_project_all_common_width_and_order():
    g1 = synth_dataset(20, 2, 5, 0.5, 1)
    g2 = synth_dataset(25, 2, 9, 0.5, 2)
    out = project_all([g1, g2], ProjectionConfig(d_p=3))
    assert [p.source_name for p in out] == [g1.name, g2.name]
    assert all(p.matrix.shape[1] == 3 for p in out)


def test_project_all_singleton_equals_svd_project():
    g = synth_dataset(15, 2, 6, 0.5, 3)
    lone = project_all([g], ProjectionConfig(d_p=4))[0]
    direct = svd_project(g.features, ProjectionConfig(d_p=4))
    assert np.array_equal(lone.matrix, direct.matrix)


def test_project_all_empty_list():
    with pytest.raises(errors.EmptyDatasetList):
        project_all([], ProjectionConfig(d_p=2))


# synth_dataset(1000, 4, 64, h, s) inputs whose Gram matrix has lambda_33 /
# lambda_32 between 0.97 and 1, a gap that iterative solvers separate slowly
CLUSTERED_SPECTRUM = ([(0.9, s) for s in (2, 3, 4, 10, 11, 15, 17)]
                      + [(0.2, s) for s in (3, 7, 11, 13, 15, 17, 18)]
                      + [(0.85, s) for s in (2, 5, 9, 10, 15, 16, 17)])
ORACLE_CHECKED = {(0.9, 2), (0.2, 3), (0.85, 2)}   # the Jacobi oracle is slow at d=64


@pytest.mark.parametrize("homophily,seed", CLUSTERED_SPECTRUM)
def test_clustered_spectrum_projects(homophily, seed):
    x = synth_dataset(1000, 4, 64, homophily, seed).features.astype(np.float64)
    pf = svd_project(x, ProjectionConfig(d_p=32))
    assert (np.diff(pf.singular_values) <= 0).all()
    u = pf.matrix.astype(np.float64) / pf.singular_values
    assert np.abs(u.T @ u - np.eye(32)).max() < 1e-5
    if (homophily, seed) in ORACLE_CHECKED:
        xk = (x @ pf.basis) @ pf.basis.T
        assert np.linalg.norm(x - xk) == pytest.approx(
            svd_truncation_error(x, 32), rel=1e-9)
