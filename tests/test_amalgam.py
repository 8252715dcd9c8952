import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from gcope import errors
from gcope.amalgam import (CoordinatorSet, bfs_ball, build_joint_graph,
                           refresh_dynamic_edges, sample_joint_batch)
from gcope.projection import ProjectedFeatures

from oracles import dense_joint_adjacency


def fake_projected(sizes, d_p=4, seed=0):
    rng = np.random.default_rng(seed)
    return [ProjectedFeatures(matrix=rng.normal(size=(s, d_p)).astype(np.float32),
                              singular_values=np.ones(d_p), source_name=f"d{i}")
            for i, s in enumerate(sizes)]


def fake_adjacencies(sizes, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for s in sizes:
        a = np.zeros((s, s))
        for u in range(s):
            for v in range(u + 1, s):
                if rng.random() < 0.5:
                    a[u, v] = a[v, u] = 1
        out.append(sp.csr_matrix(a))
    return out


def adjacency_row(jg, i):
    return set(jg.adjacency[i].indices.tolist())


def test_seven_node_example_full():
    proj = fake_projected([3, 2])
    adjs = fake_adjacencies([3, 2])
    jg = build_joint_graph(proj, adjs, CoordinatorSet(per_dataset=1))
    assert jg.num_nodes == 7
    assert adjacency_row(jg, 5) >= {0, 1, 2, 5, 6}
    assert adjacency_row(jg, 5) - {0, 1, 2, 5, 6} == set()
    assert adjacency_row(jg, 6) == {3, 4, 5, 6}


def test_seven_node_example_none_no_selfloops():
    proj = fake_projected([3, 2])
    adjs = fake_adjacencies([3, 2])
    coords = CoordinatorSet(per_dataset=1, inter_mode="none", self_loops=False)
    jg = build_joint_graph(proj, adjs, coords)
    assert adjacency_row(jg, 5) == {0, 1, 2}


def test_exhaustive_dense_oracle_sweep():
    for m in range(1, 4):
        for sizes in itertools.product([1, 2, 3], repeat=m):
            for c in (1, 2):
                for inter in ("full", "none"):
                    proj = fake_projected(list(sizes))
                    adjs = fake_adjacencies(list(sizes), seed=m)
                    coords = CoordinatorSet(per_dataset=c, inter_mode=inter)
                    jg = build_joint_graph(proj, adjs, coords)
                    want = dense_joint_adjacency(adjs, list(sizes), c, inter, True)
                    assert np.array_equal(jg.adjacency.toarray(), want), \
                        (m, sizes, c, inter)


def test_coordinator_degree_formula():
    sizes = [4, 3, 5]
    proj = fake_projected(sizes)
    adjs = fake_adjacencies(sizes)
    c = 2
    jg = build_joint_graph(proj, adjs, CoordinatorSet(per_dataset=c))
    m = len(sizes)
    for i in range(m):
        for t in range(c):
            cid = jg.num_ordinary + i * c + t
            deg = jg.adjacency[cid].nnz
            assert deg == sizes[i] + (m * c - 1) + 1


def test_symmetry_and_block_structure():
    proj = fake_projected([3, 4])
    adjs = fake_adjacencies([3, 4])
    jg = build_joint_graph(proj, adjs, CoordinatorSet())
    a = jg.adjacency
    assert (a != a.T).nnz == 0
    # ordinary nodes of different datasets never adjacent
    assert a[:3, 3:7].nnz == 0


def test_removing_coordinators_restores_block_reachability():
    sizes = [3, 3, 2]
    jg = build_joint_graph(fake_projected(sizes), fake_adjacencies(sizes),
                           CoordinatorSet())
    n = jg.num_ordinary
    stripped = jg.adjacency[:n, :n]
    for start in range(n):
        ball = bfs_ball(stripped.tocsr(), start, n)
        assert set(jg.origin[ball]) == {jg.origin[start]}


def test_feature_tensor_aliases_coordinator_params():
    jg = build_joint_graph(fake_projected([2, 2]), fake_adjacencies([2, 2]),
                           CoordinatorSet())
    t = jg.feature_tensor()
    loss = t.sum()
    loss.backward()
    assert jg.coords.features.grad is not None
    assert np.all(jg.coords.features.grad == 1.0)


def test_dynamic_edges_trivial_pairs():
    proj = fake_projected([2, 2])
    adjs = fake_adjacencies([2, 2])
    coords = CoordinatorSet(inter_mode="dynamic", dynamic_threshold=0.9)
    jg = build_joint_graph(proj, adjs, coords)
    coords.features.data[:] = np.array([[1, 0, 0, 0], [1, 0, 0, 0]], dtype=np.float32)
    jg = refresh_dynamic_edges(jg, coords)
    assert jg.adjacency[4, 5] == 1.0
    coords.features.data[:] = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.float32)
    coords.dynamic_threshold = 0.1
    jg = refresh_dynamic_edges(jg, coords)
    assert jg.adjacency[4, 5] == 0.0
    assert (jg.adjacency != jg.adjacency.T).nnz == 0


def test_dynamic_edges_match_bruteforce_cosine():
    sizes = [2, 2, 2, 2]
    coords = CoordinatorSet(inter_mode="dynamic", dynamic_threshold=0.3)
    jg = build_joint_graph(fake_projected(sizes), fake_adjacencies(sizes), coords)
    rng = np.random.default_rng(7)
    coords.features.data[:] = rng.normal(size=coords.features.data.shape) \
        .astype(np.float32)
    jg = refresh_dynamic_edges(jg, coords)
    f = coords.features.data.astype(np.float64)
    n = jg.num_ordinary
    for p in range(4):
        for q in range(4):
            if p == q:
                continue
            cos = f[p] @ f[q] / (np.linalg.norm(f[p]) * np.linalg.norm(f[q]))
            assert (jg.adjacency[n + p, n + q] == 1.0) == (cos >= 0.3)


def test_zero_vector_coordinator_warns_and_disconnects():
    coords = CoordinatorSet(inter_mode="dynamic", dynamic_threshold=-1.0)
    jg = build_joint_graph(fake_projected([2, 2]), fake_adjacencies([2, 2]), coords)
    coords.features.data[0, :] = 0.0
    with pytest.warns(UserWarning):
        jg = refresh_dynamic_edges(jg, coords)
    n = jg.num_ordinary
    assert jg.adjacency[n, n + 1] == 0.0


def test_sampler_centers_never_coordinators_and_deterministic():
    sizes = [5, 5]
    jg = build_joint_graph(fake_projected(sizes), fake_adjacencies(sizes),
                           CoordinatorSet())
    b1 = sample_joint_batch(jg, 16, 2, rng_seed=3, epoch=1)
    b2 = sample_joint_batch(jg, 16, 2, rng_seed=3, epoch=1)
    for s1, s2 in zip(b1, b2):
        assert np.array_equal(s1, s2)
        assert s1[0] < jg.num_ordinary


def test_sampler_uniform_centers_chi_square():
    sizes = [50, 50, 50]
    jg = build_joint_graph(fake_projected(sizes), fake_adjacencies(sizes),
                           CoordinatorSet())
    batch = sample_joint_batch(jg, 6000, 1, rng_seed=0)
    counts = np.bincount([jg.origin[s[0]] for s in batch], minlength=3)
    expected = 2000.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 3 sigma for chi-square with 2 dof is ~ 2 + 3*2 = 8; use the 99.9% point
    assert chi2 < 13.82


def test_no_inter_edges_blocks_cross_dataset_reach():
    sizes = [6, 6]
    jg = build_joint_graph(fake_projected(sizes), fake_adjacencies(sizes),
                           CoordinatorSet(inter_mode="none"))
    ball = bfs_ball(jg.adjacency, 0, 2)
    origins = set(jg.origin[[i for i in ball if i < jg.num_ordinary]])
    assert origins == {0}


def test_full_inter_edges_reach_foreign_coordinator_then_nodes():
    sizes = [6, 6]
    jg = build_joint_graph(fake_projected(sizes), fake_adjacencies(sizes),
                           CoordinatorSet(inter_mode="full"))
    ball2 = set(bfs_ball(jg.adjacency, 0, 2).tolist())
    assert jg.num_ordinary in ball2       # own coordinator at hop 1
    assert jg.num_ordinary + 1 in ball2   # foreign coordinator at hop 2
    ball3 = set(bfs_ball(jg.adjacency, 0, 3).tolist())
    assert any(jg.origin[i] == 1 for i in ball3 if i < jg.num_ordinary)


def test_dimension_mismatch_and_empty_list():
    with pytest.raises(errors.EmptyDatasetList):
        build_joint_graph([], [], CoordinatorSet())
    proj = fake_projected([3])
    proj2 = fake_projected([2], d_p=5)
    with pytest.raises(errors.DimensionMismatch):
        build_joint_graph(proj + proj2, fake_adjacencies([3, 2]), CoordinatorSet())
