import inspect
from copy import deepcopy

import numpy as np
import pytest
import scipy.sparse as sp

from gcope import errors
from gcope.amalgam import CoordinatorSet, bfs_ball, build_joint_graph
from gcope.autodiff import Param, Tensor, concat_rows, tape_arrays
from gcope.graphstore import synth_dataset
from gcope.nn import (ARCHITECTURE, Adam, FagcnEncoder, GcnEncoder, MlpDecoder,
                      gcn_normalize, graph_readout, make_encoder)
from gcope.pretrain import local_adjacency
from gcope.projection import ProjectionConfig, project_all
from gcope.transfer import induce_subgraph

from oracles import diags_gcn_normalize, gather_forward, scalar_adam_trajectory, subset_mean


def ring_adjacency(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return sp.csr_matrix(a)


def dense_gcn_layer(a_dense, h, w, b, act=np.tanh):
    a_hat = a_dense + np.eye(a_dense.shape[0])
    d = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
    return act(d @ a_hat @ d @ h @ w + b)


def test_gcn_isolated_node_identity_weights():
    enc = GcnEncoder([3, 3], activation="relu", seed=0)
    enc.weights[0].data = np.eye(3, dtype=np.float32)
    x = np.array([[1.0, -2.0, 0.5]], dtype=np.float32)
    out = enc.forward(Tensor(x), enc.prepare(sp.csr_matrix((1, 1))))
    assert np.allclose(out.data, np.maximum(x, 0))


def test_gcn_equal_features_equal_outputs():
    enc = GcnEncoder([2, 4], seed=1)
    x = np.ones((2, 2), dtype=np.float32)
    adj = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=np.float32))
    out = enc.forward(Tensor(x), enc.prepare(adj)).data
    assert np.allclose(out[0], out[1])


@pytest.mark.parametrize("seed", range(5))
def test_gcn_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 5
    a = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                a[u, v] = a[v, u] = 1
    enc = GcnEncoder([3, 4, 2], activation="tanh", seed=seed, dtype=np.float64)
    x = rng.standard_normal((n, 3))
    got = enc.forward(Tensor(x), enc.prepare(sp.csr_matrix(a))).data
    h = dense_gcn_layer(a, x, enc.weights[0].data, enc.biases[0].data)
    h = dense_gcn_layer(a, h, enc.weights[1].data, enc.biases[1].data)
    assert np.abs(got - h).max() < 1e-6


def test_gcn_permutation_equivariance():
    rng = np.random.default_rng(3)
    n = 6
    a = (rng.random((n, n)) < 0.4).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    x = rng.standard_normal((n, 3)).astype(np.float32)
    enc = GcnEncoder([3, 4], seed=2)
    perm = rng.permutation(n)
    out = enc.forward(Tensor(x), enc.prepare(sp.csr_matrix(a))).data
    out_p = enc.forward(Tensor(x[perm]),
                        enc.prepare(sp.csr_matrix(a[np.ix_(perm, perm)]))).data
    assert np.allclose(out[perm], out_p, atol=1e-6)


def test_fagcn_zero_gates_pure_residual():
    enc = FagcnEncoder(3, hidden=4, num_layers=2, eps=0.3, seed=0)
    for g in enc.gates:
        g.data[:] = 0.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3)).astype(np.float32)
    adj = ring_adjacency(5)
    out = enc.forward(Tensor(x), enc.prepare(adj)).data
    h0 = x @ enc.w_in.data + enc.b_in.data
    assert np.allclose(out, 0.3 * h0, atol=1e-6)


def test_fagcn_isolated_node_residual():
    enc = FagcnEncoder(2, hidden=3, eps=0.5, seed=1)
    x = np.array([[1.0, 2.0]], dtype=np.float32)
    out = enc.forward(Tensor(x), enc.prepare(sp.csr_matrix((1, 1)))).data
    h0 = x @ enc.w_in.data + enc.b_in.data
    assert np.allclose(out, 0.5 * h0, atol=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_fagcn_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 4
    a = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                a[u, v] = a[v, u] = 1
    enc = FagcnEncoder(3, hidden=3, num_layers=2, eps=0.3, seed=seed,
                       dtype=np.float64)
    x = rng.standard_normal((n, 3))
    got = enc.forward(Tensor(x), enc.prepare(sp.csr_matrix(a))).data

    deg = a.sum(axis=1)
    h0 = x @ enc.w_in.data + enc.b_in.data
    h = h0.copy()
    for g in enc.gates:
        nxt = 0.3 * h0.copy()
        for i in range(n):
            for j in range(n):
                if a[i, j]:
                    alpha = np.tanh(np.concatenate([h[i], h[j]]) @ g.data.ravel())
                    nxt[i] += alpha / np.sqrt(deg[i] * deg[j]) * h[j]
        h = nxt
    assert np.abs(got - h).max() < 1e-6


def test_fagcn_eps_validation():
    with pytest.raises(errors.InvalidArgument):
        FagcnEncoder(3, eps=1.5)


def test_fagcn_float32_keeps_no_edges_by_hidden_array():
    """The gate is two node-level products gathered to the edges and the
    aggregation is one `edge_spmm`, so every float array on the tape with a row
    per edge is edges x 1: no edges x hidden array is kept. The closures also keep
    each edge's integer row and col."""
    hidden, layers = 5, 3
    enc = FagcnEncoder(4, hidden=hidden, num_layers=layers, seed=0)
    adj = ring_adjacency(7)
    x = np.random.default_rng(0).standard_normal((7, 4)).astype(np.float32)
    out = enc.forward(Tensor(x), enc.prepare(adj))
    assert out.dtype == np.float32
    per_edge = [b for b in tape_arrays([out])
                if b.shape[:1] == (adj.nnz,) and b.dtype.kind == "f"]
    assert per_edge and all(b.shape == (adj.nnz, 1) for b in per_edge)


def test_gcn_float32_keeps_one_node_array_per_layer():
    """A GCN layer is one `spmm` op, so the tape keeps the input and one nodes x
    width array per layer: no a @ x and no pre-activation array."""
    layers = 3
    enc = GcnEncoder([4] + [5] * layers, seed=0)
    adj = ring_adjacency(7)
    x = np.random.default_rng(0).standard_normal((7, 4)).astype(np.float32)
    out = enc.forward(Tensor(x), enc.prepare(adj))
    assert out.dtype == np.float32
    per_node = [b for b in tape_arrays([out]) if b.shape[:1] == (7,)]
    assert len(per_node) <= 1 + layers


def shuffle_within_rows(a: sp.csr_matrix, seed: int) -> sp.csr_matrix:
    """`a` with each row's entries stored in shuffled column order."""
    rng, order = np.random.default_rng(seed), np.arange(a.nnz)
    for i in range(a.shape[0]):
        rng.shuffle(order[a.indptr[i]:a.indptr[i + 1]])
    out = sp.csr_matrix((a.data[order], a.indices[order], a.indptr), shape=a.shape)
    assert not out.has_sorted_indices
    return out


@pytest.mark.parametrize("kind,activation", [("gcn", "relu"), ("gcn", "tanh"),
                                             ("fagcn", "relu")],
                         ids=["gcn-relu", "gcn-tanh", "fagcn"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["unsorted", "sorted"])
def test_forward_rows_is_bitwise_the_gather_then_forward(kind, activation, dtype, layout):
    """An encoder reading rows of a joint feature tensor gives the output and
    every gradient, the coordinator rows' too, of the forward on their gather."""
    rng = np.random.default_rng(0)
    adj = sp.random(30, 30, density=0.2, random_state=1, format="csr")
    adj = ((adj + adj.T) > 0).astype(np.float64).tocsr()
    rows = rng.permutation(44)[:30]              # ordinary and coordinator rows
    assert (rows >= 40).any()
    spread = lambda *shape: (rng.standard_normal(shape)
                             * 10.0 ** rng.uniform(-3, 3, shape)).astype(dtype)
    base, coords0, u = spread(40, 6), spread(4, 6), spread(30, 8)
    results = []
    for forward in (lambda e, x, op: e.forward(x, op, rows),
                    lambda e, x, op: gather_forward(e, x, op, rows)):
        enc = make_encoder(kind, 6, hidden=8, activation=activation, dtype=dtype)
        if kind == "gcn":
            op = enc.prepare(adj)
            op = shuffle_within_rows(op, 2) if layout == "unsorted" else op
        else:
            op = enc.prepare(shuffle_within_rows(adj, 2) if layout == "unsorted" else adj)
        coords = Param(coords0.copy())
        out = forward(enc, concat_rows([Tensor(base), coords]), op)
        (out * Tensor(u)).sum().backward()
        results.append([out.data, coords.grad] + [p.grad for p in enc.params()])
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_adam_zero_grad_leaves_params():
    p = Param(np.array([1.0, 2.0]))
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_matches_scalar_oracle_bitwise():
    p = Param(np.array([0.5]))
    opt = Adam([p], lr=0.1)
    grads = [1.0, 1.0, -0.3]
    want = scalar_adam_trajectory(0.5, grads, lr=0.1)
    for g, expect in zip(grads, want):
        p.grad = np.array([g])
        opt.step()
        assert p.data[0] == expect  # bit-identical on 64-bit


def test_adam_first_step_magnitude():
    p = Param(np.array([0.0]))
    opt = Adam([p], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_nonfinite_update_raises():
    p = Param(np.array([1.0]))
    opt = Adam([p], lr=0.1)
    p.grad = np.array([np.inf])
    with pytest.raises(errors.NonFiniteUpdate):
        opt.step()


def test_readout_single_and_cancellation():
    emb = Tensor(np.array([[1.0, 2.0], [-1.0, -2.0], [5.0, 5.0]]))
    assert np.allclose(graph_readout(emb, [0, 2, 3]).data, [[0.0, 0.0], [5.0, 5.0]])


def test_readout_matches_direct_mean_and_order_invariant():
    """Each graph's mean is the direct mean of its rows, bit for bit the same
    whichever graphs share its batch and in which order."""
    rng = np.random.default_rng(2)
    emb = rng.standard_normal((8, 4))
    offsets = [0, 3, 4, 8]
    got = graph_readout(Tensor(emb), offsets).data
    for b in range(3):
        rows = range(offsets[b], offsets[b + 1])
        assert np.abs(got[b] - sum(emb[i] for i in rows) / len(rows)).max() < 1e-7
    swapped = graph_readout(Tensor(np.vstack([emb[4:], emb[:3], emb[3:4]])), [0, 4, 7, 8])
    assert swapped.data[[1, 2, 0]].tobytes() == got.tobytes()


@pytest.mark.parametrize("sizes", [(1,), (2,), (21,), (1002,), (2002,), (5, 1, 17, 3),
                                   (1002, 1, 1000)])
def test_segment_readout_is_byte_equal_to_the_subset_mean(sizes):
    """Pretraining's loss bytes rest on this: each graph's mean, and the
    gradient each of its rows gets, are the per-graph subset mean's."""
    rng = np.random.default_rng(len(sizes) + sum(sizes))
    emb = Param(rng.standard_normal((sum(sizes), 64)).astype(np.float32))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    out = graph_readout(emb, offsets)
    for b in range(len(sizes)):
        want = subset_mean(emb.data, np.arange(offsets[b], offsets[b + 1]))
        assert out.data[b].dtype == want.dtype and out.data[b].tobytes() == want.tobytes()
    upstream = rng.standard_normal(out.shape)
    (out * Tensor(upstream)).sum().backward()
    segment = np.repeat(np.arange(len(sizes)), sizes)
    want = (upstream * (1.0 / np.asarray(sizes))[:, None]).astype(np.float32)[segment]
    assert emb.grad.tobytes() == want.tobytes()


def test_readout_modes_and_errors():
    emb = Tensor(np.array([[1.0, -1.0], [3.0, 2.0]]))
    with pytest.raises(errors.EmptySubset):
        graph_readout(emb, [])
    with pytest.raises(errors.EmptySubset):
        graph_readout(emb, [0, 0, 2])
    for offsets in ([0, 1], [1, 2], [0, 3]):
        with pytest.raises(errors.IndexOutOfRange):
            graph_readout(emb, offsets)


def check_copy_independent(model, forward, out_shape):
    x = Tensor(np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32))
    out = forward(model, x)
    assert out.data.shape == out_shape
    clone = deepcopy(model)
    assert [p.name for p in clone.params()] == [p.name for p in model.params()]
    for c, p in zip(clone.params(), model.params()):
        assert c is not p
        assert c.data.dtype == p.data.dtype and c.data.shape == p.data.shape
        assert c.data.tobytes() == p.data.tobytes()
    assert forward(clone, x).data.tobytes() == out.data.tobytes()
    before = [p.data.copy() for p in model.params()]
    for c in clone.params():
        c.data[...] = 7.0
    for p, b in zip(model.params(), before):
        assert p.data.tobytes() == b.tobytes()


def test_decoder_shapes_and_copy_independent():
    check_copy_independent(MlpDecoder(4, 8, 3, seed=0), lambda m, x: m.forward(x), (5, 3))


@pytest.mark.parametrize("kind", ["gcn", "fagcn"])
def test_encoder_copy_independent(kind):
    check_copy_independent(make_encoder(kind, 4, hidden=8, seed=0),
                           lambda m, x: m.forward(x, m.prepare(ring_adjacency(5))), (5, 8))


def test_architecture_names_make_encoder_parameters():
    assert ARCHITECTURE == tuple(inspect.signature(make_encoder).parameters)[:6]


def test_make_encoder_dispatch():
    assert make_encoder("gcn", 8).kind == "gcn"
    assert make_encoder("fagcn", 8).kind == "fagcn"
    with pytest.raises(errors.InvalidArgument):
        make_encoder("gat", 8)
    for kind in ("gcn", "fagcn"):
        with pytest.raises(errors.InvalidArgument, match="hidden"):
            make_encoder(kind, 8, hidden=0)


def test_gcn_normalize_isolated_nodes_safe():
    a = gcn_normalize(sp.csr_matrix((3, 3)))
    assert np.allclose(a.toarray(), np.eye(3))


def normalize_cases():
    """Ego graphs, a hops=2 ball through a coordinator, a graph that already
    has self-loops, and isolated nodes."""
    g = synth_dataset(400, 4, 8, 0.8, 0)
    cases = [induce_subgraph(g, c, 2).adjacency for c in range(0, 400, 10)]
    sources = [synth_dataset(n, 2, 8, 0.7, i) for i, n in enumerate((200, 150))]
    jg = build_joint_graph(project_all(sources, ProjectionConfig(d_p=6)),
                           [s.adjacency for s in sources], CoordinatorSet(per_dataset=1))
    cases.append(local_adjacency(jg.adjacency, bfs_ball(jg.adjacency, 0, 2)))
    cases.append((ring_adjacency(6) + sp.eye(6)).tocsr())
    cases.append(sp.csr_matrix((3, 3)))
    return cases


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gcn_normalize_matches_diags_oracle_bytes(dtype):
    rng = np.random.default_rng(0)
    cases = normalize_cases()
    assert cases[-3].shape[0] == 200 + 2    # its whole source and both coordinators
    for adj in cases:
        adj = adj.astype(dtype)
        got, want = gcn_normalize(adj), diags_gcn_normalize(adj)
        h = rng.standard_normal((adj.shape[0], 16)).astype(dtype)
        assert got.dtype == want.dtype == dtype
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data), (got @ h, want @ h)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["gcn", "fagcn"])
@pytest.mark.parametrize("rows", [3, 5])
def test_feature_rows_must_match_the_operator(kind, rows):
    enc = make_encoder(kind, 4, hidden=8, seed=0)
    x = Tensor(np.ones((rows, 4), dtype=np.float32))
    with pytest.raises(errors.ShapeMismatch, match=rf"4 x 4 features, got \({rows}, 4\)"):
        enc.forward(x, enc.prepare(ring_adjacency(4)))
