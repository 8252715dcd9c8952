import hashlib
import importlib
from copy import deepcopy

import numpy as np
import pytest
import scipy.sparse as sp

from gcope import errors
from gcope.amalgam import CoordinatorSet, build_joint_graph, sample_joint_batch
from gcope.autodiff import Param, Tensor, tape_arrays
from gcope.graphstore import synth_dataset
from gcope.nn import Adam, MlpDecoder, make_encoder
from gcope.pretrain import (AugmentationSpec, PretrainConfig, augment,
                            encode_view, make_sample, nt_xent, pretrain,
                            reconstruction_loss, simgrace_views)
from gcope.projection import ProjectionConfig, project_all

from oracles import (brute_mse, brute_nt_xent, eye_mask_nt_xent, gather_encode_view,
                     gather_reconstruction_loss)


def small_joint(seed=0, sizes=(12, 10), h=0.7, d_p=6):
    graphs = [synth_dataset(n, 2, 8, h, seed + i) for i, n in enumerate(sizes)]
    proj = project_all(graphs, ProjectionConfig(d_p=d_p))
    coords = CoordinatorSet(per_dataset=1)
    jg = build_joint_graph(proj, [g.adjacency for g in graphs], coords, seed=seed)
    return graphs, jg, coords


def first_sample(jg, hops=2, seed=0):
    nodes = sample_joint_batch(jg, 1, hops, seed)[0]
    return make_sample(jg, nodes)


# ---------------------------------------------------------------- augmentations

def test_node_drop_keeps_center_and_coordinators():
    _, jg, _ = small_joint()
    s = first_sample(jg)
    rng = np.random.default_rng(1)
    out = augment(jg, s, AugmentationSpec("node_drop", 0.3), rng)
    assert out.nodes[0] == s.nodes[0]
    before = set(s.nodes[jg.is_coordinator(s.nodes)].tolist())
    after = set(out.nodes[jg.is_coordinator(out.nodes)].tolist())
    assert before == after
    k = int(np.ceil(0.3 * s.nodes.size))
    assert out.nodes.size == s.nodes.size - min(
        k, s.nodes.size - 1 - len(before))


def test_attr_mask_exact_count_and_seeded_positions():
    _, jg, _ = small_joint(d_p=6)
    nodes = np.array([0, 1, 2, 3, jg.num_ordinary], dtype=np.int64)  # 4 ordinary + 1 coord
    s = make_sample(jg, nodes)
    rng = np.random.default_rng(42)
    out = augment(jg, s, AugmentationSpec("attr_mask", 0.5), rng)
    # exactly ceil(0.5 * 4 * 6) = 12 masked entries, all on ordinary rows
    assert out.feature_mask.shape == (5, 6)
    assert int((out.feature_mask == 0).sum()) == 12
    assert np.all(out.feature_mask[4] == 1.0)
    # positions reproduce an independent draw from the same generator
    oracle = np.random.default_rng(42).choice(24, size=12, replace=False)
    want = np.ones((5, 6), dtype=np.float32)
    want[oracle // 6, oracle % 6] = 0.0
    assert np.array_equal(out.feature_mask, want)


def test_edge_perturb_preserves_node_set_and_symmetry():
    _, jg, _ = small_joint()
    s = first_sample(jg)
    rng = np.random.default_rng(5)
    out = augment(jg, s, AugmentationSpec("edge_perturb", 0.3), rng)
    assert np.array_equal(out.nodes, s.nodes)
    assert (out.adjacency != out.adjacency.T).nnz == 0
    und_before = (s.adjacency.nnz - int(s.adjacency.diagonal().sum())) // 2
    und_after = (out.adjacency.nnz - int(out.adjacency.diagonal().sum())) // 2
    assert und_after <= und_before + int(np.ceil(0.3 * und_before))


def test_subgraph_keeps_center_and_coordinators_and_shrinks():
    _, jg, _ = small_joint()
    s = first_sample(jg)
    rng = np.random.default_rng(9)
    out = augment(jg, s, AugmentationSpec("subgraph", 0.4), rng)
    assert out.nodes[0] == s.nodes[0]
    n_coord = int(jg.is_coordinator(s.nodes).sum())
    target = max(1, int(np.floor(0.6 * s.nodes.size)))
    assert out.nodes.size <= target + n_coord
    assert set(out.nodes.tolist()) <= set(s.nodes.tolist())


def test_augmentation_deterministic_given_generator():
    _, jg, _ = small_joint()
    s = first_sample(jg)
    for kind in ("node_drop", "edge_perturb", "attr_mask", "subgraph"):
        a = augment(jg, s, AugmentationSpec(kind, 0.3), np.random.default_rng(7))
        b = augment(jg, s, AugmentationSpec(kind, 0.3), np.random.default_rng(7))
        assert np.array_equal(a.nodes, b.nodes)
        assert (a.adjacency != b.adjacency).nnz == 0


KINDS = ("node_drop", "edge_perturb", "attr_mask", "subgraph")


def upper_edges(adj):
    a = sp.triu(adj, k=1).tocoo()
    return sorted(zip(a.row.tolist(), a.col.tolist()))


@pytest.mark.parametrize("ratio", [0.05, 0.3, 0.9])
def test_edge_perturb_drops_and_adds_exact_counts(ratio):
    _, jg, _ = small_joint(sizes=(30, 25))
    s = first_sample(jg, hops=1)
    out = augment(jg, s, AugmentationSpec("edge_perturb", ratio),
                  np.random.default_rng(5))
    edges = upper_edges(s.adjacency)
    k = int(np.ceil(ratio * len(edges)))
    # the first draw picks the dropped edges among the sorted undirected ones
    dropped = set(np.random.default_rng(5).choice(len(edges), size=k,
                                                  replace=False).tolist())
    survivors = {e for i, e in enumerate(edges) if i not in dropped}
    after = set(upper_edges(out.adjacency))
    assert len(survivors) == len(edges) - k
    assert survivors <= after
    assert len(after - survivors) == k        # the rejection loop succeeded
    assert np.array_equal(out.adjacency.diagonal(), s.adjacency.diagonal())
    assert np.all(out.adjacency.data == 1.0)
    assert (out.adjacency != out.adjacency.T).nnz == 0
    assert np.array_equal(out.nodes, s.nodes)


@pytest.mark.parametrize("kind", KINDS)
def test_every_view_keeps_center_at_local_zero(kind):
    _, jg, _ = small_joint(sizes=(30, 25))
    for hops in (1, 2):
        for k, nodes in enumerate(sample_joint_batch(jg, 4, hops, 0)):
            s = make_sample(jg, nodes)
            for ratio in (0.2, 0.9):
                out = augment(jg, s, AugmentationSpec(kind, ratio),
                              np.random.default_rng(k))
                assert out.nodes[0] == s.nodes[0]
                assert not jg.is_coordinator(out.nodes[0])
                if kind in ("node_drop", "subgraph"):
                    local = {v: i for i, v in enumerate(s.nodes.tolist())}
                    kept = [local[v] for v in out.nodes.tolist()]
                    assert kept == sorted(set(kept))
                    coords = s.nodes[jg.is_coordinator(s.nodes)]
                    assert set(coords.tolist()) <= set(out.nodes.tolist())


def augment_views_digest():
    """SHA-256 prefix over the augmented views of small joint graphs."""
    h = hashlib.sha256()
    for sizes, per_dataset, hops in (((30,), 0, 1), ((12, 10), 1, 2),
                                     ((120, 80), 2, 1), ((60, 40), 1, 2)):
        graphs = [synth_dataset(n, 3, 8, 0.6, i) for i, n in enumerate(sizes)]
        proj = project_all(graphs, ProjectionConfig(d_p=6))
        jg = build_joint_graph(proj, [g.adjacency for g in graphs],
                               CoordinatorSet(per_dataset=per_dataset))
        for k, nodes in enumerate(sample_joint_batch(jg, 3, hops, 0)):
            s = make_sample(jg, nodes)
            for kind in KINDS:
                for ratio in (0.05, 0.2, 0.5, 0.9):
                    v = augment(jg, s, AugmentationSpec(kind, ratio),
                                np.random.default_rng([k, int(ratio * 100)]))
                    a = v.adjacency
                    for arr in (v.nodes, a.indptr, a.indices, a.data, v.feature_mask):
                        if arr is not None:
                            h.update(arr.dtype.str.encode() + arr.tobytes())
    return h.hexdigest()[:16]


def test_augment_views_match_recorded_digest():
    # recorded before the view layer was rewritten; a change here means the
    # augmentations draw or build different views than they used to
    assert augment_views_digest() == "9bee80a9918ffc98"


def test_augmentation_spec_validation():
    with pytest.raises(errors.InvalidArgument):
        AugmentationSpec("spectral", 0.2)
    with pytest.raises(errors.InvalidArgument):
        AugmentationSpec("node_drop", 1.0)


# ------------------------------------------------------------------ contrastive

def test_nt_xent_identical_embeddings_is_log_batch():
    for b in (2, 3, 5, 8):
        z = Tensor(np.ones((b, 4)))
        loss = nt_xent(z, Tensor(np.ones((b, 4))), temperature=0.5)
        assert float(loss.data) == pytest.approx(np.log(b), abs=1e-7)


def test_nt_xent_two_sample_hand_value():
    # cos(anchor_i, positive_i) = 1, cross cosine = 0.5, temperature 0.5:
    # each anchor contributes log(1 + e^-1) = 0.3132617
    z = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    loss = nt_xent(Tensor(z.copy()), Tensor(z.copy()), temperature=0.5)
    assert float(loss.data) == pytest.approx(np.log1p(np.exp(-1.0)), abs=1e-9)
    assert float(loss.data) == pytest.approx(0.31326, abs=1e-5)


@pytest.mark.parametrize("seed", range(10))
def test_nt_xent_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(2, 9))
    a = rng.standard_normal((b, 5))
    p = rng.standard_normal((b, 5))
    tau = float(rng.uniform(0.1, 2.0))
    loss = nt_xent(Tensor(a.copy()), Tensor(p.copy()), tau)
    assert float(loss.data) == pytest.approx(brute_nt_xent(a, p, tau), abs=1e-8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [2, 8, 32])
def test_nt_xent_bytes_equal_the_eye_mask_form(dtype, b):
    """The loss and both gradients equal the diagonal-mask form's bytes."""
    rng = np.random.default_rng([b, np.dtype(dtype).itemsize])
    for _ in range(5):
        a, p = (rng.standard_normal((b, 6)).astype(dtype) for _ in range(2))
        tau = float(rng.uniform(0.1, 2.0))
        runs = []
        for loss_fn in (nt_xent, eye_mask_nt_xent):
            anchors, positives = Param(a.copy()), Param(p.copy())
            loss = loss_fn(anchors, positives, tau)
            loss.backward()
            runs.append([loss.data, anchors.grad, positives.grad])
        for got, want in zip(*runs):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_nt_xent_input_contracts():
    with pytest.raises(errors.InvalidArgument):
        nt_xent(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))), 0.5)
    with pytest.raises(errors.ShapeMismatch):
        nt_xent(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), 0.5)
    with pytest.raises(errors.ZeroEmbedding):
        nt_xent(Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 3))), 0.5)


# --------------------------------------------------------------- reconstruction

def test_reconstruction_perfect_decoder_zero_loss():
    dec = MlpDecoder(3, 4, 3, seed=0)
    emb = Tensor(np.zeros((4, 3), dtype=np.float32))
    target = dec.forward(emb)
    loss = reconstruction_loss(dec, emb, Tensor(target.data.copy()))
    assert float(loss.data) == 0.0


def test_reconstruction_matches_loop_oracle():
    rng = np.random.default_rng(3)
    dec = MlpDecoder(4, 6, 5, seed=1)
    emb = rng.standard_normal((7, 4)).astype(np.float32)
    tgt = rng.standard_normal((7, 5)).astype(np.float32)
    loss = reconstruction_loss(dec, Tensor(emb), Tensor(tgt))
    pred = dec.forward(Tensor(emb)).data
    assert float(loss.data) == pytest.approx(brute_mse(pred, tgt), rel=1e-6)


# -------------------------------------------------------------------- simgrace

def test_simgrace_eta_zero_views_identical():
    _, jg, _ = small_joint()
    s = first_sample(jg)
    enc = make_encoder("gcn", jg.base_features.shape[1], hidden=8, seed=0)
    clean, noisy = simgrace_views(enc, jg.feature_tensor(), s, 0.0,
                                  np.random.default_rng(0))
    assert np.array_equal(clean.data, noisy.data)


def test_simgrace_reproducible_and_leaves_encoder_untouched():
    _, jg, _ = small_joint()
    s = first_sample(jg)
    enc = make_encoder("gcn", jg.base_features.shape[1], hidden=8, seed=0)
    before = [p.data.copy() for p in enc.params()]
    _, n1 = simgrace_views(enc, jg.feature_tensor(), s, 0.5,
                           np.random.default_rng(11))
    _, n2 = simgrace_views(enc, jg.feature_tensor(), s, 0.5,
                           np.random.default_rng(11))
    assert np.array_equal(n1.data, n2.data)
    for p, old in zip(enc.params(), before):
        assert np.array_equal(p.data, old)


def test_simgrace_passes_share_one_operator_bytewise():
    """Both FAGCN passes use the clean encoder's operator; preparing one per
    pass gives the same bytes."""
    _, jg, _ = small_joint()
    s, feats = first_sample(jg), jg.feature_tensor()
    enc = make_encoder("fagcn", jg.base_features.shape[1], hidden=8, seed=0)
    clean, noisy = simgrace_views(enc, feats, s, 0.5, np.random.default_rng(4))
    rng, perturbed = np.random.default_rng(4), deepcopy(enc)
    for p in perturbed.params():    # simgrace_views' perturbation, replayed
        if p.data.std() > 0:
            noise = rng.standard_normal(p.data.shape).astype(p.data.dtype)
            p.data = p.data + 0.5 * float(p.data.std()) * noise
    assert clean.data.tobytes() != noisy.data.tobytes()
    for e, h in ((enc, clean), (perturbed, noisy)):
        assert encode_view(e, feats, s, e.prepare(s.adjacency)).data.tobytes() == \
            h.data.tobytes()


def test_simgrace_zero_variance_weight_not_perturbed():
    _, jg, _ = small_joint()
    s = first_sample(jg)
    enc = make_encoder("gcn", jg.base_features.shape[1], hidden=8, seed=0)
    enc.weights[0].data[:] = 0.0  # std is zero; noise must be skipped
    clean, noisy = simgrace_views(enc, jg.feature_tensor(), s, 0.5,
                                  np.random.default_rng(2))
    # first-layer output is bias-only in both copies, but later layers differ
    assert clean.data.shape == noisy.data.shape


# ------------------------------------------------------------------- end to end

def make_cfg(**kw):
    base = dict(objective="graphcl", epochs=1, batch_size=6, hops=1,
                learning_rate=1e-3, seed=0,
                augmentations=(AugmentationSpec("node_drop", 0.2),
                               AugmentationSpec("attr_mask", 0.2)))
    base.update(kw)
    return PretrainConfig(**base)


def test_lambda_zero_total_equals_contrastive_exactly():
    graphs = [synth_dataset(12, 2, 6, 0.7, i) for i in range(2)]
    res = pretrain(graphs, ProjectionConfig(d_p=5), CoordinatorSet(),
                   "gcn", make_cfg(lam=0.0), hidden=8)
    r = res.history[0]
    assert r.total == r.contrastive
    assert r.reconstruction >= 0.0


def test_total_is_contrastive_plus_weighted_reconstruction():
    graphs = [synth_dataset(12, 2, 6, 0.7, i) for i in range(2)]
    res = pretrain(graphs, ProjectionConfig(d_p=5), CoordinatorSet(),
                   "gcn", make_cfg(lam=0.2), hidden=8)
    r = res.history[0]
    assert r.total == pytest.approx(r.contrastive + 0.2 * r.reconstruction,
                                    rel=1e-6)


def test_zero_epochs_leaves_parameters_at_init():
    graphs = [synth_dataset(10, 2, 6, 0.7, i) for i in range(2)]
    res = pretrain(graphs, ProjectionConfig(d_p=5), CoordinatorSet(),
                   "gcn", make_cfg(epochs=0), hidden=8)
    fresh = make_encoder("gcn", 5, hidden=8, seed=0)
    for p, q in zip(res.encoder.params(), fresh.params()):
        assert np.array_equal(p.data, q.data)
    assert res.history == []


def test_coordinator_features_receive_gradient_updates():
    graphs = [synth_dataset(12, 2, 6, 0.7, i) for i in range(2)]
    coords = CoordinatorSet()
    pretrain(graphs, ProjectionConfig(d_p=5), coords, "gcn",
             make_cfg(epochs=1, seed=3), hidden=8)
    init = CoordinatorSet().init_features(2, 5, seed=3)
    assert not np.array_equal(coords.features.data, init.data)


@pytest.mark.parametrize("objective,enc", [("graphcl", "gcn"),
                                           ("simgrace", "gcn"),
                                           ("graphcl", "fagcn"),
                                           ("simgrace", "fagcn")])
def test_all_objective_encoder_combos_run_and_finite(objective, enc):
    graphs = [synth_dataset(10, 2, 6, 0.7, i) for i in range(2)]
    res = pretrain(graphs, ProjectionConfig(d_p=5), CoordinatorSet(),
                   enc, make_cfg(objective=objective, epochs=2), hidden=8)
    assert len(res.history) == 2
    assert all(np.isfinite(r.total) for r in res.history)


def test_pretrain_deterministic_bitwise():
    graphs = [synth_dataset(12, 2, 6, 0.7, i) for i in range(2)]
    runs = []
    for _ in range(2):
        res = pretrain(graphs, ProjectionConfig(d_p=5), CoordinatorSet(),
                       "gcn", make_cfg(epochs=3), hidden=8)
        runs.append(np.concatenate([p.data.ravel() for p in res.encoder.params()]))
    assert runs[0].tobytes() == runs[1].tobytes()


def test_zero_coordinators_pretrain_alike_under_dynamic_and_full_wiring():
    """With no coordinators the dynamic rewiring rebuilds the same graph, so
    it trains what the full wiring trains, bit for bit."""
    graphs = [synth_dataset(12, 2, 6, 0.7, i) for i in range(2)]
    runs = []
    for mode in ("dynamic", "full"):
        res = pretrain(graphs, ProjectionConfig(d_p=5),
                       CoordinatorSet(per_dataset=0, inter_mode=mode),
                       "gcn", make_cfg(epochs=3), hidden=8)
        runs.append(([p.data.tobytes() for p in res.encoder.params()], res.history))
    assert runs[0] == runs[1]


def test_loss_decreases_on_small_problem():
    graphs = [synth_dataset(15, 3, 6, 0.8, i) for i in range(2)]
    res = pretrain(graphs, ProjectionConfig(d_p=5), CoordinatorSet(),
                   "gcn", make_cfg(epochs=25, learning_rate=5e-3), hidden=8,
                   activation="tanh")
    first = np.mean([r.total for r in res.history[:5]])
    last = np.mean([r.total for r in res.history[-5:]])
    assert last < first


def test_config_validation():
    with pytest.raises(errors.InvalidArgument):
        PretrainConfig(objective="byol")
    with pytest.raises(errors.InvalidArgument):
        PretrainConfig(temperature=0.0)
    with pytest.raises(errors.InvalidArgument):
        PretrainConfig(lam=-0.1)
    for key, bad in (("epochs", -1), ("batch_size", 1), ("hops", 0)):
        with pytest.raises(errors.InvalidArgument, match=key):
            PretrainConfig(**{key: bad})


@pytest.mark.parametrize("count", [0, 1, 3])
def test_config_needs_exactly_two_augmentations(count):
    """Pretraining draws two views, so one augmentation would fail mid-epoch
    and a third would be ignored."""
    with pytest.raises(errors.InvalidArgument, match="2 augmentations"):
        PretrainConfig(augmentations=(AugmentationSpec("node_drop", 0.2),) * count)


@pytest.mark.parametrize("objective,enc,views", [("graphcl", "gcn", 3), ("simgrace", "fagcn", 2)])
def test_tape_beyond_physical_memory_fails_before_the_second_sample(monkeypatch, objective,
                                                                    enc, views):
    """The guard measures sample 0's tape, so it raises after encoding one sample's
    views and before the second sample, the backward or any parameter update."""
    module = importlib.import_module("gcope.pretrain")
    encoded = []

    def counting_encode_view(*args):
        encoded.append(args[2])
        return encode_view(*args)
    monkeypatch.setattr(module, "PHYSICAL_MEMORY_BYTES", 4096)
    monkeypatch.setattr(module, "encode_view", counting_encode_view)
    _, jg, coords = small_joint()
    encoder, decoder = make_encoder(enc, 6, hidden=8), MlpDecoder(8, 8, 6)
    opt = Adam(encoder.params() + decoder.params() + [coords.features])
    before = [p.data.copy() for p in opt.params] + [m.copy() for m in opt.m + opt.v]
    with pytest.raises(errors.InvalidArgument) as info:
        module.pretrain_epoch(jg, encoder, decoder,
                              make_cfg(objective=objective, batch_size=4, hops=2), 0, opt)
    msg = str(info.value)
    assert "batch_size (4)" in msg and "hops (2)" in msg and " MB" in msg
    assert len(encoded) == views
    after = [p.data for p in opt.params] + opt.m + opt.v
    assert opt.t == 0 and all(np.array_equal(a, b) for a, b in zip(after, before))


def test_tape_estimate_is_within_a_factor_of_the_measured_tape(monkeypatch):
    """At hops=2 the memory guard's estimate lands within 0.9-1.1x of the arrays one
    step's tape keeps at `backward`, for every encoder and objective: the guard fires
    with that much memory at 0.9x and passes at 1.1x. At hops=1 the views differ in
    size more, and the bound is 0.67-1.5x."""
    module = importlib.import_module("gcope.pretrain")
    measured, backward = [], Tensor.backward

    def measuring_backward(loss):
        measured.append(sum(a.nbytes for a in tape_arrays([loss])))
        backward(loss)
    monkeypatch.setattr(Tensor, "backward", measuring_backward)
    _, jg, coords = small_joint(sizes=(60, 50))
    for hops, low, high in ((2, 0.9, 1.1), (1, 0.67, 1.5)):
        for objective, enc in [("graphcl", "gcn"), ("graphcl", "fagcn"),
                               ("simgrace", "gcn"), ("simgrace", "fagcn")]:
            encoder = make_encoder(enc, 6, hidden=16)
            decoder = MlpDecoder(16, 16, 6)
            opt = Adam(encoder.params() + decoder.params() + [coords.features])
            cfg = make_cfg(objective=objective, batch_size=6, hops=hops)
            monkeypatch.setattr(module, "PHYSICAL_MEMORY_BYTES", 2**62)
            module.pretrain_epoch(jg, encoder, decoder, cfg, 0, opt)
            tape = measured[-1]
            monkeypatch.setattr(module, "PHYSICAL_MEMORY_BYTES", int(low * tape))
            with pytest.raises(errors.InvalidArgument):
                module.pretrain_epoch(jg, encoder, decoder, cfg, 0, opt)
            monkeypatch.setattr(module, "PHYSICAL_MEMORY_BYTES", int(high * tape))
            module.pretrain_epoch(jg, encoder, decoder, cfg, 0, opt)
            assert measured[-1] == tape, (objective, enc, hops)


def one_step(module, jg, coords, objective, enc_kind, d_p, hidden, batch_size):
    """One `pretrain_epoch` step: its loss report, and the gradients Adam was
    handed followed by the parameters after the step."""
    encoder = make_encoder(enc_kind, d_p, hidden=hidden)
    decoder = MlpDecoder(hidden, hidden, d_p)
    opt = Adam(encoder.params() + decoder.params() + [coords.features], lr=1e-3)
    grads, step = [], opt.step

    def recording_step():
        grads.extend(p.grad for p in opt.params)
        step()
    opt.step = recording_step
    cfg = make_cfg(objective=objective, batch_size=batch_size, hops=2)
    report = module.pretrain_epoch(jg, encoder, decoder, cfg, 0, opt)
    return report, grads + [p.data for p in opt.params]


@pytest.mark.parametrize("objective,enc", [("graphcl", "gcn"), ("simgrace", "fagcn")])
def test_step_is_bitwise_the_gather_chain_at_blas_splitting_size(monkeypatch, objective, enc):
    """At hops=2 each view spans a whole 1,000-node source, where BLAS splits the
    long products between threads. A step whose ops read their rows gives the
    gather chain's losses, gradients and parameters byte for byte."""
    module = importlib.import_module("gcope.pretrain")
    graphs = [synth_dataset(1000, 4, 64, h, i) for i, h in enumerate((0.9, 0.2))]
    proj = project_all(graphs, ProjectionConfig(d_p=32))
    runs = []
    for chain in (False, True):
        if chain:
            monkeypatch.setattr(module, "encode_view", gather_encode_view)
            monkeypatch.setattr(module, "reconstruction_loss", gather_reconstruction_loss)
        coords = CoordinatorSet(per_dataset=1)
        jg = build_joint_graph(proj, [g.adjacency for g in graphs], coords, seed=0)
        assert sample_joint_batch(jg, 1, 2, 0)[0].size > 1000
        runs.append(one_step(module, jg, coords, objective, enc, 32, 64, 4))
    (report, arrays), (want_report, want_arrays) = runs
    assert report == want_report and len(arrays) == len(want_arrays)
    for got, want in zip(arrays, want_arrays):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_graphcl_step_keeps_no_gathered_rows(monkeypatch):
    """An unmasked view keeps no gathered input and the reconstruction no gather
    of the clean embeddings; a masked view keeps its masked input only."""
    module = importlib.import_module("gcope.pretrain")
    graphs, jg, coords = small_joint(sizes=(60, 50))
    features = jg.feature_tensor().data
    encoded, buffers, backward = [], [], Tensor.backward

    def recording_encode_view(encoder, feats, view, operator):
        encoded.append((view, encode_view(encoder, feats, view, operator)))
        return encoded[-1][1]

    def recording_backward(loss):
        buffers.extend(tape_arrays([loss]))
        backward(loss)
    monkeypatch.setattr(module, "encode_view", recording_encode_view)
    monkeypatch.setattr(Tensor, "backward", recording_backward)
    one_step(module, jg, coords, "graphcl", "gcn", 6, 16, 6)

    def kept(array):
        return sum(b.shape == array.shape and np.array_equal(b, array) for b in buffers)
    assert len(encoded) == 18
    for view, _ in encoded:
        gathered = features[view.nodes]
        assert kept(gathered) == 0
        if view.feature_mask is not None:
            assert kept(gathered * view.feature_mask) == 1
    for view, h in encoded[2::3]:        # each sample's clean view
        assert view.feature_mask is None
        ordinary = np.flatnonzero(~jg.is_coordinator(view.nodes))
        assert ordinary.size < view.nodes.size and kept(h.data[ordinary]) == 0
