"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS line (pytest -v shows one pass/fail line per criterion).

Criteria covered, in order: joint-adjacency oracle, truncated-SVD
optimality, gradient correctness of the full training loss, contrastive
and reconstruction loss oracles, cross-dataset connectivity semantics,
loss-weight bookkeeping, an end-to-end transfer smoke run, the prompt
contract, bitwise determinism, runtime scaling, and a conditional check
against the published citation-graph statistics.
"""

import itertools
import os
import time
from copy import deepcopy

import numpy as np
import pytest
import scipy.sparse as sp

from gcope.amalgam import CoordinatorSet, build_joint_graph, sample_joint_batch
from gcope.autodiff import Param, Tensor, concat_rows, gather_rows, mse, \
    softmax_cross_entropy
from gcope.cli import EXIT_OK, main as cli_main
from gcope.graphstore import describe, load_dataset, synth_dataset
from gcope.nn import MlpDecoder, graph_readout, make_encoder
from gcope.pretrain import (AugmentationSpec, PretrainConfig, nt_xent, pretrain,
                            reconstruction_loss)
from gcope.projection import ProjectionConfig, project_all, svd_project
from gcope.transfer import (TransferConfig, apply_prompt, build_fewshot_task,
                            evaluate_model, finetune, prompt_transfer,
                            trainable_param_count)

from oracles import (brute_mse, brute_nt_xent, dense_joint_adjacency,
                     finite_diff_grad, rel_err, svd_truncation_error)


def _passed(n, label):
    print(f"[acceptance] criterion {n} ({label}): PASS")


def _random_blocks(sizes, seed):
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


def _fake_projected(sizes, d_p=3, seed=0):
    from gcope.projection import ProjectedFeatures
    rng = np.random.default_rng(seed)
    return [ProjectedFeatures(matrix=rng.normal(size=(s, d_p)).astype(np.float32),
                              singular_values=np.ones(d_p), source_name=f"d{i}")
            for i, s in enumerate(sizes)]


def test_criterion_01_joint_adjacency_exhaustive_dense_oracle():
    t0 = time.perf_counter()
    checked = 0
    for m in range(1, 5):
        for sizes in itertools.product(range(1, 6), repeat=m):
            adjs = _random_blocks(sizes, seed=hash(sizes) % (2 ** 31))
            proj = _fake_projected(list(sizes))
            for c in (1, 2, 3):
                for inter in ("full", "none"):
                    jg = build_joint_graph(
                        proj, adjs, CoordinatorSet(per_dataset=c, inter_mode=inter))
                    want = dense_joint_adjacency(adjs, list(sizes), c, inter, True)
                    assert np.array_equal(jg.adjacency.toarray(), want), \
                        (m, sizes, c, inter)
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == sum(5 ** m for m in range(1, 5)) * 6
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    _passed(1, "joint adjacency equals dense materialization")


def test_criterion_02_svd_truncation_optimal_and_deterministic():
    for seed in range(210):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        x = rng.standard_normal((n, d))
        dp = int(rng.integers(1, d + 1))
        pf = svd_project(x, ProjectionConfig(d_p=dp))
        k = min(dp, n, d)
        xk = (x @ pf.basis) @ pf.basis.T
        assert np.linalg.norm(x - xk) == pytest.approx(
            svd_truncation_error(x, k), abs=1e-6), seed
        if seed < 20:
            again = svd_project(x, ProjectionConfig(d_p=dp))
            assert pf.matrix.tobytes() == again.matrix.tobytes()
            assert pf.singular_values.tobytes() == again.singular_values.tobytes()
    _passed(2, "rank-k projection achieves the optimal truncation error")


def _grad_setup(seed, enc_kind, objective, d_p=4, hidden=5, tau=0.5, lam=0.2):
    """A tiny 64-bit joint graph with two subgraph samples and fixed views."""
    rng = np.random.default_rng(seed)
    sizes = [3, 3]
    adjs = _random_blocks(sizes, seed=seed + 1)
    joint = dense_joint_adjacency(adjs, sizes, 1, "full", True)
    joint_sp = sp.csr_matrix(joint)
    base = rng.standard_normal((6, d_p))
    coords = Param(rng.standard_normal((2, d_p)), name="coords")
    enc = make_encoder(enc_kind, d_p, hidden=hidden, activation="tanh",
                       seed=seed, dtype=np.float64)
    dec = MlpDecoder(hidden, 6, d_p, seed=seed, dtype=np.float64)

    samples = [np.array([0, 1, 2, 6, 7]), np.array([3, 4, 5, 6, 7])]
    locals_ = [joint_sp[nodes][:, nodes].tocsr() for nodes in samples]
    masks = [Tensor((rng.random((n.size, d_p)) > 0.2).astype(np.float64))
             for n in samples]

    if objective == "simgrace":
        perturbed = deepcopy(enc)
        for p in perturbed.params():
            std = float(p.data.std())
            if std > 0:
                p.data = p.data + 0.1 * std * rng.standard_normal(p.data.shape)
    else:
        perturbed = None

    def loss():
        feats = concat_rows([Tensor(base), coords])
        z1, z2, recons = [], [], []
        for nodes, adj, mask in zip(samples, locals_, masks):
            x = gather_rows(feats, nodes)
            if objective == "graphcl":
                h1 = enc.forward(x * mask, enc.prepare(adj))
                h2 = enc.forward(x, enc.prepare(adj))
            else:
                h1 = enc.forward(x, enc.prepare(adj))
                h2 = perturbed.forward(x, perturbed.prepare(adj))
            h_clean = enc.forward(x, enc.prepare(adj))
            z1.append(graph_readout(h1, [0, nodes.size]))
            z2.append(graph_readout(h2, [0, nodes.size]))
            ordinary = np.flatnonzero(nodes < 6)
            recons.append(reconstruction_loss(
                dec, gather_rows(h_clean, ordinary),
                Tensor(base[nodes[ordinary]])))
        contrastive = nt_xent(concat_rows(z1), concat_rows(z2), tau)
        recon = concat_rows([t.reshape(1, 1) for t in recons]).mean()
        return contrastive + lam * recon

    params = enc.params() + dec.params() + [coords]
    return loss, params


@pytest.mark.parametrize("enc_kind,objective", [("gcn", "graphcl"),
                                                ("gcn", "simgrace"),
                                                ("fagcn", "graphcl"),
                                                ("fagcn", "simgrace")])
def test_criterion_03_full_loss_gradients_match_finite_differences(enc_kind,
                                                                   objective):
    t0 = time.perf_counter()
    combo = [("gcn", "graphcl"), ("gcn", "simgrace"),
             ("fagcn", "graphcl"), ("fagcn", "simgrace")].index((enc_kind, objective))
    for s in range(13):
        seed = 1000 * combo + s        # 52 distinct seeds across the suite
        loss_fn, params = _grad_setup(seed, enc_kind, objective)
        l = loss_fn()
        l.backward()
        grads = [p.grad.copy() for p in params]
        for p in params:
            p.zero_grad()
        for p, got in zip(params, grads):
            want = finite_diff_grad(lambda: float(loss_fn().data), p.data)
            assert rel_err(got, want) < 1e-4, (enc_kind, objective, seed, p.name)

        # prompt-token gradients through the attention-weighted insertion
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 4))
        tokens = Param(0.1 * rng.standard_normal((3, 4)), name="tokens")
        enc = make_encoder("gcn", 4, hidden=5, activation="tanh", seed=seed,
                           dtype=np.float64)
        head = Tensor(rng.standard_normal((5, 3)))
        adj = sp.csr_matrix(np.ones((4, 4)) - np.eye(4))

        def ploss():
            h = enc.forward(apply_prompt(Tensor(x.copy()), tokens), enc.prepare(adj))
            logits = graph_readout(h, [0, 4]) @ head
            return softmax_cross_entropy(logits, np.array([1]))

        ploss().backward()
        got = tokens.grad.copy()
        tokens.zero_grad()
        want = finite_diff_grad(lambda: float(ploss().data), tokens.data)
        assert rel_err(got, want) < 1e-4
    assert time.perf_counter() - t0 < 120.0
    _passed(3, f"gradients match finite differences [{enc_kind}/{objective}]")


def test_criterion_04_loss_value_oracles():
    # contrastive loss vs brute-force similarity matrices
    for seed in range(25):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 10))
        a = rng.standard_normal((b, 6))
        p = rng.standard_normal((b, 6))
        tau = float(rng.uniform(0.1, 2.0))
        got = float(nt_xent(Tensor(a.copy()), Tensor(p.copy()), tau).data)
        assert got == pytest.approx(brute_nt_xent(a, p, tau), abs=1e-6)
    # hand-derived two-sample value: unit self-similarity, 0.5 cross cosine
    z = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    val = float(nt_xent(Tensor(z.copy()), Tensor(z.copy()), 0.5).data)
    assert val == pytest.approx(0.31326, abs=1e-5)
    # all-equal embeddings collapse to exactly log(batch)
    for b in (2, 4, 7):
        v = float(nt_xent(Tensor(np.ones((b, 3))), Tensor(np.ones((b, 3))), 0.5).data)
        assert v == pytest.approx(np.log(b), abs=1e-9)
    # reconstruction error vs direct loops
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((6, 4))
        tgt = rng.standard_normal((6, 4))
        got = float(mse(Tensor(pred.copy()), Tensor(tgt.copy())).data)
        assert got == pytest.approx(brute_mse(pred, tgt), abs=1e-7)
    _passed(4, "contrastive and reconstruction losses match brute force")


def test_criterion_05_cross_dataset_connectivity_semantics():
    sizes = [40, 40]
    graphs = [synth_dataset(s, 2, 6, 0.7, i) for i, s in enumerate(sizes)]
    proj = project_all(graphs, ProjectionConfig(d_p=5))
    adjs = [g.adjacency for g in graphs]

    jg_none = build_joint_graph(proj, adjs, CoordinatorSet(inter_mode="none"))
    for nodes in sample_joint_batch(jg_none, 40, 2, rng_seed=0):
        center_origin = jg_none.origin[nodes[0]]
        ordinary = nodes[nodes < jg_none.num_ordinary]
        assert set(jg_none.origin[ordinary]) == {center_origin}

    jg_full = build_joint_graph(proj, adjs, CoordinatorSet(inter_mode="full"))
    crossed = 0
    for nodes in sample_joint_batch(jg_full, 40, 2, rng_seed=0):
        center_origin = jg_full.origin[nodes[0]]
        if any(jg_full.origin[n] != center_origin for n in nodes):
            crossed += 1
    assert crossed == 40  # the foreign coordinator is always two hops away
    _passed(5, "coordinator wiring controls cross-dataset reachability")


def test_criterion_06_loss_weight_bookkeeping():
    graphs = [synth_dataset(14, 2, 6, 0.8, i) for i in range(2)]

    def first_epoch(lam):
        cfg = PretrainConfig(epochs=1, batch_size=6, hops=1, lam=lam, seed=0,
                             augmentations=(AugmentationSpec("node_drop", 0.2),
                                            AugmentationSpec("attr_mask", 0.2)))
        res = pretrain(graphs, ProjectionConfig(d_p=5), CoordinatorSet(),
                       "gcn", cfg, hidden=8)
        return res.history[0]

    r0 = first_epoch(0.0)
    assert r0.total == r0.contrastive          # exact equality, no epsilon
    contributions = []
    for lam in (0.0, 0.2, 1.0):
        r = first_epoch(lam)
        contributions.append(r.total - r.contrastive)
        assert r.total == pytest.approx(r.contrastive + lam * r.reconstruction,
                                        rel=1e-6)
    assert contributions[0] < contributions[1] < contributions[2]
    _passed(6, "reconstruction weight bookkeeping is exact and monotone")


def test_criterion_07_end_to_end_transfer_smoke():
    t0 = time.perf_counter()
    sources = [synth_dataset(300, 3, 12, 0.9, 1),
               synth_dataset(300, 3, 12, 0.1, 2)]
    target = synth_dataset(300, 3, 12, 0.85, 3)
    proj_cfg = ProjectionConfig(d_p=16)
    pre_cfg = PretrainConfig(epochs=50, batch_size=32, hops=1,
                             learning_rate=1e-3, seed=0,
                             augmentations=(AugmentationSpec("node_drop", 0.2),
                                            AugmentationSpec("attr_mask", 0.2)))
    result = pretrain(sources, proj_cfg, CoordinatorSet(), "gcn", pre_cfg,
                      hidden=16, activation="tanh")
    head = np.mean([r.total for r in result.history[:5]])
    tail = np.mean([r.total for r in result.history[45:50]])
    assert tail < head, f"loss did not decrease: {head:.4f} -> {tail:.4f}"

    accs = {"gcope": [], "supervised": []}
    for rep in range(5):
        task = build_fewshot_task(target, k_shot=1, hops=1, seed=rep)
        cfg = TransferConfig(epochs=40, learning_rate=5e-3, patience=10,
                             seed=rep)
        model = finetune(deepcopy(result.encoder), task, cfg, proj_cfg)
        accs["gcope"].append(evaluate_model(model, task, "test").acc)
        fresh = make_encoder("gcn", 16, hidden=16, activation="tanh", seed=rep)
        model = finetune(fresh, task, cfg, proj_cfg)
        accs["supervised"].append(evaluate_model(model, task, "test").acc)
    gcope_mean = float(np.mean(accs["gcope"]))
    sup_mean = float(np.mean(accs["supervised"]))
    assert gcope_mean >= sup_mean - 0.05, (gcope_mean, sup_mean)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"smoke run took {elapsed:.0f}s"
    _passed(7, f"end-to-end smoke (pretrained {gcope_mean:.3f} vs "
               f"scratch {sup_mean:.3f}, {elapsed:.0f}s)")


def test_criterion_08_prompt_contract():
    # frozen-encoder bytes unchanged by prompt training
    g = synth_dataset(120, 5, 16, 0.8, 4)
    task = build_fewshot_task(g, 2, seed=0)
    enc = make_encoder("gcn", 100, hidden=100, seed=0)
    before = [p.data.tobytes() for p in enc.params()]
    model = prompt_transfer(enc, task, TransferConfig(
        mode="prompt", epochs=5, learning_rate=1e-2, prompt_tokens=10),
        ProjectionConfig(d_p=100))
    assert [p.data.tobytes() for p in model.encoder.params()] == before

    # zero tokens leave the input, hence the frozen forward, bit-identical
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 100)).astype(np.float32)
    adj = sp.csr_matrix((np.ones(2, np.float32), ([0, 1], [1, 0])), shape=(6, 6))
    prompted = apply_prompt(Tensor(x.copy()), Param(np.zeros((10, 100), np.float32)))
    assert prompted.data.tobytes() == x.tobytes()
    assert enc.forward(prompted, enc.prepare(adj)).data.tobytes() == \
        enc.forward(Tensor(x.copy()), enc.prepare(adj)).data.tobytes()

    # 10 x 100 tokens + 100 x 5 head + 5 biases
    assert trainable_param_count(model) == 1505
    _passed(8, "prompting freezes the encoder and owns 1505 parameters")


def test_criterion_09_bitwise_determinism(tmp_path):
    def synth(out, seed):
        assert cli_main(["synth", "--nodes", "40", "--classes", "2", "--dim", "6",
                         "--homophily", "0.8", "--seed", str(seed),
                         "--out", str(out)]) == EXIT_OK
        return str(out)

    a, b = synth(tmp_path / "a", 1), synth(tmp_path / "b", 2)
    tgt = synth(tmp_path / "t", 5)
    artifacts = []
    for tag in ("first", "second"):
        ckpt = tmp_path / f"{tag}.ckpt"
        assert cli_main(["pretrain", "--sources", f"{a},{b}", "--out", str(ckpt),
                         "--proj-dim", "5", "--hidden", "8", "--epochs", "3",
                         "--batch-size", "8", "--hops", "1"]) == EXIT_OK
        csv = tmp_path / f"{tag}.csv"
        assert cli_main(["transfer", "--ckpt", str(ckpt), "--target", tgt,
                         "--out", str(csv), "--proj-dim", "5", "--hidden", "8",
                         "--transfer-epochs", "4", "--shots", "1",
                         "--repeats", "2"]) == EXIT_OK
        artifacts.append((ckpt.read_bytes(),
                          (tmp_path / f"{tag}.ckpt.loss.csv").read_text(),
                          csv.read_text()))
    assert artifacts[0] == artifacts[1]
    _passed(9, "re-runs produce byte-identical checkpoints and CSVs")


def _best_probe_times(configs, tries=3):
    """Fastest of `tries` timings of each (n, m), taken in rounds that time
    every configuration once, so a change of machine speed between rounds
    reaches all of them alike."""
    from gcope.evalkit import runtime_scaling_probe
    best = dict.fromkeys(configs, np.inf)
    for _ in range(tries):
        for n, m in configs:
            (_, t), = runtime_scaling_probe([n], m=m, batch_size=16, d=12)
            best[n, m] = min(best[n, m], t)
    return [best[c] for c in configs]


def test_criterion_10_runtime_scaling():
    _best_probe_times([(200, 2)], tries=1)      # warm up caches and BLAS
    t1000, t2000 = _best_probe_times([(1000, 2), (2000, 2)])
    assert t2000 < 3.0 * t1000, (t1000, t2000)
    tm1, tm4 = _best_probe_times([(1000, 1), (1000, 4)])
    assert max(tm1, tm4) / min(tm1, tm4) < 1.5, (tm1, tm4)
    _passed(10, f"scaling: 2000 nodes {t2000:.2f}s vs 1000 nodes {t1000:.2f}s; "
                f"4 sources {tm4:.2f}s vs 1 source {tm1:.2f}s")


TABLE_STATS = {
    "cora": (2708, 10556, 1433, 7, 0.810),
    "citeseer": (3327, 9104, 3703, 6, 0.736),
}


def test_criterion_11_citation_graph_statistics_if_available():
    root = os.environ.get("GCOPE_DATA_DIR", os.path.join(os.path.dirname(__file__),
                                                         "..", "data"))
    available = {name: os.path.join(root, name) for name in TABLE_STATS
                 if os.path.isfile(os.path.join(root, name, "meta.tsv"))}
    if not available:
        print("[acceptance] criterion 11 (citation-graph statistics): SKIP "
              "(no datasets under GCOPE_DATA_DIR or ./data)")
        pytest.skip("citation datasets not supplied")
    for name, path in available.items():
        nodes, edges, feats, labels, h = TABLE_STATS[name]
        meta = describe(load_dataset(path))
        assert meta.node_count == nodes
        assert meta.edge_count == edges
        assert meta.feature_dim == feats
        assert meta.label_count == labels
        assert abs(meta.homophily - h) <= 0.05
    _passed(11, f"citation statistics verified for {sorted(available)}")
