import numpy as np
import pytest

from gcope import errors, evalkit
from gcope.amalgam import CoordinatorSet, build_joint_graph
from gcope.evalkit import (ExperimentParams, RunSummary, improvement_pct,
                           run_ablation, run_pretrained, run_supervised,
                           summary_rows, write_summary_csv,
                           write_summary_markdown)
from gcope.graphstore import synth_dataset
from gcope.pretrain import AugmentationSpec, PretrainConfig
from gcope.projection import ProjectionConfig, project_all
from gcope.transfer import MetricReport, TransferConfig

from scaling_probe import runtime_scaling_probe


def fake_summary(scheme, accs, aucs=None, f1s=None):
    aucs = aucs if aucs is not None else accs
    f1s = f1s if f1s is not None else accs
    reports = [MetricReport(acc=a, auc=u, f1=f) for a, u, f in zip(accs, aucs, f1s)]
    return RunSummary(scheme=scheme, transfer_mode="finetune",
                      reports=reports, seeds=list(range(len(accs))))


def tiny_params(**kw):
    base = dict(
        encoder={"enc_kind": "gcn", "hidden": 8}, k_shot=1, repeats=2, base_seed=0,
        proj_cfg=ProjectionConfig(d_p=5),
        pretrain_cfg=PretrainConfig(
            epochs=2, batch_size=6, hops=1, seed=0,
            augmentations=(AugmentationSpec("node_drop", 0.2),
                           AugmentationSpec("attr_mask", 0.2))),
        transfer_cfg=TransferConfig(epochs=3, learning_rate=1e-3))
    base.update(kw)
    return ExperimentParams(**base)


def tiny_data(seed=0):
    sources = [synth_dataset(14, 2, 6, 0.8, seed + i) for i in range(2)]
    target = synth_dataset(24, 2, 6, 0.8, seed + 9)
    return sources, target


# ------------------------------------------------------------------- summaries

def test_run_summary_single_repeat_std_zero():
    s = fake_summary("gcope", [0.7])
    assert s.std["acc"] == 0.0
    assert s.mean["acc"] == 0.7


def test_run_summary_sample_std_matches_manual():
    vals = [0.5, 0.7, 0.9]
    s = fake_summary("gcope", vals)
    assert s.mean["acc"] == pytest.approx(np.mean(vals))
    assert s.std["acc"] == pytest.approx(np.std(vals, ddof=1))


def test_run_summary_requires_reports():
    with pytest.raises(errors.InvalidArgument):
        RunSummary(scheme="gcope", transfer_mode="finetune", reports=[], seeds=[])


# ----------------------------------------------------------------- improvement

def test_improvement_identical_means_is_zero():
    g = fake_summary("gcope", [0.6, 0.6])
    b = fake_summary("supervised", [0.6, 0.6])
    imp = improvement_pct(g, [b])
    assert all(imp[m] == pytest.approx(0.0) for m in ("acc", "auc", "f1"))


def test_improvement_double_is_hundred_percent():
    g = fake_summary("gcope", [0.8, 0.8])
    b = fake_summary("supervised", [0.4, 0.4])
    assert improvement_pct(g, [b])["acc"] == pytest.approx(100.0)


def test_improvement_recomputed_from_raw_means():
    g = fake_summary("gcope", [0.9, 0.7])
    b1 = fake_summary("supervised", [0.5, 0.6])
    b2 = fake_summary("isolated_pretrain", [0.7, 0.8])
    imp = improvement_pct(g, [b1, b2])
    base = np.mean([np.mean([0.5, 0.6]), np.mean([0.7, 0.8])])
    assert imp["acc"] == pytest.approx((0.8 / base - 1) * 100, abs=1e-12)


def test_improvement_requires_baselines():
    with pytest.raises(errors.InvalidArgument):
        improvement_pct(fake_summary("gcope", [0.5]), [])


# -------------------------------------------------------------------- schemes

def test_three_schemes_run_and_bookkeep():
    sources, target = tiny_data()
    params = tiny_params()
    sup = run_supervised(target, params)
    iso = run_pretrained(sources, target, params, "isolated_pretrain")
    gco = run_pretrained(sources, target, params)
    for s, name in ((sup, "supervised"), (iso, "isolated_pretrain"),
                    (gco, "gcope")):
        assert s.scheme == name
        assert len(s.reports) == 2
        assert s.seeds == [0, 1]
        assert 0.0 <= s.mean["acc"] <= 1.0


def test_run_pretrained_leaves_params_unchanged_and_reruns_alike():
    """Each run trains its own copy of `params.coords`, so a second run with
    the same params starts from the same coordinator features."""
    sources, target = tiny_data()
    params = tiny_params()
    runs = [run_pretrained(sources, target, params) for _ in range(2)]
    assert params.coords.features is None
    first, second = (np.array([[r.acc, r.auc, r.f1] for r in s.reports]).tobytes()
                     for s in runs)
    assert first == second


def test_isolated_pretraining_has_no_coordinators():
    sources, _ = tiny_data()
    jg = build_joint_graph(project_all(sources, ProjectionConfig(d_p=5)),
                           [g.adjacency for g in sources],
                           CoordinatorSet(per_dataset=0))
    assert jg.num_coordinators == 0
    # block-diagonal: nothing connects the two source blocks
    n0 = sources[0].num_nodes
    assert jg.adjacency[:n0, n0:].nnz == 0


# ------------------------------------------------------------------- ablations

def test_lambda_sweep_bookkeeping():
    sources, target = tiny_data()
    rows = run_ablation("lambda_sweep", [0.0, 0.2, 1.0], sources, target,
                        tiny_params(repeats=1))
    assert [p for p, _ in rows] == [0.0, 0.2, 1.0]
    assert all(s.scheme == "gcope" and s.seeds == [0] for _, s in rows)


def test_inter_edge_ablation_adjacency_difference_count():
    sources, _ = tiny_data()
    proj = project_all(sources, ProjectionConfig(d_p=5))
    adjs = [g.adjacency for g in sources]
    for c in (1, 2):
        full = build_joint_graph(proj, adjs, CoordinatorSet(per_dataset=c))
        none = build_joint_graph(proj, adjs,
                                 CoordinatorSet(per_dataset=c, inter_mode="none"))
        diff = (full.adjacency - none.adjacency)
        m_c = 2 * c
        assert diff.nnz == m_c * (m_c - 1)


def test_coordinator_count_ablation_node_totals():
    sources, _ = tiny_data()
    proj = project_all(sources, ProjectionConfig(d_p=5))
    adjs = [g.adjacency for g in sources]
    n = sum(g.num_nodes for g in sources)
    for c in (1, 3, 5):
        jg = build_joint_graph(proj, adjs, CoordinatorSet(per_dataset=c))
        assert jg.num_nodes == n + 2 * c


def test_ablation_points_vary_one_field_of_the_base_coordinators(monkeypatch):
    seen = []
    real_pretrain = evalkit.pretrain

    def spy(sources, proj_cfg, coords, enc_kind, cfg, **kw):
        seen.append((coords.per_dataset, coords.inter_mode, coords.dynamic_threshold,
                     coords.features is None, cfg.lam))
        return real_pretrain(sources, proj_cfg, coords, enc_kind, cfg, **kw)

    monkeypatch.setattr(evalkit, "pretrain", spy)
    sources, target = tiny_data()
    base = CoordinatorSet(per_dataset=2, inter_mode="none")
    params = tiny_params(repeats=1, coords=base)
    run_ablation("lambda_sweep", [0.5], sources, target, params)
    rows = run_ablation("inter_edges", ["full", "dynamic:0.5"], sources, target,
                        params)
    run_ablation("coordinator_count", [3], sources, target, params)
    assert [p for p, _ in rows] == ["full", "dynamic:0.5"]
    assert seen == [(2, "none", 0.0, True, 0.5),
                    (2, "full", 0.0, True, 0.2),
                    (2, "dynamic", 0.5, True, 0.2),
                    (3, "none", 0.0, True, 0.2)]
    assert base.features is None


def test_zero_repeats_rejected_when_params_are_built():
    with pytest.raises(errors.InvalidArgument, match="repeats"):
        tiny_params(repeats=0)


def test_ablation_validates_every_point_before_pretraining(monkeypatch):
    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the grid was checked")

    monkeypatch.setattr(evalkit, "pretrain", no_pretraining)
    sources, target = tiny_data()
    with pytest.raises(errors.InvalidArgument):
        run_ablation("inter_edges", ["full", "dynamic:x"], sources, target,
                     tiny_params())
    with pytest.raises(errors.InvalidArgument):
        run_ablation("lambda_sweep", [0.1, -1.0], sources, target, tiny_params())


def test_unknown_ablation_kind_and_empty_grid():
    sources, target = tiny_data()
    with pytest.raises(errors.InvalidArgument):
        run_ablation("dropout", [0.1], sources, target, tiny_params())
    with pytest.raises(errors.InvalidArgument):
        run_ablation("lambda_sweep", [], sources, target, tiny_params())


# --------------------------------------------------------------------- reports

def test_summary_rows_include_improvement_row():
    g = fake_summary("gcope", [0.8, 0.8])
    b = fake_summary("supervised", [0.4, 0.4])
    rows = summary_rows([b, g], imp_vs=[b])
    assert rows[-1]["scheme"] == "IMP(%)"
    assert rows[-1]["acc_mean"] == pytest.approx(100.0)


def test_write_summary_csv_and_markdown(tmp_path):
    rows = summary_rows([fake_summary("supervised", [0.5, 0.6]),
                         fake_summary("gcope", [0.7, 0.8])])
    csv = tmp_path / "out.csv"
    md = tmp_path / "out.md"
    write_summary_csv(str(csv), rows)
    write_summary_markdown(str(md), rows, note="tiny run")
    lines = csv.read_text().strip().split("\n")
    assert lines[0].startswith("scheme,mode,acc_mean,acc_std")
    assert len(lines) == 3
    assert "0.750000" in lines[2]
    assert "| gcope |" in md.read_text()


def test_runtime_probe_reports_positive_times():
    out = runtime_scaling_probe([20, 40], m=2, batch_size=4, d=6)
    assert [n for n, _ in out] == [20, 40]
    assert all(t > 0 for _, t in out)
