import filecmp
import inspect
import os
from pathlib import Path

import numpy as np
import pytest

from gcope import cli, config, evalkit
from gcope.amalgam import CoordinatorSet
from gcope.checkpoint import load_checkpoint
from gcope.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from gcope.evalkit import ExperimentParams
from gcope.graphstore import GraphDataset, write_dataset
from gcope.nn import ARCHITECTURE, make_encoder
from gcope.pretrain import PretrainConfig
from gcope.projection import ProjectionConfig
from gcope.transfer import TransferConfig


def run(*argv):
    return main(list(argv))


def synth(out, nodes=24, classes=2, dim=6, h=0.8, seed=0):
    code = run("synth", "--nodes", str(nodes), "--classes", str(classes),
               "--dim", str(dim), "--homophily", str(h), "--seed", str(seed),
               "--out", str(out))
    assert code == EXIT_OK
    return str(out)


PRETRAIN_FLAGS = ["--proj-dim", "5", "--hidden", "8", "--epochs", "2",
                  "--batch-size", "6", "--hops", "1"]
TRANSFER_FLAGS = ["--proj-dim", "5", "--hidden", "8", "--transfer-epochs", "3",
                  "--shots", "1", "--repeats", "2"]


def pretrain(tmp_path, name="model.ckpt", extra=()):
    a = synth(tmp_path / "a", seed=1)
    b = synth(tmp_path / "b", seed=2)
    ckpt = tmp_path / name
    code = run("pretrain", "--sources", f"{a},{b}", "--out", str(ckpt),
               *PRETRAIN_FLAGS, *extra)
    assert code == EXIT_OK
    return ckpt


def test_help_exits_zero_for_all_subcommands():
    for cmd in ("synth", "pretrain", "transfer", "eval", "ablate", "inspect"):
        assert run(cmd, "--help") == EXIT_OK
    assert run("--help") == EXIT_OK


def test_synth_deterministic_byte_identical_dirs(tmp_path):
    d1 = synth(tmp_path / "one", seed=7)
    d2 = synth(tmp_path / "two", seed=7)
    files = sorted(os.listdir(d1))
    assert files == sorted(os.listdir(d2))
    match, mismatch, errs = filecmp.cmpfiles(d1, d2, files, shallow=False)
    assert mismatch == [] and errs == []


def test_synth_invalid_homophily_is_usage_error(tmp_path, capsys):
    code = run("synth", "--nodes", "10", "--classes", "2", "--dim", "4",
               "--homophily", "1.5", "--out", str(tmp_path / "bad"))
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_missing_dataset_is_usage_error(tmp_path):
    code = run("pretrain", "--sources", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "m.ckpt"), *PRETRAIN_FLAGS)
    assert code == EXIT_USAGE


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=2\ndropout=0.5\n")
    a = synth(tmp_path / "a")
    code = run("pretrain", "--sources", a, "--out", str(tmp_path / "m.ckpt"),
               "--config", str(cfg))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, config_text", [
    (("ablate", "--target", "{a}", "--kind", "lambda_sweep", "--grid", "0.1,abc"), None),
    (("ablate", "--target", "{a}", "--kind", "coordinator_count", "--grid", "1,1.5"),
     None),
    (("pretrain", "--inter-mode", "dynamic:abc"), None),
    (("pretrain",), "inter_mode=dynamic:x\n"),
    (("pretrain", "--hidden", "abc"), None),
    (("pretrain",), "hidden=abc\n"),
], ids=["lambda-grid", "count-grid", "inter-mode-flag", "inter-mode-config",
        "hidden-flag", "hidden-config"])
def test_malformed_number_is_usage_error(tmp_path, capsys, argv, config_text):
    a = synth(tmp_path / "a")
    extra = ()
    if config_text is not None:
        (tmp_path / "run.cfg").write_text(config_text)
        extra = ("--config", str(tmp_path / "run.cfg"))
    command, *flags = (x.format(a=a) for x in argv)   # flags last: they win
    code = run(command, "--sources", a, "--out", str(tmp_path / "out"),
               *PRETRAIN_FLAGS, *flags, *extra)
    assert code == EXIT_USAGE
    assert "error: InvalidArgument:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--kind", "inter_edges", "--grid", "full,dynamic:abc"),
    ("--kind", "lambda_sweep", "--grid", "0.1", "--repeats", "0"),
    ("--kind", "coordinator_count", "--grid", "1,-1"),
], ids=["bad-later-point", "zero-repeats", "negative-count"])
def test_ablate_rejects_bad_settings_before_any_pretraining(tmp_path, capsys,
                                                             monkeypatch, argv):
    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the settings were checked")

    monkeypatch.setattr(evalkit, "pretrain", no_pretraining)
    a = synth(tmp_path / "a")
    code = run("ablate", *argv, "--sources", a, "--target", a,
               "--out", str(tmp_path / "out"), *PRETRAIN_FLAGS)
    assert code == EXIT_USAGE
    assert "error: InvalidArgument:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a valid value other than the default for each str key
OTHER_STR = {"inter_mode": "none", "objective": "simgrace", "aug1": "subgraph",
             "aug2": "edge_perturb", "enc_kind": "fagcn", "activation": "tanh",
             "mode": "prompt"}


@pytest.mark.parametrize("key", sorted(config.SCHEMA))
def test_every_config_key_changes_what_the_cli_builds(key):
    typ, default = config.SCHEMA[key]
    if typ is str:
        value = OTHER_STR[key]
    else:
        value = default + 1 if typ is int else default * 2
    base = {"enc_kind": "fagcn"} if key == "fagcn_eps" else {}

    def built(overrides):
        r = config.resolve(overrides={**base, **overrides})
        return cli._experiment_params(r), cli._architecture(r)

    assert built({key: value}) != built({})


def test_architecture_record_has_the_checkpoint_keys():
    assert set(cli._architecture(config.resolve())) == set(ARCHITECTURE)


def library_defaults() -> dict:
    """SCHEMA key -> the defaults of every library value that key sets. A
    caller that builds these objects itself, as the benchmark does, gets
    what the CLI gets from an empty config."""
    pre, tr, coords = PretrainConfig(), TransferConfig(), CoordinatorSet()
    params = ExperimentParams(encoder={})
    enc = {k: p.default for k, p in inspect.signature(make_encoder).parameters.items()}
    aug1, aug2 = pre.augmentations
    return {
        "proj_dim": [ProjectionConfig().d_p, params.proj_cfg.d_p],
        "coordinators_per_dataset": [coords.per_dataset, params.coords.per_dataset],
        "inter_mode": [(c.inter_mode, c.dynamic_threshold)
                       for c in (coords, params.coords)],
        "objective": [pre.objective], "tau": [pre.temperature], "lambda": [pre.lam],
        "epochs": [pre.epochs], "batch_size": [pre.batch_size],
        "hops": [pre.hops, params.hops], "perturb_scale": [pre.perturb_scale],
        "lr": [pre.learning_rate],
        "seed": [pre.seed, tr.seed, params.base_seed, enc["seed"]],
        "aug1": [aug1.kind], "aug2": [aug2.kind], "aug_ratio": [aug1.ratio, aug2.ratio],
        "hidden": [enc["hidden"]], "num_layers": [enc["num_layers"]],
        "activation": [enc["activation"]], "fagcn_eps": [enc["fagcn_eps"]],
        "mode": [tr.mode], "transfer_epochs": [tr.epochs],
        "transfer_lr": [tr.learning_rate], "patience": [tr.patience],
        "prompt_tokens": [tr.prompt_tokens],
        "shots": [params.k_shot], "repeats": [params.repeats],
    }


def test_every_schema_key_but_enc_kind_has_a_library_default():
    # make_encoder and pretrain take enc_kind without a default
    assert set(config.SCHEMA) - set(library_defaults()) == {"enc_kind"}


@pytest.mark.parametrize("key", sorted(library_defaults()))
def test_cli_default_equals_library_default(key):
    default = config.SCHEMA[key][1]
    if key == "inter_mode":
        default = config.parse_inter_mode(default)
    library = library_defaults()[key]
    assert library == [default] * len(library)


def test_flags_override_config_file_in_resolved_dump(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=2\nhidden=8\nproj_dim=5\nbatch_size=6\nhops=1\n")
    ckpt = tmp_path / "m.ckpt"
    a = synth(tmp_path / "a")
    code = run("pretrain", "--sources", a, "--out", str(ckpt),
               "--config", str(cfg), "--epochs", "3")
    assert code == EXIT_OK
    text = Path(str(ckpt) + ".config").read_text()
    assert "epochs=3" in text.split()
    assert "hidden=8" in text.split()


def test_pretrain_writes_checkpoint_loss_csv_and_config(tmp_path):
    ckpt = pretrain(tmp_path)
    assert ckpt.exists()
    assert ckpt.read_bytes()[:8] == b"GCOPEv1\n"
    loss = Path(str(ckpt) + ".loss.csv").read_text().strip().split("\n")
    assert loss[0] == "epoch,contrastive,reconstruction,total"
    assert len(loss) == 3
    assert os.path.exists(str(ckpt) + ".config")


def test_pretrain_checkpoint_holds_architecture_encoder_and_coordinators(tmp_path):
    """The architecture keys, the encoder's tensors and the coordinators: no
    decoder tensor and no run setting, which the `.config` dump records."""
    ckpt = load_checkpoint(str(pretrain(tmp_path)))
    assert sorted(ckpt.hyper) == sorted(ARCHITECTURE)
    assert list(ckpt.tensors) == [p.name for p in ckpt.encoder().params()] + ["coordinators"]


def test_pretrain_without_coordinators_under_every_inter_mode(tmp_path):
    """Zero coordinators save no coordinator tensor, and every inter mode,
    dynamic among them, pretrains the same encoder with the same losses."""
    runs = set()
    for mode in ("full", "none", "dynamic"):
        path = pretrain(tmp_path, f"{mode}.ckpt",
                        ("--coordinators-per-dataset", "0", "--inter-mode", mode))
        ckpt = load_checkpoint(str(path))
        assert list(ckpt.tensors) == [p.name for p in ckpt.encoder().params()]
        runs.add((tuple(t.tobytes() for t in ckpt.tensors.values()),
                  Path(str(path) + ".loss.csv").read_text()))
    assert len(runs) == 1


def test_inspect_prints_manifest_and_dataset(tmp_path, capsys):
    ckpt = pretrain(tmp_path)
    assert run("inspect", "--ckpt", str(ckpt),
               "--dataset", str(tmp_path / "a")) == EXIT_OK
    out = capsys.readouterr().out
    assert "fingerprint" in out
    assert "homophily" in out
    assert run("inspect") == EXIT_USAGE


def test_inspect_malformed_checkpoint_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"GCOPEv1\n{not json\n")
    assert run("inspect", "--ckpt", str(bad)) == EXIT_RUNTIME
    assert "IoError" in capsys.readouterr().err


def test_inspect_malformed_dataset_is_runtime_error(tmp_path, capsys):
    d = synth(tmp_path / "d")
    with open(os.path.join(d, "edges.tsv"), "a") as f:
        f.write("0\t1\t2\n")
    assert run("inspect", "--dataset", d) == EXIT_RUNTIME
    assert "error: IoError" in capsys.readouterr().err


@pytest.mark.parametrize("edges,labels", [([], [0, 1, 0]), ([(0, 1)], [0, -1, 1])])
def test_inspect_dataset_without_homophily(tmp_path, capsys, edges, labels):
    g = GraphDataset(name="lonely", features=np.zeros((3, 2), dtype=np.float32),
                     edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
                     labels=np.array(labels), num_classes=2)
    write_dataset(g, str(tmp_path / "d"))
    assert run("inspect", "--dataset", str(tmp_path / "d")) == EXIT_OK
    out = capsys.readouterr().out
    assert f"nodes=3 edges={2 * len(edges)} " in out
    assert "homophily=nan" in out


def transfer_with(tmp_path, *flags):
    ckpt = pretrain(tmp_path)
    tgt = synth(tmp_path / "t", seed=5)
    return run("transfer", "--ckpt", str(ckpt), "--target", tgt,
               "--out", str(tmp_path / "m.csv"), "--proj-dim", "5", "--hidden", "8",
               "--transfer-epochs", "3", "--shots", "1", "--repeats", "1", *flags)


@pytest.mark.parametrize("flags, key", [
    (("--enc-kind", "fagcn", "--activation", "tanh"), "activation"),
    (("--enc-kind", "gcn", "--fagcn-eps", "0.5"), "fagcn_eps"),
], ids=["activation", "fagcn_eps"])
def test_flag_the_encoder_ignores_is_usage_error(tmp_path, capsys, flags, key):
    a = synth(tmp_path / "a", seed=1)
    ckpt = tmp_path / "m.ckpt"
    assert run("pretrain", "--sources", a, "--out", str(ckpt), *PRETRAIN_FLAGS,
               *flags) == EXIT_USAGE
    assert f"{key}=" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("flag, value", [("--epochs", "-3"), ("--batch-size", "1"),
                                         ("--hops", "0"),
                                         ("--coordinators-per-dataset", "-1"),
                                         ("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf")])
def test_pretrain_size_below_minimum_is_usage_error(tmp_path, capsys, monkeypatch,
                                                     flag, value):
    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining started before the sizes were checked")

    monkeypatch.setattr(cli, "pretrain", no_pretraining)
    a = synth(tmp_path / "a", seed=1)
    ckpt = tmp_path / "m.ckpt"
    assert run("pretrain", "--sources", a, "--out", str(ckpt), *PRETRAIN_FLAGS,
               flag, value) == EXIT_USAGE
    assert "error: InvalidArgument:" in capsys.readouterr().err
    assert not ckpt.exists()


def test_pretrain_zero_hidden_is_usage_error(tmp_path, capsys):
    # make_encoder checks `hidden` inside pretraining, so nothing is patched out
    a = synth(tmp_path / "a", seed=1)
    ckpt = tmp_path / "m.ckpt"
    assert run("pretrain", "--sources", a, "--out", str(ckpt), *PRETRAIN_FLAGS,
               "--hidden", "0") == EXIT_USAGE
    assert "error: InvalidArgument:" in capsys.readouterr().err
    assert not ckpt.exists()


def test_transfer_dimension_mismatch_is_usage_error(tmp_path, capsys):
    assert transfer_with(tmp_path, "--proj-dim", "7") == EXIT_USAGE
    assert "checkpoint d_p=" in capsys.readouterr().err


@pytest.mark.parametrize("flags, key", [
    (("--hidden", "64"), "hidden"),
    (("--enc-kind", "fagcn"), "enc_kind"),
], ids=["hidden", "enc_kind"])
def test_transfer_architecture_mismatch_is_usage_error(tmp_path, capsys, flags, key):
    assert transfer_with(tmp_path, *flags) == EXIT_USAGE
    assert f"checkpoint {key}=" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--shots", "0"),
    ("--mode", "prompt", "--prompt-tokens", "0"),
    ("--repeats", "0"),
    ("--patience", "-1"),
    ("--transfer-lr", "-1"),
    ("--transfer-lr", "nan"),
], ids=["shots", "prompt-tokens", "repeats", "patience", "negative-rate", "nan-rate"])
def test_transfer_zero_count_is_usage_error(tmp_path, capsys, flags):
    assert transfer_with(tmp_path, *flags) == EXIT_USAGE
    assert "error: InvalidArgument:" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


# transfer settings differ from the pretraining run's defaults; only the
# architecture is checked against the checkpoint, so nothing warns
@pytest.mark.filterwarnings("error::UserWarning")
def test_full_pipeline_reruns_byte_identical(tmp_path):
    a = synth(tmp_path / "a", seed=1)
    b = synth(tmp_path / "b", seed=2)
    tgt = synth(tmp_path / "t", seed=5)
    outs = []
    for tag in ("x", "y"):
        ckpt = tmp_path / f"{tag}.ckpt"
        assert run("pretrain", "--sources", f"{a},{b}", "--out", str(ckpt),
                   *PRETRAIN_FLAGS) == EXIT_OK
        csv = tmp_path / f"{tag}.csv"
        assert run("transfer", "--ckpt", str(ckpt), "--target", tgt,
                   "--out", str(csv), *TRANSFER_FLAGS) == EXIT_OK
        outs.append((ckpt.read_bytes(), csv.read_text()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
    header = outs[0][1].split("\n")[0]
    assert header == "repeat,split,acc,auc,f1"


def test_eval_emits_summary_with_improvement_row(tmp_path):
    a = synth(tmp_path / "a", seed=1)
    b = synth(tmp_path / "b", seed=2)
    tgt = synth(tmp_path / "t", seed=5)
    out = tmp_path / "summary.csv"
    code = run("eval", "--sources", f"{a},{b}", "--target", tgt,
               "--out", str(out), *PRETRAIN_FLAGS,
               "--transfer-epochs", "3", "--shots", "1", "--repeats", "2")
    assert code == EXIT_OK
    text = out.read_text()
    assert text.startswith("scheme,mode,")
    assert "IMP(%)" in text
    assert os.path.exists(str(tmp_path / "summary.md"))


def test_eval_trains_the_configured_activation(tmp_path):
    a = synth(tmp_path / "a", seed=1)
    b = synth(tmp_path / "b", seed=2)
    tgt = synth(tmp_path / "t", seed=5)
    texts = []
    for act in ("relu", "tanh"):
        out = tmp_path / f"{act}.csv"
        code = run("eval", "--sources", f"{a},{b}", "--target", tgt,
                   "--out", str(out), *PRETRAIN_FLAGS, "--enc-kind", "gcn",
                   "--activation", act, "--transfer-epochs", "3", "--shots", "1",
                   "--repeats", "2")
        assert code == EXIT_OK
        texts.append(out.read_text())
    assert texts[0] != texts[1]


def test_ablate_lambda_sweep_csv(tmp_path):
    a = synth(tmp_path / "a", seed=1)
    b = synth(tmp_path / "b", seed=2)
    tgt = synth(tmp_path / "t", seed=5)
    out = tmp_path / "ablation.csv"
    code = run("ablate", "--kind", "lambda_sweep", "--grid", "0.0,0.2",
               "--sources", f"{a},{b}", "--target", tgt, "--out", str(out),
               *PRETRAIN_FLAGS, "--transfer-epochs", "3", "--shots", "1",
               "--repeats", "1")
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("point,acc_mean")
    assert len(lines) == 3
    assert lines[1].startswith("0.0,")
