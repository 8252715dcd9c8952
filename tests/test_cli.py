import filecmp
import os

import pytest

from gcope.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main


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


def test_flags_override_config_file_in_resolved_dump(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=2\nhidden=8\nproj_dim=5\nbatch_size=6\nhops=1\n")
    ckpt = tmp_path / "m.ckpt"
    a = synth(tmp_path / "a")
    code = run("pretrain", "--sources", a, "--out", str(ckpt),
               "--config", str(cfg), "--epochs", "3")
    assert code == EXIT_OK
    text = open(str(ckpt) + ".config").read()
    assert "epochs=3" in text.split()
    assert "hidden=8" in text.split()


def test_pretrain_writes_checkpoint_loss_csv_and_config(tmp_path):
    ckpt = pretrain(tmp_path)
    assert ckpt.exists()
    assert open(ckpt, "rb").read(8) == b"GCOPEv1\n"
    loss = open(str(ckpt) + ".loss.csv").read().strip().split("\n")
    assert loss[0] == "epoch,contrastive,reconstruction,total"
    assert len(loss) == 3
    assert os.path.exists(str(ckpt) + ".config")


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


def transfer_with(tmp_path, *flags):
    ckpt = pretrain(tmp_path)
    tgt = synth(tmp_path / "t", seed=5)
    return run("transfer", "--ckpt", str(ckpt), "--target", tgt,
               "--out", str(tmp_path / "m.csv"), "--proj-dim", "5", "--hidden", "8",
               "--transfer-epochs", "3", "--shots", "1", "--repeats", "1", *flags)


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
        outs.append((open(ckpt, "rb").read(), open(csv).read()))
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
