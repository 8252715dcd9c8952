"""Golden outputs: a fixed small pipeline run through `gcope.cli.main`, each
artifact's SHA-256 compared with the table in golden.json.

A change that alters output bytes on purpose re-records the table with
`PYTHONPATH=src python tests/test_golden.py > tests/golden.json`, after
checking that `OPENBLAS_NUM_THREADS=1` and `=2` print the same table, and
names every changed artifact in CHANGES.md. That check runs on 40-node
graphs, where BLAS never splits a product between threads, so it does not
show that larger runs are thread-invariant: products over about 1,000 rows,
as in the benchmark's pretraining, do differ between 1 and 2 threads.

The dataset files hold integers and fixed-format text and are always
compared. The other artifacts hold float arithmetic, whose bytes may
change with the NumPy, SciPy or BLAS build, so they are compared only in
the environment the table was recorded in.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from gcope.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden.json")
SOURCES = ("src0", "src1")
TARGET = "target"
SMALL = ["--proj-dim", "8", "--hidden", "8", "--epochs", "2", "--batch-size", "8",
         "--lr", "0.1", "--transfer-epochs", "5", "--transfer-lr", "0.1",
         "--shots", "1", "--repeats", "2"]


def environment() -> dict:
    try:  # show_config(mode=...) needs NumPy >= 1.26
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def run_pipeline(out: Path) -> dict:
    """Run the pipeline into `out`; return {relative path: sha256}."""
    def gcope(*argv):
        assert main([str(a) for a in argv]) == EXIT_OK, argv

    for seed, name in enumerate((*SOURCES, TARGET)):
        gcope("synth", "--nodes", 40, "--classes", 3, "--dim", 6,
              "--homophily", 0.7, "--seed", seed, "--out", out / name)
    sources = ",".join(str(out / s) for s in SOURCES)
    data = ["--sources", sources, "--target", out / TARGET]
    gcope("pretrain", "--sources", sources, "--out", out / "gcn.ckpt", *SMALL)
    gcope("pretrain", "--sources", sources, "--out", out / "fagcn.ckpt", *SMALL,
          "--enc-kind", "fagcn", "--objective", "simgrace",
          "--inter-mode", "dynamic:0.0")
    for mode in ("finetune", "prompt"):
        gcope("transfer", "--ckpt", out / "gcn.ckpt", "--target", out / TARGET,
              "--out", out / f"{mode}.csv", *SMALL, "--mode", mode)
    gcope("eval", *data, "--out", out / "eval.csv", *SMALL)
    gcope("ablate", "--kind", "inter_edges", "--grid", "full,none,dynamic:0.0",
          *data, "--out", out / "ablate.csv", *SMALL)
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def is_dataset_file(name: str) -> bool:
    return name.split("/")[0] in (*SOURCES, TARGET)


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_pipeline_writes_the_recorded_artifacts(hashes, golden):
    assert sorted(hashes) == sorted(golden["sha256"])


def test_dataset_files_match_golden(hashes, golden):
    names = [n for n in golden["sha256"] if is_dataset_file(n)]
    assert names
    assert {n: hashes.get(n) for n in names} == {n: golden["sha256"][n] for n in names}


def test_float_artifacts_match_golden(hashes, golden):
    env = environment()
    differ = {k: (golden["environment"].get(k), v) for k, v in env.items()
              if golden["environment"].get(k) != v}
    if differ:
        pytest.skip(f"table recorded under another environment (recorded, "
                    f"here): {differ}")
    names = [n for n in golden["sha256"] if not is_dataset_file(n)]
    assert {n: hashes.get(n) for n in names} == {n: golden["sha256"][n] for n in names}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        table = {"environment": environment(), "sha256": run_pipeline(Path(tmp))}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
