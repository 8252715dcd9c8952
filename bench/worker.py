"""Runs one pass of one workload in this process and prints its result as one
JSON line. `run.py` starts it in a fresh process per pass, because peak RSS
(`ru_maxrss`) is a per-process high-water mark."""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, run  # noqa: E402


def versions() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--fixed", action="store_true",
                    help="play the seed's plan only, without timed replays")
    ap.add_argument("--spans", help="trace, and write the spans to this file")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.spans else None
    if tracer is not None:
        tracer.install()
    try:
        episodes = run(WORKLOADS[args.workload], args.workdir, args.seed,
                       args.seconds, args.fixed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"episodes": [{**asdict(e), "complete": e.complete} for e in episodes],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "versions": versions(),
           "threads": {k: os.environ.get(k) for k in (
               "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "GCOPE_THREADS")}}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
