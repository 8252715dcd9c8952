"""gcope benchmark: joint pretraining and few-shot transfer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

`--trace 0` runs the workload untraced in a fresh process: the seed's plan of
episodes, then replays of its complete episodes until S seconds have passed;
it reports the end-to-end metrics. `--trace 1` plays the plan twice, untraced
and traced, each in its own process; it reports per-layer metrics from the
traced pass and the difference between the two as tracing overhead, and
checks that both passes computed bit-identical results.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is non-zero only when a
correctness check fails or the benchmark itself cannot run; operations that
fail inside gcope (such as an SVD that does not converge) are counted in
`failed` and reported, not turned into an error. `attempted` and `failed`
count the plan's operations, so they depend only on the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from tracer import COUNTS, TRACED  # noqa: E402
from workloads import COMPARED, WORKLOADS, run_pretrain_episode  # noqa: E402

TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, direction); every workload reports all of them
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_ms": ("ms", "lower"),
    "subgraphs_per_s": ("1/s", "higher"),
    "loss_final": ("1", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_units() -> dict:
    """name -> (unit, better) of every metric a traced run reports."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    return {**units, **COUNTS, "trace.overhead_s": ("s", "lower")}


def core_count() -> int:
    # not `nproc`, which honours OMP_NUM_THREADS
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Pin BLAS threads to at most the cores this process may run on."""
    env = dict(os.environ)
    cores = core_count()
    for var in THREAD_VARS:
        try:
            n = int(env.get(var, cores))
        except ValueError:
            n = cores
        env[var] = str(max(1, min(n, cores)))
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_pass(workload: str, seed: int, seconds: float, workdir: str, deadline: float,
             fixed: bool, spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--workdir", workdir]
    if fixed:
        cmd.append("--fixed")
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for another pass")
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"q1 {q[0]:.4g}, q3 {q[2]:.4g}, n={len(values)}"


def request_latencies(w, eps: list) -> list:
    """Wall time of each closed-loop request: `ops_per_request` consecutive
    successful operations of one episode."""
    k = w.ops_per_request
    return [sum(e["op_s"][i:i + k]) for e in eps
            for i in range(0, len(e["op_s"]) - k + 1, k)]


def end_to_end(w, result: dict) -> dict:
    eps = result["episodes"]
    setups = [e["setup_s"] for e in eps if e["setup_s"] is not None]
    subgraph_s = sum(e["subgraph_s"] for e in eps)
    return {
        "setup_s": statistics.median(setups),
        "latency_ms": 1000.0 * statistics.median(request_latencies(w, eps)),
        "subgraphs_per_s": sum(e["subgraphs"] for e in eps) / subgraph_s,
        # the first complete episode, so the value depends only on the seed
        "loss_final": next(e["loss_final"] for e in eps if e["complete"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def counts(result: dict) -> tuple[int, int]:
    eps = [e for e in result["episodes"] if not e["replay"]]
    return sum(e["attempted"] for e in eps), sum(e["failed"] for e in eps)


def report_timed(w, result: dict, m: dict) -> list[str]:
    """Human-readable lines, using the metric names of the workload's users."""
    eps = result["episodes"]
    attempted, failed = counts(result)
    setups = [e["setup_s"] for e in eps if e["setup_s"] is not None]
    plan = [e for e in eps if not e["replay"]]
    replays = [e for e in eps if e["replay"]]
    lines = [f"plan: {len(plan)} episodes, {sum(e['complete'] for e in plan)} complete; "
             f"replays: {len(replays)}, {sum(e['complete'] for e in replays)} complete"]
    for e in plan:
        lines += [f"  episode {e['index']}: {err}" for err in e["errors"]]
    lines.append(f"setup_s              {m['setup_s']:.4f} s  (median; {quartiles(setups)})")
    if w.run_episode is run_pretrain_episode:
        steps = [s for e in eps for s in e["op_s"]]
        lines += [
            f"samples_per_s        {m['subgraphs_per_s']:.3f} subgraphs/s  "
            f"({sum(e['subgraphs'] for e in eps)} anchors over {len(steps)} steps)",
            f"step latency_ms      {m['latency_ms']:.1f} ms  (median; "
            f"{quartiles([1000 * s for s in steps])})",
            f"loss_final           {m['loss_final']:.6f}  (total loss after the last "
            f"step of the first complete episode)"]
    else:
        for k in ("finetune", "prompt"):
            vals = [s for e in eps for s, kd in zip(e["op_s"], e["op_kinds"]) if kd == k]
            if vals:
                lines.append(f"{k + '_s':<21}{statistics.median(vals):.4f} s  "
                             f"(median; {quartiles(vals)})")
        for k in ("finetune_acc", "prompt_acc"):
            vals = [e["quality"][k] for e in eps if k in e["quality"]]
            if vals:
                lines.append(f"{k:<21}{statistics.median(vals):.4f}  (median; {quartiles(vals)})")
        lines += [
            f"predict_nodes_per_s  {m['subgraphs_per_s']:.2f} ego graphs/s  "
            f"({sum(e['subgraphs'] for e in eps)} test graphs)",
            f"task pair latency_ms {m['latency_ms']:.1f} ms  (median of finetune_s + "
            f"prompt_s; {quartiles([1000 * s for s in request_latencies(w, eps)])})",
            f"loss_final           {m['loss_final']:.6f}  (finetune training "
            f"cross-entropy, first complete episode)"]
    lines += [f"peak_rss_mb          {m['peak_rss_mb']:.1f} MB",
              f"failed_share         {failed / attempted:.4f}  ({failed} of "
              f"{attempted} operations failed)"]
    return lines


def check_layers(w, layers: dict) -> list[str]:
    """Coverage of the layer map: a traced function the workload exercises
    must report calls, and one it is the control for must not."""
    bad = [f"{f} reports 0 calls but {w.name} exercises it"
           for f in w.exercises if layers[f"{f}.calls"] == 0]
    bad += [f"{f} reports {layers[f'{f}.calls']} calls but {w.name} is its control"
            for f in w.controls if layers[f"{f}.calls"] != 0]
    return bad


def report_traced(w, layers: dict, traced_s: float, overhead_s: float) -> list[str]:
    lines = [f"traced episodes {traced_s:.3f} s; tracing overhead {overhead_s:+.3f} s "
             f"({overhead_s / (traced_s - overhead_s):+.1%} of untraced)",
             f"{'layer':<34}{'calls':>9}{'self_s':>10}{'share':>8}{'sized':>8}"]
    rows = sorted(TRACED, key=lambda f: -layers[f"{f}.self_s"])
    for f in rows:
        calls = layers[f"{f}.calls"]
        if not calls and f not in w.sizing_shares:
            continue
        self_s = layers[f"{f}.self_s"]
        sized = w.sizing_shares.get(f)
        lines.append(f"{f:<34}{calls:>9}{self_s:>10.4f}{self_s / traced_s:>8.1%}"
                     f"{'' if sized is None else format(sized, '.1%'):>8}")
    for c in COUNTS:
        lines.append(f"{c:<34}{layers[c]:>.6g}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    deadline = time.monotonic() + TIME_LIMIT_S
    tag = f"{name}-seed{seed}"
    workdir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    try:
        if not trace:
            timed = run_pass(name, seed, seconds, workdir, deadline, fixed=False)
            passes = {"timed": timed}
        else:
            spans = os.path.join(OUT, f"{tag}.spans.jsonl")
            untraced = run_pass(name, seed, seconds, workdir, deadline, fixed=True)
            traced = run_pass(name, seed, seconds, workdir, deadline, fixed=True,
                              spans=spans)
            passes = {"untraced": untraced, "traced": traced}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    main = passes["traced" if trace else "timed"]
    if not any(e["complete"] for e in main["episodes"]):
        errors = [err for e in main["episodes"] for err in e["errors"]]
        raise RuntimeError(f"no episode completed; last error: {errors[-1:]}")
    attempted, failed = counts(main)
    checks = [c for p in passes.values() for e in p["episodes"] for c in e["checks"]]
    env = {"seed": seed, "workload": name, "trace": int(trace), "seconds": seconds,
           "cores": core_count(), "cpu": cpu_model(), "threads": main["threads"],
           **main["versions"]}
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {name}: {w.why}")

    if not trace:
        metrics = end_to_end(w, main)
        lines = report_timed(w, main, metrics)
        units = END_TO_END
    else:
        a, b = passes["untraced"]["episodes"], passes["traced"]["episodes"]
        if [e["index"] for e in a] != [e["index"] for e in b]:
            checks.append("traced and untraced passes ran different episodes")
        for ea, eb in zip(a, b):
            diff = [k for k in COMPARED if ea[k] != eb[k]]
            if diff:
                checks.append(f"episode {ea['index']}: traced and untraced passes "
                              f"differ in {diff}")
        metrics = dict(main["layers"])
        traced_s = sum(e["wall_s"] for e in b)
        metrics["trace.overhead_s"] = traced_s - sum(e["wall_s"] for e in a)
        checks += check_layers(w, metrics)
        lines = report_traced(w, metrics, traced_s, metrics["trace.overhead_s"])
        units = per_layer_units()
    for line in lines:
        print("  " + line)
    for c in checks:
        print(f"  CHECK FAILED: {c}")

    result = {"correct": not checks, "attempted": attempted,
              "failed": min(attempted, failed + len(checks)),
              "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units}}
    with open(os.path.join(OUT, f"{tag}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"environment": env, "result": result, "checks": checks,
                   "passes": passes}, f, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all"] + list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "gcope", "__init__.py")):
        print(f"error: gcope sources not found under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
