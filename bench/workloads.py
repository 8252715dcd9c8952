"""The benchmark's workloads: inputs, set-up, timed operations and checks.

A run is a sequence of episodes. Episode `e` of seed `s` makes its own inputs
with `synth_dataset`, writes them as TSV and reads them back through
`load_dataset` (untimed preparation, then timed set-up), then runs a fixed
list of operations one after another (a closed loop). An episode whose
set-up fails, for example because `svd_project` raises `ConvergenceFailure`,
counts every planned operation as failed.

Every run first plays the seed's *plan*: episodes 0, 1, ... in order, at
least `PLAN_EPISODES` of them and on until one completes, each in full
whatever the time budget. The plan alone gives `attempted` and `failed`, so
both depend only on the seed. A timed run then replays the plan's complete
episodes (set-up and operations again, on the same inputs) until its time is
up; a replay must reproduce its episode bit for bit. No episode is skipped,
retried or re-seeded.

Every gcope function is looked up as a module attribute at call time, so a
tracer that replaces those attributes sees every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from tracer import module

NODES, CLASSES, FEATURE_DIM = 1000, 4, 64
D_P, HIDDEN, HOPS = 32, 64, 2
SOURCE_HOMOPHILY = (0.9, 0.2)
TARGET_HOMOPHILY = 0.85
SHOTS, TRANSFER_EPOCHS, PROMPT_TOKENS = 5, 20, 10
# Few-shot accuracy must beat chance (1 / classes) by this much.
ACCURACY_MARGIN = 0.2


def data_seed(seed: int, episode: int, part: int) -> int:
    """Seed of one generated input (`part`) of one episode; 9 seeds models."""
    return seed * 10_000 + episode * 10 + part


@dataclass
class Episode:
    index: int
    planned: int
    attempted: int          # fewer than planned when a replay's time was up
    replay: bool = False    # a repeat of a complete plan episode, for timing
    failed: int = 0
    setup_s: float | None = None
    wall_s: float = 0.0                  # set-up plus operations
    op_s: list = field(default_factory=list)
    op_kinds: list = field(default_factory=list)
    subgraphs: int = 0                   # subgraphs behind the throughput
    subgraph_s: float = 0.0
    losses: list = field(default_factory=list)
    loss_final: float | None = None
    quality: dict = field(default_factory=dict)
    digest: str = ""
    errors: list = field(default_factory=list)
    checks: list = field(default_factory=list)   # failed correctness checks

    @property
    def complete(self) -> bool:
        return self.failed == 0 and self.attempted == self.planned


# Fields a traced and an untraced pass of the same seed must agree on bit for bit.
COMPARED = ("failed", "losses", "quality", "digest")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run_episode: Callable
    planned_ops: int
    # consecutive operations that make one closed-loop request
    ops_per_request: int
    # traced functions this workload must call, and ones it must not call
    # because it is the control for them
    exercises: tuple
    controls: tuple = ()
    # self-time shares measured when the workload was sized
    sizing_shares: dict = field(default_factory=dict)
    enc_kind: str = "gcn"
    objective: str = ""
    inter_mode: str = ""
    batch_size: int = 0


def _span(tracer, name: str, request: str):
    if tracer is None:
        return nullcontext()
    tracer.request = request
    return tracer.span(name)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _write_sources(workdir: str, seed: int, episode: int, homophilies) -> list[str]:
    gs = module("graphstore")
    dirs = []
    for part, h in enumerate(homophilies):
        path = os.path.join(workdir, f"e{episode}-d{part}")
        if not os.path.exists(path):   # a replay reads the plan's files
            gs.write_dataset(gs.synth_dataset(NODES, CLASSES, FEATURE_DIM, h,
                                              data_seed(seed, episode, part)), path)
        dirs.append(path)
    return dirs


def _pretrain_config(w: Workload, seed: int):
    pt = module("pretrain")
    return pt.PretrainConfig(
        objective=w.objective, batch_size=w.batch_size, hops=HOPS, seed=seed,
        perturb_scale=0.1,
        augmentations=(pt.AugmentationSpec("node_drop", 0.2),
                       pt.AugmentationSpec("attr_mask", 0.2)))


def _time_up(deadline: float | None) -> bool:
    return deadline is not None and time.perf_counter() >= deadline


def run_pretrain_episode(w: Workload, workdir: str, seed: int, episode: int,
                         deadline: float | None = None, tracer=None) -> Episode:
    """Set up a joint graph from two fresh sources, then run `planned_ops`
    pretraining steps (one batch and one Adam update each)."""
    gs, pj, am, pt, nn, errors = (module(m) for m in (
        "graphstore", "projection", "amalgam", "pretrain", "nn", "errors"))
    dirs = _write_sources(workdir, seed, episode, SOURCE_HOMOPHILY)
    model_seed = data_seed(seed, episode, 9)
    cfg = _pretrain_config(w, model_seed)
    ep = Episode(episode, planned=w.planned_ops, attempted=w.planned_ops)
    start = time.perf_counter()
    try:
        with _span(tracer, "bench.setup", f"e{episode}.setup"):
            graphs = [gs.load_dataset(d) for d in dirs]
            projected = pj.project_all(graphs, pj.ProjectionConfig(d_p=D_P))
            mode, _, threshold = w.inter_mode.partition(":")
            coords = am.CoordinatorSet(per_dataset=1, inter_mode=mode,
                                       dynamic_threshold=float(threshold or 0.0))
            jg = am.build_joint_graph(projected, [g.adjacency for g in graphs],
                                      coords, seed=model_seed)
            enc = nn.make_encoder(w.enc_kind, D_P, hidden=HIDDEN, seed=model_seed)
            dec = nn.MlpDecoder(enc.out_dim, HIDDEN, D_P, seed=model_seed)
            params = enc.params() + dec.params() + [coords.features]
            opt = nn.Adam(params, lr=cfg.learning_rate)
    except errors.GcopeError as e:
        ep.failed = w.planned_ops
        ep.errors.append(f"setup: {type(e).__name__}: {e}")
        ep.wall_s = time.perf_counter() - start
        return ep
    ep.setup_s = time.perf_counter() - start

    for step in range(w.planned_ops):
        if _time_up(deadline):
            ep.attempted = step
            break
        t = time.perf_counter()
        try:
            with _span(tracer, "bench.step", f"e{episode}.step{step}"):
                if mode == "dynamic":
                    jg = am.refresh_dynamic_edges(jg, coords)
                report = pt.pretrain_epoch(jg, enc, dec, cfg, step, opt)
        except errors.GcopeError as e:
            ep.failed = w.planned_ops - step
            ep.errors.append(f"step {step}: {type(e).__name__}: {e}")
            break
        ep.op_s.append(time.perf_counter() - t)
        ep.op_kinds.append("step")
        ep.losses.append([report.contrastive, report.reconstruction, report.total])
    ep.wall_s = time.perf_counter() - start
    ep.subgraphs = w.batch_size * len(ep.op_s)
    ep.subgraph_s = sum(ep.op_s)
    if ep.complete:
        ep.loss_final = ep.losses[-1][2]
    if not all(math.isfinite(x) for row in ep.losses for x in row):
        ep.checks.append(f"episode {episode}: non-finite step loss")
    ep.digest = _digest(p.data for p in params)
    return ep


def run_transfer_episode(w: Workload, workdir: str, seed: int, episode: int,
                         deadline: float | None = None, tracer=None) -> Episode:
    """Load a target and a GCN checkpoint, then run one finetune task and one
    prompt task, each followed by a test evaluation."""
    gs, pj, ck, nn, tr, ad, errors = (module(m) for m in (
        "graphstore", "projection", "checkpoint", "nn", "transfer", "autodiff",
        "errors"))
    [target_dir] = _write_sources(workdir, seed, episode, (TARGET_HOMOPHILY,))
    model_seed = data_seed(seed, episode, 9)
    hyper = {"d_p": D_P, "enc_kind": "gcn", "hidden": HIDDEN, "num_layers": 2,
             "activation": "relu", "fagcn_eps": 0.3}
    ckpt_path = os.path.join(workdir, f"e{episode}.ckpt")
    if not os.path.exists(ckpt_path):
        fresh = nn.make_encoder("gcn", D_P, hidden=HIDDEN, seed=model_seed)
        ck.save_checkpoint(ckpt_path, hyper, ck.config_fingerprint(hyper),
                           [(p.name, p.data) for p in fresh.params()])

    ep = Episode(episode, planned=w.planned_ops, attempted=w.planned_ops)
    start = time.perf_counter()
    try:
        with _span(tracer, "bench.setup", f"e{episode}.setup"):
            target = gs.load_dataset(target_dir)
            encoder = ck.load_checkpoint(ckpt_path).encoder()
            task = tr.build_fewshot_task(target, SHOTS, hops=HOPS, seed=model_seed)
    except errors.GcopeError as e:
        ep.failed = w.planned_ops
        ep.errors.append(f"setup: {type(e).__name__}: {e}")
        ep.wall_s = time.perf_counter() - start
        return ep
    ep.setup_s = time.perf_counter() - start
    proj_cfg = pj.ProjectionConfig(d_p=D_P)

    arrays = []
    for done, mode in enumerate(("finetune", "prompt")):
        if _time_up(deadline):
            ep.attempted = done
            break
        cfg = tr.TransferConfig(mode=mode, epochs=TRANSFER_EPOCHS,
                                patience=TRANSFER_EPOCHS,
                                prompt_tokens=PROMPT_TOKENS, seed=model_seed)
        run = tr.finetune if mode == "finetune" else tr.prompt_transfer
        t = time.perf_counter()
        try:
            with _span(tracer, "bench.task", f"e{episode}.{mode}"):
                model = run(encoder, task, cfg, proj_cfg)
            task_s = time.perf_counter() - t
            t = time.perf_counter()
            with _span(tracer, "bench.evaluate", f"e{episode}.{mode}.test"):
                report = tr.evaluate_model(model, task, "test")
            eval_s = time.perf_counter() - t
        except errors.GcopeError as e:
            ep.failed += 1
            ep.errors.append(f"{mode}: {type(e).__name__}: {e}")
            continue
        ep.op_s.append(task_s)
        ep.op_kinds.append(mode)
        ep.subgraphs += task.test_ids.size
        ep.subgraph_s += eval_s
        ep.quality[f"{mode}_acc"] = report.acc
        ep.quality[f"{mode}_auc"] = report.auc
        ep.quality[f"{mode}_f1"] = report.f1
        chance = 1.0 / task.c_way
        if not report.acc >= chance + ACCURACY_MARGIN:
            ep.checks.append(f"episode {episode}: {mode} accuracy {report.acc:.3f} "
                             f"does not beat chance {chance:.3f} by {ACCURACY_MARGIN}")
        # training cross-entropy of the returned (best-validation) model
        scores = tr.predict_scores(model, task, task.train_ids, subs=model.subgraph_cache)
        labels = task.target.labels[task.train_ids]
        loss = float(ad.softmax_cross_entropy(ad.Tensor(scores), labels).data)
        ep.losses.append([mode, loss])
        if not math.isfinite(loss):
            ep.checks.append(f"episode {episode}: non-finite {mode} training loss")
        arrays += [model.head_w.data, model.head_b.data]
        arrays += [p.data for p in model.encoder.params()]
        if model.prompt_tokens is not None:
            arrays.append(model.prompt_tokens.data)
    ep.wall_s = time.perf_counter() - start
    if ep.complete:
        ep.loss_final = ep.losses[0][1]
    ep.digest = _digest(arrays)
    return ep


_PRETRAIN_CORE = ("graphstore.load_dataset", "projection.svd_project",
                  "amalgam.build_joint_graph", "amalgam.sample_joint_batch",
                  "amalgam.bfs_ball", "pretrain.local_adjacency",
                  "pretrain.encode_view", "pretrain.nt_xent",
                  "pretrain.reconstruction_loss", "nn.graph_readout", "nn.Adam.step",
                  "autodiff.Tensor.backward", "autodiff.gather_rows")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="pretrain-gcn-coord",
        why=("GCOPE default: GCN+graphcl, a coordinator per source; hops=2 balls span "
             "the whole source, so slicing, gcn_normalize, spmm and backward scatter "
             "carry each step"),
        run_episode=run_pretrain_episode, planned_ops=12, ops_per_request=1,
        exercises=_PRETRAIN_CORE + ("pretrain.augment", "nn.gcn_normalize",
                                    "nn.GcnEncoder.forward", "autodiff.spmm"),
        controls=("amalgam.refresh_dynamic_edges", "pretrain.simgrace_views",
                  "nn.FagcnEncoder.forward"),
        sizing_shares={"autodiff.Tensor.backward": 0.48, "nn.gcn_normalize": 0.13,
                       "nn.GcnEncoder.forward": 0.10, "projection.svd_project": 0.05,
                       "pretrain.local_adjacency": 0.03, "pretrain.augment": 0.03,
                       "amalgam.bfs_ball": 0.02},
        enc_kind="gcn", objective="graphcl", inter_mode="full", batch_size=32),
    Workload(
        name="pretrain-fagcn-dynamic",
        why=("FAGCN+simgrace with dynamic coordinator edges: autodiff-tape bound, "
             "control for gcn_normalize and augment, only caller of "
             "refresh_dynamic_edges"),
        run_episode=run_pretrain_episode, planned_ops=6, ops_per_request=1,
        exercises=_PRETRAIN_CORE + ("amalgam.refresh_dynamic_edges",
                                    "pretrain.simgrace_views",
                                    "nn.FagcnEncoder.forward",
                                    "autodiff.scatter_add_rows"),
        controls=("nn.gcn_normalize", "pretrain.augment", "nn.GcnEncoder.forward"),
        sizing_shares={"autodiff.Tensor.backward": 0.62, "nn.FagcnEncoder.forward": 0.29,
                       "projection.svd_project": 0.04,
                       "amalgam.refresh_dynamic_edges": 0.004},
        enc_kind="fagcn", objective="simgrace", inter_mode="dynamic:0.0", batch_size=8),
    Workload(
        name="transfer-fewshot",
        why=("5-shot finetune then prompt from a loaded GCN checkpoint on ~21-node ego"
             " graphs: per-call overhead on thousands of tiny graphs, no coordinators"),
        run_episode=run_transfer_episode, planned_ops=2, ops_per_request=2,
        exercises=("graphstore.load_dataset", "checkpoint.load_checkpoint",
                   "projection.svd_project", "amalgam.bfs_ball",
                   "transfer.induce_subgraph", "transfer.apply_prompt",
                   "transfer.evaluate_model", "nn.gcn_normalize",
                   "nn.GcnEncoder.forward", "nn.graph_readout", "nn.Adam.step",
                   "autodiff.Tensor.backward", "autodiff.spmm", "autodiff.gather_rows"),
        controls=("amalgam.sample_joint_batch", "pretrain.local_adjacency",
                  "pretrain.augment"),
        sizing_shares={"nn.gcn_normalize": 0.58, "autodiff.Tensor.backward": 0.03}),
)}

# Episodes every plan attempts; a plan goes on past them until one completes,
# but never past MAX_PLAN_EPISODES.
PLAN_EPISODES = 4
MAX_PLAN_EPISODES = 12


def check_replay(replay: Episode, first: Episode) -> list[str]:
    """A replay runs the same operations on the same inputs as a complete
    plan episode, so whatever it finished must match bit for bit."""
    where = f"replay of episode {first.index}"
    if replay.failed:
        return [f"{where} failed where the plan's run succeeded: {replay.errors}"]
    n = len(replay.losses)
    bad = [] if replay.losses == first.losses[:n] else [f"{where}: losses differ"]
    if replay.complete:
        bad += [f"{where}: {k} differs" for k in ("quality", "digest")
                if getattr(replay, k) != getattr(first, k)]
    return bad


def run(w: Workload, workdir: str, seed: int, seconds: float, fixed: bool,
        tracer=None) -> list[Episode]:
    """Play the seed's plan, then, unless `fixed` (a traced pass or its
    untraced twin, which must do identical work), replay the plan's complete
    episodes in turn until `seconds` have passed, stopping between two
    operations."""
    deadline = time.perf_counter() + seconds
    plan = []
    while len(plan) < MAX_PLAN_EPISODES and (
            len(plan) < PLAN_EPISODES or not any(e.complete for e in plan)):
        plan.append(w.run_episode(w, workdir, seed, len(plan), None, tracer))
    firsts = [e for e in plan if e.complete]
    replays = []
    while firsts and not fixed and time.perf_counter() < deadline:
        first = firsts[len(replays) % len(firsts)]
        ep = w.run_episode(w, workdir, seed, first.index, deadline, tracer)
        ep.replay = True
        ep.checks += check_replay(ep, first)
        replays.append(ep)
    return plan + replays
