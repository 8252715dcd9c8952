"""Repeated-run experiment harness, baselines, ablations, and reports."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import errors
from .amalgam import CoordinatorSet
from .config import parse_inter_mode
from .graphstore import GraphDataset
from .nn import make_encoder
from .pretrain import PretrainConfig, pretrain
from .projection import ProjectionConfig
from .transfer import (TransferConfig, build_fewshot_task, evaluate_model,
                       finetune, prompt_transfer)

METRICS = ("acc", "auc", "f1")
SUMMARY_COLS = ["scheme", "mode"] + [f"{m}_{s}" for m in METRICS for s in ("mean", "std")]


@dataclass
class RunSummary:
    scheme: str                      # supervised | isolated_pretrain | gcope
    transfer_mode: str
    reports: list                    # MetricReport per repeat
    seeds: list
    mean: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)   # sample std, ddof=1

    def __post_init__(self):
        if not self.reports:
            raise errors.InvalidArgument("summary needs at least one repeat")
        for m in METRICS:
            vals = np.array([getattr(r, m) for r in self.reports], dtype=np.float64)
            self.mean[m] = float(np.mean(vals))
            self.std[m] = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0


@dataclass
class ExperimentParams:
    encoder: dict    # make_encoder's keywords except d_p, which proj_cfg carries, and seed
    k_shot: int = 1
    hops: int = 2
    repeats: int = 5
    base_seed: int = 0
    proj_cfg: ProjectionConfig = field(default_factory=ProjectionConfig)
    pretrain_cfg: PretrainConfig = field(default_factory=PretrainConfig)
    transfer_cfg: TransferConfig = field(default_factory=TransferConfig)
    coords: CoordinatorSet = field(default_factory=CoordinatorSet)   # features unread

    def __post_init__(self):
        if self.repeats < 1:
            raise errors.InvalidArgument("repeats must be >= 1")


def transfer_repeats(encoder_for_seed, target: GraphDataset,
                     params: ExperimentParams):
    """Yield (seed, task, model) for seeds base_seed, base_seed + 1, ...: a
    few-shot task drawn with that seed and the encoder from
    `encoder_for_seed(seed)` transferred to it by finetuning or prompting."""
    run = prompt_transfer if params.transfer_cfg.mode == "prompt" else finetune
    for r in range(params.repeats):
        seed = params.base_seed + r
        task = build_fewshot_task(target, params.k_shot, params.hops, seed)
        cfg = replace(params.transfer_cfg, seed=seed)
        yield seed, task, run(encoder_for_seed(seed), task, cfg, params.proj_cfg)


def _downstream_repeats(encoder_for_seed, target: GraphDataset,
                        params: ExperimentParams, scheme: str) -> RunSummary:
    reports, seeds = [], []
    for seed, task, model in transfer_repeats(encoder_for_seed, target, params):
        seeds.append(seed)
        reports.append(evaluate_model(model, task, "test"))
    return RunSummary(scheme=scheme, transfer_mode=params.transfer_cfg.mode,
                      reports=reports, seeds=seeds)


def run_supervised(target: GraphDataset, params: ExperimentParams) -> RunSummary:
    """Fresh random encoder trained directly on the few-shot task."""
    def fresh(seed):
        return make_encoder(d_p=params.proj_cfg.d_p, **params.encoder, seed=seed)
    return _downstream_repeats(fresh, target, params, "supervised")


def run_pretrained(sources: list[GraphDataset], target: GraphDataset,
                   params: ExperimentParams, scheme: str = "gcope") -> RunSummary:
    """Pretrain on `sources` with `params.coords`, then transfer to `target`.
    The "isolated_pretrain" baseline is the same run with no coordinators."""
    coords = replace(params.coords, features=None)   # params stays unchanged
    if scheme == "isolated_pretrain":
        coords.per_dataset = 0
    result = pretrain(sources, params.proj_cfg, coords, cfg=params.pretrain_cfg,
                      **params.encoder)
    # finetune and prompt_transfer train a copy, so every repeat starts
    # from the same pretrained weights
    return _downstream_repeats(lambda _seed: result.encoder, target, params, scheme)


def improvement_pct(gcope: RunSummary, baselines: list[RunSummary]) -> dict:
    """(gcope_mean / mean-of-baseline-means - 1) * 100 per metric."""
    if not baselines:
        raise errors.InvalidArgument("need at least one baseline summary")
    out = {}
    for m in METRICS:
        base = float(np.mean([b.mean[m] for b in baselines]))
        out[m] = (gcope.mean[m] / base - 1.0) * 100.0 if base != 0 else float("nan")
    return out


def run_ablation(kind: str, grid: list, sources: list[GraphDataset],
                 target: GraphDataset, params: ExperimentParams) -> list[tuple]:
    """One RunSummary per grid point; identical seeds across points.

    Each point varies one setting of `params` or of `params.coords` and
    keeps the others. Every point is built, and so validated, before any is
    pretrained.
    """
    if not grid:
        raise errors.InvalidArgument("ablation grid is empty")
    points = []
    for point in grid:
        if kind == "lambda_sweep":
            p = replace(params, pretrain_cfg=replace(params.pretrain_cfg,
                                                     lam=float(point)))
        elif kind == "inter_edges":
            mode, threshold = parse_inter_mode(str(point))
            p = replace(params, coords=replace(params.coords, inter_mode=mode,
                                               dynamic_threshold=threshold))
        elif kind == "coordinator_count":
            p = replace(params, coords=replace(params.coords, per_dataset=int(point)))
        else:
            raise errors.InvalidArgument(f"unknown ablation kind {kind!r}")
        points.append((point, p))
    return [(point, run_pretrained(sources, target, p)) for point, p in points]


# ---- report emission ----

def summary_rows(summaries: list[RunSummary], imp_vs: list[RunSummary] = None):
    rows = []
    for s in summaries:
        row = {"scheme": s.scheme, "mode": s.transfer_mode}
        for m in METRICS:
            row[f"{m}_mean"] = s.mean[m]
            row[f"{m}_std"] = s.std[m]
        rows.append(row)
    if imp_vs:
        gcope = [s for s in summaries if s.scheme == "gcope"]
        if gcope:
            imp = improvement_pct(gcope[0], imp_vs)
            row = {"scheme": "IMP(%)", "mode": ""}
            for m in METRICS:
                row[f"{m}_mean"] = imp[m]
                row[f"{m}_std"] = 0.0
            rows.append(row)
    return rows


def write_csv(path: str, header: list[str], rows) -> None:
    """A header line, then one line per row of its cells' `str`, LF endings."""
    with open(path, "w", newline="\n") as f:
        f.writelines(",".join(map(str, row)) + "\n" for row in [header, *rows])


def write_summary_csv(path: str, rows: list[dict]) -> None:
    write_csv(path, SUMMARY_COLS,
              ([_fmt_cell(row.get(c, "")) for c in SUMMARY_COLS] for row in rows))


def write_summary_markdown(path: str, rows: list[dict], note: str = "") -> None:
    with open(path, "w", newline="\n") as f:
        if note:
            f.write(note + "\n\n")
        f.write("(std = sample standard deviation, n-1 denominator; "
                "IMP = ratio of means vs averaged baselines)\n\n")
        f.write("| " + " | ".join(SUMMARY_COLS) + " |\n")
        f.write("|" + "---|" * len(SUMMARY_COLS) + "\n")
        for row in rows:
            f.write("| " + " | ".join(_fmt_cell(row.get(c, "")) for c in SUMMARY_COLS) + " |\n")


def _fmt_cell(v):
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)
