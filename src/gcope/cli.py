"""Command-line interface: synth, pretrain, transfer, eval, ablate, inspect."""

from __future__ import annotations

import argparse
import os
import sys

# must happen before numpy spins up its thread pools
_threads = os.environ.get("GCOPE_THREADS", "0")
if _threads not in ("", "0"):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, _threads)

import numpy as np  # noqa: E402

from . import config as cfgmod  # noqa: E402
from . import errors  # noqa: E402
from .amalgam import CoordinatorSet  # noqa: E402
from .checkpoint import config_fingerprint, load_checkpoint, save_checkpoint  # noqa: E402
from .evalkit import (ExperimentParams, run_ablation, run_gcope,  # noqa: E402
                      run_isolated_pretrain, run_supervised, summary_rows,
                      transfer_repeats, write_summary_csv, write_summary_markdown)
from .graphstore import describe, load_dataset, synth_dataset, write_dataset  # noqa: E402
from .pretrain import AugmentationSpec, PretrainConfig, pretrain  # noqa: E402
from .projection import ProjectionConfig  # noqa: E402
from .transfer import TransferConfig, evaluate_model  # noqa: E402

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2


def _proj_cfg(r: dict) -> ProjectionConfig:
    return ProjectionConfig(d_p=r["proj_dim"], l2_normalize=r["l2_normalize_features"])


def _coords(r: dict) -> CoordinatorSet:
    mode, thr = cfgmod.parse_inter_mode(r["inter_mode"])
    return CoordinatorSet(per_dataset=r["coordinators_per_dataset"],
                          init_scheme=r["coordinator_init"], inter_mode=mode,
                          dynamic_threshold=thr, self_loops=r["self_loops"])


def _pretrain_cfg(r: dict) -> PretrainConfig:
    return PretrainConfig(
        objective=r["objective"], temperature=r["tau"], lam=r["lambda"],
        epochs=r["epochs"], batch_size=r["batch_size"], hops=r["hops"],
        perturb_scale=r["perturb_scale"], learning_rate=r["lr"], seed=r["seed"],
        augmentations=(AugmentationSpec(r["aug1"], r["aug_ratio"]),
                       AugmentationSpec(r["aug2"], r["aug_ratio"])),
        readout=r["readout"])


def _transfer_cfg(r: dict) -> TransferConfig:
    return TransferConfig(mode=r["mode"], epochs=r["transfer_epochs"],
                          learning_rate=r["transfer_lr"], patience=r["patience"],
                          prompt_tokens=r["prompt_tokens"], readout=r["readout"],
                          seed=r["seed"])


def _resolved(args, extra_overrides: dict) -> dict:
    file_values = cfgmod.load_config_file(args.config) if getattr(args, "config", None) else {}
    return cfgmod.resolve(file_values, extra_overrides)


def _add_config_flags(p: argparse.ArgumentParser, keys: list[str]):
    p.add_argument("--config", help="key=value config file (flags override it)")
    flag_names = {
        "proj_dim": "--proj-dim", "lambda": "--lambda", "tau": "--tau",
        "coordinators_per_dataset": "--coordinators-per-dataset",
        "inter_mode": "--inter-mode", "coordinator_init": "--coordinator-init",
        "self_loops": "--self-loops", "l2_normalize_features": "--l2-normalize-features",
    }
    for key in keys:
        typ, default = cfgmod.SCHEMA[key]
        flag = flag_names.get(key, "--" + key.replace("_", "-"))
        if typ is bool:
            p.add_argument(flag, dest=f"cfg_{key}", default=None,
                           choices=["true", "false"],
                           help=f"{key} (default {default})")
        else:
            p.add_argument(flag, dest=f"cfg_{key}", type=typ, default=None,
                           help=f"{key} (default {default})")


def _overrides_from(args) -> dict:
    out = {}
    for key in cfgmod.SCHEMA:
        val = getattr(args, f"cfg_{key}", None)
        if val is None:
            continue
        if cfgmod.SCHEMA[key][0] is bool:
            val = val == "true"
        out[key] = val
    return out


ALL_KEYS = list(cfgmod.SCHEMA)


def cmd_synth(args) -> int:
    g = synth_dataset(args.nodes, args.classes, args.dim, args.homophily, args.seed)
    write_dataset(g, args.out)
    meta = describe(g)
    print(f"wrote {args.out}: {meta.node_count} nodes, {meta.edge_count} edge entries, "
          f"homophily {meta.homophily:.3f}")
    return EXIT_OK


def _architecture(r: dict) -> dict:
    """The checkpoint keys that fix the encoder's shape and function."""
    return {"d_p": r["proj_dim"], "enc_kind": r["enc_kind"], "hidden": r["hidden"],
            "num_layers": r["num_layers"], "activation": r["activation"],
            "fagcn_eps": r["fagcn_eps"]}


def _pretrain_hyper(r: dict, num_datasets: int) -> dict:
    return {**_architecture(r), "lambda": r["lambda"], "tau": r["tau"],
            "objective": r["objective"], "num_datasets": num_datasets,
            "coordinators_per_dataset": r["coordinators_per_dataset"]}


def cmd_pretrain(args) -> int:
    r = _resolved(args, _overrides_from(args))
    sources = [load_dataset(p) for p in args.sources.split(",")]
    coords = _coords(r)
    result = pretrain(sources, _proj_cfg(r), coords, r["enc_kind"],
                      _pretrain_cfg(r), hidden=r["hidden"],
                      num_layers=r["num_layers"], fagcn_eps=r["fagcn_eps"],
                      activation=r["activation"])
    fingerprint = config_fingerprint(r)
    tensors = [(p.name, p.data) for p in result.encoder.params()]
    tensors += [(p.name, p.data) for p in result.decoder.params()]
    if coords.features is not None:
        tensors.append((coords.features.name, coords.features.data))
    save_checkpoint(args.out, _pretrain_hyper(r, len(sources)), fingerprint, tensors)
    loss_csv = args.loss_csv or args.out + ".loss.csv"
    with open(loss_csv, "w", newline="\n") as f:
        f.write("epoch,contrastive,reconstruction,total\n")
        for rep in result.history:
            f.write(f"{rep.epoch},{rep.contrastive!r},{rep.reconstruction!r},"
                    f"{rep.total!r}\n")
    cfgmod.dump_resolved(r, args.out + ".config")
    print(f"wrote {args.out} ({len(result.history)} epochs; loss history {loss_csv})")
    return EXIT_OK


def cmd_transfer(args) -> int:
    r = _resolved(args, _overrides_from(args))
    ckpt = load_checkpoint(args.ckpt)
    for key, want in _architecture(r).items():
        if ckpt.hyper.get(key) != want:
            raise errors.InvalidArgument(
                f"checkpoint {key}={ckpt.hyper.get(key)!r} but configured {want!r}")
    target = load_dataset(args.target)
    encoder = ckpt.encoder()
    rows = []
    repeats = transfer_repeats(lambda _seed: encoder, target, _experiment_params(r))
    for rep, (_seed, task, model) in enumerate(repeats):
        for split in ("val", "test"):
            m = evaluate_model(model, task, split)
            rows.append((rep, split, m.acc, m.auc, m.f1))
    with open(args.out, "w", newline="\n") as f:
        f.write("repeat,split,acc,auc,f1\n")
        for rep, split, acc, auc, f1 in rows:
            f.write(f"{rep},{split},{acc!r},{auc!r},{f1!r}\n")
    cfgmod.dump_resolved(r, args.out + ".config")
    print(f"wrote {args.out}")
    return EXIT_OK


def _experiment_params(r: dict) -> ExperimentParams:
    return ExperimentParams(enc_kind=r["enc_kind"], hidden=r["hidden"],
                            num_layers=r["num_layers"], fagcn_eps=r["fagcn_eps"],
                            k_shot=r["shots"], hops=r["hops"], repeats=r["repeats"],
                            base_seed=r["seed"], proj_cfg=_proj_cfg(r),
                            pretrain_cfg=_pretrain_cfg(r),
                            transfer_cfg=_transfer_cfg(r))


def cmd_eval(args) -> int:
    r = _resolved(args, _overrides_from(args))
    sources = [load_dataset(p) for p in args.sources.split(",")]
    target = load_dataset(args.target)
    params = _experiment_params(r)
    summaries = [run_supervised(target, params),
                 run_isolated_pretrain(sources, target, params),
                 run_gcope(sources, target, params, _coords(r))]
    baselines = summaries[:2]
    rows = summary_rows(summaries, imp_vs=baselines)
    write_summary_csv(args.out, rows)
    write_summary_markdown(os.path.splitext(args.out)[0] + ".md", rows,
                           note=f"target={target.name}, seeds={params.base_seed}.."
                                f"{params.base_seed + params.repeats - 1}")
    cfgmod.dump_resolved(r, args.out + ".config")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    r = _resolved(args, _overrides_from(args))
    sources = [load_dataset(p) for p in args.sources.split(",")]
    target = load_dataset(args.target)
    params = _experiment_params(r)
    if args.kind == "lambda_sweep":
        grid = [float(x) for x in args.grid.split(",")]
    elif args.kind == "coordinator_count":
        grid = [int(x) for x in args.grid.split(",")]
    else:
        grid = args.grid.split(",")
    results = run_ablation(args.kind, grid, sources, target, params, _coords(r))
    with open(args.out, "w", newline="\n") as f:
        cols = "point,acc_mean,acc_std,auc_mean,auc_std,f1_mean,f1_std"
        f.write(cols + "\n")
        for point, s in results:
            f.write(f"{point},{s.mean['acc']!r},{s.std['acc']!r},"
                    f"{s.mean['auc']!r},{s.std['auc']!r},"
                    f"{s.mean['f1']!r},{s.std['f1']!r}\n")
    cfgmod.dump_resolved(r, args.out + ".config")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    did_something = False
    if args.ckpt:
        ckpt = load_checkpoint(args.ckpt)
        print(f"checkpoint {args.ckpt} (fingerprint {ckpt.fingerprint})")
        for k in sorted(ckpt.hyper):
            print(f"  {k} = {ckpt.hyper[k]}")
        for name in ckpt.tensors:
            print(f"  tensor {name} shape {ckpt.tensors[name].shape}")
        did_something = True
    if args.dataset:
        meta = describe(load_dataset(args.dataset))
        print(f"dataset {args.dataset}: nodes={meta.node_count} "
              f"edges={meta.edge_count} features={meta.feature_dim} "
              f"labels={meta.label_count} homophily={meta.homophily:.3f}")
        did_something = True
    if not did_something:
        raise errors.InvalidArgument("inspect needs --ckpt and/or --dataset")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gcope",
                                description="Cross-domain graph pretraining with "
                                            "coordinator virtual nodes")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset directory")
    sp.add_argument("--nodes", type=int, required=True)
    sp.add_argument("--classes", type=int, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--homophily", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("pretrain", help="pretrain on source datasets")
    sp.add_argument("--sources", required=True, help="comma-separated dataset dirs")
    sp.add_argument("--out", required=True, help="checkpoint path")
    sp.add_argument("--loss-csv", default=None)
    _add_config_flags(sp, ALL_KEYS)
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("transfer", help="few-shot transfer to a target dataset")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--out", required=True, help="metrics CSV path")
    _add_config_flags(sp, ALL_KEYS)
    sp.set_defaults(func=cmd_transfer)

    sp = sub.add_parser("eval", help="supervised / isolated / gcope comparison")
    sp.add_argument("--sources", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--out", required=True, help="summary CSV path")
    _add_config_flags(sp, ALL_KEYS)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("ablate", help="grid ablations")
    sp.add_argument("--kind", required=True,
                    choices=["inter_edges", "lambda_sweep", "coordinator_count"])
    sp.add_argument("--grid", required=True, help="comma-separated grid values")
    sp.add_argument("--sources", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--out", required=True)
    _add_config_flags(sp, ALL_KEYS)
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("inspect", help="print checkpoint manifest / dataset stats")
    sp.add_argument("--ckpt", default=None)
    sp.add_argument("--dataset", default=None)
    sp.set_defaults(func=cmd_inspect)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (errors.InvalidArgument, errors.DimensionMismatch,
            errors.MissingFile, errors.ShapeMismatch,
            errors.IndexOutOfRange) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE
    except errors.GcopeError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as e:
        print(f"error: IoError: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
