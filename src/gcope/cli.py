"""Command-line interface: synth, pretrain, transfer, eval, ablate, inspect."""

from __future__ import annotations

import argparse
import os
import sys

from . import config as cfgmod
from . import errors
from .amalgam import CoordinatorSet
from .checkpoint import config_fingerprint, load_checkpoint, save_checkpoint
from .evalkit import (METRICS, SUMMARY_COLS, ExperimentParams, run_ablation,
                      run_pretrained, run_supervised, summary_rows,
                      transfer_repeats, write_csv, write_summary_csv,
                      write_summary_markdown)
from .graphstore import describe, load_dataset, synth_dataset, write_dataset
from .nn import ARCHITECTURE
from .pretrain import AugmentationSpec, PretrainConfig, pretrain
from .projection import ProjectionConfig
from .transfer import TransferConfig, evaluate_model

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2


def _coords(r: dict) -> CoordinatorSet:
    mode, thr = cfgmod.parse_inter_mode(r["inter_mode"])
    return CoordinatorSet(per_dataset=r["coordinators_per_dataset"], inter_mode=mode,
                          dynamic_threshold=thr)


def _resolved(args) -> dict:
    """Schema defaults <- the --config file <- the flags given. A flag's value
    goes through the parser a file's value does, after argparse has finished."""
    flags = {key: cfgmod._parse(key, val) for key in cfgmod.SCHEMA
             if (val := getattr(args, f"cfg_{key}")) is not None}
    file_values = cfgmod.load_config_file(args.config) if args.config else {}
    return cfgmod.resolve(file_values, flags)


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file (flags override it)")
    for key, (_typ, default) in cfgmod.SCHEMA.items():
        p.add_argument("--" + key.replace("_", "-"), dest=f"cfg_{key}",
                       help=f"{key} (default {default})")


def cmd_synth(args) -> int:
    g = synth_dataset(args.nodes, args.classes, args.dim, args.homophily, args.seed)
    write_dataset(g, args.out)
    meta = describe(g)
    print(f"wrote {args.out}: {meta.node_count} nodes, {meta.edge_count} edge entries, "
          f"homophily {meta.homophily:.3f}")
    return EXIT_OK


def _architecture(r: dict) -> dict:
    """The checkpoint keys that fix the encoder's shape and function. A key the
    chosen encoder ignores must keep its default, or it would be recorded as
    though it had been used."""
    ignored = {"gcn": "fagcn_eps", "fagcn": "activation"}.get(r["enc_kind"])
    if ignored and r[ignored] != cfgmod.SCHEMA[ignored][1]:
        raise errors.InvalidArgument(
            f"{ignored}={r[ignored]!r} has no effect with enc_kind={r['enc_kind']!r}")
    return {key: r["proj_dim" if key == "d_p" else key] for key in ARCHITECTURE}


def cmd_pretrain(args) -> int:
    r = _resolved(args)
    sources = [load_dataset(p) for p in args.sources.split(",")]
    params = _experiment_params(r, transfer=False)
    coords = params.coords
    result = pretrain(sources, params.proj_cfg, coords, cfg=params.pretrain_cfg,
                      **params.encoder)
    tensors = [(p.name, p.data) for p in result.encoder.params()]
    if coords.per_dataset:
        tensors.append((coords.features.name, coords.features.data))
    save_checkpoint(args.out, _architecture(r), config_fingerprint(r), tensors)
    loss_csv = args.loss_csv or args.out + ".loss.csv"
    write_csv(loss_csv, ["epoch", "contrastive", "reconstruction", "total"],
              ((rep.epoch, rep.contrastive, rep.reconstruction, rep.total)
               for rep in result.history))
    cfgmod.dump_resolved(r, args.out + ".config")
    print(f"wrote {args.out} ({len(result.history)} epochs; loss history {loss_csv})")
    return EXIT_OK


def cmd_transfer(args) -> int:
    r = _resolved(args)
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
    write_csv(args.out, ["repeat", "split", "acc", "auc", "f1"], rows)
    cfgmod.dump_resolved(r, args.out + ".config")
    print(f"wrote {args.out}")
    return EXIT_OK


def _experiment_params(r: dict, transfer: bool = True) -> ExperimentParams:
    """The resolved config as experiment settings. With transfer=False the
    transfer settings are neither read nor validated: `pretrain` uses none."""
    encoder = _architecture(r)
    proj_cfg = ProjectionConfig(d_p=encoder.pop("d_p"))
    pretrain_cfg = PretrainConfig(
        objective=r["objective"], temperature=r["tau"], lam=r["lambda"],
        epochs=r["epochs"], batch_size=r["batch_size"], hops=r["hops"],
        perturb_scale=r["perturb_scale"], learning_rate=r["lr"], seed=r["seed"],
        augmentations=(AugmentationSpec(r["aug1"], r["aug_ratio"]),
                       AugmentationSpec(r["aug2"], r["aug_ratio"])))
    transfer_cfg = TransferConfig(
        mode=r["mode"], epochs=r["transfer_epochs"], learning_rate=r["transfer_lr"],
        patience=r["patience"], prompt_tokens=r["prompt_tokens"],
        seed=r["seed"]) if transfer else TransferConfig()
    return ExperimentParams(encoder=encoder, k_shot=r["shots"], hops=r["hops"],
                            repeats=r["repeats"], base_seed=r["seed"],
                            proj_cfg=proj_cfg, pretrain_cfg=pretrain_cfg,
                            transfer_cfg=transfer_cfg, coords=_coords(r))


def cmd_eval(args) -> int:
    r = _resolved(args)
    sources = [load_dataset(p) for p in args.sources.split(",")]
    target = load_dataset(args.target)
    params = _experiment_params(r)
    summaries = [run_supervised(target, params),
                 run_pretrained(sources, target, params, "isolated_pretrain"),
                 run_pretrained(sources, target, params)]
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
    r = _resolved(args)
    sources = [load_dataset(p) for p in args.sources.split(",")]
    target = load_dataset(args.target)
    params = _experiment_params(r)
    parse = {"lambda_sweep": float, "coordinator_count": int}.get(args.kind, str)
    try:
        grid = [parse(x) for x in args.grid.split(",")]
    except ValueError as e:
        raise errors.InvalidArgument(f"--grid: {e}") from None
    results = run_ablation(args.kind, grid, sources, target, params)
    write_csv(args.out, ["point"] + SUMMARY_COLS[2:],
              ([point] + [v for m in METRICS for v in (s.mean[m], s.std[m])]
               for point, s in results))
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
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("transfer", help="few-shot transfer to a target dataset")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--out", required=True, help="metrics CSV path")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_transfer)

    sp = sub.add_parser("eval", help="supervised / isolated / gcope comparison")
    sp.add_argument("--sources", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--out", required=True, help="summary CSV path")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("ablate", help="grid ablations")
    sp.add_argument("--kind", required=True,
                    choices=["inter_edges", "lambda_sweep", "coordinator_count"])
    sp.add_argument("--grid", required=True, help="comma-separated grid values")
    sp.add_argument("--sources", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--out", required=True)
    _add_config_flags(sp)
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
