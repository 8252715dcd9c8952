"""Flat key=value experiment configuration with CLI overrides.

Unknown keys are rejected; a resolved dump (every key, defaults included)
accompanies every artifact for provenance.
"""

from __future__ import annotations

from . import errors

# key -> (type, default)
SCHEMA = {
    "proj_dim": (int, 100),
    "coordinators_per_dataset": (int, 1),
    "inter_mode": (str, "full"),          # full | none | dynamic:<threshold>
    "objective": (str, "graphcl"),
    "tau": (float, 0.5),
    "lambda": (float, 0.2),
    "epochs": (int, 100),
    "batch_size": (int, 128),
    "hops": (int, 2),
    "perturb_scale": (float, 0.1),
    "lr": (float, 1e-4),
    "seed": (int, 0),
    "aug1": (str, "node_drop"),
    "aug2": (str, "attr_mask"),
    "aug_ratio": (float, 0.2),
    "enc_kind": (str, "gcn"),
    "hidden": (int, 100),
    "num_layers": (int, 2),
    "activation": (str, "relu"),
    "fagcn_eps": (float, 0.3),
    "mode": (str, "finetune"),
    "transfer_epochs": (int, 100),
    "transfer_lr": (float, 1e-4),
    "patience": (int, 20),
    "shots": (int, 1),
    "repeats": (int, 5),
    "prompt_tokens": (int, 10),
}


def _parse(key: str, raw: str):
    typ, _ = SCHEMA[key]
    try:
        return typ(raw)
    except ValueError as e:
        raise errors.InvalidArgument(f"{key}: {e}") from e


def load_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise errors.InvalidArgument(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in SCHEMA:
                raise errors.InvalidArgument(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _parse(key, val)
    return out


def resolve(file_values: dict = None, overrides: dict = None) -> dict:
    """Defaults <- config file <- CLI overrides (None values skipped)."""
    resolved = {k: default for k, (_t, default) in SCHEMA.items()}
    for src in (file_values or {}, overrides or {}):
        for k, v in src.items():
            if v is None:
                continue
            if k not in SCHEMA:
                raise errors.InvalidArgument(f"unknown config key {k!r}")
            resolved[k] = v
    return resolved


def dump_resolved(resolved: dict, path: str) -> None:
    with open(path, "w", newline="\n") as f:
        for k in sorted(resolved):
            f.write(f"{k}={resolved[k]}\n")


def parse_inter_mode(value: str) -> tuple[str, float]:
    """'full' | 'none' | 'dynamic:<threshold>' -> (mode, threshold)."""
    if value in ("full", "none", "dynamic"):
        return value, 0.0
    if value.startswith("dynamic:"):
        try:
            return "dynamic", float(value.split(":", 1)[1])
        except ValueError:
            raise errors.InvalidArgument(
                f"inter_mode {value!r}: threshold is not a number") from None
    raise errors.InvalidArgument(f"unknown inter_mode {value!r}")
