"""Binary checkpoint format.

Layout: header line ``GCOPEv1``, one JSON manifest line (hyperparameters,
config fingerprint, tensor directory with byte offsets), then the raw
little-endian float32 payload in manifest order. Byte-exact for fixed
seeds: the manifest is serialized with sorted keys and no whitespace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .nn import ARCHITECTURE, make_encoder

MAGIC = b"GCOPEv1\n"


@dataclass
class Checkpoint:
    hyper: dict
    fingerprint: str
    tensors: dict = field(default_factory=dict)   # name -> float32 ndarray

    def encoder(self):
        missing = [k for k in ARCHITECTURE if k not in self.hyper]
        if missing:
            raise errors.ShapeMismatch(f"checkpoint missing architecture key {missing[0]!r}")
        enc = make_encoder(**{k: self.hyper[k] for k in ARCHITECTURE})
        for p in enc.params():
            if p.name not in self.tensors:
                raise errors.ShapeMismatch(f"checkpoint missing tensor {p.name!r}")
            stored = self.tensors[p.name]
            if stored.shape != p.data.shape:
                raise errors.DimensionMismatch(
                    f"tensor {p.name!r}: checkpoint {stored.shape} vs model {p.data.shape}")
            p.data = stored.copy()
        return enc


def config_fingerprint(resolved: dict) -> str:
    text = "\n".join(f"{k}={resolved[k]}" for k in sorted(resolved))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def save_checkpoint(path: str, hyper: dict, fingerprint: str,
                    named_tensors: list[tuple[str, np.ndarray]]) -> None:
    directory = []
    payload = bytearray()
    for name, arr in named_tensors:
        arr = np.asarray(arr, dtype="<f4")  # keeps 0-d shapes, unlike ascontiguousarray
        directory.append({"name": name, "shape": list(arr.shape),
                          "offset": len(payload)})
        payload += arr.tobytes()
    manifest = json.dumps({"hyper": hyper, "fingerprint": fingerprint,
                           "tensors": directory},
                          sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(manifest.encode("utf-8") + b"\n")
        f.write(bytes(payload))


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; a malformed file raises IoError."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise errors.IoError(f"{path}: not a GCOPEv1 checkpoint")
        line = f.readline()
        payload = f.read()
    try:
        manifest = json.loads(line.decode("utf-8"))
        hyper, fingerprint, entries = (manifest[k] for k in ("hyper", "fingerprint",
                                                              "tensors"))
        directory = [(e["name"], tuple(e["shape"]), e["offset"]) for e in entries]
    except (ValueError, KeyError, TypeError) as e:
        raise errors.IoError(f"{path}: malformed manifest: {e!r}") from e
    prev_end = 0
    tensors = {}
    for name, shape, start in directory:
        if not all(isinstance(v, int) and v >= 0 for v in (start, *shape)):
            raise errors.IoError(f"{path}: tensor {name!r} needs a non-negative "
                                 f"integer offset and dimensions")
        count = int(np.prod(shape)) if shape else 1
        if start < prev_end:
            raise errors.IoError(f"{path}: overlapping tensor payloads")
        end = start + 4 * count
        if end > len(payload):
            raise errors.IoError(f"{path}: truncated payload")
        tensors[name] = np.frombuffer(
            payload[start:end], dtype="<f4").reshape(shape).copy()
        prev_end = end
    return Checkpoint(hyper=hyper, fingerprint=fingerprint, tensors=tensors)
