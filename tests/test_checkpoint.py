import json
from pathlib import Path

import numpy as np
import pytest

from gcope import errors
from gcope.checkpoint import MAGIC, Checkpoint, load_checkpoint, save_checkpoint
from gcope.nn import ARCHITECTURE, make_encoder

HYPER = {"d_p": 4, "enc_kind": "gcn", "hidden": 3, "num_layers": 2,
         "activation": "relu", "fagcn_eps": 0.3}


def write_raw(path, manifest, payload=b""):
    line = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    path.write_bytes(MAGIC + line + b"\n" + payload)
    return str(path)


def manifest_for(entries):
    return {"hyper": {}, "fingerprint": "f", "tensors": entries}


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    special = np.array([[-0.0, np.inf], [np.nan, 1e-45]], dtype=np.float32)
    tensors = [("w", rng.normal(size=(3, 5)).astype(np.float32)),
               ("scalar", np.array(2.5, dtype=np.float32)),
               ("empty", np.zeros((0, 4), dtype=np.float32)),
               ("special", special)]
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, HYPER, "abc123", tensors)
    ckpt = load_checkpoint(path)
    assert ckpt.hyper == HYPER and ckpt.fingerprint == "abc123"
    assert list(ckpt.tensors) == [name for name, _ in tensors]
    for name, arr in tensors:
        got = ckpt.tensors[name]
        assert got.shape == arr.shape and got.dtype == np.float32
        assert got.tobytes() == arr.tobytes()
    again = str(tmp_path / "b.ckpt")
    save_checkpoint(again, ckpt.hyper, ckpt.fingerprint, list(ckpt.tensors.items()))
    assert Path(again).read_bytes() == Path(path).read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"GCOPEv2\n" + json.dumps(manifest_for([])).encode() + b"\n")
    with pytest.raises(errors.IoError):
        load_checkpoint(str(path))


def test_truncated_payload(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, HYPER, "f", [("w", np.ones((2, 3), dtype=np.float32))])
    Path(path).write_bytes(Path(path).read_bytes()[:-4])
    with pytest.raises(errors.IoError, match="truncated"):
        load_checkpoint(path)


def test_overlapping_offsets(tmp_path):
    entries = [{"name": "a", "shape": [2], "offset": 0},
               {"name": "b", "shape": [2], "offset": 4}]
    path = write_raw(tmp_path / "x.ckpt", manifest_for(entries), bytes(16))
    with pytest.raises(errors.IoError, match="overlapping"):
        load_checkpoint(path)


@pytest.mark.parametrize("manifest", [
    b"{not json",
    b"\xff\xfe",
    [1, 2, 3],
    {"fingerprint": "f", "tensors": []},
    {"hyper": {}, "tensors": []},
    {"hyper": {}, "fingerprint": "f"},
    manifest_for([{"name": "a", "shape": [1]}]),
    manifest_for([{"name": "a", "shape": [-1, 2], "offset": 0}]),
    manifest_for([{"name": "a", "shape": [1], "offset": -4}]),
    manifest_for([{"name": "a", "shape": ["2"], "offset": 0}]),
], ids=["not-json", "not-utf8", "not-an-object", "no-hyper", "no-fingerprint",
        "no-tensors", "entry-without-offset", "negative-dimension",
        "negative-offset", "string-dimension"])
def test_malformed_manifest_is_io_error(tmp_path, manifest):
    path = write_raw(tmp_path / "x.ckpt", manifest, bytes(16))
    with pytest.raises(errors.IoError):
        load_checkpoint(path)


def _encoder_tensors():
    enc = make_encoder("gcn", HYPER["d_p"], hidden=HYPER["hidden"], seed=3)
    return {p.name: p.data for p in enc.params()}


def test_encoder_loads_stored_weights():
    tensors = _encoder_tensors()
    enc = Checkpoint(HYPER, "f", tensors).encoder()
    for p in enc.params():
        assert p.data.tobytes() == tensors[p.name].tobytes()


def test_encoder_missing_tensor_is_shape_mismatch():
    tensors = _encoder_tensors()
    del tensors["gcn.b1"]
    with pytest.raises(errors.ShapeMismatch, match="gcn.b1"):
        Checkpoint(HYPER, "f", tensors).encoder()


@pytest.mark.parametrize("key", ARCHITECTURE)
def test_encoder_missing_architecture_key_is_shape_mismatch(key):
    hyper = {k: v for k, v in HYPER.items() if k != key}
    with pytest.raises(errors.ShapeMismatch, match=key):
        Checkpoint(hyper, "f", _encoder_tensors()).encoder()


def test_encoder_wrong_shape_is_dimension_mismatch():
    tensors = _encoder_tensors()
    tensors["gcn.w0"] = np.zeros((4, 7), dtype=np.float32)
    with pytest.raises(errors.DimensionMismatch, match="gcn.w0"):
        Checkpoint(HYPER, "f", tensors).encoder()
