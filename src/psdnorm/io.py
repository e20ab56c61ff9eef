"""File formats: the binary multichannel signal container and the JSON
layer-state document.

Signal container layout (little-endian):
    bytes 0-3   magic "PSDN"
    bytes 4-5   format version, uint16 (currently 1)
    bytes 6-9   channels, uint32
    bytes 10-17 length, uint64
    bytes 18-19 sample-encoding tag, uint16 (0 = float32)
    payload     channels * length float32 values, row-major

State documents are JSON with sorted keys and Python's shortest round-trip
float serialization, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ParameterOutOfRangeError, PsdNormError, ShapeMismatchError
from .geometry import BarycenterState
from .layers import BatchNormLayer, PsdNormLayer
from .spectral import WelchConfig

MAGIC = b"PSDN"
FORMAT_VERSION = 1
ENCODING_FLOAT32 = 0
_HEADER = struct.Struct("<4sHIQH")


class SignalFileError(PsdNormError):
    """Malformed or truncated signal container."""


def write_signal(path, x) -> None:
    """Write a (c, l) signal to the binary container (float32 payload)."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2:
        raise ShapeMismatchError(f"expected a (channels, length) array, got {x.shape}")
    c, l = x.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, c, l, ENCODING_FLOAT32))
        fh.write(x.tobytes(order="C"))


def read_signal(path) -> np.ndarray:
    """Read a signal container; returns a float64 (c, l) array."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SignalFileError(f"{path}: truncated header")
    magic, version, c, l, tag = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SignalFileError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise SignalFileError(f"{path}: unsupported format version {version}")
    if tag != ENCODING_FLOAT32:
        raise SignalFileError(f"{path}: unsupported sample encoding {tag}")
    expected = _HEADER.size + c * l * 4
    if len(raw) != expected:
        raise SignalFileError(
            f"{path}: payload size {len(raw) - _HEADER.size} != {c * l * 4}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    return data.reshape(c, l).astype(float)


# ---------------------------------------------------------------------------
# Layer state documents
# ---------------------------------------------------------------------------

def dumps_json(doc: dict) -> str:
    """Deterministic JSON serialization used for all state and report files."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def state_to_dict(layer) -> dict:
    if isinstance(layer, PsdNormLayer):
        bary = layer.barycenter
        return {
            "kind": "psdnorm",
            "library_version": __version__,
            "f": layer.filter_size,
            "momentum": layer.momentum,
            "welch": {
                "filter_size": layer.welch.filter_size,
                "stride": layer.welch.stride,
                "window_kind": layer.welch.window_kind,
            },
            "barycenter": None if bary.is_empty else bary.value.tolist(),
            "update_count": bary.update_count,
        }
    if isinstance(layer, BatchNormLayer):
        return {
            "kind": "batchnorm",
            "library_version": __version__,
            "gamma": np.asarray(layer.gamma, dtype=float).tolist(),
            "beta": np.asarray(layer.beta, dtype=float).tolist(),
            "eps": layer.eps,
            "stat_momentum": layer.stat_momentum,
            "running_mean": None if layer.running_mean is None
            else layer.running_mean.tolist(),
            "running_var": None if layer.running_var is None
            else layer.running_var.tolist(),
            "num_batches_tracked": layer.num_batches_tracked,
        }
    raise ParameterOutOfRangeError(f"unsupported layer type {type(layer).__name__}")


def state_from_dict(doc: dict):
    kind = doc.get("kind")
    if kind == "psdnorm":
        bary_value = doc["barycenter"]
        state = BarycenterState(
            value=None if bary_value is None else np.asarray(bary_value, dtype=float),
            update_count=doc["update_count"],
        )
        return PsdNormLayer(
            filter_size=doc["f"],
            momentum=doc["momentum"],
            welch=WelchConfig(**doc["welch"]),
            barycenter=state,
        )
    if kind == "batchnorm":
        return BatchNormLayer(
            gamma=np.asarray(doc["gamma"], dtype=float),
            beta=np.asarray(doc["beta"], dtype=float),
            eps=doc["eps"],
            stat_momentum=doc["stat_momentum"],
            running_mean=None if doc["running_mean"] is None
            else np.asarray(doc["running_mean"], dtype=float),
            running_var=None if doc["running_var"] is None
            else np.asarray(doc["running_var"], dtype=float),
            num_batches_tracked=doc["num_batches_tracked"],
        )
    raise ParameterOutOfRangeError(f"unsupported state kind {kind!r}")


def save_state(path, layer) -> None:
    Path(path).write_text(dumps_json(state_to_dict(layer)))


def load_state(path):
    return state_from_dict(json.loads(Path(path).read_text()))

