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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    NonFiniteInputError,
    ParameterOutOfRangeError,
    PsdNormError,
    ShapeMismatchError,
)
from .layers import BatchNormLayer, PsdNormLayer
from .spectral import WelchConfig

MAGIC = b"PSDN"
FORMAT_VERSION = 1
ENCODING_FLOAT32 = 0
_HEADER = struct.Struct("<4sHIQH")


class SignalFileError(PsdNormError):
    """Malformed or truncated signal container."""


class StateFileError(PsdNormError):
    """State document that is malformed or does not fit the command."""


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
    """Read a signal container; returns a float64 (c, l) array.

    Samples that are NaN or Inf raise ``NonFiniteInputError``.
    """
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
    if not np.all(np.isfinite(data)):
        raise NonFiniteInputError(f"{path}: non-finite samples (NaN or Inf)")
    return data.reshape(c, l).astype(float)


# ---------------------------------------------------------------------------
# Layer state documents
# ---------------------------------------------------------------------------

def dumps_json(doc: dict) -> str:
    """Deterministic JSON serialization used for all state and report files."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _list(a):
    return None if a is None else np.asarray(a, dtype=float).tolist()


def state_to_dict(layer) -> dict:
    if isinstance(layer, PsdNormLayer):
        return {
            "kind": "psdnorm",
            "library_version": __version__,
            "f": layer.filter_size,
            "momentum": layer.momentum,
            "welch": asdict(layer.welch),
            "barycenter": _list(layer.barycenter),
            "update_count": layer.update_count,
        }
    if isinstance(layer, BatchNormLayer):
        return {
            "kind": "batchnorm",
            "library_version": __version__,
            "gamma": _list(layer.gamma),
            "beta": _list(layer.beta),
            "eps": layer.eps,
            "stat_momentum": layer.stat_momentum,
            "running_mean": _list(layer.running_mean),
            "running_var": _list(layer.running_var),
            "num_batches_tracked": layer.num_batches_tracked,
        }
    raise ParameterOutOfRangeError(f"unsupported layer type {type(layer).__name__}")


def _get(doc: dict, key: str, *types):
    """doc[key], which must be a JSON value of one of ``types``."""
    if key not in doc:
        raise StateFileError(f"no key {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise StateFileError(f"key {key!r} has type {type(value).__name__}")
    return value


def state_from_dict(doc, expected_kind: str | None = None):
    """Build a layer from a state document of ``expected_kind`` (any kind
    when None); any defect raises ``StateFileError``."""
    if not isinstance(doc, dict):
        raise StateFileError("state document must be a JSON object,"
                             f" got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in ("psdnorm", "batchnorm"):
        raise StateFileError(f"unsupported state kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise StateFileError(f"state kind {kind!r} is not {expected_kind!r}")
    number, optional_list = (int, float), (list, type(None))
    try:
        if kind == "psdnorm":
            welch = _get(doc, "welch", dict)
            return PsdNormLayer(
                filter_size=_get(doc, "f", int),
                momentum=_get(doc, "momentum", *number),
                welch=WelchConfig(_get(welch, "filter_size", int),
                                  _get(welch, "stride", int),
                                  _get(welch, "window_kind", str)),
                barycenter=_get(doc, "barycenter", *optional_list),
                update_count=_get(doc, "update_count", int),
            )
        return BatchNormLayer(
            gamma=_get(doc, "gamma", list, *number),
            beta=_get(doc, "beta", list, *number),
            eps=_get(doc, "eps", *number),
            stat_momentum=_get(doc, "stat_momentum", *number),
            running_mean=_get(doc, "running_mean", *optional_list),
            running_var=_get(doc, "running_var", *optional_list),
            num_batches_tracked=_get(doc, "num_batches_tracked", int),
        )
    except (PsdNormError, TypeError, ValueError, OverflowError) as e:
        raise StateFileError(f"{kind} state: {e}") from e


def save_state(path, layer) -> None:
    Path(path).write_text(dumps_json(state_to_dict(layer)))


def load_state(path, kind: str | None = None):
    """Read a state document; ``kind``, when given, must be its kind."""
    try:
        return state_from_dict(json.loads(Path(path).read_text()), kind)
    except StateFileError as e:
        raise StateFileError(f"{path}: {e}") from None
