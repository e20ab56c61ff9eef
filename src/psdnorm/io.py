"""File formats: the binary multichannel signal container and the JSON
layer-state document.

Signal container layout (little-endian):
    bytes 0-3   magic "PSDN"
    bytes 4-5   format version, uint16 (currently 1)
    bytes 6-9   channels, uint32
    bytes 10-17 length, uint64
    bytes 18-19 sample-encoding tag, uint16 (0 = float32)
    payload     channels * length float32 values, row-major

``signal_shape`` checks a file's header against the layout and the file
size, ``read_rows`` yields its channel rows one at a time, and
``read_signal`` reads them all into one array; ``write_signal`` takes an
array or an iterable of rows, which it writes as they come.

State documents are JSON with sorted keys and Python's shortest round-trip
float serialization, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterator
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ParameterOutOfRangeError, PsdNormError, ShapeMismatchError
from .layers import BatchNormLayer, PsdNormLayer
from .spectral import as_signals, check_finite

MAGIC = b"PSDN"
FORMAT_VERSION = 1
ENCODING_FLOAT32 = 0
_HEADER = struct.Struct("<4sHIQH")


class SignalFileError(PsdNormError):
    """Malformed or truncated signal container."""


class StateFileError(PsdNormError):
    """State document that is malformed or does not fit the command."""


def write_signal(path, x) -> None:
    """Write a signal to the binary container (float32 payload).

    ``x`` is a (c, l) array or an iterable of its c rows, 1-D arrays of one
    length.  Rows are converted and written one at a time, so an iterator
    that makes each row when asked holds only one; the header, which counts
    them, is written last.
    """
    length = None
    if isinstance(x, np.ndarray):
        if x.ndim != 2:
            raise ShapeMismatchError(f"expected a (channels, length) array, got {x.shape}")
        length = x.shape[1]
    c = 0
    with open(path, "wb") as fh:
        fh.seek(_HEADER.size)
        for row in x:
            row = np.ascontiguousarray(row, dtype="<f4")
            if length is None and row.ndim == 1:
                length = len(row)
            if row.shape != (length,):
                raise ShapeMismatchError(f"signal row {c} has shape {row.shape},"
                                         f" expected ({length},)")
            fh.write(row.data)
            c += 1
            del row  # so that an iterator makes the next row with this one dropped
        fh.seek(0)
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, c, length or 0, ENCODING_FLOAT32))


def _read_header(path, fh) -> tuple[int, int]:
    """(c, l) from the header at the start of the open file ``fh``, checked
    against the container layout and the file size and by ``as_signals``."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise SignalFileError(f"{path}: truncated header")
    magic, version, c, l, tag = _HEADER.unpack(head)
    if magic != MAGIC:
        raise SignalFileError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise SignalFileError(f"{path}: unsupported format version {version}")
    if tag != ENCODING_FLOAT32:
        raise SignalFileError(f"{path}: unsupported sample encoding {tag}")
    payload = os.fstat(fh.fileno()).st_size - _HEADER.size
    if payload != c * l * 4:
        raise SignalFileError(f"{path}: payload size {payload} != {c * l * 4}")
    try:  # the signal shape rule, applied to a stand-in that holds no data
        as_signals(np.broadcast_to(0.0, (c, l)))
    except ShapeMismatchError as e:
        raise ShapeMismatchError(f"{path}: {e}") from None
    return c, l


def signal_shape(path) -> tuple[int, int]:
    """The (channels, length) of the signal file at ``path``, whose header
    must fit the container layout and the file size (else SignalFileError)
    and give a shape with no empty axis (else ShapeMismatchError)."""
    with open(path, "rb") as fh:
        return _read_header(path, fh)


def _read_row(path, fh, length: int) -> np.ndarray:
    """The next ``length`` samples of ``fh`` as float64, checked.  Its own
    function, so that ``read_rows`` keeps no float32 buffer between rows."""
    row = np.fromfile(fh, dtype="<f4", count=length)
    if len(row) != length:
        raise SignalFileError(f"{path}: file ends {len(row)} samples into a row of"
                              f" {length}; it changed after its header was read")
    return check_finite(row, str(path)).astype(float)


def read_rows(path, shape) -> Iterator[np.ndarray]:
    """Yield the channel rows of the signal file at ``path`` as float64 (l,)
    arrays, each read from the file when it is asked for, so that a caller
    that drops a row before asking for the next holds one.

    ``shape`` is the (c, l) that ``signal_shape`` gave for the file; a
    header that no longer holds it, or a file that ends inside a row, as
    when it is replaced or truncated between two reads, raises
    SignalFileError.  NaN or Inf samples raise ``NonFiniteInputError``.
    """
    with open(path, "rb") as fh:
        found = _read_header(path, fh)
        if found != tuple(shape):
            raise SignalFileError(f"{path}: shape {found} differs from the"
                                  f" {tuple(shape)} read before; the file changed")
        for _ in range(found[0]):
            yield _read_row(path, fh, found[1])


def read_signal(path) -> np.ndarray:
    """Read a signal container whole; returns a float64 (c, l) array.

    Checks as ``signal_shape`` and ``read_rows`` do.
    """
    shape = signal_shape(path)
    x = np.empty(shape)
    for i, row in enumerate(read_rows(path, shape)):
        x[i] = row
    return x


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
            f = _get(doc, "f", int)
            if _get(welch, "filter_size", int) != f:
                raise StateFileError(f"key 'f' is {f}, but welch.filter_size is"
                                     f" {welch['filter_size']}")
            return PsdNormLayer(
                filter_size=f,
                momentum=_get(doc, "momentum", *number),
                stride=_get(welch, "stride", int),
                window_kind=_get(welch, "window_kind", str),
                barycenter=_get(doc, "barycenter", *optional_list),
                update_count=_get(doc, "update_count", int),
            )
        # States written while the layer had a fixed affine hold gamma 1, beta 0.
        for key, identity in (("gamma", 1.0), ("beta", 0.0)):
            if key in doc and _get(doc, key, *number) != identity:
                raise StateFileError(f"key {key!r} is {doc[key]!r}; batchnorm has"
                                     f" no affine, so only {identity} loads")
        return BatchNormLayer(
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
    """Read a state document; ``kind``, when given, must be its kind.  A file
    that is not UTF-8 JSON (nested too deep to parse included), or not a
    valid state, raises ``StateFileError`` naming ``path``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return state_from_dict(doc, kind)
    except (StateFileError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as e:
        raise StateFileError(f"{path}: {e}") from None
