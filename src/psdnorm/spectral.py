"""Signal-processing substrate: windows and Welch PSD estimation.

Conventions
-----------
Signals are real arrays of shape ``(c, l)`` (channels x samples), and a batch
of them has a leading axis, ``(N, c, l)``; a 1-D array is one channel.
``as_signals`` checks that shape wherever a signal enters.  PSDs are strictly
positive, conjugate-symmetric arrays of shape ``(c, f)`` (``(N, c, f)`` for a
batch): bin k equals bin f - k, as for any real signal, so every transform is
one-sided.  The Welch estimate is scaled so that unit-variance white noise
yields bins close to 1 for any filter size: with a unit-norm window ``w`` the
bin value is ``mean_l |DFT(w * seg_l)|^2`` using the unnormalized DFT.  All downstream
mapping filters depend only on PSD ratios, which are invariant to this
global scale choice.

The kernels treat each channel row on its own and hold at most
``BUDGET_BYTES`` in any temporary: Welch sums each row's segment Gram matrix
from strided views of the row, one per residue class of non-overlapping
segments, or its segment power over blocks of segments, and
``monge.apply_mapping`` filters chunks of rows, or blocks of one long row,
by BLAS products of a padded buffer's f-sample tiles with each row's
Toeplitz matrix of its taps, or by FFT.  ``welch_psd_raw`` and
``apply_mapping`` each state the rule by which they pick a form.  Classes,
chunks and blocks depend only on the row length and f, and rows never
share arithmetic, so a signal gets the same bits alone as in a batch; a
Fortran-ordered batch is the exception, since numpy sums its row means
(and its segment powers at f = 1) in another order.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    AsymmetricPsdError,
    LengthTooShortError,
    NonFiniteInputError,
    NonPositivePsdError,
    ParameterOutOfRangeError,
    ShapeMismatchError,
)

WINDOW_KINDS = ("hann", "boxcar")

#: Largest |p[:, k] - p[:, f - k]| that ``check_psd`` accepts, relative
#: to the channel's largest bin: far above roundoff, far below real asymmetry.
SYMMETRY_RTOL = 1e-9

#: Largest temporary array, in bytes, of the Welch and filtering kernels.
#: At 64 KiB a batch forward peaks within a few hundred KiB of the one output
#: copy it must make, and a long row is filtered in 8192-sample blocks.
BUDGET_BYTES = 1 << 16


def chunk_slices(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices covering range(n), each of as many items of
    ``item_bytes`` as fit in BUDGET_BYTES, and at least one."""
    step = max(1, BUDGET_BYTES // item_bytes)
    return [slice(i, i + step) for i in range(0, n, step)]


def as_signals(x) -> np.ndarray:
    """x as a float (c, l) signal or (N, c, l) batch, a 1-D array read as one
    channel: the one shape check of a signal.  Any other shape, or an empty
    axis, raises ShapeMismatchError.  Finiteness is ``check_finite``'s, which
    each entry point applies to a statistic or a pass it makes anyway."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim not in (2, 3) or 0 in x.shape:
        raise ShapeMismatchError("signal must be a (channels, length) or (N, channels,"
                                 f" length) array with no empty axis, got {x.shape}")
    return x


def signal_batch(x) -> np.ndarray:
    """``as_signals(x)`` as an (N, c, l) batch: a single signal becomes N = 1."""
    x = as_signals(x)
    return x.reshape((-1,) + x.shape[-2:])


def check_number(name: str, value, low: float, high: float = math.inf,
                 strict_low: bool = False) -> float:
    """float(value), which must be a real number (not a bool or a string),
    finite and in [low, high] ((low, high] when ``strict_low``)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        v = float(value) if real else math.nan
    except OverflowError:  # an integer beyond the float range
        v = math.nan
    if not (math.isfinite(v) and v <= high and (v > low if strict_low else v >= low)):
        bound = "(" if strict_low else "["
        raise ParameterOutOfRangeError(f"{name} must be a finite number in"
                                       f" {bound}{low}, {high}], got {value!r:.40}")
    return v


def check_integer(name: str, value, low: int) -> int:
    """int(value), which must be an int or numpy integer (not a bool) and
    >= low: the one test of every size and count."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ParameterOutOfRangeError(f"{name} must be an integer >= {low},"
                                       f" got {value!r:.40}")
    return int(value)


def check_finite(x, name: str = "input") -> np.ndarray:
    """x as an array, with no NaN or Inf (else NonFiniteInputError naming
    ``name``): the one finiteness test.  Its masks fit BUDGET_BYTES: a larger x
    is tested in slices of its flat view, or of axis 0 (recursing into a row)."""
    x = np.asarray(x)
    if x.size > BUDGET_BYTES:
        rows = x.reshape(-1) if x.ndim == 1 or x.flags.c_contiguous else x
        for s in chunk_slices(len(rows), rows[0].size):
            check_finite(rows[s] if s.stop - s.start > 1 else rows[s.start], name)
    elif not np.isfinite(x).all():
        raise NonFiniteInputError(f"{name} contains NaN or Inf (non-finite values)")
    return x


def finite_mean(x: np.ndarray, axis) -> np.ndarray:
    """The mean of x over ``axis``, kept as axes of length 1, which must be
    finite (``check_finite``): a NaN or Inf sample makes it NaN or Inf, and
    so does a sum past the float range, whose numpy warning the error
    replaces."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=axis, keepdims=True)
    return check_finite(mean, "input mean")


def finite_var(x: np.ndarray, axis) -> np.ndarray:
    """The biased variance of x over ``axis``, kept as axes of length 1,
    which must be finite (``check_finite``): finite samples whose squares
    pass the float range make it Inf, and the error replaces numpy's
    overflow warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        var = x.var(axis=axis, keepdims=True)
    return check_finite(var, "input variance")


@dataclass(frozen=True)
class WelchConfig:
    """Parameters of the Welch PSD estimator.

    ``filter_size`` is both the segment length and the number of frequency
    bins.  ``stride`` defaults to 50% overlap.  ``window_kind`` is ``hann``
    (periodic taper, renormalized to unit l2 norm) or ``boxcar``.
    """

    filter_size: int
    stride: int = 0  # 0 means "default": max(1, filter_size // 2)
    window_kind: str = "hann"

    def __post_init__(self):
        f = check_integer("filter_size", self.filter_size, 1)
        object.__setattr__(self, "filter_size", f)
        object.__setattr__(self, "stride",
                           check_integer("stride", self.stride, 0) or max(1, f // 2))
        if self.stride > f:
            raise ParameterOutOfRangeError(
                f"stride must be in [1, {self.filter_size}], got {self.stride}"
            )
        if self.window_kind not in WINDOW_KINDS:
            raise ParameterOutOfRangeError(
                f"window_kind must be one of {WINDOW_KINDS}, got {self.window_kind!r}"
            )


def check_positive(p, name: str) -> np.ndarray:
    """p as a float array, which must be finite and strictly positive: the
    bin test of ``check_psd``, and all that the elementwise geometry needs."""
    p = check_finite(np.asarray(p, dtype=float), name)
    if not np.all(p > 0):
        raise NonPositivePsdError(f"{name} must be strictly positive")
    return p


def check_psd(p, name: str) -> np.ndarray:
    """p as a float (c, f) array, which must be non-empty, finite, strictly
    positive and conjugate-symmetric within SYMMETRY_RTOL of each channel's
    largest bin: the one test of a valid PSD, with one error per failure."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if p.ndim != 2 or p.size == 0:
        raise ShapeMismatchError(f"{name} must be a non-empty 2-D array, got {p.shape}")
    check_positive(p, name)
    f = p.shape[1]
    gap = np.abs(p[:, 1:] - p[:, :0:-1]) / p.max(axis=1, keepdims=True)  # bins 1..f-1
    if np.max(gap, initial=0.0) > SYMMETRY_RTOL:
        k = int(np.argmax(gap)) % (f - 1) + 1
        raise AsymmetricPsdError(f"{name} is not conjugate-symmetric: bin {k}"
                                 f" differs from bin {f - k} by {np.max(gap):.3e}"
                                 " of the channel maximum")
    return p


def make_window(kind: str, f: int) -> np.ndarray:
    """Unit-l2-norm window of length f.

    ``boxcar`` is the constant vector 1/sqrt(f).  ``hann`` is the periodic
    Hann taper 0.5*(1 - cos(2*pi*k/f)) renormalized; for f = 1 it degenerates
    to [1.0].
    """
    f = check_integer("window length f", f, 1)
    if kind == "boxcar":
        return np.full(f, 1.0 / np.sqrt(f))
    if kind == "hann":
        if f == 1:
            return np.array([1.0])
        taps = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(f) / f))
        return taps / np.linalg.norm(taps)
    raise ParameterOutOfRangeError(f"unknown window kind {kind!r}")


def psd_floor(p: np.ndarray) -> np.ndarray:
    """Positivity floor applied to Welch estimates: 1e-10 * max(1, max(p))
    over each (c, f) PSD, so each signal of an (N, c, f) batch has its own."""
    return 1e-10 * np.max(p, axis=(-2, -1), keepdims=True, initial=1.0)


def floored(p: np.ndarray) -> np.ndarray:
    """p clamped at its ``psd_floor``: the one floor rule of Welch estimates.
    Flooring twice is exact, and so is flooring each row before the whole
    (c, f) PSD, since no row's floor exceeds the whole PSD's."""
    return np.maximum(p, psd_floor(p))


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``, so that no caller can change a kept array
    after its checks."""
    a = a.copy()
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=32)
def _welch_window(kind: str, f: int) -> np.ndarray:
    """``make_window(kind, f)``, built once per (kind, f) and read-only."""
    return _read_only(make_window(kind, f))


@functools.lru_cache(maxsize=32)
def _welch_basis(kind: str, f: int) -> np.ndarray:
    """(f, f + 2) columns a_k = w * cos and b_k = w * sin of the one-sided
    DFT bins k = 0..f//2, for the window w = ``_welch_window(kind, f)``: a
    segment s has power (s @ a_k)^2 + (s @ b_k)^2 in bin k, so segments with
    Gram matrix C sum to a_k' C a_k + b_k' C b_k.  Built once per (kind, f)
    and read-only."""
    w = _welch_window(kind, f)
    angle = 2.0 * np.pi / f * (np.outer(np.arange(f), np.arange(f // 2 + 1)) % f)
    return _read_only(np.concatenate([w[:, np.newaxis] * np.cos(angle),
                                      w[:, np.newaxis] * np.sin(angle)], axis=1))


def _segments(rows: np.ndarray, start: int, count: int, step: int,
              f: int) -> np.ndarray:
    """Read-only (R, count, f) view of the f-sample segments of each row
    that start at column ``start`` and ``step`` columns apart."""
    head = rows[:, start:]
    return as_strided(head, (len(head), count, f),
                      (head.strides[0], step * head.strides[1], head.strides[1]),
                      writeable=False)


def welch_psd_raw(x, cfg: WelchConfig) -> np.ndarray:
    """Welch PSD without the positivity floor (may contain zeros).

    Segment k covers columns [k*stride, k*stride + f); trailing samples that
    do not fill a segment are dropped (see ``n_segments``).  Takes a (c, l)
    signal or an (N, c, l) batch, one channel row at a time.  Each row sums
    the f x f Gram matrix C of its L segments, and bin k is
    sum_(n,m) w_n w_m C[n, m] exp(-2 pi i k (n - m) / f) / L: the mean
    periodogram as a quadratic form.  Segments q = ceil(f / stride) apart
    start q*stride >= f columns apart and never overlap, so each residue
    class of segments mod q is a strided view of the row that BLAS reads
    in place, and C is the sum of the q classes' products V'V: no segment
    is copied.  That form costs f^2 per segment and f^3 per row, so it
    serves rows of at least 2f segments whose (f, f + 2) contraction fits
    BUDGET_BYTES (f <= 89); other rows sum |rfft(w * segment)|^2 over
    blocks of segments.  Every row, trailing samples included, must be
    finite, and so must its power, which finite samples past the square
    root of the float range make Inf (else NonFiniteInputError).
    """
    x = as_signals(x)
    f, stride = cfg.filter_size, cfg.stride
    length = x.shape[-1]
    n_seg = n_segments(length, cfg)
    rows = x.reshape(-1, length)
    gram_form = n_seg >= 2 * f and 8 * f * (f + 2) <= BUDGET_BYTES
    if gram_form:
        basis = _welch_basis(cfg.window_kind, f)
        q = -(-f // stride)  # residue classes of segments that never overlap
        row_bytes = 8 * f * (f + 2)  # the contraction
    else:
        w = _welch_window(cfg.window_kind, f)
        block = min(n_seg, max(1, BUDGET_BYTES // (8 * f)))  # segments per block
        row_bytes = 8 * f * block
    k = f // 2 + 1
    half = np.empty((len(rows), k))
    # finite samples whose squares pass the float range sum to Inf or NaN:
    # the check of each chunk's power replaces numpy's overflow warning
    with np.errstate(over="ignore", invalid="ignore"):
        for r in chunk_slices(len(rows), row_bytes):
            check_finite(rows[r])
            if gram_form:
                gram = np.zeros((len(rows[r]), f, f))
                for j in range(q):
                    segs = _segments(rows[r], j * stride, -(-(n_seg - j) // q),
                                     q * stride, f)
                    gram += segs.transpose(0, 2, 1) @ segs
                power = np.sum((gram @ basis) * basis, axis=1)
                acc = power[:, :k] + power[:, k:]
            else:
                acc = np.zeros(half[r].shape)
                for s in range(0, n_seg, block):
                    segs = _segments(rows[r], s * stride, min(block, n_seg - s), stride, f)
                    acc += np.sum(np.abs(np.fft.rfft(segs * w, axis=2)) ** 2, axis=1)
            half[r] = check_finite(acc, "input power") / n_seg
    p = np.concatenate([half, half[:, (f - 1) // 2:0:-1]], axis=1)
    return p.reshape(x.shape[:-1] + (f,))


def welch_psd(x, cfg: WelchConfig) -> np.ndarray:
    """Welch PSD estimate, floor-clamped to be strictly positive.

    Returns a (c, f) array for a (c, l) signal and an (N, c, f) array for an
    (N, c, l) batch, each PSD clamped at its own ``psd_floor``.  Bins above
    f//2 copy those below it, so p[..., k] == p[..., f - k] exactly.
    """
    return floored(welch_psd_raw(x, cfg))


def n_segments(length: int, cfg: WelchConfig) -> int:
    if length < cfg.filter_size:
        raise LengthTooShortError(
            f"signal length {length} < filter size {cfg.filter_size}"
        )
    return (length - cfg.filter_size) // cfg.stride + 1
