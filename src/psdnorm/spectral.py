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
``apply_mapping`` each state the rule by which they pick a form; which
samples the filter reads for an output is ``monge``'s alone.  Every kernel
reads its rows in chunks of views (``_row_chunks``), and row means and
Welch sums read each as C rows (``np.ascontiguousarray``, a copy if need
be).  Rows never share arithmetic, and classes and blocks depend only on
the row length and f, so a signal gets the same bits alone as in a batch,
in any memory layout.  ``_centred_copy`` subtracts ``_row_means`` in the copy
that the forward, ``centered_psd`` and the benchmark read.

A single signal's forward is mostly fixed cost, so the helpers that every
call runs spend no more numpy calls than their arithmetic needs, and keep
numpy's bits: ``finite_mean`` is ``np.add.reduce`` divided in place by the
count, ``x.mean``'s own arithmetic without its Python wrapper;
``psd_floor`` reduces by ``np.maximum.reduce``; ``_row_chunks`` hands rows
that fit one chunk over as a one-item tuple; and Welch sums, checks and
scales each chunk's one-sided bins in place in its output.

Input is validated where it enters, once.  The public functions check
what they are given: ``welch_psd_raw`` and ``welch_psd`` refuse a row
shorter than f, then any NaN or Inf sample (``check_finite``).  The
pipelines that build their own values call private cores that trust them:
``_welch_raw`` takes rows that ``finite_mean`` (of a centred copy) or
``io.read_rows`` (in ``cli``) has found finite, and keeps only the checks
that no caller can make for it, of each row's power and of the trailing
samples that no segment reads (a centring that overflows can make either
Inf).  Likewise ``monge._taps`` takes floored Welch PSDs and a layer's
barycenter, ``monge._filter`` a centred copy and those taps, and
``geometry._barycenter`` and ``geometry._bures`` take PSDs that their
callers built, the benchmark and ``align``, each valid by construction.
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

#: The smallest PSD peak that sets its own floor: 1e-10 times it is exactly
#: the smallest normal float, the floor of every PSD below it.
_FLOOR_PEAK = np.finfo(float).tiny / 1e-10


def chunk_slices(n: int, item_bytes: int) -> list[slice] | tuple[slice]:
    """Consecutive slices covering range(n), each of as many items of
    ``item_bytes`` as fit in BUDGET_BYTES, and at least one: one slice,
    in a tuple, when all n fit."""
    step = max(1, BUDGET_BYTES // item_bytes)
    if n <= step:
        return (slice(0, n),)
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
    elif not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise NonFiniteInputError(f"{name} contains NaN or Inf (non-finite values)")
    return x


def finite_mean(x: np.ndarray, axis) -> np.ndarray:
    """The mean of the float array x over ``axis``, an int or a tuple of
    ints, kept as axes of length 1, which must be finite (``check_finite``):
    a NaN or Inf sample makes it NaN or Inf, and so does a sum past the
    float range, whose numpy warning the error replaces.  It is
    ``x.mean``'s own arithmetic, ``np.add.reduce`` divided in place by the
    count, and so its bits, without its Python wrapper."""
    count = math.prod(x.shape[a] for a in axis) if isinstance(axis, tuple) else x.shape[axis]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(x, axis, keepdims=True)
        mean /= count
    return check_finite(mean, "input mean")


def _row_chunks(x: np.ndarray, row_bytes: int):
    """(r, rows) for chunks of the rows of the (..., l) x, the first the
    largest: r slices their C-order index, rows views as many as fit
    BUDGET_BYTES at ``row_bytes`` each, of all rows when x's leading axes
    merge in a view, else of one signal at a time, so no batch is copied.
    Rows that all fit one chunk come as a one-item tuple, with no generator
    or slice list to walk: the case of a single signal, whose fixed cost
    this is."""
    if x.flags.c_contiguous or x.ndim < 3 or 1 in x.shape[:2] or \
            x.strides[0] == x.shape[1] * x.strides[1]:
        rows = x.reshape(-1, x.shape[-1])  # a view
        slices = chunk_slices(len(rows), row_bytes)
        if len(slices) == 1:
            return ((slices[0], rows),)
        return ((r, rows[r]) for r in slices)
    c = x.shape[1]
    return ((slice(n * c + r.start, n * c + min(r.stop, c)), signal[r])
            for n, signal in enumerate(x) for r in chunk_slices(c, row_bytes))


def _row_means(x: np.ndarray) -> np.ndarray:
    """``finite_mean`` of each row of the (..., l) float array x, an (..., 1)
    array, summed over C rows, so that a row gets its bits alone: a C-ordered
    x's own, else chunks (``_row_chunks``) read through np.ascontiguousarray."""
    if x.flags.c_contiguous:  # a mean holds no temporary, and needs no walk
        return finite_mean(x, -1)
    return np.concatenate([finite_mean(np.ascontiguousarray(rows), -1) for _, rows in
                           _row_chunks(x, 8 + 8 * x.shape[-1])]).reshape(x.shape[:-1] + (1,))


def _centre(x: np.ndarray) -> np.ndarray:
    """The C-ordered x less each row's ``finite_mean`` over its last axis,
    subtracted in place; returns x.  A sample near the float range whose
    mean has the other sign centres to Inf, which Welch refuses
    (``_welch_raw``) in place of numpy's overflow warning."""
    mean = finite_mean(x, -1)
    with np.errstate(over="ignore"):
        x -= mean
    return x


def _centred_copy(x: np.ndarray) -> np.ndarray:
    """A C-ordered copy of x less each row's ``_row_means``, made in one
    pass over x whatever its layout; it overflows as ``_centre`` does."""
    with np.errstate(over="ignore"):
        return np.subtract(x, _row_means(x), order="C")


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
    """Positivity floor applied to Welch estimates: 1e-10 * max(p) over each
    (c, f) PSD, so each signal of an (N, c, f) batch has its own, and a
    signal scaled by a has its floor scaled by a^2.  No floor is below the
    smallest normal float, which an all-zero PSD (a constant signal)
    takes."""
    return 1e-10 * np.maximum.reduce(p, (-2, -1), keepdims=True, initial=_FLOOR_PEAK)


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
    that start at column ``start`` and ``step`` columns apart: a reshape of
    the columns they cover when they are contiguous (step == f, as for
    every Gram-form class at an even f's default stride), which is cheaper
    to make than a strided view and has its strides."""
    if step != f:
        head = rows[:, start:]
        return as_strided(head, (len(head), count, f),
                          (head.strides[0], step * head.strides[1], head.strides[1]),
                          writeable=False)
    view = rows[:, start:start + count * f].reshape(len(rows), count, f)
    view.flags.writeable = False
    return view


def _quadratic_bins(gram: np.ndarray, vectors: np.ndarray, out: np.ndarray) -> None:
    """Write into the (R, k) out the sums v' C v over the cosine and the
    sine column v of each bin of the (n, 2k) ``vectors``, with the
    k = f//2 + 1 cosine columns first, as ``_welch_basis`` lays them out,
    for each (n, n) matrix C of the (R, n, n) ``gram``: one product,
    multiplied in place, so that no second temporary of its size is held."""
    product = gram @ vectors
    product *= vectors
    power = np.add.reduce(product, 1)
    k = vectors.shape[-1] // 2
    np.add(power[:, :k], power[:, k:], out=out)


def _two_sided(half: np.ndarray, f: int) -> np.ndarray:
    """The f bins of (R, f//2 + 1) one-sided bins: bin f - k copies bin k.
    Made after the Welch sums, so that no chunk's temporaries meet the
    upper bins."""
    return np.concatenate([half, half[:, (f - 1) // 2:0:-1]], axis=1)


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
    blocks of segments.  A row shorter than f raises LengthTooShortError;
    every row, trailing samples included, must then be finite, and so must
    its power, which finite samples past the square root of the float range
    make Inf (else NonFiniteInputError).
    """
    x = as_signals(x)
    n_segments(x.shape[-1], cfg)  # a short row is refused before its samples are read
    return _welch_raw(check_finite(x), cfg)


def _welch_raw(x: np.ndarray, cfg: WelchConfig) -> np.ndarray:
    """``welch_psd_raw`` of the (..., l) float array x, a (..., f) array,
    over chunks (``_row_chunks``) read as C rows, a copy that the chunk size
    counts if need be.  The caller has found x finite (``check_finite``), or
    made it from rows that ``finite_mean`` found finite (a centred copy).
    Centring can still overflow to Inf, so each row's power is checked
    ("input power"), and so are the trailing samples that no segment reads.
    The Gram sum starts as the first residue class's product, which is what
    a sum from zeros holds after it, and each chunk's bins 0..f//2 are
    summed, checked and scaled in place in the one-sided output."""
    f, stride = cfg.filter_size, cfg.stride
    length = x.shape[-1]
    n_seg = n_segments(length, cfg)
    gram_form = n_seg >= 2 * f and 8 * f * (f + 2) <= BUDGET_BYTES
    if gram_form:
        basis = _welch_basis(cfg.window_kind, f)
        q = -(-f // stride)  # residue classes of segments that never overlap
        row_bytes = 8 * f * (f + 2)  # the contraction
    else:
        w = _welch_window(cfg.window_kind, f)
        block = min(n_seg, max(1, BUDGET_BYTES // (8 * f)))  # segments per block
        row_bytes = 8 * f * block
    read = (n_seg - 1) * stride + f  # the columns that segments read
    if read < length:
        check_finite(x[..., read:])
    half = np.empty((x.size // length, f // 2 + 1))
    copied = 0 if x.flags.c_contiguous else 8 * length  # a chunk's copy, if any
    # finite samples whose squares pass the float range sum to Inf or NaN:
    # the check of each chunk's power replaces numpy's overflow warning
    with np.errstate(over="ignore", invalid="ignore"):
        for r, rows in _row_chunks(x, row_bytes + copied):
            chunk = np.ascontiguousarray(rows)
            bins = half[r]
            if gram_form:
                for j in range(q):
                    segs = _segments(chunk, j * stride, -(-(n_seg - j) // q),
                                     q * stride, f)
                    if j:
                        gram += segs.transpose(0, 2, 1) @ segs
                    else:
                        gram = segs.transpose(0, 2, 1) @ segs
                _quadratic_bins(gram, basis, bins)
            else:
                bins[:] = 0.0
                for s in range(0, n_seg, block):
                    segs = _segments(chunk, s * stride, min(block, n_seg - s), stride, f)
                    bins += np.sum(np.abs(np.fft.rfft(segs * w, axis=2)) ** 2, axis=1)
            check_finite(bins, "input power")
            bins /= n_seg
            del chunk, segs  # a row copy, which the next one must not meet
    return _two_sided(half, f).reshape(x.shape[:-1] + (f,))


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
