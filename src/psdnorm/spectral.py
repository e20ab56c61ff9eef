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
``apply_mapping`` each state the rule by which they pick a form.
``window_grams`` sums the Grams of each row's wider windows, from which
``monge.mapped_psd_raw`` gives the Welch PSD of any mapping of the row,
from strided views of the row's stride-wide tiles.  Classes,
chunks and blocks depend only on the row length and f, rows never share
arithmetic, and row means and Welch sums are taken over rows laid out
as C-ordered rows are (a chunk of rows of another layout, a Fortran-
ordered batch's, is copied first), so a signal gets the same bits alone
as in a batch, whatever its memory layout.
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


def _unit_rows(x: np.ndarray) -> bool:
    """Whether each row of x (its last axis) lies at unit stride and no
    other axis longer than 1 has a smaller stride: rows that numpy sums,
    and BLAS reads, as it does C-ordered rows.  Numpy sums the rows of a
    Fortran-ordered batch across, in memory order, and the segment powers
    of a row at another stride in another order, which changes their
    bits."""
    return x.flags.c_contiguous or x.strides[-1] == x.itemsize and all(
        abs(s) >= x.itemsize for s, n in zip(x.strides[:-1], x.shape[:-1]) if n > 1)


def _row_means(rows: np.ndarray) -> np.ndarray:
    """``finite_mean`` of each row of the 2-D rows, summed as over C-ordered
    rows: rows of another layout (``_unit_rows``) are copied a chunk at a
    time, so each row gets the bits it gets alone."""
    if _unit_rows(rows):
        return finite_mean(rows, 1)
    return np.concatenate([finite_mean(rows[r].copy(), 1)
                           for r in chunk_slices(len(rows), 8 * rows.shape[1])])


def _centre(x: np.ndarray) -> np.ndarray:
    """The C-ordered x less each row's ``finite_mean`` over its last axis,
    subtracted in place; returns x."""
    x -= finite_mean(x, -1)
    return x


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
    return 1e-10 * np.max(p, axis=(-2, -1), keepdims=True, initial=_FLOOR_PEAK)


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


def _quadratic_bins(gram: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The (R, k) sums v' C v over the cosine and the sine column v of each
    bin of ``vectors``, (n, 2k) or (R, n, 2k) with the k = f//2 + 1 cosine
    columns first, as ``_welch_basis`` lays them out, for each (n, n)
    matrix C of the (R, n, n) ``gram``: one product, multiplied in place,
    so that no second temporary of its size is held."""
    product = gram @ vectors
    product *= vectors
    power = product.sum(axis=1)
    k = vectors.shape[-1] // 2
    return power[:, :k] + power[:, k:]


def _two_sided(half: np.ndarray, f: int) -> np.ndarray:
    """The f bins of (R, f//2 + 1) one-sided bins: bin f - k copies bin k."""
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
    half = np.empty((len(rows), f // 2 + 1))
    # a chunk of rows of another layout than C's (``_unit_rows``) is
    # copied, and counted
    copied = 0 if _unit_rows(rows) else 8 * length
    # finite samples whose squares pass the float range sum to Inf or NaN:
    # the check of each chunk's power replaces numpy's overflow warning
    with np.errstate(over="ignore", invalid="ignore"):
        for r in chunk_slices(len(rows), row_bytes + copied):
            chunk = check_finite(rows[r].copy() if copied else rows[r])
            if gram_form:
                gram = np.zeros((len(chunk), f, f))
                for j in range(q):
                    segs = _segments(chunk, j * stride, -(-(n_seg - j) // q),
                                     q * stride, f)
                    gram += segs.transpose(0, 2, 1) @ segs
                acc = _quadratic_bins(gram, basis)
            else:
                acc = np.zeros(half[r].shape)
                for s in range(0, n_seg, block):
                    segs = _segments(chunk, s * stride, min(block, n_seg - s), stride, f)
                    acc += np.sum(np.abs(np.fft.rfft(segs * w, axis=2)) ** 2, axis=1)
            half[r] = check_finite(acc, "input power") / n_seg
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


class _GramPlan:
    """How ``window_grams`` sums the windows of rows of l samples, from
    stride-wide tiles: tile j holds samples j*stride - f//2 .. + stride,
    indices taken modulo l, and window i is the first 2f - 1 samples of the
    m tiles i .. i + m - 1.  So block (p + d, p) of the m x m blocks of the
    sum of W'W is the sum over j in [p, p + n_seg) of tile j + d times tile
    j: one core sum over the tiles j in [first, first + count), which every
    block of offset d includes and whose tiles lie in the row, plus the
    edge products outside it that the block reaches.  Depends only on
    (l, f, stride); its arrays are read-only."""

    def __init__(self, l: int, f: int, stride: int):
        self.segments = n_seg = n_segments(l, WelchConfig(f, stride))
        self.halo, self.stride = f // 2, stride
        self.tiles = m = -(-(2 * f - 1) // stride)
        # core tiles j: every block reaches them (m - 1 <= j < n_seg), and
        # they and the m - 1 tiles after them lie in the row, unwrapped
        self.first = first = max(-(-self.halo // stride), m - 1)
        self.count = max(0, min(n_seg - 1, (l + self.halo) // stride - m) - first + 1)
        ends = [n_seg + m - 1 - d for d in range(m)]  # past the last tile j of offset d
        edges = [np.r_[:min(first, end), first + self.count:end] for end in ends]
        j = np.concatenate(edges).astype(int)
        d = np.repeat(np.arange(m), [len(e) for e in edges])
        copied = np.union1d(j, j + d)  # the edge tiles, whose samples ``index`` holds
        self.index = (copied[:, np.newaxis] * stride - self.halo + np.arange(stride)) % l
        self.left, self.right = np.searchsorted(copied, j), np.searchsorted(copied, j + d)
        # block k is (p + d, p), for each offset d and p = 0 .. m - 1 - d; it
        # adds the edge products of offset d that it reaches and d's core sum
        self.offset = np.repeat(np.arange(m), np.arange(m, 0, -1))
        self.col = np.concatenate([np.arange(m - k) for k in range(m)])
        p, d_k = self.col[:, np.newaxis], self.offset[:, np.newaxis]
        reach = (d_k == d) & (p <= j) & (j < p + n_seg)
        self.mask = np.concatenate([reach, d_k == np.arange(m)], axis=1).astype(float)
        for a in (self.index, self.left, self.right, self.offset, self.col, self.mask):
            a.flags.writeable = False
        # the edge tiles, both sides of their products, all products, the
        # blocks and the sum, as if all were held at once
        self.row_bytes = 8 * (self.index.size + 2 * len(j) * stride
                              + sum(self.mask.shape) * stride ** 2 + (m * stride) ** 2)

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """The (R, m stride, m stride) sum over windows of W'W of each of the
        (R, l) rows.  Each product of the edge tiles and each offset's core
        sum, a BLAS product of the rows' strided views of the core tiles and
        of those d tiles on, is one contiguous (R, stride, stride) term, so
        that one product with ``mask`` adds them into blocks; the edge
        products are matmuls, since a broadcast multiply takes a ufunc
        buffer of 64 KiB."""
        s, m, edges, terms = self.stride, self.tiles, len(self.left), self.mask.shape[1]
        products = np.empty((terms, len(rows), s, s))
        copies = rows[:, self.index].transpose(1, 0, 2)
        np.matmul(copies[self.right, :, :, np.newaxis], copies[self.left, :, np.newaxis],
                  out=products[:edges])
        count = self.count
        core = _segments(rows, self.first * s - self.halo, count and count + m - 1, s, s)
        for d in range(m):
            np.matmul(core[:, d:d + count].transpose(0, 2, 1), core[:, :count],
                      out=products[edges + d])
        lower = (self.mask @ products.reshape(terms, -1)).reshape(len(self.mask), -1, s, s)
        del products  # before the grid is allocated
        grid = np.empty((len(rows), m, s, m, s))
        grid[:, self.col + self.offset, :, self.col] = lower
        grid[:, self.col, :, self.col + self.offset] = lower.transpose(0, 1, 3, 2)
        return grid.reshape(len(rows), m * s, m * s)


@functools.lru_cache(maxsize=32)
def _gram_plan(l: int, f: int, stride: int) -> _GramPlan:
    """``_GramPlan(l, f, stride)``, built once per (l, f, stride)."""
    return _GramPlan(l, f, stride)


def window_grams(x, cfg: WelchConfig) -> np.ndarray:
    """The mean over Welch segments of W'W for each channel row of a (c, l)
    signal or an (N, c, l) batch, a (..., 2f - 1, 2f - 1) array: W is the
    2f - 1 samples, indices taken modulo l, that start f//2 before the
    segment, which are those that ``monge.apply_mapping`` reads for the
    segment's outputs.  Its central (f, f) block, from row and column f//2,
    is the mean segment Gram of ``welch_psd_raw``, and
    ``monge.mapped_psd_raw`` gives from it the Welch PSD of any mapping of a
    centred x.

    The sum is built from stride-wide tiles (``_GramPlan``): for each tile
    offset d, one product of the row's (count, stride) strided view of its
    core tiles with the view d tiles on, which BLAS reads in place, plus
    products of the few edge tiles, copied, which wrap around the row's
    ends or fall outside some block's range.  Each is added to the blocks
    whose range includes it, so nothing is subtracted, and it costs about
    the Gram form's f^2 per segment.  Chunks of rows hold at most
    BUDGET_BYTES in temporaries, but for a row whose own exceed it (about
    104 f^2 bytes at the default stride: f > 24), which is built alone.  The
    Grams must be finite (else NonFiniteInputError): a NaN or Inf sample in
    a window makes them NaN, and so do finite samples past the square root
    of the float range.
    """
    x = as_signals(x)
    f, l = cfg.filter_size, x.shape[-1]
    plan, w, rows = _gram_plan(l, f, cfg.stride), 2 * f - 1, x.reshape(-1, l)
    out = np.empty((len(rows), w, w))
    with np.errstate(over="ignore", invalid="ignore"):
        for r in chunk_slices(len(rows), plan.row_bytes):
            out[r] = plan.sums(rows[r])[:, :w, :w]
            out[r] /= plan.segments  # in place: a strided operand would take a ufunc buffer
            check_finite(out[r], "input power")
    return out.reshape(x.shape[:-1] + (w, w))
