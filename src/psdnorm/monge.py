"""Monge mapping filters between stationary Gaussian signal models.

The frequency-domain map between two circulant-covariance Gaussians is the
elementwise gain sqrt(p_tgt / p_src).  For conjugate-symmetric PSDs that
gain is real and even, so its inverse DFT is a real length-f filter bank
whose circular convolution realizes the mapping in the time domain.
``apply_mapping`` reads one centred, wrap-padded buffer and the taps in
lag order.  It contracts them by two BLAS products of the buffer's f-sample
tiles with each row's Toeplitz matrix of its lags when that matrix fits in
the row's buffer, and by FFT otherwise; its docstring states the rule.
One private kernel, ``_filter``, serves it and the layer forward, which
filters its own centred copy in place: each buffer then takes the samples
that an earlier block overwrote from two small carries, so it holds the
same values, and the output the same bits, as ``apply_mapping``'s.
Likewise ``_taps`` is ``monge_filter`` without its checks, for the forward
and the benchmark, which hand it PSDs they built themselves; the benchmark
filters its own centred copy of each domain's sample with ``_filter`` too,
so one filter kernel serves the layer, TMA, ``align`` and the benchmark.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import LengthTooShortError, ShapeMismatchError
from .spectral import (
    BUDGET_BYTES,
    _row_chunks,
    _row_means,
    as_signals,
    check_finite,
    check_psd,
)

#: Cap on the per-bin power ratio p_tgt / p_src; guards against unbounded
#: gain on near-silent source bins.
RATIO_CAP = 1e6


def monge_filter(p_src, p_tgt) -> np.ndarray:
    """The filter taps mapping each source PSD onto the one (c, f) target
    p_tgt: (c, f) taps for a (c, f) source, (N, c, f) for an (N, c, f) batch
    of them.

    The target, and the sources as (N * c, f) rows, must pass ``check_psd``
    (finite, strictly positive and conjugate-symmetric).  The gain
    sqrt(p_tgt / p_src), with the ratio capped at RATIO_CAP, is then real and
    even, and its inverse DFT is taken from bins 0..f//2 with irfft.
    """
    p_tgt = check_psd(p_tgt, "target PSD")
    p_src = np.atleast_2d(np.asarray(p_src, dtype=float))
    if p_src.ndim > 3 or p_src.shape[-2:] != p_tgt.shape:
        raise ShapeMismatchError(f"source PSD shape {p_src.shape} is not the target's"
                                 f" {p_tgt.shape}, nor a batch of that shape")
    rows = check_psd(p_src.reshape(-1, p_tgt.shape[1]), "source PSD")
    return _taps(rows.reshape(p_src.shape), p_tgt)


def _taps(p_src: np.ndarray, p_tgt: np.ndarray) -> np.ndarray:
    """``monge_filter`` of the (c, f) or (N, c, f) p_src and the (c, f)
    p_tgt, which the caller has made valid: floored Welch PSDs, exactly
    symmetric, and a layer's barycenter, which passed ``check_psd`` when the
    layer was built.  Only bins 0..f//2 are read, which are all that irfft
    reads.  A ratio past the float range (a constant signal's PSD, floored
    at the smallest normal float, under a target above about 4) is Inf,
    which the cap takes as it takes any ratio above it."""
    f = p_tgt.shape[1]
    half = slice(0, f // 2 + 1)
    with np.errstate(over="ignore"):
        gain = p_tgt[:, half] / p_src[..., half]
    np.minimum(gain, RATIO_CAP, out=gain)
    np.sqrt(gain, out=gain)  # in place, so that no second array is held
    return np.fft.irfft(gain, n=f, axis=-1)


def apply_mapping(x, h) -> np.ndarray:
    """Subtract x's per-channel mean and circularly convolve with the filter
    taps h: (c, f) taps for a (c, l) signal, (N, c, f) for an (N, c, l) batch.

    The filter taps are placed at circular lags 0..f/2 and -(f/2-1)..-1
    (zero-phase placement).  Causal placement of the same taps would carry an
    identical length-f DFT but a rippled magnitude response between the f
    frequency gridpoints; zero-phase placement keeps the response a smooth
    interpolation of sqrt(p_tgt / p_src).  Both placements coincide when
    f equals the signal length.  Empty taps raise ShapeMismatchError; taps
    with NaN or Inf, and rows whose mean is not finite (a NaN or Inf sample
    or an overflowing sum), raise NonFiniteInputError.

    Both forms centre a chunk of whole rows of up to BUDGET_BYTES, or else
    one row at a time in blocks of that size, into one reused buffer that
    starts f//2 samples before the first output, wrapping around the row's
    ends, and read the taps in lag order, so that each output sample is the
    dot product of the lags with the f buffer samples from its own column
    on.  The Toeplitz form serves taps whose (2f - 1, f) Toeplitz matrix
    T[t, a] = lags[t - a] fits in the row's buffer, and so in BUDGET_BYTES:
    f <= 64, on rows of more than (2f - 3) f samples.  Its buffer is a whole
    number of f-sample tiles B[0..J], and output tile j is
    B[j] @ T[:f] + B[j + 1, :f - 1] @ T[f:], two BLAS products per buffer
    at 2f - 1 multiply-adds per sample (one product, a scaling, for f = 1),
    with each row's T built once per chunk and counted in the chunk beside
    its buffer.  Other taps filter by FFT, whose cost per sample grows with
    log l instead of f: an rfft/irfft correlation of the buffer with the
    lags, circular over a whole row and overlap-save over a block, whose
    first outputs it keeps.
    """
    x = as_signals(x)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.shape[:-1] != x.shape[:-1] or h.shape[-1] == 0:
        raise ShapeMismatchError(f"filter bank of shape {h.shape} does not hold"
                                 f" taps for each channel of the signal's {x.shape}")
    l, f = x.shape[-1], h.shape[-1]
    if f > l:
        raise LengthTooShortError(f"signal length {l} < filter size {f}")
    taps = check_finite(h.reshape(-1, f), "filter taps")
    means = _row_means(x).reshape(-1, 1)  # first: it copies rows of another layout than C's
    return _filter(x, means, taps, np.empty(x.shape))


def _filter(x: np.ndarray, means, taps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into the C-ordered out the R filtered rows of the (..., l) x of
    its shape, less their (R, 1) means unless ``means`` is None (rows already
    centred), by the finite (R, f) taps: ``apply_mapping``'s forms and rule.
    Chunks of rows are views (``_row_chunks``): the buffer's copy fixes their
    bits.  out may be x itself, and a row read in several blocks then runs
    them from last to first, each buffer taking the samples that an earlier
    block overwrote from two carries of f samples in all: the first input
    samples of the block just done, which the last outputs before it read,
    and the row's last f//2 samples, which block 0 reads around the row's
    start.  So every buffer holds what it holds for a fresh out.  Returns out."""
    l, f = x.shape[-1], taps.shape[1]
    m = max(BUDGET_BYTES // 8, 1 << (2 * f - 1).bit_length())  # block length
    tiles = min(-(-l // f), m // f - 1)  # output tiles of the Toeplitz form
    matrix = (2 * f - 1) * f  # floats of one row's Toeplitz matrix
    # a buffer of tiles + 1 tiles holds at most m floats, BUDGET_BYTES // 8
    # for every f whose matrix it can hold (f <= 64)
    if matrix <= (tiles + 1) * f:
        # and the next tile, whose first f - 1 samples the last tile reads
        step, width = tiles * f, (tiles + (f > 1)) * f
    else:
        matrix = 0
        step, width = (l, l) if l <= m else (m - f + 1, m)
    halo, order = f // 2, _lag_order(f)
    reach = width - step - halo  # samples past a block's outputs that its buffer reads
    starts = range(0, l, step)[::-1]
    carries = out is x and len(starts) > 1  # only then does a block read what one wrote
    flat = out.reshape(-1, l)  # a view, as out is C-ordered
    buffer, product = None, _tiled_product if matrix else _fft_product
    for r, rows in _row_chunks(x, 8 * (width + matrix)):
        if buffer is None:  # the first chunk, the largest
            buffer = np.empty((len(rows), width))
        lags = taps[r].take(order, axis=1)
        block = buffer[:len(lags)]
        # conjugate, so that the FFT correlates the buffer with the lags as
        # the Toeplitz products do
        kernel = _toeplitz(lags) if matrix else np.fft.rfft(lags, n=width, axis=1).conj()
        del lags  # before the carries and the products' temporaries
        saved = [(l - halo, rows[:, l - halo:].copy())] if carries else []
        for start in starts:
            _centred(rows, None if means is None else means[r], start - halo, block, saved)
            if carries:
                saved[1:] = [(start, rows[:, start:start + reach].copy())]
            product(block, kernel, flat[r, start:start + step])
    return out


@functools.lru_cache(maxsize=32)
def _lag_order(f: int) -> np.ndarray:
    """The lag order of f taps: lag a is the tap at circular lag f//2 - a,
    index (f//2 - a) mod f, so that a filter output is the dot product of
    the lags with the f samples that start f//2 before it.  Built once per
    f and read-only."""
    order = (f // 2 - np.arange(f)) % f
    order.flags.writeable = False
    return order


@functools.lru_cache(maxsize=32)
def _toeplitz_index(f: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2f - 1, f) lag t - a mod f of Toeplitz entry (t, a), and a mask
    that is 0 where t - a is no lag of 0..f - 1 and 1 elsewhere: built once
    per f.  The mask is read-only; the index is not, because ``np.take``
    copies a read-only index, which would add a matrix's bytes to the
    filter's peak."""
    s = np.arange(2 * f - 1)[:, np.newaxis] - np.arange(f)
    index, mask = s % f, ((s >= 0) & (s < f)).astype(float)
    mask.flags.writeable = False
    return index, mask


def _toeplitz(lags: np.ndarray) -> np.ndarray:
    """The (R, 2f - 1, f) Toeplitz matrices T[t, a] = lags[t - a] of (R, f)
    lags, zero where t - a is no lag, in C order for BLAS."""
    index, mask = _toeplitz_index(lags.shape[1])
    matrices = lags.take(index, axis=1)
    matrices *= mask
    return matrices


def _tiled_product(block: np.ndarray, matrices: np.ndarray, out: np.ndarray) -> None:
    """Write into the (R, n) out the first columns of the correlation of an
    (R, width) buffer, width a multiple of f, with the lags of the
    ``_toeplitz`` matrices: the ceil(n / f) output tiles are each row's
    f-sample tiles times its matrix's first f rows, plus the next tiles'
    first f - 1 samples times its last f - 1 rows.  The products go
    straight into out when it is C-ordered and a whole number of tiles
    wide (whole rows of a multiple of f, or a block of one row)."""
    f = matrices.shape[2]
    if f == 1:  # one-sample tiles, with no next tile: the products are a scaling
        np.multiply(block[:, :out.shape[1]], matrices[:, 0], out=out)
        return
    count = -(-out.shape[1] // f)
    tiles = block.reshape(len(block), -1, f)[:, :count + 1]
    whole = out.flags.c_contiguous and out.shape[1] == count * f
    dest = out.reshape(len(block), count, f) if whole else np.empty((len(block), count, f))
    np.matmul(tiles[:, :-1], matrices[:, :f], out=dest)
    dest += tiles[:, 1:, :f - 1] @ matrices[:, f:]
    if not whole:
        out[:] = dest.reshape(len(block), -1)[:, :out.shape[1]]


def _fft_product(block: np.ndarray, response: np.ndarray, out: np.ndarray) -> None:
    """Write into the (R, n) out the first columns of the circular
    correlation of an (R, width) buffer with the lags whose conjugated rfft
    is ``response``."""
    out[:] = np.fft.irfft(np.fft.rfft(block, axis=1) * response, n=block.shape[1],
                          axis=1)[:, :out.shape[1]]


def _centred(rows: np.ndarray, means, lo: int, out: np.ndarray, saved=()) -> None:
    """Fill out with columns lo, lo + 1, ... of rows, indices taken modulo
    the row length, then each (column, samples) of ``saved`` over the
    columns it holds, less the rows' means unless they are None.  The means
    are subtracted once over the whole of out: numpy allocates an iterator
    buffer per operand for a subtraction into a strided piece of it, which
    would set the filter's peak memory."""
    l, width, col = rows.shape[1], out.shape[1], 0
    while col < width:
        src = (lo + col) % l
        n = min(width - col, l - src)
        out[:, col:col + n] = rows[:, src:src + n]
        col += n
    for first, samples in saved:
        for col in range((first - lo) % l, width, l):
            n = min(samples.shape[1], width - col)
            out[:, col:col + n] = samples[:, :n]
    if means is not None:
        out -= means
