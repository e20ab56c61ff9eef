"""Monge mapping filters between stationary Gaussian signal models.

The frequency-domain map between two circulant-covariance Gaussians is the
elementwise gain sqrt(p_tgt / p_src).  For conjugate-symmetric PSDs that
gain is real and even, so its inverse DFT is a real length-f filter bank
whose circular convolution realizes the mapping in the time domain.
``apply_mapping`` reads one centred, wrap-padded buffer and the taps in
lag order, and contracts them directly for f <= 16, at f multiply-adds per
sample, and by FFT for longer taps.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthTooShortError, ShapeMismatchError
from .spectral import (
    BUDGET_BYTES,
    _segments,
    as_signals,
    check_finite,
    check_psd,
    chunk_slices,
    finite_mean,
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
    f = p_tgt.shape[1]
    rows = check_psd(p_src.reshape(-1, f), "source PSD")
    gain = np.sqrt(np.minimum(p_tgt / rows.reshape(p_src.shape), RATIO_CAP))
    return np.fft.irfft(gain[..., : f // 2 + 1], n=f, axis=-1)


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

    The dispatch rule is f <= 16, and the two forms differ only in the
    contraction.  Both centre a chunk of whole rows of up to BUDGET_BYTES,
    or else one row at a time in blocks of that size, into one reused
    buffer that starts f//2 samples before the first output, wrapping
    around the row's ends, and read the taps in lag order, so that each
    output sample is the dot product of the lags with the f buffer samples
    from its own column on.  Short taps filter in the time domain, at f
    multiply-adds per sample: one ``einsum`` over a read-only strided
    (rows, l, f) view of the buffer, for which a whole row carries f - 1
    wrapped samples more.  Longer taps filter by FFT, whose cost per
    sample grows with log l instead of f: an rfft/irfft correlation of the
    buffer with the lags, circular over a whole row and overlap-save over
    a block, whose first outputs it keeps.
    """
    x = as_signals(x)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.shape[:-1] != x.shape[:-1] or h.shape[-1] == 0:
        raise ShapeMismatchError(f"filter bank of shape {h.shape} does not hold"
                                 f" taps for each channel of the signal's {x.shape}")
    l, f = x.shape[-1], h.shape[-1]
    if f > l:
        raise LengthTooShortError(f"signal length {l} < filter size {f}")
    rows, taps = x.reshape(-1, l), check_finite(h.reshape(-1, f), "filter taps")
    means = finite_mean(rows, 1)
    out = np.empty_like(rows)
    direct = f <= 16
    pad = f - 1 if direct else 0  # wrap-around that a whole row needs
    m = max(BUDGET_BYTES // 8, 1 << (2 * f - 1).bit_length())  # block length
    step, width = (l, l + pad) if l + pad <= m else (m - f + 1, m)
    halo = f // 2
    order = (halo - np.arange(f)) % f  # lag order
    chunks = chunk_slices(len(rows), 8 * width)
    buffer = np.empty((len(rows[chunks[0]]), width))
    for r in chunks:
        # take returns C order, so that einsum takes the same inner loop for
        # any number of rows
        lags = taps[r].take(order, axis=1)
        block = buffer[:len(lags)]
        # conjugate, so that the FFT correlates the buffer with the lags as
        # the einsum does
        response = None if direct else np.fft.rfft(lags, n=width, axis=1).conj()
        for start in range(0, l, step):
            n = min(step, l - start)
            _centred(rows[r], means[r], start - halo, block)
            if direct:
                np.einsum("rls,rs->rl", _segments(block, 0, n, 1, f), lags,
                          out=out[r, start:start + n])
            else:
                out[r, start:start + n] = np.fft.irfft(
                    np.fft.rfft(block, axis=1) * response, n=width, axis=1)[:, :n]
    return out.reshape(x.shape)


def _centred(rows: np.ndarray, means: np.ndarray, lo: int, out: np.ndarray) -> None:
    """Fill out with columns lo, lo + 1, ... of rows, indices taken modulo
    the row length, minus the rows' means.  The means are subtracted once
    over the whole of out: numpy allocates an iterator buffer per operand
    for a subtraction into a strided piece of it, which would set the
    filter's peak memory."""
    l, col = rows.shape[1], 0
    while col < out.shape[1]:
        src = (lo + col) % l
        n = min(out.shape[1] - col, l - src)
        out[:, col:col + n] = rows[:, src:src + n]
        col += n
    out -= means
