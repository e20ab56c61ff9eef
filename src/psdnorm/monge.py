"""Monge mapping filters between stationary Gaussian signal models.

The frequency-domain map between two circulant-covariance Gaussians is the
elementwise gain sqrt(p_tgt / p_src).  For conjugate-symmetric PSDs that
gain is real and even, so its inverse DFT is a real length-f filter bank
whose circular convolution realizes the mapping in the time domain.
``apply_mapping`` convolves taps of f <= 16 directly, as a strided
contraction at f multiply-adds per sample, and longer taps by FFT.
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
    f equals the signal length.  Empty taps raise ShapeMismatchError, and
    taps with NaN or Inf raise NonFiniteInputError.

    The dispatch rule is f <= 16: such short taps filter in the time
    domain, at f multiply-adds per sample.  Each output sample is the dot
    product of the taps, in lag order, with the f centred samples around
    it, one ``einsum`` over a read-only strided (rows, l, f) view of a
    buffer that holds the centred rows with f//2 wrapped samples on the
    left and f - f//2 - 1 on the right.  Longer taps filter by FFT, whose
    cost per sample grows with log l instead of f: a whole row by one
    rfft/irfft.  Both forms take chunks of whole rows of up to BUDGET_BYTES
    (with the wrap-around, in the time domain), or else one row at a time
    in blocks of that size, each read with an f-sample halo that wraps
    around the row's ends and filtered by the same kernel (overlap-save
    for the FFT).  The time-domain form reuses one buffer for every chunk
    and block.
    """
    x = as_signals(x)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.shape[:-1] != x.shape[:-1] or h.shape[-1] == 0:
        raise ShapeMismatchError(f"filter bank of shape {h.shape} does not hold"
                                 f" taps for each channel of the signal's {x.shape}")
    l, f = x.shape[-1], h.shape[-1]
    if f > l:
        raise LengthTooShortError(f"signal length {l} < filter size {f}")
    rows, taps = x.reshape(-1, l), check_finite(h.reshape(-1, f))
    means = rows.mean(axis=1, keepdims=True)
    out = np.empty_like(rows)
    direct = f <= 16
    pad = f - 1 if direct else 0  # wrap-around that a whole row needs
    m = max(BUDGET_BYTES // 8, 1 << (2 * f - 1).bit_length())  # block length
    if l + pad <= m:  # whole rows
        step, width, halo = l, l + pad, (f // 2 if direct else 0)
    else:
        step, width, halo = m - f + 1, m, f // 2
    chunks = chunk_slices(len(rows), 8 * width)
    if direct:
        buffer = np.empty((len(rows[chunks[0]]), width))
    for r in chunks:
        if direct:  # lag order, in C order so that einsum takes the same
            # inner loop for any number of rows
            lags = np.ascontiguousarray(taps[r][:, (halo - np.arange(f)) % f])
            block = buffer[:len(lags)]
        else:
            response = np.fft.rfft(_zero_phase(taps[r], width), axis=1)
        for start in range(0, l, step):
            n = min(step, l - start)
            if direct:
                _centred(rows[r], means[r], start - halo, block)
                np.einsum("rls,rs->rl", _segments(block, 0, n, 1, f), lags,
                          out=out[r, start:start + n])
            else:  # one statement, so that no block's temporaries outlive it
                out[r, start:start + n] = np.fft.irfft(np.fft.rfft(
                    _centred(rows[r], means[r], start - halo,
                             np.empty((len(response), width))), axis=1)
                    * response, n=width, axis=1)[:, halo:halo + n]
    return out.reshape(x.shape)


def _centred(rows: np.ndarray, means: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
    """out filled with columns lo, lo + 1, ... of rows, indices taken modulo
    the row length, minus the rows' means."""
    l, col = rows.shape[1], 0
    while col < out.shape[1]:
        src = (lo + col) % l
        n = min(out.shape[1] - col, l - src)
        np.subtract(rows[:, src:src + n], means, out=out[:, col:col + n])
        col += n
    return out


def _zero_phase(taps: np.ndarray, m: int) -> np.ndarray:
    """(rows, m) circular placement of (rows, f) taps at lags 0..f//2 and
    -(f - f//2 - 1)..-1."""
    f = taps.shape[1]
    half = f // 2
    placed = np.zeros((len(taps), m))
    placed[:, : half + 1] = taps[:, : half + 1]
    placed[:, m - (f - half - 1):] = taps[:, half + 1:]
    return placed
