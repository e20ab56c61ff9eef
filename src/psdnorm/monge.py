"""Monge mapping filters between stationary Gaussian signal models.

The frequency-domain map between two circulant-covariance Gaussians is the
elementwise gain sqrt(p_tgt / p_src).  For conjugate-symmetric PSDs that
gain is real and even, so its inverse DFT is a real length-f filter bank
whose circular convolution realizes the mapping in the time domain.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthTooShortError, ShapeMismatchError
from .spectral import BUDGET_BYTES, as_signals, check_psd, chunk_slices

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
    f equals the signal length.

    A row of up to BUDGET_BYTES is filtered whole with one rfft/irfft, in
    chunks of rows; a longer row by overlap-save over blocks of that size,
    each read with an f-sample halo that wraps around the row's ends.
    """
    x = as_signals(x)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.shape[:-1] != x.shape[:-1]:
        raise ShapeMismatchError(f"filter bank of shape {h.shape[:-1]} (channels)"
                                 f" does not match the signal's {x.shape[:-1]}")
    l, f = x.shape[-1], h.shape[-1]
    if f > l:
        raise LengthTooShortError(f"signal length {l} < filter size {f}")
    rows, taps = x.reshape(-1, l), h.reshape(-1, f)
    means = rows.mean(axis=1, keepdims=True)
    out = np.empty_like(rows)
    m = max(BUDGET_BYTES // 8, 1 << (2 * f - 1).bit_length())  # block length
    if l <= m:
        m, step, halo = l, l, 0
    else:
        step, halo = m - f + 1, f // 2
    for r in chunk_slices(len(rows), 8 * m):
        response = np.fft.rfft(_zero_phase(taps[r], m), axis=1)
        for start in range(0, l, step):
            # One statement, so that no block's temporaries outlive it.
            out[r, start:start + step] = np.fft.irfft(
                np.fft.rfft(_wrapped(rows[r], start - halo, m) - means[r], axis=1)
                * response, n=m, axis=1)[:, halo:halo + min(step, l - start)]
    return out.reshape(x.shape)


def _wrapped(rows: np.ndarray, lo: int, m: int) -> np.ndarray:
    """Columns lo..lo + m - 1 of rows, indices taken modulo the row length."""
    if 0 <= lo and lo + m <= rows.shape[1]:
        return rows[:, lo:lo + m]
    return np.take(rows, np.arange(lo, lo + m), axis=1, mode="wrap")


def _zero_phase(taps: np.ndarray, m: int) -> np.ndarray:
    """(rows, m) circular placement of (rows, f) taps at lags 0..f//2 and
    -(f - f//2 - 1)..-1."""
    f = taps.shape[1]
    half = f // 2
    placed = np.zeros((len(taps), m))
    placed[:, : half + 1] = taps[:, : half + 1]
    placed[:, m - (f - half - 1):] = taps[:, half + 1:]
    return placed
