"""Monge mapping filters between stationary Gaussian signal models.

The frequency-domain map between two circulant-covariance Gaussians is the
elementwise gain sqrt(p_tgt / p_src).  For conjugate-symmetric PSDs that
gain is real and even, so its inverse DFT is a real length-f filter bank
whose circular convolution realizes the mapping in the time domain.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ChannelMismatchError,
    FilterLongerThanSignalError,
    ShapeMismatchError,
)
from .spectral import as_signal, check_psd

#: Cap on the per-bin power ratio p_tgt / p_src; guards against unbounded
#: gain on near-silent source bins.
RATIO_CAP = 1e6


def monge_filter(p_src, p_tgt) -> np.ndarray:
    """The (c, f) filter taps mapping PSD p_src onto p_tgt.

    Both PSDs must pass ``check_psd`` (finite, strictly positive and
    conjugate-symmetric).  The gain sqrt(p_tgt / p_src), with the ratio
    capped at RATIO_CAP, is then real and even, and its inverse DFT is taken
    from bins 0..f//2 with irfft.
    """
    p_src = check_psd(p_src, "source PSD")
    p_tgt = check_psd(p_tgt, "target PSD")
    if p_src.shape != p_tgt.shape:
        raise ShapeMismatchError(f"PSD shapes differ: {p_src.shape} vs {p_tgt.shape}")
    f = p_src.shape[1]
    gain = np.sqrt(np.minimum(p_tgt / p_src, RATIO_CAP))
    return np.fft.irfft(gain[:, : f // 2 + 1], n=f, axis=1)


def apply_mapping(x, h) -> np.ndarray:
    """Subtract x's per-channel mean and circularly convolve with the (c, f)
    filter taps h.

    The filter taps are placed at circular lags 0..f/2 and -(f/2-1)..-1
    (zero-phase placement).  Causal placement of the same taps would carry an
    identical length-f DFT but a rippled magnitude response between the f
    frequency gridpoints; zero-phase placement keeps the response a smooth
    interpolation of sqrt(p_tgt / p_src).  Both placements coincide when
    f equals the signal length.
    """
    x = as_signal(x)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.shape[0] != x.shape[0]:
        raise ChannelMismatchError(
            f"filter has {h.shape[0]} channels, signal has {x.shape[0]}"
        )
    c, l = x.shape
    f = h.shape[1]
    if f > l:
        raise FilterLongerThanSignalError(f"filter taps {f} > signal length {l}")
    half = f // 2
    h_pad = np.zeros((c, l))
    h_pad[:, : half + 1] = h[:, : half + 1]
    h_pad[:, l - (f - half - 1):] = h[:, half + 1:]
    centered = x - x.mean(axis=1, keepdims=True)
    return np.fft.irfft(
        np.fft.rfft(centered, axis=1) * np.fft.rfft(h_pad, axis=1), n=l, axis=1
    )
