"""Monge mapping filters between stationary Gaussian signal models.

The frequency-domain map between two circulant-covariance Gaussians is the
elementwise gain sqrt(p_tgt / p_src).  Its inverse DFT gives a real length-f
filter bank whose circular convolution realizes the mapping in the time
domain.  A dense O(l^3) eigendecomposition route materializing the classical
Gaussian Monge map is provided as an independent verification oracle for the
f = l case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelMismatchError,
    FilterLongerThanSignalError,
    ImagLeakageError,
    NonPositivePsdError,
    ShapeMismatchError,
    TooLargeForDenseError,
)
from .spectral import as_signal, fourier_matrix

#: Cap on the per-bin power ratio p_tgt / p_src; guards against unbounded
#: gain on near-silent source bins.
RATIO_CAP = 1e6

#: Imaginary residual above this aborts filter synthesis (asymmetric PSDs).
IMAG_TOL = 1e-6


@dataclass(frozen=True)
class MongeFilter:
    """Real filter bank (c, f) realizing a PSD-to-PSD Monge mapping.

    ``max_imag_residual`` records the largest imaginary component discarded
    when the inverse DFT of the (real, symmetric) gain was taken.
    """

    coefficients: np.ndarray
    max_imag_residual: float


def _check_psd_pair(p_src: np.ndarray, p_tgt: np.ndarray) -> None:
    if p_src.shape != p_tgt.shape:
        raise ShapeMismatchError(
            f"PSD shapes differ: {p_src.shape} vs {p_tgt.shape}"
        )
    if not (np.all(p_src > 0) and np.all(p_tgt > 0)):  # NaN fails too
        raise NonPositivePsdError("PSD entries must be strictly positive")


def monge_filter(p_src, p_tgt) -> MongeFilter:
    """Synthesize the filter mapping PSD p_src onto p_tgt.

    The gain sqrt(p_tgt / p_src) is inverse-DFT'd per channel; the ratio is
    capped at RATIO_CAP.  For conjugate-symmetric PSDs the result is real up
    to roundoff; larger imaginary leakage raises ImagLeakageError.
    """
    p_src = np.atleast_2d(np.asarray(p_src, dtype=float))
    p_tgt = np.atleast_2d(np.asarray(p_tgt, dtype=float))
    _check_psd_pair(p_src, p_tgt)
    gain = np.sqrt(np.minimum(p_tgt / p_src, RATIO_CAP))
    h = np.fft.ifft(gain, axis=1)
    residual = float(np.max(np.abs(h.imag)))
    if residual > IMAG_TOL:
        raise ImagLeakageError(
            f"imaginary residual {residual:.3e} > {IMAG_TOL:.0e}; "
            "input PSDs are not conjugate-symmetric"
        )
    return MongeFilter(coefficients=h.real, max_imag_residual=residual)


def apply_mapping(x, filt: MongeFilter) -> np.ndarray:
    """Subtract x's per-channel mean and circularly convolve with the filter.

    The filter taps are placed at circular lags 0..f/2 and -(f/2-1)..-1
    (zero-phase placement).  Causal placement of the same taps would carry an
    identical length-f DFT but a rippled magnitude response between the f
    frequency gridpoints; zero-phase placement keeps the response a smooth
    interpolation of sqrt(p_tgt / p_src).  Both placements coincide when
    f equals the signal length.
    """
    x = as_signal(x)
    h = filt.coefficients
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
    if f - half - 1 > 0:
        h_pad[:, l - (f - half - 1):] = h[:, half + 1:]
    centered = x - x.mean(axis=1, keepdims=True)
    return np.fft.ifft(
        np.fft.fft(centered, axis=1) * np.fft.fft(h_pad, axis=1), axis=1
    ).real


#: Largest signal length accepted by the dense verification path.
DENSE_MAX_LEN = 64


def dense_monge_oracle(p_src, p_tgt, x, mean=None) -> np.ndarray:
    """Classical Gaussian Monge map, materialized densely per channel.

    Builds each channel's l x l circulant covariance S = F diag(p) F^H from
    its PSD (requires f = l), forms
    A = S_s^{-1/2} (S_s^{1/2} S_t S_s^{1/2})^{1/2} S_s^{-1/2}
    by eigendecomposition, and applies it to the centered signal.  Test-only:
    refuses l > DENSE_MAX_LEN.
    """
    x = as_signal(x)
    p_src = np.atleast_2d(np.asarray(p_src, dtype=float))
    p_tgt = np.atleast_2d(np.asarray(p_tgt, dtype=float))
    _check_psd_pair(p_src, p_tgt)
    c, l = x.shape
    if p_src.shape != (c, l):
        raise ShapeMismatchError(
            f"dense oracle needs PSDs of shape {(c, l)}, got {p_src.shape}"
        )
    if l > DENSE_MAX_LEN:
        raise TooLargeForDenseError(f"length {l} > dense limit {DENSE_MAX_LEN}")
    if mean is None:
        mean = x.mean(axis=1)
    mean = np.asarray(mean, dtype=float).reshape(c, 1)

    F = fourier_matrix(l)
    out = np.empty_like(x)
    for m in range(c):
        sig_s = (F @ np.diag(p_src[m]) @ F.conj().T).real
        sig_t = (F @ np.diag(p_tgt[m]) @ F.conj().T).real
        root_s = _sym_sqrt(sig_s)
        inv_root_s = _sym_inv_sqrt(sig_s)
        middle = _sym_sqrt(root_s @ sig_t @ root_s)
        a = inv_root_s @ middle @ inv_root_s
        out[m] = a @ (x[m] - mean[m])
    return out


def _sym_sqrt(s: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(s)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _sym_inv_sqrt(s: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(s)
    if np.any(vals <= 0):
        raise NonPositivePsdError("covariance is not positive definite")
    return (vecs / np.sqrt(vals)) @ vecs.T
