"""Signal-processing substrate: windows and Welch PSD estimation.

Conventions
-----------
Signals are real arrays of shape ``(c, l)`` (channels x samples).  PSDs are
strictly positive, conjugate-symmetric arrays of shape ``(c, f)``: bin k
equals bin f - k, as for any real signal, so every transform is one-sided.
The Welch estimate is scaled so that unit-variance white noise yields bins
close to 1 for any filter size: with a unit-norm window ``w`` the bin value
is ``mean_l |DFT(w * seg_l)|^2`` using the unnormalized DFT.  All downstream
mapping filters depend only on PSD ratios, which are invariant to this
global scale choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def as_signal(x) -> np.ndarray:
    """Coerce to a float (c, l) array, accepting 1-D input as one channel."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ParameterOutOfRangeError(
            f"signal must be a (channels, length) array, got shape {x.shape}"
        )
    return x


def check_finite(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NonFiniteInputError("input contains NaN or Inf")
    return x


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
        if self.filter_size < 1:
            raise ParameterOutOfRangeError("filter_size must be >= 1")
        if self.stride == 0:
            object.__setattr__(self, "stride", max(1, self.filter_size // 2))
        if not 1 <= self.stride <= self.filter_size:
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
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise NonFiniteInputError(f"{name} contains NaN or Inf")
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
    if f < 1:
        raise ParameterOutOfRangeError("window length must be >= 1")
    if kind == "boxcar":
        return np.full(f, 1.0 / np.sqrt(f))
    if kind == "hann":
        if f == 1:
            return np.array([1.0])
        taps = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(f) / f))
        return taps / np.linalg.norm(taps)
    raise ParameterOutOfRangeError(f"unknown window kind {kind!r}")


def psd_floor(p: np.ndarray) -> float:
    """Positivity floor applied to Welch estimates: 1e-10 * max(1, max(p))."""
    return 1e-10 * max(1.0, float(np.max(p)) if p.size else 1.0)


def welch_psd_raw(x, cfg: WelchConfig) -> np.ndarray:
    """Welch PSD without the positivity floor (may contain zeros).

    Segment k covers columns [k*stride, k*stride + f); trailing samples that
    do not fill a segment are dropped (see ``n_segments``).
    """
    x = check_finite(as_signal(x))
    f, stride = cfg.filter_size, cfg.stride
    if x.shape[1] < f:
        raise LengthTooShortError(
            f"signal length {x.shape[1]} < filter size {f}"
        )
    w = make_window(cfg.window_kind, f)
    segs = sliding_window_view(x, f, axis=1)[:, ::stride, :]  # (c, L, f)
    half = np.mean(np.abs(np.fft.rfft(segs * w, axis=-1)) ** 2, axis=1)
    return np.concatenate([half, half[:, (f - 1) // 2:0:-1]], axis=1)


def welch_psd(x, cfg: WelchConfig) -> np.ndarray:
    """Welch PSD estimate, floor-clamped to be strictly positive.

    Returns a (c, f) array whose bins above f//2 copy those below it, so
    p[:, k] == p[:, f - k] exactly.
    """
    p = welch_psd_raw(x, cfg)
    return np.maximum(p, psd_floor(p))


def n_segments(length: int, cfg: WelchConfig) -> int:
    if length < cfg.filter_size:
        raise LengthTooShortError(
            f"signal length {length} < filter size {cfg.filter_size}"
        )
    return (length - cfg.filter_size) // cfg.stride + 1
