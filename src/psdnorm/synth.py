"""Synthetic Gaussian signal generation with prescribed PSDs, multi-domain
shifted corpora, and the alignment benchmark harness.

Randomness: every stream is derived from ``numpy.random.SeedSequence`` keyed
by (seed, signal index, channel index) and drawn through the PCG64 generator,
so generation is deterministic, cross-platform, and identical whether signals
are produced serially or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    LengthTooShortError,
    ParameterOutOfRangeError,
    ShapeMismatchError,
)
from .geometry import bures_distance, wasserstein_barycenter
from .layers import (
    BatchNormLayer,
    batchnorm_forward,
    instancenorm_forward,
    layernorm_forward,
    centered_psd,
    psdnorm_forward,
    tma_fit,
)
from .spectral import WelchConfig

METHODS = ("none", "instancenorm", "batchnorm", "layernorm", "tma", "psdnorm")


@dataclass(frozen=True)
class DomainSpec:
    """One synthetic domain: a generating PSD plus sampling parameters."""

    psd: np.ndarray          # (c, f), strictly positive
    n_signals: int
    length: int
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "psd", np.atleast_2d(np.asarray(self.psd, dtype=float))
        )
        if np.any(self.psd <= 0):
            raise ParameterOutOfRangeError("generating PSD must be positive")
        if self.n_signals < 1:
            raise ParameterOutOfRangeError("n_signals must be >= 1")
        if self.length < self.psd.shape[1]:
            raise LengthTooShortError("length must be >= number of PSD bins")


def _interp_gain(psd_row: np.ndarray, length: int) -> np.ndarray:
    """sqrt-PSD interpolated from f bins to `length` bins over normalized
    frequency, preserving conjugate symmetry."""
    f = psd_row.shape[0]
    sqrt_p = np.sqrt(psd_row)
    # Known values on [0, 0.5]: bins 0..f//2 at frequency k/f.
    half = f // 2
    known_freq = np.arange(half + 1) / f
    known_val = sqrt_p[: half + 1]
    if known_freq[-1] < 0.5:
        # Odd f: extend to Nyquist with the last available magnitude.
        known_freq = np.append(known_freq, 0.5)
        known_val = np.append(known_val, sqrt_p[half])
    target = np.minimum(np.arange(length), length - np.arange(length)) / length
    return np.interp(target, known_freq, known_val)


def sample_gaussian_with_psd(spec: DomainSpec) -> np.ndarray:
    """Draw ``n_signals`` Gaussian signals whose spectrum matches spec.psd.

    Each channel is white Gaussian noise colored by a zero-phase circular
    filter whose length-l frequency-response magnitude is the sqrt-PSD
    interpolated from f bins.  Returns an (n_signals, c, l) array.
    """
    c, f = spec.psd.shape
    l = spec.length
    gains = np.stack([_interp_gain(spec.psd[m], l) for m in range(c)])
    out = np.empty((spec.n_signals, c, l))
    for j in range(spec.n_signals):
        for m in range(c):
            ss = np.random.SeedSequence([int(spec.seed), j, m])
            z = np.random.Generator(np.random.PCG64(ss)).standard_normal(l)
            out[j, m] = np.fft.ifft(np.fft.fft(z) * gains[m]).real
    return out


def make_shifted_domains(base, k: int, shift_strength: float,
                         n_signals: int = 8, length: int = 2 ** 14,
                         seed: int = 0) -> list[DomainSpec]:
    """K domain specs whose PSDs are smooth log-domain tilts of a base PSD.

    Domain i multiplies the base elementwise by
    exp(shift_strength * a_i * cos(2*pi*freq)) with a_i ~ Uniform(-1, 1),
    a smooth first-harmonic profile in normalized frequency (symmetric, so
    generated signals stay real).  shift_strength = 0 yields identical
    domains.  Deterministic given seed.
    """
    base = np.atleast_2d(np.asarray(base, dtype=float))
    if k < 2:
        raise ParameterOutOfRangeError("need at least 2 domains")
    if shift_strength < 0:
        raise ParameterOutOfRangeError("shift_strength must be >= 0")
    c, f = base.shape
    freq = np.arange(f) / f
    specs = []
    for i in range(k):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        tilt = rng.uniform(-1.0, 1.0) * np.cos(2 * np.pi * freq)
        psd = base * np.exp(shift_strength * tilt)[None, :]
        specs.append(
            DomainSpec(psd=psd, n_signals=n_signals, length=length,
                       seed=seed * 100_003 + i)
        )
    return specs


@dataclass(frozen=True)
class AlignmentReport:
    """Pairwise inter-domain Bures distances before and after a
    normalization method."""

    method: str
    pre_distances: np.ndarray       # (K, K), symmetric, zero diagonal
    post_distances: np.ndarray      # (K, K)
    reduction_ratio: float          # mean post / mean pre (off-diagonal)


def _pairwise_bures(psds) -> np.ndarray:
    k = len(psds)
    d = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d[i, j] = d[j, i] = bures_distance(psds[i], psds[j])
    return d


def _mean_psd(batch: np.ndarray, cfg: WelchConfig) -> np.ndarray:
    return wasserstein_barycenter([centered_psd(g, cfg) for g in batch])


def _offdiag_mean(d: np.ndarray) -> float:
    k = d.shape[0]
    return float(d.sum() / (k * (k - 1)))


def evaluate_alignment(domains, method: str,
                       welch: WelchConfig | None = None) -> AlignmentReport:
    """Generate each domain's signals, normalize them with ``method``, and
    report the inter-domain Bures distances before and after.

    Distances are between per-domain barycenters of sample PSDs estimated at
    the benchmark Welch config (default: f = bins of the first domain PSD).
    When the pre-alignment distances are all zero the reduction ratio is
    reported as 1.0.
    """
    if len(domains) < 2:
        raise EmptyInputError("alignment benchmark needs >= 2 domains")
    if method not in METHODS:
        raise ParameterOutOfRangeError(
            f"method must be one of {METHODS}, got {method!r}"
        )
    if len({d.psd.shape for d in domains}) > 1:
        raise ShapeMismatchError("domains must share PSD shape")
    if welch is None:
        welch = WelchConfig(domains[0].psd.shape[1])

    batches = [sample_gaussian_with_psd(d) for d in domains]
    pre = _pairwise_bures([_mean_psd(b, welch) for b in batches])

    if method == "none":
        out_batches = batches
    elif method == "instancenorm":
        out_batches = [instancenorm_forward(b) for b in batches]
    elif method == "layernorm":
        out_batches = [layernorm_forward(b) for b in batches]
    elif method == "batchnorm":
        layer = BatchNormLayer()
        _, layer = batchnorm_forward(layer, np.concatenate(batches))
        out_batches = [batchnorm_forward(layer, b, "eval")[0] for b in batches]
    else:  # tma, psdnorm
        # A fresh psdnorm layer's one train pass adopts exactly this barycenter.
        aligner = tma_fit(batches, welch)
        out_batches = [psdnorm_forward(aligner, b, "eval")[0] for b in batches]

    post = _pairwise_bures([_mean_psd(b, welch) for b in out_batches])

    pre_mean = _offdiag_mean(pre)
    ratio = 1.0 if pre_mean == 0.0 else _offdiag_mean(post) / pre_mean
    return AlignmentReport(method=method, pre_distances=pre,
                           post_distances=post, reduction_ratio=ratio)
