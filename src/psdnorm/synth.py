"""Synthetic Gaussian signal generation with prescribed PSDs, multi-domain
shifted corpora, and the alignment benchmark harness.

Randomness: every stream is derived from ``numpy.random.SeedSequence`` keyed
by (seed, signal index, channel index) and drawn through the PCG64 generator,
so generation is deterministic, cross-platform, and identical whether signals
are produced serially or in parallel.  A ``DomainSpec`` therefore keeps its
sample (``DomainSpec.signals``): it is drawn on first read and shared,
read-only, by every method evaluated on that spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
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
from .spectral import WelchConfig, check_integer, check_number, check_psd

METHODS = ("none", "instancenorm", "batchnorm", "layernorm", "tma", "psdnorm")


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """One synthetic domain: a generating PSD plus sampling parameters.

    ``psd`` is a read-only copy of the caller's array, so the spec and its
    sample cannot drift apart.  ``dataclasses.replace`` gives a new spec
    whose sample is drawn afresh.  Specs compare and hash by identity."""

    psd: np.ndarray          # (c, f), checked by ``check_psd``
    n_signals: int
    length: int
    seed: int

    def __post_init__(self):
        psd = check_psd(self.psd, "generating PSD").copy()
        psd.flags.writeable = False
        object.__setattr__(self, "psd", psd)
        object.__setattr__(self, "n_signals",
                           check_integer("n_signals", self.n_signals, 1))
        object.__setattr__(self, "length", check_integer("length", self.length, 1))
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))
        if self.length < self.psd.shape[1]:
            raise LengthTooShortError("length must be >= number of PSD bins")

    @cached_property
    def signals(self) -> np.ndarray:
        """``sample_gaussian_with_psd(self)``, drawn on first read and kept
        read-only for the life of the spec."""
        x = sample_gaussian_with_psd(self)
        x.flags.writeable = False
        return x


def sample_gaussian_with_psd(spec: DomainSpec) -> np.ndarray:
    """Draw ``n_signals`` Gaussian signals whose spectrum matches spec.psd.

    Each channel is white Gaussian noise colored by a zero-phase circular
    filter whose length-l frequency-response magnitude is the sqrt-PSD
    interpolated from bins k / f onto the l//2 + 1 rfft frequencies in
    [0, 1/2]; a symmetric row needs no mirroring there (for odd f, 1/2 lies
    between the equal bins f//2 and f//2 + 1).  Returns a fresh, writable
    (n_signals, c, l) array on every call; ``spec.signals`` keeps one.
    """
    (c, f), l = spec.psd.shape, spec.length
    gains = np.stack([np.interp(np.arange(l // 2 + 1) / l, np.arange(f) / f,
                                np.sqrt(row)) for row in spec.psd])
    z = np.empty((spec.n_signals, c, l))
    for j in range(spec.n_signals):
        for m in range(c):
            ss = np.random.SeedSequence([spec.seed, j, m])
            z[j, m] = np.random.Generator(np.random.PCG64(ss)).standard_normal(l)
    return np.fft.irfft(np.fft.rfft(z) * gains, n=l)


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
    check_integer("domain count k", k, 2)
    seed = check_integer("seed", seed, 0)
    shift_strength = check_number("shift_strength", shift_strength, 0)
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


@dataclass(frozen=True, eq=False)
class AlignmentReport:
    """Pairwise inter-domain Bures distances before and after a
    normalization method.  Reports compare and hash by identity."""

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
    return wasserstein_barycenter(centered_psd(batch, cfg))


def _offdiag_mean(d: np.ndarray) -> float:
    k = d.shape[0]
    return float(d.sum() / (k * (k - 1)))


def evaluate_alignment(domains, method: str,
                       welch: WelchConfig | None = None) -> AlignmentReport:
    """Normalize each domain's signals (``DomainSpec.signals``, drawn once
    per spec however many methods read them) with ``method``, and report the
    inter-domain Bures distances before and after.

    Distances are between per-domain barycenters of sample PSDs estimated at
    the benchmark Welch config (default: f = bins of the first domain PSD).
    When the pre-alignment distances are all zero the reduction ratio is
    reported as 1.0.
    """
    check_integer("domain count", len(domains), 2)
    if method not in METHODS:
        raise ParameterOutOfRangeError(
            f"method must be one of {METHODS}, got {method!r}"
        )
    if len({d.psd.shape for d in domains}) > 1:
        raise ShapeMismatchError("domains must share PSD shape")
    if welch is None:
        welch = WelchConfig(domains[0].psd.shape[1])

    batches = [d.signals for d in domains]
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

    # For "none" the post distances would repeat the pre ones bit for bit.
    post = (pre.copy() if out_batches is batches
            else _pairwise_bures([_mean_psd(b, welch) for b in out_batches]))

    pre_mean = _offdiag_mean(pre)
    ratio = 1.0 if pre_mean == 0.0 else _offdiag_mean(post) / pre_mean
    return AlignmentReport(method=method, pre_distances=pre,
                           post_distances=post, reduction_ratio=ratio)
