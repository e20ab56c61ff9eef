"""Synthetic Gaussian signal generation with prescribed PSDs, multi-domain
shifted corpora, and the alignment benchmark harness.

Randomness: every stream is derived from ``numpy.random.SeedSequence`` keyed
by (seed, signal index, channel index) and drawn through the PCG64 generator,
so generation is deterministic, cross-platform, and identical whether signals
are produced serially or in parallel.  A ``DomainSpec`` therefore keeps its
sample (``DomainSpec.signals``): it is drawn on first read and shared,
read-only, by every method evaluated on that spec.  It keeps the sample's
centred Welch PSDs the same way, raw and floored from one Welch pass per
config (``DomainSpec.raw_centered_psds``, ``DomainSpec.centered_psds``),
and the raw PSDs of its mapping toward each target that a method asks for
(``DomainSpec.raw_mapped_psds``).

The benchmark states no layer rule, pooling axis or eps of its own: it fits
BatchNorm with ``batchnorm_update``, TMA with ``psdnorm_update``, and takes
InstanceNorm's and LayerNorm's statistics from ``standardize_stats`` over
``POOLING_AXES``.  Welch is a quadratic form of the centred signal: the
affine baselines map each centred channel to x / sqrt(var + eps), so their
post PSDs are the raw ones over var + eps, floored after, and need no
signal mapped.  TMA and PSDNorm map it by a filter, so theirs are a Welch
pass over the sample filtered as the eval forward filters it, with the
forward's own kernels.  Six methods on three domains make 6 Welch passes
and 3 filters.  The benchmark builds every array it reads, so it takes its
PSDs, taps, filtered copies, barycenters and distances from the private
cores (``spectral._welch_raw``, ``monge._taps``, ``monge._filter``,
``geometry._barycenter``, ``geometry._bures``), which check only the power
they sum.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    LengthTooShortError,
    ParameterOutOfRangeError,
    ShapeMismatchError,
)
from .geometry import _barycenter, _bures
from .layers import (
    EPS,
    POOLING_AXES,
    BatchNormLayer,
    PsdNormLayer,
    batchnorm_update,
    psdnorm_update,
    standardize_stats,
)
from .monge import _filter, _taps
from .spectral import (
    WelchConfig,
    _centred_copy,
    _read_only,
    _welch_raw,
    check_integer,
    check_number,
    check_psd,
    floored,
)

METHODS = ("none", "instancenorm", "batchnorm", "layernorm", "tma", "psdnorm")


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """One synthetic domain: a generating PSD plus sampling parameters.

    ``psd`` is a read-only copy of the caller's array, so the spec and its
    sample cannot drift apart.  ``dataclasses.replace`` gives a new spec
    whose sample is drawn, and whose PSDs are estimated, afresh.  Specs
    compare and hash by identity."""

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

    def centered_psds(self, welch: WelchConfig) -> np.ndarray:
        """``centered_psd(self.signals, welch)``, the (n_signals, c, f) PSDs
        of the sample: ``floored(self.raw_centered_psds(welch))``."""
        return self._welch(welch)[1]

    def raw_centered_psds(self, welch: WelchConfig) -> np.ndarray:
        """``_welch_raw(_centred_copy(self.signals), welch)``, the sample's
        centred PSDs before the positivity floor."""
        return self._welch(welch)[0]

    def _welch(self, welch: WelchConfig) -> tuple:
        """The raw and floored centred PSDs of the sample, from one Welch
        pass on the first call with each Welch config, kept read-only for
        the life of the spec."""
        cache = self.__dict__.setdefault("_psds", {})
        if welch not in cache:
            raw = _welch_raw(_centred_copy(self.signals), welch)
            cache[welch] = _read_only(raw), _read_only(floored(raw))
        return cache[welch]

    def raw_mapped_psds(self, welch: WelchConfig, target: np.ndarray) -> np.ndarray:
        """The raw centred PSDs, (n_signals, c, f), of the sample's eval
        ``psdnorm_forward`` toward the (c, f) target under welch: the
        forward's taps from ``centered_psds(welch)``, its filter in place on
        a centred copy, and one Welch pass over it.  Computed on the first
        call with each (welch, target) and kept read-only for the life of
        the spec, so a spec that no method maps holds none."""
        cache = self.__dict__.setdefault("_mapped", {})
        key = welch, target.tobytes()
        if key not in cache:
            x = _centred_copy(self.signals)
            taps = _taps(self.centered_psds(welch), target)
            _filter(x, None, taps.reshape(-1, welch.filter_size), x)
            cache[key] = _welch_raw(x, welch)
            cache[key].flags.writeable = False
        return cache[key]


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
    base = check_psd(base, "base PSD")
    check_integer("domain count k", k, 2)
    seed = check_integer("seed", seed, 0)
    shift_strength = check_number("shift_strength", shift_strength, 0)
    c, f = base.shape
    freq = np.arange(f) / f
    specs = []
    for i in range(k):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        tilt = rng.uniform(-1.0, 1.0) * np.cos(2 * np.pi * freq)
        with np.errstate(over="ignore"):  # an Inf bin is refused by ``check_psd``
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
    """The (K, K) Bures distances between K PSDs that the benchmark built
    itself, finite and positive."""
    k = len(psds)
    d = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d[i, j] = d[j, i] = _bures(psds[i], psds[j])
    return d


def _offdiag_mean(d: np.ndarray) -> float:
    k = d.shape[0]
    return float(d.sum() / (k * (k - 1)))


def _post_psds(domains, method: str, welch: WelchConfig) -> list:
    """The centred PSDs of each domain's sample after ``method`` (not
    "none"), each floored as ``welch_psd`` floors.  TMA's and PSDNorm's are
    those of each domain's eval forward under ``tma_fit``'s layer, fitted
    from the cached PSDs (``DomainSpec.raw_mapped_psds`` toward its
    barycenter).  An affine baseline's are the cached raw PSDs over its
    var + eps: scaling the floored ones instead would move every clamped
    bin."""
    if method in ("tma", "psdnorm"):
        psds = np.concatenate([d.centered_psds(welch) for d in domains])
        layer = psdnorm_update(PsdNormLayer(**asdict(welch)), psds)
        return [floored(d.raw_mapped_psds(welch, layer.barycenter)) for d in domains]
    if method == "batchnorm":
        # Each domain's eval forward divides by the running variance of one
        # train step over all domains pooled.
        layer = batchnorm_update(BatchNormLayer(),
                                 np.concatenate([d.signals for d in domains]))[2]
        variances = [layer.running_var[:, np.newaxis] + layer.eps] * len(domains)
    else:
        variances = [standardize_stats(d.signals, POOLING_AXES[method])[1] + EPS
                     for d in domains]
    return [floored(d.raw_centered_psds(welch) / v) for d, v in zip(domains, variances)]


def evaluate_alignment(domains, method: str,
                       welch: WelchConfig | None = None) -> AlignmentReport:
    """Normalize each domain's signals (``DomainSpec.signals``) with
    ``method``, and report the inter-domain Bures distances before and after.

    Distances are between per-domain barycenters of sample PSDs estimated at
    the benchmark Welch config (default: f = bins of the first domain PSD).
    A spec draws its sample and estimates its PSDs, raw and floored
    (``DomainSpec.centered_psds``), in one Welch pass per config, however
    many methods read them.  The affine baselines (InstanceNorm, LayerNorm
    and BatchNorm) scale the raw PSDs in closed form.  TMA and PSDNorm take
    the PSDs of each domain's eval forward toward their shared barycenter
    (``DomainSpec.raw_mapped_psds``), filtered and read once per config and
    target by the first of them to run; so the six methods make 6 Welch
    passes and 3 filters over three domains.  When the
    pre-alignment distances are all zero the reduction ratio is reported
    as 1.0.
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

    pre = _pairwise_bures([_barycenter(d.centered_psds(welch)) for d in domains])
    # For "none" the post distances would repeat the pre ones bit for bit.
    post = (pre.copy() if method == "none" else _pairwise_bures(
        [_barycenter(p) for p in _post_psds(domains, method, welch)]))

    pre_mean = _offdiag_mean(pre)
    ratio = 1.0 if pre_mean == 0.0 else _offdiag_mean(post) / pre_mean
    return AlignmentReport(method=method, pre_distances=pre,
                           post_distances=post, reduction_ratio=ratio)
