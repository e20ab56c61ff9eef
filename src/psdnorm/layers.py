"""Stateful normalization layers over batches of multichannel signals.

A batch is an array of shape (N, c, l).  Forward passes are functional:
layers are frozen dataclasses holding only state, and the mode ("train" or
"eval") is an argument of each forward call.  Train-mode calls return an
updated copy alongside the normalized batch; eval-mode calls are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyInputError,
    EvalWithoutBarycenterError,
    EvalWithoutStatsError,
    NonFiniteInputError,
    NonPositivePsdError,
    ParameterOutOfRangeError,
    ShapeMismatchError,
)
from .geometry import running_update, wasserstein_barycenter
from .monge import apply_mapping, monge_filter
from .spectral import WelchConfig, as_signal, welch_psd

MODES = ("train", "eval")


def as_batch(batch) -> np.ndarray:
    """Coerce to a float (N, c, l) array; a single (c, l) signal becomes N=1."""
    b = np.asarray(batch, dtype=float)
    if b.ndim == 2:
        b = b[np.newaxis]
    if b.ndim != 3 or b.shape[0] < 1:
        raise ShapeMismatchError(
            f"batch must have shape (N, channels, length), got {b.shape}"
        )
    return b


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ParameterOutOfRangeError(f"mode must be one of {MODES}, got {mode!r}")


def _number(name: str, value, low: float, high: float = math.inf,
            strict_low: bool = False) -> float:
    """float(value), which must be finite and in [low, high] ((low, high]
    when ``strict_low``)."""
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not (math.isfinite(v) and v <= high and (v > low if strict_low else v >= low)):
        bound = "(" if strict_low else "["
        raise ParameterOutOfRangeError(f"{name} must be a finite number in"
                                       f" {bound}{low}, {high}], got {value!r:.40}")
    return v


def centered_psd(x, cfg: WelchConfig) -> np.ndarray:
    """Welch PSD of a (c, l) signal after removing each channel's mean."""
    x = as_signal(x)
    return welch_psd(x - x.mean(axis=1, keepdims=True), cfg)


# ---------------------------------------------------------------------------
# PSD normalization layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsdNormLayer:
    """Layer aligning each sample's PSD to a running Bures barycenter.

    ``filter_size`` is the number of mapping-filter taps and PSD bins
    (default 5).  ``momentum`` is the geodesic step of the running barycenter
    update (default 1e-2).  ``barycenter`` is a positive (channels,
    filter_size) PSD, None until the first train-mode pass adopts the batch
    barycenter; ``update_count`` counts the updates.  In train mode each
    forward pass updates the running barycenter once from the batch
    barycenter, then maps every centered sample toward the updated value;
    eval mode maps toward the stored value without updating it.  Every field
    is stored in the layer's state document.
    """

    filter_size: int = 5
    momentum: float = 1e-2
    welch: WelchConfig | None = None
    barycenter: np.ndarray | None = None
    update_count: int = 0

    def __post_init__(self):
        if self.filter_size < 1:
            raise ParameterOutOfRangeError("filter_size must be >= 1")
        object.__setattr__(self, "momentum", _number("momentum", self.momentum, 0, 1))
        empty = self.barycenter is None
        if self.update_count < 0 or empty != (self.update_count == 0):
            raise ParameterOutOfRangeError(f"update_count {self.update_count} must"
                                           " be >= 0, and 0 iff barycenter is None")
        if not empty:
            bary = np.asarray(self.barycenter, dtype=float)
            if bary.ndim != 2 or bary.shape[1] != self.filter_size:
                raise ShapeMismatchError(f"barycenter shape {bary.shape} is not"
                                         f" (channels, {self.filter_size})")
            if not np.all(np.isfinite(bary)):
                raise NonFiniteInputError("barycenter contains NaN or Inf")
            if not np.all(bary > 0):
                raise NonPositivePsdError("barycenter must be strictly positive")
            object.__setattr__(self, "barycenter", bary)
        if self.welch is None:
            object.__setattr__(self, "welch", WelchConfig(self.filter_size))
        if self.welch.filter_size != self.filter_size:
            raise ShapeMismatchError(
                "welch.filter_size must equal the layer filter_size"
            )


def psdnorm_forward(layer: PsdNormLayer, batch, mode: str = "train"):
    """One forward pass; returns (normalized batch, updated layer)."""
    _check_mode(mode)
    b = as_batch(batch)
    if mode == "eval" and layer.barycenter is None:
        raise EvalWithoutBarycenterError(
            "eval-mode forward requires an accumulated barycenter"
        )

    psds = [centered_psd(g, layer.welch) for g in b]
    if mode == "train":
        bary = running_update(layer.barycenter, wasserstein_barycenter(psds),
                              layer.momentum)
        layer = replace(layer, barycenter=bary, update_count=layer.update_count + 1)

    out = np.empty_like(b)
    for j, (g, p) in enumerate(zip(b, psds)):
        out[j] = apply_mapping(g, monge_filter(p, layer.barycenter))
    return out, layer


def psdnorm_stack_forward(fs, batch, mode: str = "train", layers=None):
    """Sequential forward through a stack of PSD normalization layers.

    ``fs`` must be a non-increasing list of filter sizes (e.g. the
    floor-halving schedule 5 -> 2 -> 1).  Fresh layers take the
    ``PsdNormLayer`` defaults.  Existing layers may be passed to continue
    training or to run in eval mode; their filter sizes must equal ``fs``.
    Returns (normalized batch, updated layers, per-stage barycenter snapshots).
    """
    fs = [int(f) for f in fs]
    if not fs:
        raise EmptyInputError("stack needs at least one filter size")
    if any(a < b for a, b in zip(fs, fs[1:])):
        raise ParameterOutOfRangeError("filter sizes must be non-increasing")
    if layers is None:
        layers = [PsdNormLayer(filter_size=f) for f in fs]
    sizes = [layer.filter_size for layer in layers]
    if sizes != fs:
        raise ParameterOutOfRangeError(
            f"layer filter sizes {sizes} differ from fs {fs}"
        )
    out = as_batch(batch)
    new_layers, snapshots = [], []
    for layer in layers:
        out, layer = psdnorm_forward(layer, out, mode)
        new_layers.append(layer)
        snapshots.append(layer.barycenter.copy())
    return out, new_layers, snapshots


# ---------------------------------------------------------------------------
# Temporal Monge alignment: a PSD normalization layer with a frozen barycenter
# ---------------------------------------------------------------------------

def tma_fit(domains, welch: WelchConfig) -> PsdNormLayer:
    """Estimate every signal's PSD across all domains and return a layer
    holding their barycenter, for eval-mode forwards: the first train-mode
    update of a fresh layer fed all domains as one batch."""
    psds = [centered_psd(g, welch) for batch in domains for g in as_batch(batch)]
    if not psds:
        raise EmptyInputError("tma_fit needs at least one signal")
    return PsdNormLayer(filter_size=welch.filter_size, welch=welch,
                        barycenter=wasserstein_barycenter(psds),
                        update_count=1)


def tma_transform(aligner: PsdNormLayer, x) -> np.ndarray:
    """The eval-mode forward of one (c, l) signal: center x and apply the
    Monge mapping from its own PSD to the stored barycenter."""
    return psdnorm_forward(aligner, as_signal(x), "eval")[0][0]


# ---------------------------------------------------------------------------
# Baseline normalizers
# ---------------------------------------------------------------------------

def _standardize(batch, axis, eps: float) -> np.ndarray:
    eps = _number("eps", eps, 0)
    b = as_batch(batch)
    mu = b.mean(axis=axis, keepdims=True)
    return (b - mu) / np.sqrt(b.var(axis=axis, keepdims=True) + eps)


def instancenorm_forward(batch, eps: float = 1e-5) -> np.ndarray:
    """Per-sample, per-channel standardization with biased variance."""
    return _standardize(batch, 2, eps)


def layernorm_forward(batch, eps: float = 1e-5) -> np.ndarray:
    """Per-sample standardization over all channels and time steps."""
    return _standardize(batch, (1, 2), eps)


@dataclass(frozen=True)
class BatchNormLayer:
    """Channel-wise batch normalization with fixed affine parameters.

    Statistics are pooled over batch and time per channel, with biased
    variance.  Running statistics follow the exponential moving average
    new = (1 - m) * old + m * batch with ``stat_momentum`` m, starting from
    mean 0 / variance 1.  ``gamma`` and ``beta`` default to 1 and 0 and are
    never trained here.  The running statistics are both None or two finite
    1-D arrays of one length (the variance non-negative); ``gamma`` and
    ``beta`` are finite scalars or arrays of that length.
    """

    gamma: np.ndarray | float = 1.0
    beta: np.ndarray | float = 0.0
    eps: float = 1e-5
    stat_momentum: float = 0.1
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None
    num_batches_tracked: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eps", _number("eps", self.eps, 0, strict_low=True))
        object.__setattr__(self, "stat_momentum",
                           _number("stat_momentum", self.stat_momentum, 0, 1))
        if self.num_batches_tracked < 0:
            raise ParameterOutOfRangeError("num_batches_tracked must be >= 0")
        if (self.running_mean is None) != (self.running_var is None):
            raise ShapeMismatchError("set running_mean and running_var together")
        for name in ("gamma", "beta", "running_mean", "running_var"):
            if getattr(self, name) is None:
                continue
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim > 1 or (value.ndim == 0 and name.startswith("running")):
                raise ShapeMismatchError(f"{name} must be 1-D (gamma and beta may"
                                         f" be scalars), got shape {value.shape}")
            if not np.all(np.isfinite(value)):
                raise NonFiniteInputError(f"{name} contains NaN or Inf")
            object.__setattr__(self, name, value)
        if len(_channel_counts(self)) > 1:
            raise ShapeMismatchError("gamma, beta and the running statistics"
                                     " differ in length")
        if self.running_var is not None and np.any(self.running_var < 0):
            raise ParameterOutOfRangeError("running_var must be >= 0")


def _channel_counts(layer: BatchNormLayer) -> set[int]:
    """Lengths of the layer's 1-D parameters; a valid layer has at most one."""
    return {np.size(a) for a in (layer.gamma, layer.beta, layer.running_mean,
                                 layer.running_var) if np.ndim(a) == 1}


def batchnorm_forward(layer: BatchNormLayer, batch, mode: str = "train"):
    """One forward pass; returns (normalized batch, updated layer)."""
    _check_mode(mode)
    b = as_batch(batch)
    n, c, l = b.shape
    counts = _channel_counts(layer)
    if counts - {c}:
        raise ShapeMismatchError(f"batch has {c} channels,"
                                 f" the layer has {counts.pop()}")
    gamma = np.broadcast_to(np.asarray(layer.gamma, dtype=float), (c,))
    beta = np.broadcast_to(np.asarray(layer.beta, dtype=float), (c,))

    if mode == "train":
        if n * l < 2:
            raise ParameterOutOfRangeError(
                "train-mode batchnorm needs at least 2 pooled samples"
            )
        mu = b.mean(axis=(0, 2))
        var = b.var(axis=(0, 2))
        m = layer.stat_momentum
        r_mean = layer.running_mean if layer.running_mean is not None else np.zeros(c)
        r_var = layer.running_var if layer.running_var is not None else np.ones(c)
        layer = replace(
            layer,
            running_mean=(1.0 - m) * r_mean + m * mu,
            running_var=(1.0 - m) * r_var + m * var,
            num_batches_tracked=layer.num_batches_tracked + 1,
        )
    else:
        if layer.running_mean is None or layer.running_var is None:
            raise EvalWithoutStatsError(
                "eval-mode batchnorm requires trained running statistics"
            )
        mu = layer.running_mean
        var = layer.running_var

    out = gamma[:, None] * (b - mu[None, :, None]) / np.sqrt(
        var[None, :, None] + layer.eps
    ) + beta[:, None]
    return out, layer
