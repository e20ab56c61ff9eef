"""Stateful normalization layers over batches of multichannel signals.

A batch is an array of shape (N, c, l); one (c, l) signal is a batch of
one (see ``spectral.signal_batch``).  Forward passes are functional:
layers are frozen dataclasses holding only state, and the mode ("train" or
"eval") is an argument of each forward call.  Train-mode calls return an
updated copy alongside the normalized batch; eval-mode calls are pure.
Layers hold arrays, so they compare and hash by identity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    EvalWithoutStatsError,
    NonFiniteInputError,
    ParameterOutOfRangeError,
    ShapeMismatchError,
)
from .geometry import running_update, wasserstein_barycenter
from .monge import apply_mapping, monge_filter
from .spectral import (
    WelchConfig,
    as_signals,
    check_integer,
    check_number,
    check_psd,
    signal_batch,
    welch_psd,
)

MODES = ("train", "eval")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ParameterOutOfRangeError(f"mode must be one of {MODES}, got {mode!r}")


def centered_psd(x, cfg: WelchConfig) -> np.ndarray:
    """Welch PSD of a (c, l) signal, or of each signal of an (N, c, l) batch,
    after removing each channel's mean (one centred copy of x)."""
    x = as_signals(x)
    return welch_psd(x - x.mean(axis=-1, keepdims=True), cfg)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``, so that no caller can change a layer's
    array after its checks."""
    a = a.copy()
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# PSD normalization layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PsdNormLayer:
    """Layer aligning each sample's PSD to a running Bures barycenter.

    ``filter_size`` is the number of mapping-filter taps and PSD bins
    (default 5).  ``momentum`` is the geodesic step of the running barycenter
    update (default 1e-2).  ``filter_size``, ``stride`` and ``window_kind``
    are the fields of the layer's Welch estimator, ``welch``, which is built
    from them (and resolves a stride of 0 to its default).  ``barycenter``
    is a read-only copy of a positive, conjugate-symmetric
    (channels, filter_size) PSD, None until the first train-mode pass adopts
    the batch barycenter; ``update_count`` counts the updates.  In train
    mode each forward pass updates the running barycenter once from the
    batch barycenter, then maps every centered sample toward the updated
    value; eval mode maps toward the stored value without updating it.
    Every field is stored in the layer's state document.
    """

    filter_size: int = 5
    momentum: float = 1e-2
    stride: int = 0
    window_kind: str = "hann"
    barycenter: np.ndarray | None = None
    update_count: int = 0

    def __post_init__(self):
        welch = WelchConfig(self.filter_size, self.stride, self.window_kind)
        object.__setattr__(self, "welch", welch)  # derived, not a field
        object.__setattr__(self, "filter_size", welch.filter_size)
        object.__setattr__(self, "stride", welch.stride)
        object.__setattr__(self, "momentum",
                           check_number("momentum", self.momentum, 0, 1))
        object.__setattr__(self, "update_count",
                           check_integer("update_count", self.update_count, 0))
        empty = self.barycenter is None
        if empty != (self.update_count == 0):
            raise ParameterOutOfRangeError(f"update_count {self.update_count} must"
                                           " be 0 iff barycenter is None")
        if not empty:
            bary = np.asarray(self.barycenter, dtype=float)
            if bary.ndim != 2 or bary.shape[1] != self.filter_size:
                raise ShapeMismatchError(f"barycenter shape {bary.shape} is not"
                                         f" (channels, {self.filter_size})")
            object.__setattr__(self, "barycenter",
                               _read_only(check_psd(bary, "barycenter")))


def psdnorm_forward(layer: PsdNormLayer, batch, mode: str = "train"):
    """One forward pass; returns (normalized batch, updated layer).  One
    ``centered_psd``, one ``monge_filter`` over the (N, c, f) batch of PSDs
    and one ``apply_mapping`` serve the whole batch."""
    _check_mode(mode)
    b = signal_batch(batch)
    if mode == "eval" and layer.barycenter is None:
        raise EvalWithoutStatsError("eval-mode forward requires an accumulated"
                                    " barycenter")
    if layer.barycenter is not None and b.shape[1] != len(layer.barycenter):
        raise ShapeMismatchError(f"batch has {b.shape[1]} channels,"
                                 f" the layer has {len(layer.barycenter)}")

    psds = centered_psd(b, layer.welch)
    if mode == "train":
        bary = running_update(layer.barycenter, wasserstein_barycenter(psds),
                              layer.momentum)
        layer = replace(layer, barycenter=bary, update_count=layer.update_count + 1)

    return apply_mapping(b, monge_filter(psds, layer.barycenter)), layer


def psdnorm_stack_forward(fs, batch, mode: str = "train", layers=None):
    """Sequential forward through a stack of PSD normalization layers.

    ``fs`` must be a non-increasing list of filter sizes (e.g. the
    floor-halving schedule 5 -> 2 -> 1).  Fresh layers take the
    ``PsdNormLayer`` defaults.  Existing layers may be passed to continue
    training or to run in eval mode; their filter sizes must equal ``fs``.
    Returns (normalized batch, updated layers, per-stage barycenter
    snapshots); each snapshot is its layer's own read-only barycenter.
    """
    fs = [check_integer("filter size", f, 1) for f in fs]
    check_integer("filter size count", len(fs), 1)
    if any(a < b for a, b in zip(fs, fs[1:])):
        raise ParameterOutOfRangeError("filter sizes must be non-increasing")
    if layers is None:
        layers = [PsdNormLayer(filter_size=f) for f in fs]
    sizes = [layer.filter_size for layer in layers]
    if sizes != fs:
        raise ParameterOutOfRangeError(
            f"layer filter sizes {sizes} differ from fs {fs}"
        )
    out = batch  # the first forward checks it
    new_layers, snapshots = [], []
    for layer in layers:
        out, layer = psdnorm_forward(layer, out, mode)
        new_layers.append(layer)
        snapshots.append(layer.barycenter)
    return out, new_layers, snapshots


# ---------------------------------------------------------------------------
# Temporal Monge alignment: a PSD normalization layer with a frozen barycenter
# ---------------------------------------------------------------------------

def tma_fit(domains, welch: WelchConfig) -> PsdNormLayer:
    """Estimate every signal's PSD across all domains and return a layer
    holding their barycenter, for eval-mode forwards: the first train-mode
    update of a fresh layer fed all domains as one batch."""
    batches = [signal_batch(batch) for batch in domains]
    check_integer("domain count", len(batches), 1)
    for i, b in enumerate(batches):
        if b.shape[1] != batches[0].shape[1]:
            raise ShapeMismatchError(f"domain {i} has {b.shape[1]} channels,"
                                     f" domain 0 has {batches[0].shape[1]}")
    psds = [centered_psd(b, welch) for b in batches]
    return PsdNormLayer(**asdict(welch),
                        barycenter=wasserstein_barycenter(np.concatenate(psds)),
                        update_count=1)


def tma_transform(aligner: PsdNormLayer, x) -> np.ndarray:
    """The eval-mode forward of one (c, l) signal: center x and apply the
    Monge mapping from its own PSD to the stored barycenter.  A batch is
    refused, as the 4-D array that adding its batch axis makes."""
    return psdnorm_forward(aligner, as_signals(x)[np.newaxis], "eval")[0][0]


# ---------------------------------------------------------------------------
# Baseline normalizers
# ---------------------------------------------------------------------------

def _standardize(batch, axis, eps: float) -> np.ndarray:
    eps = check_number("eps", eps, 0)
    b = signal_batch(batch)
    mu = b.mean(axis=axis, keepdims=True)
    return (b - mu) / np.sqrt(b.var(axis=axis, keepdims=True) + eps)


def instancenorm_forward(batch, eps: float = 1e-5) -> np.ndarray:
    """Per-sample, per-channel standardization with biased variance."""
    return _standardize(batch, 2, eps)


def layernorm_forward(batch, eps: float = 1e-5) -> np.ndarray:
    """Per-sample standardization over all channels and time steps."""
    return _standardize(batch, (1, 2), eps)


@dataclass(frozen=True, eq=False)
class BatchNormLayer:
    """Channel-wise batch normalization, with no affine.

    Statistics are pooled over batch and time per channel, with biased
    variance.  Running statistics follow the exponential moving average
    new = (1 - m) * old + m * batch with ``stat_momentum`` m, starting from
    mean 0 / variance 1.  They are both None or read-only copies of two
    finite 1-D arrays of one length, the variance non-negative.
    """

    eps: float = 1e-5
    stat_momentum: float = 0.1
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None
    num_batches_tracked: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eps",
                           check_number("eps", self.eps, 0, strict_low=True))
        object.__setattr__(self, "stat_momentum",
                           check_number("stat_momentum", self.stat_momentum, 0, 1))
        object.__setattr__(self, "num_batches_tracked",
                           check_integer("num_batches_tracked",
                                         self.num_batches_tracked, 0))
        if (self.running_mean is None) != (self.running_var is None):
            raise ShapeMismatchError("set running_mean and running_var together")
        if self.running_mean is None:
            return
        for name in ("running_mean", "running_var"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim != 1:
                raise ShapeMismatchError(f"{name} must be 1-D, got shape {value.shape}")
            if not np.all(np.isfinite(value)):
                raise NonFiniteInputError(f"{name} contains NaN or Inf")
            object.__setattr__(self, name, _read_only(value))
        if len(self.running_mean) != len(self.running_var):
            raise ShapeMismatchError("running_mean and running_var differ in length")
        if np.any(self.running_var < 0):
            raise ParameterOutOfRangeError("running_var must be >= 0")


def batchnorm_forward(layer: BatchNormLayer, batch, mode: str = "train"):
    """One forward pass; returns (normalized batch, updated layer)."""
    _check_mode(mode)
    b = signal_batch(batch)
    n, c, l = b.shape
    if layer.running_mean is not None and len(layer.running_mean) != c:
        raise ShapeMismatchError(f"batch has {c} channels,"
                                 f" the layer has {len(layer.running_mean)}")

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
        if layer.running_mean is None:
            raise EvalWithoutStatsError(
                "eval-mode batchnorm requires trained running statistics"
            )
        mu = layer.running_mean
        var = layer.running_var

    return (b - mu[:, None]) / np.sqrt(var[:, None] + layer.eps), layer
