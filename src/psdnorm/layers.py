"""Stateful normalization layers over batches of multichannel signals.

A batch is an array of shape (N, c, l); one (c, l) signal is a batch of
one (see ``spectral.signal_batch``).  Forward passes are functional:
layers are frozen dataclasses holding only state, and the mode ("train" or
"eval") is an argument of each forward call.  Train-mode calls return an
updated copy alongside the normalized batch; eval-mode calls are pure.
Layers hold arrays, so they compare and hash by identity.

Each layer rule is written once.  ``psdnorm_update`` is the PSDNorm
barycenter step and ``batchnorm_update`` the BatchNorm statistics step:
their forwards call them, and so do TMA and the benchmark, which need a
layer's state without its output.  ``standardize_stats`` is the statistics
step of InstanceNorm and LayerNorm, over their ``POOLING_AXES``, and
``EPS`` every baseline's default eps; the benchmark reads both here.  One
``_normalize`` serves InstanceNorm, LayerNorm and BatchNorm.  Every forward
refuses NaN or Inf (``check_finite``, or ``finite_mean`` for a mean it
takes anyway).  Every forward builds its output in one copy of its batch:
the PSDNorm forward centres a C-ordered copy, estimates its PSDs from it
and filters it in place, and each later layer of a stack does the same to
the copy the first made, so a stack holds one batch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    EvalWithoutStatsError,
    ParameterOutOfRangeError,
    ShapeMismatchError,
)
from .geometry import running_update, wasserstein_barycenter
from .monge import _filter, monge_filter
from .spectral import (
    WelchConfig,
    _centre,
    _read_only,
    _unit_rows,
    as_signals,
    check_finite,
    check_integer,
    check_number,
    check_psd,
    finite_mean,
    finite_var,
    signal_batch,
    welch_psd,
    welch_psd_raw,
)

MODES = ("train", "eval")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ParameterOutOfRangeError(f"mode must be one of {MODES}, got {mode!r}")


def _check_channels(stats, c: int) -> None:
    """A batch of ``c`` channels must match a layer's per-channel
    statistics ``stats`` (None: nothing accumulated yet)."""
    if stats is not None and c != len(stats):
        raise ShapeMismatchError(f"batch has {c} channels, the layer has {len(stats)}")


def _centred_copy(x) -> np.ndarray:
    """A C-ordered copy of the (c, l) signal or (N, c, l) batch x less each
    channel's mean, made in one pass when x's rows are laid out as C rows
    (``_unit_rows``); other rows are copied first and centred in place."""
    x = as_signals(x)
    if _unit_rows(x):
        return np.subtract(x, finite_mean(x, -1), order="C")
    return _centre(x.copy(order="C"))


def centered_psd(x, cfg: WelchConfig) -> np.ndarray:
    """Welch PSD of a (c, l) signal, or of each signal of an (N, c, l) batch,
    after removing each channel's mean (one centred copy of x)."""
    return welch_psd(_centred_copy(x), cfg)


def centered_psd_raw(x, cfg: WelchConfig) -> np.ndarray:
    """``centered_psd`` before the positivity floor: ``floored`` of it gives
    ``centered_psd``'s bits."""
    return welch_psd_raw(_centred_copy(x), cfg)


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


def psdnorm_update(layer: PsdNormLayer, psds, mode: str = "train") -> PsdNormLayer:
    """The barycenter step of one forward pass whose centred sample PSDs
    are ``psds`` (N, c, f).  Train mode returns a copy of the layer whose
    running barycenter took one geodesic step of ``momentum`` toward the
    batch barycenter (a fresh layer adopts it); eval mode returns the layer,
    which must hold a barycenter.  TMA (``tma_fit``) is a fresh layer's
    first step."""
    _check_mode(mode)
    if mode == "eval":
        if layer.barycenter is None:
            raise EvalWithoutStatsError("eval-mode forward requires an accumulated"
                                        " barycenter")
        return layer
    bary = running_update(layer.barycenter, wasserstein_barycenter(psds),
                          layer.momentum)
    return replace(layer, barycenter=bary, update_count=layer.update_count + 1)


def psdnorm_forward(layer: PsdNormLayer, batch, mode: str = "train"):
    """One forward pass; returns (normalized batch, updated layer).  The
    output is one C-ordered copy of the batch: centred, read by one Welch
    pass, then filtered in place, after one ``psdnorm_update`` and one
    ``monge_filter`` over the (N, c, f) batch of PSDs.  The batch itself is
    never written."""
    b = signal_batch(batch)
    _check_channels(layer.barycenter, b.shape[1])
    return _forward_in_place(layer, _centred_copy(b), mode)


def _forward_in_place(layer: PsdNormLayer, b: np.ndarray, mode: str):
    """``psdnorm_forward`` of the centred, C-ordered (N, c, l) batch b,
    which the caller hands over and has checked against the layer's
    channels: b is filtered in place and returned, so the pass holds no
    second batch."""
    psds = welch_psd(b, layer.welch)
    layer = psdnorm_update(layer, psds, mode)
    taps = monge_filter(psds, layer.barycenter).reshape(-1, layer.filter_size)
    del psds  # before the filter's temporaries
    rows = b.reshape(-1, b.shape[-1])  # a view, as b is C-ordered
    _filter(rows, None, taps, rows)
    return b, layer


def psdnorm_stack_forward(fs, batch, mode: str = "train", layers=None):
    """Sequential forward through a stack of PSD normalization layers.

    ``fs`` must be a non-increasing list of filter sizes (e.g. the
    floor-halving schedule 5 -> 2 -> 1).  Fresh layers take the
    ``PsdNormLayer`` defaults.  Existing layers may be passed to continue
    training or to run in eval mode; their filter sizes must equal ``fs``.
    Returns (normalized batch, updated layers, per-stage barycenter
    snapshots); each snapshot is its layer's own read-only barycenter.
    The first layer's ``psdnorm_forward`` copies the batch; each later
    layer centres and filters that copy in place, so the stack holds one
    batch.
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
    out, layer = psdnorm_forward(layers[0], batch, mode)
    new_layers = [layer]
    for layer in layers[1:]:
        _check_channels(layer.barycenter, out.shape[1])
        out, layer = _forward_in_place(layer, _centre(out), mode)
        new_layers.append(layer)
    return out, new_layers, [layer.barycenter for layer in new_layers]


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
    psds = np.concatenate([centered_psd(b, welch) for b in batches])
    return psdnorm_update(PsdNormLayer(**asdict(welch)), psds)


def tma_transform(aligner: PsdNormLayer, x) -> np.ndarray:
    """The eval-mode forward of one (c, l) signal: center x and apply the
    Monge mapping from its own PSD to the stored barycenter.  A batch is
    refused, as the 4-D array that adding its batch axis makes."""
    return psdnorm_forward(aligner, as_signals(x)[np.newaxis], "eval")[0][0]


# ---------------------------------------------------------------------------
# Baseline normalizers
# ---------------------------------------------------------------------------

#: The default eps of every baseline normalizer.
EPS = 1e-5
#: The axes of an (N, c, l) batch that each per-sample baseline pools its
#: statistics over: InstanceNorm per (signal, channel), LayerNorm per signal.
POOLING_AXES = {"instancenorm": 2, "layernorm": (1, 2)}


def _normalize(b: np.ndarray, mu, var, eps: float) -> np.ndarray:
    """(b - mu) / sqrt(var + eps), built in one output array."""
    out = b - mu
    out /= np.sqrt(var + eps)
    return out


def standardize_stats(b: np.ndarray, axis):
    """The statistics step of an InstanceNorm or LayerNorm pass: the mean
    and biased variance of an (N, c, l) batch over ``axis``
    (``POOLING_AXES``), each keeping ``axis`` at length 1."""
    return finite_mean(b, axis), finite_var(b, axis)


def _standardize(batch, axis, eps: float) -> np.ndarray:
    eps = check_number("eps", eps, 0)
    b = signal_batch(batch)
    return _normalize(b, *standardize_stats(b, axis), eps)


def instancenorm_forward(batch, eps: float = EPS) -> np.ndarray:
    """Per-sample, per-channel standardization with biased variance."""
    return _standardize(batch, POOLING_AXES["instancenorm"], eps)


def layernorm_forward(batch, eps: float = EPS) -> np.ndarray:
    """Per-sample standardization over all channels and time steps."""
    return _standardize(batch, POOLING_AXES["layernorm"], eps)


@dataclass(frozen=True, eq=False)
class BatchNormLayer:
    """Channel-wise batch normalization, with no affine.

    Statistics are pooled over batch and time per channel, with biased
    variance.  Running statistics follow the exponential moving average
    new = (1 - m) * old + m * batch with ``stat_momentum`` m, starting from
    mean 0 / variance 1.  They are both None or read-only copies of two
    finite 1-D arrays of one length, the variance non-negative.
    """

    eps: float = EPS
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
            object.__setattr__(self, name, _read_only(check_finite(value, name)))
        if len(self.running_mean) != len(self.running_var):
            raise ShapeMismatchError("running_mean and running_var differ in length")
        if np.any(self.running_var < 0):
            raise ParameterOutOfRangeError("running_var must be >= 0")


def batchnorm_update(layer: BatchNormLayer, batch, mode: str = "train"):
    """The statistics step of one forward pass; returns the per-channel
    (mean, variance) that the pass normalizes with, and the updated layer.
    Train mode pools the batch's statistics over batch and time and moves
    the running statistics toward them; eval mode returns the running
    statistics and the layer, which must hold them."""
    _check_mode(mode)
    b = signal_batch(batch)
    n, c, l = b.shape
    _check_channels(layer.running_mean, c)
    if mode == "eval":
        if layer.running_mean is None:
            raise EvalWithoutStatsError(
                "eval-mode batchnorm requires trained running statistics"
            )
        check_finite(b)
        return layer.running_mean, layer.running_var, layer
    if n * l < 2:
        raise ParameterOutOfRangeError(
            "train-mode batchnorm needs at least 2 pooled samples"
        )
    mu = finite_mean(b, (0, 2)).reshape(c)
    var = finite_var(b, (0, 2)).reshape(c)
    m = layer.stat_momentum
    r_mean = layer.running_mean if layer.running_mean is not None else np.zeros(c)
    r_var = layer.running_var if layer.running_var is not None else np.ones(c)
    return mu, var, replace(
        layer,
        running_mean=(1.0 - m) * r_mean + m * mu,
        running_var=(1.0 - m) * r_var + m * var,
        num_batches_tracked=layer.num_batches_tracked + 1,
    )


def batchnorm_forward(layer: BatchNormLayer, batch, mode: str = "train"):
    """One forward pass; returns (normalized batch, updated layer)."""
    b = signal_batch(batch)
    mu, var, layer = batchnorm_update(layer, b, mode)
    return _normalize(b, mu[:, None], var[:, None], layer.eps), layer
