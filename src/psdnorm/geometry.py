"""Bures-Wasserstein geometry restricted to diagonal-PSD Gaussian models.

For centered Gaussians whose covariances share the circulant (Fourier-
diagonal) structure, all geometry reduces to elementwise operations on the
square roots of PSD matrices: barycenters are squared means of square roots,
geodesics are linear interpolation of square roots, and the distance is the
l2 distance between square roots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyInputError, ParameterOutOfRangeError, ShapeMismatchError


def _check_same_shape(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape != q.shape:
        raise ShapeMismatchError(f"PSD shapes differ: {p.shape} vs {q.shape}")


def wasserstein_barycenter(psds) -> np.ndarray:
    """Barycenter of K PSDs: elementwise ((1/K) sum_k sqrt(P_k))^2."""
    psds = [np.asarray(p, dtype=float) for p in psds]
    if len(psds) == 0:
        raise EmptyInputError("barycenter of zero PSDs")
    for p in psds[1:]:
        _check_same_shape(psds[0], p)
    return np.mean(np.sqrt(np.stack(psds)), axis=0) ** 2


def geodesic_interpolate(p_src, p_tgt, t: float) -> np.ndarray:
    """Point at parameter t on the Bures-Wasserstein geodesic from p_src to p_tgt.

    Closed form for commuting covariances:
    ((1 - t) * sqrt(p_src) + t * sqrt(p_tgt))^2, elementwise.
    t = 0 returns p_src and t = 1 returns p_tgt exactly.
    """
    p_src = np.asarray(p_src, dtype=float)
    p_tgt = np.asarray(p_tgt, dtype=float)
    _check_same_shape(p_src, p_tgt)
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRangeError(f"t must be in [0, 1], got {t}")
    return ((1.0 - t) * np.sqrt(p_src) + t * np.sqrt(p_tgt)) ** 2


def bures_distance(p, q) -> float:
    """sqrt(sum_(m,k) (sqrt(p) - sqrt(q))^2): a metric on positive PSDs."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_same_shape(p, q)
    return float(np.linalg.norm(np.sqrt(p) - np.sqrt(q)))


@dataclass(frozen=True)
class BarycenterState:
    """Running barycenter with exponential geodesic averaging.

    ``value`` is None until the first update (lazy initialization: the first
    batch barycenter is adopted as-is, equivalent to momentum 1 on the first
    step).  The geodesic step size is owned by the layer and passed to
    ``running_update``.
    """

    value: np.ndarray | None = None
    update_count: int = 0

    def __post_init__(self):
        if (self.value is None) != (self.update_count == 0):
            raise ParameterOutOfRangeError(
                "update_count must be 0 exactly when the state is empty"
            )

    @property
    def is_empty(self) -> bool:
        return self.value is None


def running_update(state: BarycenterState, batch_bary,
                   momentum: float) -> BarycenterState:
    """One exponential geodesic step of the running barycenter.

    Empty state adopts batch_bary.  Otherwise
    value <- ((1 - a) * sqrt(value) + a * sqrt(batch_bary))^2 with a = momentum.
    Returns a new state; the input is not mutated.
    """
    batch_bary = np.asarray(batch_bary, dtype=float)
    if state.is_empty:
        return replace(state, value=batch_bary.copy(), update_count=1)
    _check_same_shape(state.value, batch_bary)
    new_value = geodesic_interpolate(state.value, batch_bary, momentum)
    return replace(state, value=new_value, update_count=state.update_count + 1)
