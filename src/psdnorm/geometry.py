"""Bures-Wasserstein geometry restricted to diagonal-PSD Gaussian models.

For centered Gaussians whose covariances share the circulant (Fourier-
diagonal) structure, all geometry reduces to elementwise operations on the
square roots of PSD matrices: barycenters are squared means of square roots,
geodesics are linear interpolation of square roots, and the distance is the
l2 distance between square roots.  Every function takes finite, strictly
positive PSDs (``check_positive``); symmetry is not needed here.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInputError, ShapeMismatchError
from .spectral import check_number, check_positive


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
    return np.mean(np.sqrt(check_positive(np.stack(psds), "PSDs")), axis=0) ** 2


def geodesic_interpolate(p_src, p_tgt, t: float) -> np.ndarray:
    """Point at parameter t on the Bures-Wasserstein geodesic from p_src to p_tgt.

    Closed form for commuting covariances:
    ((1 - t) * sqrt(p_src) + t * sqrt(p_tgt))^2, elementwise.
    t = 0 returns p_src and t = 1 returns p_tgt exactly.
    """
    p_src = check_positive(p_src, "source PSD")
    p_tgt = check_positive(p_tgt, "target PSD")
    _check_same_shape(p_src, p_tgt)
    t = check_number("t", t, 0, 1)
    return ((1.0 - t) * np.sqrt(p_src) + t * np.sqrt(p_tgt)) ** 2


def bures_distance(p, q) -> float:
    """sqrt(sum_(m,k) (sqrt(p) - sqrt(q))^2): a metric on positive PSDs."""
    p = check_positive(p, "p")
    q = check_positive(q, "q")
    _check_same_shape(p, q)
    return float(np.linalg.norm(np.sqrt(p) - np.sqrt(q)))


def running_update(value, batch_bary, momentum: float) -> np.ndarray:
    """One exponential geodesic step of a running barycenter.

    ``value`` None (nothing accumulated yet) adopts a copy of batch_bary.
    Otherwise returns ((1 - a) * sqrt(value) + a * sqrt(batch_bary))^2 with
    a = momentum.  The inputs are not mutated.
    """
    if value is None:
        return check_positive(batch_bary, "batch barycenter").copy()
    return geodesic_interpolate(value, batch_bary, momentum)
