"""Independent references that only tests use: the unitary DFT matrix and
the classical Gaussian Monge map, materialized densely."""

import numpy as np

from psdnorm import (
    NonPositivePsdError,
    ParameterOutOfRangeError,
    PsdNormError,
    ShapeMismatchError,
)
from psdnorm.spectral import as_signal

#: Largest signal length accepted by the dense oracle.
DENSE_MAX_LEN = 64


class TooLargeForDenseError(PsdNormError):
    """Dense O(l^3) verification path refused for long signals."""


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix of size n: entry (l, l') = exp(-2i*pi*l*l'/n)/sqrt(n)."""
    if n < 1:
        raise ParameterOutOfRangeError("fourier_matrix requires n >= 1")
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def dense_monge_oracle(p_src, p_tgt, x, mean=None) -> np.ndarray:
    """Classical Gaussian Monge map, materialized densely per channel.

    Builds each channel's l x l circulant covariance S = F diag(p) F^H from
    its PSD (requires f = l), forms
    A = S_s^{-1/2} (S_s^{1/2} S_t S_s^{1/2})^{1/2} S_s^{-1/2}
    by eigendecomposition, and applies it to the centered signal.  Refuses
    l > DENSE_MAX_LEN.
    """
    x = as_signal(x)
    p_src = np.atleast_2d(np.asarray(p_src, dtype=float))
    p_tgt = np.atleast_2d(np.asarray(p_tgt, dtype=float))
    c, l = x.shape
    if p_src.shape != (c, l) or p_tgt.shape != (c, l):
        raise ShapeMismatchError(f"dense oracle needs PSDs of shape {(c, l)},"
                                 f" got {p_src.shape} and {p_tgt.shape}")
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
