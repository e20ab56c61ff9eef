"""Independent references that only tests use: the unitary DFT matrix, the
classical Gaussian Monge map and the Bures-Wasserstein geometry,
materialized densely, two-sided Gaussian synthesis, Welch by one rfft per
segment, filtering by one rfft of the whole signal and the alignment
benchmark with no PSD kept between calls."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from psdnorm import (
    BatchNormLayer,
    NonPositivePsdError,
    ParameterOutOfRangeError,
    PsdNormError,
    ShapeMismatchError,
    WelchConfig,
    batchnorm_forward,
    bures_distance,
    centered_psd,
    instancenorm_forward,
    layernorm_forward,
    psdnorm_forward,
    tma_fit,
    wasserstein_barycenter,
)
from psdnorm.spectral import as_signals, make_window, n_segments

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
    x = as_signals(x)
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


def dense_covariance(p) -> np.ndarray:
    """The f x f covariance U* diag(p) U of one channel's f-bin PSD p, for the
    unitary DFT matrix U: circulant, and Hermitian positive definite."""
    u = fourier_matrix(len(p))
    return u.conj().T @ np.diag(p) @ u


def dense_psd(sigma) -> np.ndarray:
    """The PSD of a covariance that ``dense_covariance`` diagonalizes: the
    real diagonal of U sigma U*."""
    u = fourier_matrix(len(sigma))
    return np.diag(u @ sigma @ u.conj().T).real


def _sqrtm(a) -> np.ndarray:
    from scipy.linalg import sqrtm  # scipy is a test extra, needed here only

    return sqrtm(a)


def dense_bures_distance(p, q) -> float:
    """The Bures distance of the (c, f) PSDs p and q, over the channels'
    dense covariances A and B: the square root of the sum over channels of
    tr A + tr B - 2 tr (A^1/2 B A^1/2)^1/2."""
    total = 0.0
    for a, b in zip(map(dense_covariance, p), map(dense_covariance, q)):
        root = _sqrtm(a)
        total += np.trace(a + b - 2 * _sqrtm(root @ b @ root)).real
    return float(np.sqrt(total))


def dense_barycenter(psds, iterations: int = 100) -> np.ndarray:
    """The Bures-Wasserstein barycenter of K (c, f) PSDs, per channel by the
    fixed point of Alvarez-Esteban et al. (2016) on their dense covariances
    C_k: S <- S^-1/2 (mean_k (S^1/2 C_k S^1/2)^1/2)^2 S^-1/2, from
    S = mean_k C_k, for at most ``iterations`` steps, until a step moves S
    by less than 1e-12 of its norm: rounding moves it by about 1e-14."""
    psds = np.asarray(psds, dtype=float)
    out = np.empty(psds.shape[1:])
    for m in range(psds.shape[1]):
        covs = [dense_covariance(p[m]) for p in psds]
        s = np.mean(covs, axis=0)
        for _ in range(iterations):
            root = _sqrtm(s)
            inverse = np.linalg.inv(root)
            mean = np.mean([_sqrtm(root @ c @ root) for c in covs], axis=0)
            s, last = inverse @ mean @ mean @ inverse, s
            if np.linalg.norm(s - last) <= 1e-12 * np.linalg.norm(s):
                break
        out[m] = dense_psd(s)
    return out


def dense_geodesic(p, q, t: float) -> np.ndarray:
    """The point at t on McCann's geodesic from the (c, f) PSD p to q, per
    channel over the dense covariances A and B: M A M with
    M = (1 - t) I + t T, for the Monge map T = A^-1/2 (A^1/2 B A^1/2)^1/2 A^-1/2."""
    out = np.empty(np.shape(p))
    for m, (a, b) in enumerate(zip(map(dense_covariance, p), map(dense_covariance, q))):
        root = _sqrtm(a)
        inverse = np.linalg.inv(root)
        step = (1 - t) * np.eye(len(a)) + t * (inverse @ _sqrtm(root @ b @ root) @ inverse)
        out[m] = dense_psd(step @ a @ step)
    return out


def two_sided_gaussian_sample(spec) -> np.ndarray:
    """``sample_gaussian_with_psd`` over the full spectrum: each seeded white
    noise row is colored by ifft(fft(z) * g).real, where g is the sqrt-PSD
    interpolated onto all l frequencies, mirrored as min(k, l - k) / l."""
    c, f = spec.psd.shape
    l = spec.length
    half = f // 2
    # Bin f // 2 extends to Nyquist; for even f it already sits there.
    known_freq = np.append(np.arange(half + 1) / f, 0.5)
    target = np.minimum(np.arange(l), l - np.arange(l)) / l
    out = np.empty((spec.n_signals, c, l))
    for m in range(c):
        sqrt_p = np.sqrt(spec.psd[m])
        gain = np.interp(target, known_freq,
                         np.append(sqrt_p[: half + 1], sqrt_p[half]))
        for j in range(spec.n_signals):
            ss = np.random.SeedSequence([int(spec.seed), j, m])
            z = np.random.Generator(np.random.PCG64(ss)).standard_normal(l)
            out[j, m] = np.fft.ifft(np.fft.fft(z) * gain).real
    return out


def rfft_welch_raw(x, cfg) -> np.ndarray:
    """Unfloored Welch PSD of a (c, l) signal: the mean over its segments of
    |rfft(w * segment)|^2, mirrored to f bins."""
    x = as_signals(x)
    f = cfg.filter_size
    n_segments(x.shape[1], cfg)
    segs = sliding_window_view(x, f, axis=1)[:, ::cfg.stride, :]  # (c, L, f)
    w = make_window(cfg.window_kind, f)
    half = np.mean(np.abs(np.fft.rfft(segs * w, axis=-1)) ** 2, axis=1)
    return np.concatenate([half, half[:, (f - 1) // 2:0:-1]], axis=1)


def whole_signal_mapping(x, h) -> np.ndarray:
    """Centre each channel of a (c, l) signal and circularly convolve it with
    zero-phase (c, f) taps by one rfft/irfft over the whole length."""
    x = as_signals(x)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    (c, l), f = x.shape, h.shape[1]
    half = f // 2
    h_pad = np.zeros((c, l))
    h_pad[:, : half + 1] = h[:, : half + 1]
    h_pad[:, l - (f - half - 1):] = h[:, half + 1:]
    centered = x - x.mean(axis=1, keepdims=True)
    return np.fft.irfft(
        np.fft.rfft(centered, axis=1) * np.fft.rfft(h_pad, axis=1), n=l, axis=1
    )


def uncached_evaluate_alignment(domains, method, welch=None):
    """``evaluate_alignment`` with every PSD estimated on each call and every
    method run over the signals: one ``centered_psd`` per domain sample for
    the pre distances, each baseline's forward, and ``tma`` and ``psdnorm``
    through ``tma_fit`` and an eval ``psdnorm_forward``.
    Returns (pre distances, post distances, reduction ratio)."""
    if welch is None:
        welch = WelchConfig(domains[0].psd.shape[1])
    batches = [d.signals for d in domains]
    if method == "none":
        out = batches
    elif method == "instancenorm":
        out = [instancenorm_forward(b) for b in batches]
    elif method == "layernorm":
        out = [layernorm_forward(b) for b in batches]
    elif method == "batchnorm":
        layer = batchnorm_forward(BatchNormLayer(), np.concatenate(batches))[1]
        out = [batchnorm_forward(layer, b, "eval")[0] for b in batches]
    else:
        aligner = tma_fit(batches, welch)
        out = [psdnorm_forward(aligner, b, "eval")[0] for b in batches]

    def distances(bs):
        barys = [wasserstein_barycenter(centered_psd(b, welch)) for b in bs]
        return np.array([[bures_distance(p, q) for q in barys] for p in barys])

    pre, post = distances(batches), distances(out)
    k = len(domains)
    pre_mean, post_mean = pre.sum() / (k * (k - 1)), post.sum() / (k * (k - 1))
    return pre, post, 1.0 if pre_mean == 0.0 else float(post_mean / pre_mean)
