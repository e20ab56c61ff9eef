"""Tests for Monge filter synthesis, application, and the dense oracle."""

import numpy as np
import pytest

from psdnorm import (
    AsymmetricPsdError,
    ShapeMismatchError,
    WelchConfig,
    apply_mapping,
    monge_filter,
    welch_psd,
)
from psdnorm.monge import RATIO_CAP

from oracles import TooLargeForDenseError, dense_monge_oracle, fourier_matrix


def random_symmetric_psd(rng, c, f, lo=0.5, hi=2.0):
    """Strictly positive, conjugate-symmetric (c, f) PSD."""
    half = rng.uniform(lo, hi, (c, f // 2 + 1))
    return np.concatenate([half, half[:, -2 + (f % 2):0:-1]], axis=1)[:, :f]


def dft_magnitudes(h):
    """|f-point DFT| of each filter row; equals sqrt(p_tgt / p_src) by design."""
    return np.abs(np.fft.fft(h, axis=1))


class TestMongeFilter:
    def test_equal_psds_give_delta(self):
        rng = np.random.default_rng(0)
        p = random_symmetric_psd(rng, 2, 8)
        h = monge_filter(p, p)
        expected = np.zeros((2, 8))
        expected[:, 0] = 1.0
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_f1_scalar_gain(self):
        h = monge_filter([[4.0]], [[9.0]])
        assert h[0, 0] == pytest.approx(1.5)

    def test_dft_magnitudes_reproduce_sqrt_ratio(self):
        rng = np.random.default_rng(1)
        p_src = random_symmetric_psd(rng, 2, 8)
        p_tgt = random_symmetric_psd(rng, 2, 8)
        h = monge_filter(p_src, p_tgt)
        np.testing.assert_allclose(
            dft_magnitudes(h), np.sqrt(p_tgt / p_src), atol=1e-8
        )

    def test_asymmetric_psd_raises(self):
        p_src = np.ones((1, 8))
        p_tgt = np.ones((1, 8))
        p_tgt[0, 1] = 9.0  # breaks bin symmetry
        with pytest.raises(AsymmetricPsdError):
            monge_filter(p_src, p_tgt)

    def test_ratio_cap(self):
        h = monge_filter([[1e-12]], [[1.0]])
        assert h[0, 0] == pytest.approx(np.sqrt(RATIO_CAP))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            monge_filter(np.ones((1, 4)), np.ones((1, 8)))

    def test_batch_of_sources_maps_each_onto_the_one_target(self):
        rng = np.random.default_rng(3)
        p_src = np.stack([random_symmetric_psd(rng, 2, 8) for _ in range(5)])
        p_tgt = random_symmetric_psd(rng, 2, 8)
        h = monge_filter(p_src, p_tgt)
        assert h.shape == (5, 2, 8)
        for j in range(5):
            np.testing.assert_array_equal(h[j], monge_filter(p_src[j], p_tgt))
        # A batch of one keeps its batch axis; a 1-D source is one channel.
        assert monge_filter(p_src[:1], p_tgt).shape == (1, 2, 8)
        np.testing.assert_array_equal(monge_filter(p_tgt[0], p_tgt[:1]),
                                      monge_filter(p_tgt[:1], p_tgt[:1]))

    @pytest.mark.parametrize("shape", [(3, 1, 8), (3, 2, 4), (2, 3, 2, 8), (0, 2, 8)])
    def test_batch_of_other_shape_refused(self, shape):
        with pytest.raises(ShapeMismatchError):
            monge_filter(np.ones(shape), np.ones((2, 8)))

    def test_composition_in_spectrum(self):
        rng = np.random.default_rng(2)
        pa = random_symmetric_psd(rng, 2, 8)
        pb = random_symmetric_psd(rng, 2, 8)
        pc = random_symmetric_psd(rng, 2, 8)
        mags_ab = dft_magnitudes(monge_filter(pa, pb))
        mags_bc = dft_magnitudes(monge_filter(pb, pc))
        mags_ac = dft_magnitudes(monge_filter(pa, pc))
        np.testing.assert_allclose(mags_ab * mags_bc, mags_ac, atol=1e-8)


class TestApplyMapping:
    def test_delta_filter_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 32))
        p = random_symmetric_psd(rng, 2, 8)
        out = apply_mapping(x, monge_filter(p, p))
        np.testing.assert_allclose(out, x - x.mean(axis=1, keepdims=True), atol=1e-10)

    def test_map_to_own_psd_roundtrip(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 64)) + 3.0
        cfg = WelchConfig(8)
        centered = x - x.mean(axis=1, keepdims=True)
        p = welch_psd(centered, cfg)
        out = apply_mapping(x, monge_filter(p, p))
        np.testing.assert_allclose(out, centered, atol=1e-10)

    def test_f1_unit_target_standardizes(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 50)) * 4.0 + 2.0
        centered = x - x.mean(axis=1, keepdims=True)
        p = welch_psd(centered, WelchConfig(1, stride=1, window_kind="boxcar"))
        out = apply_mapping(x, monge_filter(p, np.ones((3, 1))))
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-10)

    def test_inverse_roundtrip_full_length(self):
        rng = np.random.default_rng(6)
        l = 16
        x = rng.standard_normal((2, l))
        pa = random_symmetric_psd(rng, 2, l)
        pb = random_symmetric_psd(rng, 2, l)
        fwd = apply_mapping(x, monge_filter(pa, pb))
        back = apply_mapping(fwd, monge_filter(pb, pa))
        np.testing.assert_allclose(back, x - x.mean(axis=1, keepdims=True), atol=1e-8)


class TestDenseOracle:
    def test_identity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 8)) + 1.0
        p = random_symmetric_psd(rng, 1, 8)
        out = dense_monge_oracle(p, p, x)
        np.testing.assert_allclose(out, x - x.mean(axis=1, keepdims=True), atol=1e-8)

    def test_scalar_case(self):
        x = np.array([[5.0]])
        out = dense_monge_oracle([[4.0]], [[9.0]], x, mean=[2.0])
        assert out[0, 0] == pytest.approx(1.5 * (5.0 - 2.0))

    def test_matches_filter_path(self):
        rng = np.random.default_rng(8)
        for c, l in [(1, 8), (2, 16)]:
            p_src = random_symmetric_psd(rng, c, l)
            p_tgt = random_symmetric_psd(rng, c, l)
            x = rng.standard_normal((c, l))
            dense = dense_monge_oracle(p_src, p_tgt, x)
            filtered = apply_mapping(x, monge_filter(p_src, p_tgt))
            assert np.max(np.abs(dense - filtered)) < 1e-6 * np.max(np.abs(x))

    def test_matches_scipy_sqrtm(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(9)
        for l in (4, 8, 16):
            p_src = random_symmetric_psd(rng, 1, l)
            p_tgt = random_symmetric_psd(rng, 1, l)
            x = rng.standard_normal((1, l))
            F = fourier_matrix(l)
            sig_s, sig_t = ((F @ np.diag(p[0]) @ F.conj().T).real for p in (p_src, p_tgt))
            root_s = linalg.sqrtm(sig_s).real
            inv_root_s = np.linalg.inv(root_s)
            a = inv_root_s @ linalg.sqrtm(root_s @ sig_t @ root_s).real @ inv_root_s
            expected = a @ (x[0] - x[0].mean())
            np.testing.assert_allclose(dense_monge_oracle(p_src, p_tgt, x)[0],
                                       expected, rtol=0, atol=1e-12)

    def test_refuses_long_signals(self):
        with pytest.raises(TooLargeForDenseError):
            dense_monge_oracle(np.ones((1, 128)), np.ones((1, 128)), np.zeros((1, 128)))

    def test_requires_full_length_psd(self):
        with pytest.raises(ShapeMismatchError):
            dense_monge_oracle(np.ones((1, 4)), np.ones((1, 4)), np.zeros((1, 8)))
