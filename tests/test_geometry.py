"""Tests for barycenters, geodesics, running updates, and the distance."""

import math

import numpy as np
import pytest

from psdnorm import (
    EmptyInputError,
    NonFiniteInputError,
    NonPositivePsdError,
    ParameterOutOfRangeError,
    ShapeMismatchError,
    bures_distance,
    geodesic_interpolate,
    running_update,
    wasserstein_barycenter,
)


def scalar_barycenter(psds):
    """Entry-by-entry brute-force oracle."""
    shape = psds[0].shape
    out = np.zeros(shape)
    for i in range(shape[0]):
        for j in range(shape[1]):
            out[i, j] = (sum(math.sqrt(p[i, j]) for p in psds) / len(psds)) ** 2
    return out


class TestBarycenter:
    def test_idempotent(self):
        p = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(wasserstein_barycenter([p] * 5), p, rtol=1e-14)

    def test_scalar_example(self):
        out = wasserstein_barycenter([np.array([[1.0]]), np.array([[9.0]])])
        assert out == pytest.approx(np.array([[4.0]]))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        psds = [rng.uniform(0.1, 5.0, (3, 8)) for _ in range(5)]
        np.testing.assert_allclose(
            wasserstein_barycenter(psds), scalar_barycenter(psds), atol=1e-12
        )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        psds = [rng.uniform(0.1, 5.0, (2, 4)) for _ in range(4)]
        a = wasserstein_barycenter(psds)
        b = wasserstein_barycenter(psds[::-1])
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_entrywise_bounds(self):
        rng = np.random.default_rng(2)
        psds = [rng.uniform(0.1, 5.0, (2, 6)) for _ in range(6)]
        bary = wasserstein_barycenter(psds)
        stack = np.stack(psds)
        assert np.all(bary >= stack.min(axis=0) - 1e-12)
        assert np.all(bary <= stack.max(axis=0) + 1e-12)

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            wasserstein_barycenter([])
        with pytest.raises(ShapeMismatchError):
            wasserstein_barycenter([np.ones((1, 2)), np.ones((1, 3))])


class TestGeodesic:
    def test_endpoints(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.1, 5.0, (2, 4))
        q = rng.uniform(0.1, 5.0, (2, 4))
        np.testing.assert_allclose(geodesic_interpolate(p, q, 0.0), p, atol=1e-14)
        np.testing.assert_allclose(geodesic_interpolate(p, q, 1.0), q, atol=1e-14)

    def test_scalar_midpoint(self):
        out = geodesic_interpolate(np.array([[1.0]]), np.array([[9.0]]), 0.5)
        assert out == pytest.approx(np.array([[4.0]]))

    def test_two_step_composition(self):
        # geodesic(geodesic(p,q,a), q, b) == geodesic(p, q, a + b*(1-a))
        rng = np.random.default_rng(4)
        p = rng.uniform(0.1, 5.0, (2, 6))
        q = rng.uniform(0.1, 5.0, (2, 6))
        for a, b in rng.uniform(0.0, 1.0, (20, 2)):
            two_step = geodesic_interpolate(geodesic_interpolate(p, q, a), q, b)
            direct = geodesic_interpolate(p, q, a + b * (1 - a))
            np.testing.assert_allclose(two_step, direct, atol=1e-12)

    def test_entrywise_monotone(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.1, 5.0, (1, 8))
        q = rng.uniform(0.1, 5.0, (1, 8))
        ts = np.linspace(0, 1, 11)
        path = np.stack([geodesic_interpolate(p, q, t) for t in ts])
        diffs = np.diff(path, axis=0)
        sign = np.sign(q - p)
        assert np.all(diffs * sign >= -1e-12)

    def test_t_out_of_range(self):
        p = np.ones((1, 2))
        with pytest.raises(ParameterOutOfRangeError):
            geodesic_interpolate(p, p, 1.5)

    @pytest.mark.parametrize("t", [True, "0.5", None, float("nan")])
    def test_t_must_be_a_real_number(self, t):
        p = np.ones((1, 2))
        with pytest.raises(ParameterOutOfRangeError, match="t must be a finite number"):
            geodesic_interpolate(p, p, t)


class TestRunningUpdate:
    def test_lazy_init(self):
        b = np.array([[2.0, 3.0]])
        new = running_update(None, b, 0.01)
        np.testing.assert_array_equal(new, b)
        assert new is not b
        b[0, 0] = 7.0  # the adopted value is a copy
        assert new[0, 0] == 2.0

    def test_momentum_one_adopts_batch(self):
        value = running_update(None, np.array([[4.0]]), 1.0)
        new = running_update(value, np.array([[25.0]]), 1.0)
        np.testing.assert_allclose(new, [[25.0]], atol=1e-12)

    def test_default_momentum_step(self):
        value = running_update(None, np.array([[4.0]]), 0.01)
        new = running_update(value, np.array([[16.0]]), 0.01)
        assert new[0, 0] == pytest.approx((0.99 * 2 + 0.01 * 4) ** 2)
        assert new[0, 0] == pytest.approx(4.0804)
        assert value[0, 0] == 4.0  # input untouched

    def test_fixed_point(self):
        rng = np.random.default_rng(6)
        v = rng.uniform(0.1, 5.0, (2, 4))
        value = running_update(None, v, 0.05)
        new = running_update(value, v, 0.05)
        np.testing.assert_allclose(new, v, atol=1e-14)

    def test_shape_mismatch(self):
        value = running_update(None, np.ones((1, 2)), 0.01)
        with pytest.raises(ShapeMismatchError):
            running_update(value, np.ones((1, 3)), 0.01)


class TestBuresDistance:
    def test_identity(self):
        p = np.array([[1.0, 2.0]])
        assert bures_distance(p, p) == 0.0

    def test_scalar_example(self):
        assert bures_distance(np.array([[1.0]]), np.array([[9.0]])) == pytest.approx(2.0)

    def test_midpoint_is_metric_midpoint(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.uniform(0.1, 5.0, (2, 6))
            q = rng.uniform(0.1, 5.0, (2, 6))
            mid = geodesic_interpolate(p, q, 0.5)
            d = bures_distance(p, q)
            assert abs(bures_distance(p, mid) - d / 2) < 1e-12
            assert abs(bures_distance(mid, q) - d / 2) < 1e-12

    def test_metric_axioms(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p, q, r = rng.uniform(0.1, 5.0, (3, 2, 4))
            dpq = bures_distance(p, q)
            assert dpq >= 0
            assert abs(dpq - bures_distance(q, p)) < 1e-10
            assert dpq <= bures_distance(p, r) + bures_distance(r, q) + 1e-10


GOOD = np.array([[1.0, 2.0]])

# Each call puts the invalid PSD in one argument of one geometry function.
CALLS = {
    "bures_distance(bad, p)": lambda bad: bures_distance(bad, GOOD),
    "bures_distance(p, bad)": lambda bad: bures_distance(GOOD, bad),
    "wasserstein_barycenter": lambda bad: wasserstein_barycenter([GOOD, bad]),
    "geodesic_interpolate(bad, p)": lambda bad: geodesic_interpolate(bad, GOOD, 0.5),
    "geodesic_interpolate(p, bad)": lambda bad: geodesic_interpolate(GOOD, bad, 0.5),
    "running_update(None, bad)": lambda bad: running_update(None, bad, 0.1),
    "running_update(bad, p)": lambda bad: running_update(bad, GOOD, 0.1),
    "running_update(p, bad)": lambda bad: running_update(GOOD, bad, 0.1),
}


@pytest.mark.parametrize("bad, error", [
    ([[np.nan, 1.0]], NonFiniteInputError),
    ([[np.inf, 1.0]], NonFiniteInputError),
    ([[0.0, 1.0]], NonPositivePsdError),
    ([[-1.0, 1.0]], NonPositivePsdError),
], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("call", CALLS)
def test_invalid_psd_raises(call, bad, error):
    """A NaN, Inf or non-positive bin raises instead of returning NaN."""
    with pytest.raises(error):
        CALLS[call](np.array(bad))
