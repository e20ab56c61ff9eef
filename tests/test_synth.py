"""Tests for synthetic signal generation and the alignment benchmark."""

import sys
from dataclasses import replace

import numpy as np
import pytest

import psdnorm.synth
from psdnorm import (
    DomainSpec,
    LengthTooShortError,
    NonPositivePsdError,
    ParameterOutOfRangeError,
    ShapeMismatchError,
    WelchConfig,
    batchnorm_forward,
    bures_distance,
    centered_psd,
    evaluate_alignment,
    instancenorm_forward,
    layernorm_forward,
    make_shifted_domains,
    psdnorm_forward,
    sample_gaussian_with_psd,
    tma_fit,
    welch_psd,
)
from psdnorm.monge import _filter
from psdnorm.spectral import _welch_raw, floored, welch_psd_raw

from oracles import two_sided_gaussian_sample, uncached_evaluate_alignment


def flat_spec(c=1, f=8, n=2, length=2 ** 12, seed=0):
    return DomainSpec(psd=np.ones((c, f)), n_signals=n, length=length, seed=seed)


class TestSampling:
    def test_same_seed_bit_identical(self):
        a = sample_gaussian_with_psd(flat_spec(c=2, seed=7))
        b = sample_gaussian_with_psd(flat_spec(c=2, seed=7))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_gaussian_with_psd(flat_spec(seed=1))
        b = sample_gaussian_with_psd(flat_spec(seed=2))
        assert np.max(np.abs(a - b)) > 0.1

    def test_shape(self):
        out = sample_gaussian_with_psd(
            DomainSpec(np.ones((3, 4)), n_signals=5, length=256, seed=0)
        )
        assert out.shape == (5, 3, 256)

    def test_flat_psd_gives_white_noise(self):
        spec = DomainSpec(np.ones((1, 8)), n_signals=8, length=2 ** 14, seed=3)
        x = sample_gaussian_with_psd(spec)
        cfg = WelchConfig(8)
        psd = np.mean(
            [welch_psd(g - g.mean(axis=1, keepdims=True), cfg) for g in x], axis=0
        )
        np.testing.assert_allclose(psd, 1.0, atol=0.1)

    def test_recovers_prescribed_psd(self):
        f = 8
        target = np.exp(0.8 * np.cos(2 * np.pi * np.arange(f) / f))[None, :]
        spec = DomainSpec(target, n_signals=16, length=2 ** 14, seed=4)
        x = sample_gaussian_with_psd(spec)
        cfg = WelchConfig(f)
        psd = np.mean(
            [welch_psd(g - g.mean(axis=1, keepdims=True), cfg) for g in x], axis=0
        )
        np.testing.assert_allclose(psd / target, 1.0, atol=0.15)

    @pytest.mark.parametrize("length", [256, 255])
    @pytest.mark.parametrize("f", [1, 2, 3, 7, 8])
    def test_matches_two_sided_oracle(self, length, f):
        k = np.arange(f)
        psd = np.stack([np.exp(0.8 * np.cos(2 * np.pi * k / f)),
                        2.0 + np.cos(4 * np.pi * k / f)])
        spec = DomainSpec(psd, n_signals=3, length=length, seed=5)
        np.testing.assert_allclose(sample_gaussian_with_psd(spec),
                                   two_sided_gaussian_sample(spec), rtol=0,
                                   atol=1e-12)

    def test_domain_spec_validation(self):
        with pytest.raises(NonPositivePsdError):
            DomainSpec(np.zeros((1, 4)), n_signals=1, length=16, seed=0)
        with pytest.raises(ParameterOutOfRangeError):
            DomainSpec(np.ones((1, 4)), n_signals=0, length=16, seed=0)
        with pytest.raises(LengthTooShortError):
            DomainSpec(np.ones((1, 8)), n_signals=1, length=4, seed=0)


class TestDomainSample:
    def test_signals_equal_a_fresh_sample_and_are_read_only(self):
        spec = DomainSpec(np.ones((2, 4)), n_signals=3, length=64, seed=9)
        fresh = sample_gaussian_with_psd(spec)
        np.testing.assert_array_equal(spec.signals, fresh)
        assert spec.signals is spec.signals
        with pytest.raises(ValueError):
            spec.signals[0, 0, 0] = 1.0
        assert fresh.flags.writeable  # a direct call still draws a fresh array
        assert not np.shares_memory(fresh, spec.signals)

    def test_callers_psd_edit_changes_neither_psd_nor_sample(self):
        p = np.exp(np.cos(2 * np.pi * np.arange(4) / 4))[None, :]
        expected = DomainSpec(p.copy(), n_signals=2, length=64, seed=1).signals
        spec = DomainSpec(p, n_signals=2, length=64, seed=1)
        original = p.copy()
        p[0, 1] = -5.0
        np.testing.assert_array_equal(spec.psd, original)
        np.testing.assert_array_equal(spec.signals, expected)
        with pytest.raises(ValueError):
            spec.psd[0, 1] = -5.0

    def test_each_domain_is_drawn_once_for_every_method(self, monkeypatch):
        calls = []
        draw = psdnorm.synth.sample_gaussian_with_psd

        def spy(spec):
            calls.append(spec.seed)
            return draw(spec)

        monkeypatch.setattr(psdnorm.synth, "sample_gaussian_with_psd", spy)
        specs = make_shifted_domains(np.ones((1, 4)), 3, 1.0, n_signals=2,
                                     length=256, seed=2)
        for method in psdnorm.synth.METHODS:
            evaluate_alignment(specs, method)
        assert sorted(calls) == sorted(s.seed for s in specs)
        moved = replace(specs[0], seed=77)
        assert len(calls) == 3
        assert moved.signals.shape == specs[0].signals.shape
        assert calls[3:] == [77]

    def test_specs_compare_and_hash_by_identity(self):
        a = DomainSpec(np.ones((1, 4)), n_signals=1, length=16, seed=0)
        b = DomainSpec(np.ones((1, 4)), n_signals=1, length=16, seed=0)
        assert a == a and not a != a
        assert a != b and not a == b
        assert a in [b, a] and b not in [a]
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b}


def spy_calls(monkeypatch, *functions) -> list:
    """Record the name and arguments of each call of ``functions`` through
    any module of the package that binds them, so that no route around one
    import can hide a call.  Spied on, Welch's core ``_welch_raw`` counts
    every Welch estimate, raw or floored: ``welch_psd_raw`` and
    ``welch_psd`` make theirs through it too."""
    calls = []

    def recording(fn):
        def call(*args, **kwargs):
            calls.append((fn.__name__, args))
            return fn(*args, **kwargs)
        return call

    for name, module in list(sys.modules.items()):
        if name == "psdnorm" or name.startswith("psdnorm."):
            for attr, value in list(vars(module).items()):
                for fn in functions:
                    if value is fn:
                        monkeypatch.setattr(module, attr, recording(fn))
    return calls


class TestDomainPsds:
    CFG = WelchConfig(8, 3, "boxcar")

    def test_psds_equal_a_fresh_estimate_and_are_read_only(self):
        spec = flat_spec(c=2, n=3, length=256, seed=4)
        for cfg in (WelchConfig(8), self.CFG):
            p, raw = spec.centered_psds(cfg), spec.raw_centered_psds(cfg)
            np.testing.assert_array_equal(p, centered_psd(spec.signals, cfg))
            centred = spec.signals - spec.signals.mean(axis=-1, keepdims=True)
            np.testing.assert_array_equal(raw, welch_psd_raw(centred, cfg))
            np.testing.assert_array_equal(p, floored(raw))
            for a in (p, raw):
                with pytest.raises(ValueError):
                    a[0, 0, 0] = 1.0

    def test_estimated_once_per_config(self, monkeypatch):
        calls = spy_calls(monkeypatch, _welch_raw)
        spec = flat_spec(n=2, length=256, seed=5)
        a = spec.centered_psds(WelchConfig(8))
        assert spec.centered_psds(WelchConfig(8, 4)) is a  # equal configs
        raw = spec.raw_centered_psds(WelchConfig(8, 4))
        assert spec.raw_centered_psds(WelchConfig(8)) is raw
        b = spec.centered_psds(self.CFG)
        assert b is not a and not np.shares_memory(a, b)
        assert not np.shares_memory(a, raw)
        assert spec.centered_psds(self.CFG) is b
        assert [args[1] for _, args in calls] == [WelchConfig(8), self.CFG]

    def test_mapped_psds_are_welch_of_the_eval_forward_kept_per_target(self, monkeypatch):
        spec = flat_spec(c=2, n=3, length=256, seed=4)
        calls = spy_calls(monkeypatch, _filter)
        for cfg in (WelchConfig(8), self.CFG):
            layer = tma_fit([spec.signals], cfg)
            p = spec.raw_mapped_psds(cfg, layer.barycenter)
            out = psdnorm_forward(layer, spec.signals, "eval")[0]
            assert p.tobytes() == welch_psd_raw(out, cfg).tobytes()
            with pytest.raises(ValueError):
                p[0, 0, 0] = 1.0
            del calls[:]
            assert spec.raw_mapped_psds(cfg, layer.barycenter.copy()) is p  # an equal target
            assert calls == []
            other = spec.raw_mapped_psds(cfg, 2 * layer.barycenter)
            fresh = replace(spec).raw_mapped_psds(cfg, layer.barycenter)
            assert len(calls) == 2 and other is not p and fresh is not p
            assert fresh.tobytes() == p.tobytes()

    def test_mapped_psds_refuse_a_target_of_another_shape(self):
        # (4, 4) holds as many bytes as the (2, 8) target: on a fresh spec it
        # must not reach the filter's broadcast, nor after that target the cache
        spec, cfg = flat_spec(c=2, n=1, length=256), WelchConfig(8)
        message = r"target PSD shape \(4, 4\) is not the spec's .* \(2, 8\)"
        with pytest.raises(ShapeMismatchError, match=message):
            spec.raw_mapped_psds(cfg, np.ones((4, 4)))
        kept = spec.raw_mapped_psds(cfg, np.ones((2, 8)))
        with pytest.raises(ShapeMismatchError, match=message):
            spec.raw_mapped_psds(cfg, np.ones((4, 4)))
        assert spec.raw_mapped_psds(cfg, np.ones((2, 8))) is kept

    def test_replaced_spec_estimates_afresh(self, monkeypatch):
        spec = flat_spec(n=2, length=256, seed=6)
        p = spec.centered_psds(self.CFG)
        calls = spy_calls(monkeypatch, _welch_raw)
        copy = replace(spec)
        q = copy.centered_psds(self.CFG)
        assert [args[1] for _, args in calls] == [self.CFG]
        assert q is not p
        np.testing.assert_array_equal(q, p)


class TestShiftedDomains:
    def test_zero_shift_identical_domains(self):
        specs = make_shifted_domains(np.ones((1, 8)), 3, 0.0, seed=0)
        for s in specs[1:]:
            np.testing.assert_array_equal(s.psd, specs[0].psd)

    def test_deterministic(self):
        a = make_shifted_domains(np.ones((2, 8)), 3, 0.5, seed=5)
        b = make_shifted_domains(np.ones((2, 8)), 3, 0.5, seed=5)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.psd, sb.psd)
            assert sa.seed == sb.seed

    def test_psds_stay_symmetric_and_positive(self):
        specs = make_shifted_domains(np.ones((1, 8)), 4, 1.0, seed=6)
        for s in specs:
            assert np.all(s.psd > 0)
            np.testing.assert_allclose(s.psd[:, 1:], s.psd[:, :0:-1], atol=1e-12)

    def test_monotone_in_strength(self):
        base = np.ones((1, 8))

        def mean_dist(strength):
            specs = make_shifted_domains(base, 3, strength, seed=7)
            psds = [s.psd for s in specs]
            acc, n = 0.0, 0
            for i in range(3):
                for j in range(i + 1, 3):
                    acc += bures_distance(psds[i], psds[j])
                    n += 1
            return acc / n

        d = [mean_dist(s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert d[0] == 0.0
        assert d[0] < d[1] < d[2] < d[3]

    def test_validation(self):
        with pytest.raises(ParameterOutOfRangeError):
            make_shifted_domains(np.ones((1, 8)), 1, 1.0)
        with pytest.raises(ParameterOutOfRangeError):
            make_shifted_domains(np.ones((1, 8)), 2, -0.5)

    @pytest.mark.parametrize("strength", [np.nan, np.inf, "1.0"])
    def test_shift_strength_must_be_a_finite_number(self, strength):
        with pytest.raises(ParameterOutOfRangeError, match="shift_strength"):
            make_shifted_domains(np.ones((1, 8)), 2, strength)


#: The methods whose post PSDs ``evaluate_alignment`` takes in closed form.
AFFINE = ("instancenorm", "layernorm", "batchnorm")


def assert_matches_executed(rep, post, ratio):
    """A report's post distances and ratio equal those of the executed
    forwards within 1e-12 relative."""
    np.testing.assert_allclose(rep.post_distances, post, rtol=1e-12, atol=0)
    assert rep.reduction_ratio == pytest.approx(ratio, rel=1e-12, abs=0)


class TestEvaluateAlignment:
    def small_domains(self, seed=0, strength=1.0):
        return make_shifted_domains(
            np.ones((1, 8)), 2, strength, n_signals=4, length=2 ** 12, seed=seed
        )

    def test_report_structure(self):
        rep = evaluate_alignment(self.small_domains(), "none")
        assert rep.method == "none"
        assert rep.pre_distances.shape == (2, 2)
        np.testing.assert_array_equal(np.diag(rep.pre_distances), 0.0)
        np.testing.assert_allclose(rep.pre_distances, rep.pre_distances.T)

    def test_none_ratio_is_one(self):
        rep = evaluate_alignment(self.small_domains(), "none")
        assert rep.reduction_ratio == pytest.approx(1.0)
        np.testing.assert_array_equal(rep.pre_distances, rep.post_distances)

    def test_none_post_is_a_copy_of_pre(self):
        rep = evaluate_alignment(self.small_domains(), "none")
        np.testing.assert_array_equal(rep.post_distances, rep.pre_distances)
        assert not np.shares_memory(rep.post_distances, rep.pre_distances)

    @pytest.mark.parametrize("method", psdnorm.synth.METHODS)
    def test_reused_specs_report_as_fresh_ones(self, method):
        reused = self.small_domains(seed=14)
        for other in psdnorm.synth.METHODS:
            evaluate_alignment(reused, other)
        a = evaluate_alignment(reused, method)
        b = evaluate_alignment(self.small_domains(seed=14), method)
        np.testing.assert_array_equal(a.pre_distances, b.pre_distances)
        np.testing.assert_array_equal(a.post_distances, b.post_distances)
        assert a.reduction_ratio == b.reduction_ratio

    def test_reports_equal_the_uncached_oracle(self):
        # One spec list for both configs: the PSDs and mapped PSDs kept for
        # the first must not serve the second.  "none" gives the oracle's
        # bits; the closed forms of the other methods give their executed
        # forwards' post distances to roundoff.
        specs = make_shifted_domains(np.ones((2, 8)), 3, 1.0, n_signals=3,
                                     length=512, seed=15)
        for cfg in (None, WelchConfig(8, 3, "boxcar")):
            for method in psdnorm.synth.METHODS:
                rep = evaluate_alignment(specs, method, cfg)
                pre, post, ratio = uncached_evaluate_alignment(specs, method, cfg)
                np.testing.assert_array_equal(rep.pre_distances, pre)
                if method == "none":
                    np.testing.assert_array_equal(rep.post_distances, post)
                    assert rep.reduction_ratio == ratio
                else:
                    assert_matches_executed(rep, post, ratio)

    @pytest.mark.parametrize("method", AFFINE)
    def test_clamped_bins_match_the_executed_forward(self, method):
        # A channel at 1e-12 of the other sits under the floor of each
        # sample PSD, so the closed form must scale the raw PSDs, not the
        # floored ones, and floor after.
        specs = make_shifted_domains(np.array([[1.0] * 8, [1e-12] * 8]), 3, 1.0,
                                     n_signals=3, length=512, seed=17)
        for cfg in (None, WelchConfig(8, 3, "boxcar")):
            welch = cfg or WelchConfig(8)
            assert np.any(specs[0].centered_psds(welch)
                          != specs[0].raw_centered_psds(welch))  # clamped bins
            rep = evaluate_alignment(specs, method, cfg)
            _, post, ratio = uncached_evaluate_alignment(specs, method, cfg)
            assert_matches_executed(rep, post, ratio)

    def test_six_methods_estimate_each_domain_sample_once(self, monkeypatch):
        calls = spy_calls(monkeypatch, _welch_raw, _filter, psdnorm.apply_mapping)
        specs = make_shifted_domains(np.ones((1, 8)), 3, 1.0, n_signals=2,
                                     length=256, seed=16)
        filters = []
        for method in psdnorm.synth.METHODS:
            evaluate_alignment(specs, method)
            filters.append(sum(name == "_filter" for name, _ in calls))
        # tma filters each domain's sample, psdnorm reuses its PSDs
        assert filters == [0, 0, 0, 0, 3, 3]
        # 3 domain samples, then each domain's filtered copy
        assert [name for name, _ in calls] == (
            ["_welch_raw"] * 3 + ["_filter", "_welch_raw"] * 3)
        cfg = WelchConfig(8, 3, "boxcar")
        evaluate_alignment(specs, "psdnorm", cfg)
        evaluate_alignment(specs, "tma", cfg)
        # the filter takes rows already centred: no means
        assert [(name, args[1]) for name, args in calls[9:]] == (
            [("_welch_raw", cfg)] * 3 + [("_filter", None), ("_welch_raw", cfg)] * 3)
        psdnorm.apply_mapping(specs[0].signals, np.ones((2, 1, 8)))  # the spy is live
        assert [name for name, _ in calls[-2:]] == ["apply_mapping", "_filter"]

    def test_affine_baselines_run_no_forward(self, monkeypatch):
        calls = spy_calls(monkeypatch, instancenorm_forward, layernorm_forward,
                          batchnorm_forward)
        domains = self.small_domains()
        for method in psdnorm.synth.METHODS:
            evaluate_alignment(domains, method)
        assert calls == []
        psdnorm.layernorm_forward(domains[0].signals)  # the spy is live
        assert [name for name, _ in calls] == ["layernorm_forward"]

    def test_degenerate_pre_gives_ratio_one(self):
        rep = evaluate_alignment(self.small_domains(strength=0.0), "none")
        assert rep.reduction_ratio == 1.0

    def test_psdnorm_beats_instancenorm(self):
        domains = self.small_domains(seed=11)
        r_psd = evaluate_alignment(domains, "psdnorm").reduction_ratio
        r_inst = evaluate_alignment(domains, "instancenorm").reduction_ratio
        assert r_psd < r_inst

    def test_all_methods_run(self):
        domains = self.small_domains(seed=12)
        for method in ("none", "instancenorm", "batchnorm", "layernorm", "tma",
                       "psdnorm"):
            rep = evaluate_alignment(domains, method)
            assert np.isfinite(rep.reduction_ratio)

    def test_repeatable(self):
        domains = self.small_domains(seed=13)
        a = evaluate_alignment(domains, "psdnorm")
        b = evaluate_alignment(domains, "psdnorm")
        np.testing.assert_array_equal(a.post_distances, b.post_distances)
        assert a.reduction_ratio == b.reduction_ratio

    def test_validation(self):
        domains = self.small_domains()
        with pytest.raises(ParameterOutOfRangeError):
            evaluate_alignment(domains, "zscore")
        with pytest.raises(ParameterOutOfRangeError):
            evaluate_alignment(domains[:1], "none")
        with pytest.raises(ShapeMismatchError, match="share PSD shape"):
            evaluate_alignment([flat_spec(c=1), flat_spec(c=2)], "none")
