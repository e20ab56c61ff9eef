"""Tests for the stateful normalization layers."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from psdnorm import (
    AsymmetricPsdError,
    BatchNormLayer,
    DomainSpec,
    EvalWithoutStatsError,
    NonFiniteInputError,
    NonPositivePsdError,
    ParameterOutOfRangeError,
    PsdNormLayer,
    ShapeMismatchError,
    WelchConfig,
    apply_mapping,
    batchnorm_forward,
    batchnorm_update,
    bures_distance,
    centered_psd,
    evaluate_alignment,
    geodesic_interpolate,
    instancenorm_forward,
    layernorm_forward,
    make_shifted_domains,
    monge_filter,
    psdnorm_forward,
    psdnorm_stack_forward,
    psdnorm_update,
    tma_fit,
    tma_transform,
    wasserstein_barycenter,
    welch_psd,
)
from psdnorm.io import dumps_json, load_state, save_state, state_to_dict
from psdnorm.monge import _taps
from psdnorm.spectral import BUDGET_BYTES

from conftest import peak_bytes


# A JSON integer beyond the float range.
HUGE = pytest.param(10 ** 400, id="10**400")


def f1_layer(**fields):
    return PsdNormLayer(filter_size=1, stride=1, window_kind="boxcar", **fields)


class TestPsdNormForward:
    def test_single_sample_fresh_layer_is_centering(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 64)) + 5.0
        out, layer = psdnorm_forward(PsdNormLayer(filter_size=8), x[np.newaxis])
        np.testing.assert_allclose(
            out[0], x - x.mean(axis=1, keepdims=True), atol=1e-10
        )
        assert layer.update_count == 1

    def test_instancenorm_special_case(self):
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((4, 3, 40)) * 2.0 + 1.0
        layer = f1_layer(barycenter=np.ones((3, 1)), update_count=1)
        out, _ = psdnorm_forward(layer, batch, "eval")
        ref = instancenorm_forward(batch, eps=0.0)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_outputs_are_centered(self):
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((3, 2, 64)) + 7.0
        out, _ = psdnorm_forward(PsdNormLayer(filter_size=4), batch)
        assert np.all(np.abs(out.mean(axis=2)) < 1e-10)

    def test_eval_is_pure_and_deterministic(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((2, 2, 64))
        _, layer = psdnorm_forward(PsdNormLayer(filter_size=4), batch)
        out1, layer1 = psdnorm_forward(layer, batch, "eval")
        out2, layer2 = psdnorm_forward(layer, batch, "eval")
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(layer1.barycenter, layer.barycenter)
        assert layer1.update_count == layer.update_count

    def test_update_is_one_geodesic_step_toward_the_batch_barycenter(self):
        psds = centered_psd(np.random.default_rng(40).standard_normal((3, 2, 64)),
                            WelchConfig(4))
        fresh = psdnorm_update(PsdNormLayer(filter_size=4), psds)
        np.testing.assert_array_equal(fresh.barycenter, wasserstein_barycenter(psds))
        start = PsdNormLayer(filter_size=4, momentum=0.3, barycenter=np.full((2, 4), 2.0),
                             update_count=1)
        stepped = psdnorm_update(start, psds, "train")
        np.testing.assert_array_equal(stepped.barycenter, geodesic_interpolate(
            start.barycenter, wasserstein_barycenter(psds), 0.3))
        assert (fresh.update_count, stepped.update_count) == (1, 2)
        assert psdnorm_update(start, psds, "eval") is start

    def test_eval_without_barycenter(self):
        with pytest.raises(EvalWithoutStatsError):
            psdnorm_forward(PsdNormLayer(filter_size=4), np.zeros((1, 1, 8)), "eval")

    def test_train_updates_once_per_call(self):
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((3, 1, 32))
        _, layer = psdnorm_forward(PsdNormLayer(filter_size=4), batch)
        assert layer.update_count == 1
        _, layer = psdnorm_forward(layer, batch)
        assert layer.update_count == 2

    def test_scale_equivariance_with_fixed_barycenter(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 64))
        target = np.full((2, 4), 1.7)
        layer = PsdNormLayer(filter_size=4, barycenter=target, update_count=1)
        out1, _ = psdnorm_forward(layer, x, "eval")
        out2, _ = psdnorm_forward(layer, 3.7 * x, "eval")
        np.testing.assert_allclose(out1, out2, atol=1e-8)

    def test_repeated_batches_converge_to_batch_barycenter(self):
        rng = np.random.default_rng(6)
        batch = rng.standard_normal((2, 1, 64))
        alpha = 0.1
        layer = PsdNormLayer(filter_size=4, momentum=alpha,
                             barycenter=np.full((1, 4), 0.9), update_count=1)
        n_steps = int(np.ceil(np.log(1e-6) / np.log(1 - alpha)))
        for _ in range(n_steps):
            _, layer = psdnorm_forward(layer, batch)
        # One extra train pass to measure the current batch barycenter.
        centered = batch - batch.mean(axis=2, keepdims=True)
        batch_bary = wasserstein_barycenter(
            [welch_psd(g, layer.welch) for g in centered]
        )
        assert bures_distance(layer.barycenter, batch_bary) < 1e-6

    def test_matches_inline_composition(self):
        rng = np.random.default_rng(15)
        batch = rng.standard_normal((3, 2, 64)) + 1.5
        start = np.full((2, 4), 2.0)
        layer = PsdNormLayer(filter_size=4, momentum=0.3, barycenter=start,
                             update_count=1)
        out, new = psdnorm_forward(layer, batch)
        means = batch.mean(axis=2, keepdims=True)
        psds = [welch_psd(g, layer.welch) for g in batch - means]
        target = geodesic_interpolate(start, wasserstein_barycenter(psds), 0.3)
        expected = [apply_mapping(g, monge_filter(p, target)) for g, p in zip(batch, psds)]
        np.testing.assert_array_equal(new.barycenter, target)
        np.testing.assert_array_equal(out, np.stack(expected))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batch_of_other_channel_count(self, mode):
        layer = PsdNormLayer(filter_size=4, barycenter=np.ones((3, 4)), update_count=1)
        batch = np.random.default_rng(16).standard_normal((2, 2, 32))
        with pytest.raises(ShapeMismatchError, match="batch has 2 channels, the layer has 3"):
            psdnorm_forward(layer, batch, mode)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_taps_are_synthesised_once_per_call(self, monkeypatch, mode):
        calls = []

        def counting(p_src, p_tgt):
            calls.append(np.shape(p_src))
            return _taps(p_src, p_tgt)

        monkeypatch.setattr("psdnorm.layers._taps", counting)
        batch = np.random.default_rng(17).standard_normal((8, 3, 64))
        layer = PsdNormLayer(filter_size=4, barycenter=np.ones((3, 4)), update_count=1)
        psdnorm_forward(layer, batch, mode)
        assert calls == [(8, 3, 4)]

    @pytest.mark.parametrize("momentum", [-0.1, 1.5, float("nan"), float("inf"),
                                          HUGE, "fast", "0.5", True])
    def test_momentum_out_of_range(self, momentum):
        with pytest.raises(ParameterOutOfRangeError):
            PsdNormLayer(momentum=momentum)

    @pytest.mark.parametrize("barycenter, update_count", [
        (None, 2),
        (np.ones((1, 4)), 0),
        (np.ones((1, 4)), -1),
    ])
    def test_update_count_must_match_barycenter(self, barycenter, update_count):
        with pytest.raises(ParameterOutOfRangeError):
            PsdNormLayer(filter_size=4, barycenter=barycenter,
                         update_count=update_count)

    @pytest.mark.parametrize("barycenter, error", [
        (np.ones(4), ShapeMismatchError),
        (np.ones((1, 3)), ShapeMismatchError),
        (np.array([[1.0, np.nan, 1.0, 1.0]]), NonFiniteInputError),
        (np.array([[1.0, np.inf, 1.0, 1.0]]), NonFiniteInputError),
        (np.array([[1.0, 0.0, 1.0, 1.0]]), NonPositivePsdError),
        (np.array([[1.0, 2.0, 5.0, 3.0]]), AsymmetricPsdError),
    ])
    def test_barycenter_must_be_a_positive_psd(self, barycenter, error):
        with pytest.raises(error):
            PsdNormLayer(filter_size=4, barycenter=barycenter, update_count=1)
        with pytest.raises(error):
            replace(PsdNormLayer(filter_size=4), barycenter=barycenter, update_count=1)

    def test_a_constant_signal_maps_with_no_overflow_warning(self):
        # its PSD is floored at the smallest normal float, under which a
        # barycenter bin above about 4 has a ratio past the float range: the
        # cap takes it, and the centred signal maps to zeros
        layer = PsdNormLayer(filter_size=4, barycenter=np.full((2, 4), 10.0), update_count=1)
        out, _ = psdnorm_forward(layer, np.full((1, 2, 64), 3.0), "eval")
        np.testing.assert_array_equal(out, 0.0)


#: A Welch config whose segments, of 8 samples 8 apart, read 80 samples.
BOXCAR = {"filter_size": 8, "stride": 8, "window_kind": "boxcar"}
BOXCAR_LAYER = PsdNormLayer(**BOXCAR, barycenter=np.ones((1, 8)), update_count=1)
CENTRING_ENTRY_POINTS = [
    pytest.param(lambda x: psdnorm_forward(PsdNormLayer(**BOXCAR), x), id="train"),
    pytest.param(lambda x: psdnorm_forward(BOXCAR_LAYER, x, "eval"), id="eval"),
    pytest.param(lambda x: psdnorm_stack_forward([8, 4], x), id="stack"),
    pytest.param(lambda x: tma_fit([x], WelchConfig(**BOXCAR)), id="tma_fit"),
    pytest.param(lambda x: tma_transform(BOXCAR_LAYER, x), id="tma_transform"),
    pytest.param(lambda x: centered_psd(x, WelchConfig(**BOXCAR)), id="centered_psd"),
]


@pytest.mark.parametrize("l, at, message", [(80, 0, "input power"),
                                            (83, 80, "input contains")],
                         ids=["read by a segment", "trailing"])
@pytest.mark.parametrize("call", CENTRING_ENTRY_POINTS)
def test_a_centred_copy_that_overflows_is_refused(call, l, at, message):
    # finite samples whose mean, -1e306, is finite too, but the largest float
    # less that mean is Inf: in a sample that a segment reads, its power is
    # refused, and past the last segment the sample itself
    x = np.full((1, l), -1e306)
    x[0, at:at + 3] = np.finfo(float).max, -0.9e308, -0.927e308
    with pytest.raises(NonFiniteInputError, match=f"^{message}"):
        call(x)


class TestBatchInvariance:
    """Row j of a batched call equals the call on signal j alone, bit for bit:
    chunks of rows, residue classes and blocks of segments never depend on N."""

    SHAPES = [pytest.param(3, 2, 3 * (BUDGET_BYTES // 8) // 2, 64, id="long"),
              pytest.param(40, 3, 300, 8, id="short"),
              pytest.param(5, 3, 2000, 128, id="short-rfft")]

    def test_shapes_reach_both_forms_of_each_kernel_and_both_filter_modes(self, kernel_spy):
        keys = {kernel_spy.observe(kernel, l, f).key for _, _, l, f in
                (param.values for param in self.SHAPES) for kernel in ("welch", "filter")}
        assert {key[1] for key in keys} == {"gram", "rfft", "toeplitz", "fft"}
        assert {key[2] for key in keys if key[0] == "filter"} == {"whole", "blocks"}

    @pytest.mark.parametrize("n, c, l, f", SHAPES)
    def test_rows_equal_single_calls(self, n, c, l, f):
        rng = np.random.default_rng(18)
        b = rng.standard_normal((n, c, l)) * rng.uniform(0.5, 2.0, (n, c, 1)) + 1.0
        cfg = WelchConfig(f)
        psds = centered_psd(b, cfg)
        target = wasserstein_barycenter(psds)
        h = monge_filter(psds, target)
        mapped = apply_mapping(b, h)
        layer = PsdNormLayer(filter_size=f, barycenter=target, update_count=1)
        out, _ = psdnorm_forward(layer, b, "eval")
        for j in range(n):
            np.testing.assert_array_equal(psds[j], centered_psd(b[j], cfg))
            np.testing.assert_array_equal(mapped[j], apply_mapping(b[j], h[j]))
            alone, _ = psdnorm_forward(layer, b[j:j + 1], "eval")
            np.testing.assert_array_equal(out[j], alone[0])


class TestStack:
    def test_custom_schedule_runs(self):
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((2, 2, 64))
        out, layers, snaps = psdnorm_stack_forward([5, 3, 2], batch)
        assert out.shape == batch.shape
        assert [l.filter_size for l in layers] == [5, 3, 2]
        assert [s.shape for s in snaps] == [(2, 5), (2, 3), (2, 2)]

    def test_f1_unit_barycenter_matches_instancenorm(self):
        rng = np.random.default_rng(8)
        batch = rng.standard_normal((3, 2, 32)) + 2.0
        layer = f1_layer(barycenter=np.ones((2, 1)), update_count=1)
        out, _, _ = psdnorm_stack_forward([1], batch, mode="eval", layers=[layer])
        np.testing.assert_allclose(out, instancenorm_forward(batch, eps=0.0), atol=1e-10)

    def test_fs_must_match_layer_sizes(self):
        batch = np.zeros((1, 1, 16))
        with pytest.raises(ParameterOutOfRangeError):
            psdnorm_stack_forward([8], batch, layers=[PsdNormLayer(filter_size=4)])

    def test_fs_must_match_layer_count(self):
        batch = np.zeros((1, 1, 16))
        with pytest.raises(ParameterOutOfRangeError):
            psdnorm_stack_forward([8, 4], batch, layers=[PsdNormLayer(filter_size=8)])

    def test_fresh_layers_take_the_layer_defaults(self):
        batch = np.random.default_rng(17).standard_normal((2, 1, 64))
        _, layers, _ = psdnorm_stack_forward([8, 4], batch)
        for f, layer in zip([8, 4], layers):
            assert layer.momentum == PsdNormLayer().momentum
            assert layer.welch == WelchConfig(f)
        with pytest.raises(TypeError):
            psdnorm_stack_forward([8], batch, momentum=0.9)

    def test_increasing_sizes_rejected(self):
        with pytest.raises(ParameterOutOfRangeError):
            psdnorm_stack_forward([4, 8], np.zeros((1, 1, 16)))

    def test_stage_distances_non_increasing_on_shifted_domains(self):
        from psdnorm import make_shifted_domains, sample_gaussian_with_psd

        domains = make_shifted_domains(
            np.ones((1, 8)), 2, 1.0, n_signals=4, length=2 ** 12, seed=0
        )
        batches = [sample_gaussian_with_psd(d) for d in domains]
        cfg = WelchConfig(8)

        def domain_distance(bs):
            psds = [
                np.mean([welch_psd(g - g.mean(axis=1, keepdims=True), cfg) for g in b], axis=0)
                for b in bs
            ]
            return bures_distance(psds[0], psds[1])

        d_prev = domain_distance(batches)
        combined = np.concatenate(batches)
        out, layers, _ = psdnorm_stack_forward([8, 4], combined)
        for layer in layers:
            batches = [
                psdnorm_forward(layer, b, "eval")[0] for b in batches
            ]
            d_next = domain_distance(batches)
            assert d_next <= d_prev + 1e-9
            d_prev = d_next


class TestTma:
    def test_aligner_is_an_eval_layer_with_the_first_train_update(self):
        rng = np.random.default_rng(18)
        domains = [rng.standard_normal((3, 2, 128)), rng.standard_normal((2, 2, 128))]
        cfg = WelchConfig(8, window_kind="boxcar")
        aligner = tma_fit(domains, cfg)
        assert isinstance(aligner, PsdNormLayer)
        assert (aligner.update_count, aligner.welch) == (1, cfg)
        _, trained = psdnorm_forward(PsdNormLayer(**asdict(cfg)),
                                     np.concatenate(domains))
        assert np.array_equal(aligner.barycenter, trained.barycenter)
        out, same = psdnorm_forward(aligner, domains[0], "eval")
        assert same.update_count == 1
        np.testing.assert_array_equal(
            out, np.stack([tma_transform(aligner, g) for g in domains[0]]))

    def test_state_equals_the_hand_built_layer(self, tmp_path):
        rng = np.random.default_rng(19)
        domains = [rng.standard_normal((3, 2, 256)) + 1.0,
                   rng.standard_normal((2, 2, 256)) * 3.0]
        cfg = WelchConfig(8)
        psds = np.concatenate([centered_psd(d, cfg) for d in domains])
        by_hand = PsdNormLayer(**asdict(cfg), barycenter=wasserstein_barycenter(psds),
                               update_count=1)
        save_state(tmp_path / "fit.json", tma_fit(domains, cfg))
        save_state(tmp_path / "by_hand.json", by_hand)
        assert ((tmp_path / "fit.json").read_bytes()
                == (tmp_path / "by_hand.json").read_bytes())

    def test_single_signal_corpus_is_centering(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 64)) + 1.0
        aligner = tma_fit([x[np.newaxis]], WelchConfig(8))
        out = tma_transform(aligner, x)
        np.testing.assert_allclose(out, x - x.mean(axis=1, keepdims=True), atol=1e-10)

    def test_two_corpora_scalar_formula(self):
        # c=1, f=1: PSDs are variances; signal from the first corpus is scaled
        # by sqrt(((sqrt(P) + sqrt(Q)) / 2)^2 / P).
        a, b = 2.0, 3.0
        xa = np.array([[a, -a]])
        xb = np.array([[b, -b]])
        cfg = WelchConfig(1, stride=1, window_kind="boxcar")
        aligner = tma_fit([xa[np.newaxis], xb[np.newaxis]], cfg)
        out = tma_transform(aligner, xa)
        scale = np.sqrt(((a + b) / 2) ** 2 / a ** 2)
        np.testing.assert_allclose(out, xa * scale, atol=1e-10)

    def test_matches_inline_composition(self):
        rng = np.random.default_rng(16)
        corpus = rng.standard_normal((4, 2, 128))
        cfg = WelchConfig(8)
        aligner = tma_fit([corpus[:2], corpus[2:]], cfg)
        x = rng.standard_normal((2, 128)) * 3.0 - 1.0
        p_src = welch_psd(x - x.mean(axis=1, keepdims=True), cfg)
        expected = apply_mapping(x, monge_filter(p_src, aligner.barycenter))
        np.testing.assert_array_equal(tma_transform(aligner, x), expected)

    def test_domains_of_other_channel_counts_refused_before_welch(self, monkeypatch):
        import psdnorm.layers

        monkeypatch.setattr(psdnorm.layers, "centered_psd", None)  # never called
        domains = [np.ones((2, 2, 64)), np.ones((2, 3, 64))]
        with pytest.raises(ShapeMismatchError,
                           match="domain 1 has 3 channels, domain 0 has 2"):
            tma_fit(domains, WelchConfig(8))

    def test_reduces_domain_distance(self):
        from psdnorm import make_shifted_domains, sample_gaussian_with_psd

        domains = make_shifted_domains(
            np.ones((1, 8)), 2, 1.0, n_signals=4, length=2 ** 12, seed=1
        )
        batches = [sample_gaussian_with_psd(d) for d in domains]
        cfg = WelchConfig(8)
        aligner = tma_fit(batches, cfg)

        def mean_psd(b):
            return np.mean(
                [welch_psd(g - g.mean(axis=1, keepdims=True), cfg) for g in b], axis=0
            )

        pre = bures_distance(mean_psd(batches[0]), mean_psd(batches[1]))
        mapped = [np.stack([tma_transform(aligner, g) for g in b]) for b in batches]
        post = bures_distance(mean_psd(mapped[0]), mean_psd(mapped[1]))
        assert post < pre


class TestInstanceNorm:
    def test_constant_channel_zeros(self):
        batch = np.full((2, 1, 8), 4.0)
        np.testing.assert_allclose(instancenorm_forward(batch, eps=1e-5), 0.0)

    def test_already_standardized(self):
        batch = np.array([[[1.0, -1.0]]])
        np.testing.assert_allclose(instancenorm_forward(batch, eps=0.0), batch, atol=1e-12)

    def test_moments(self):
        rng = np.random.default_rng(10)
        batch = rng.standard_normal((4, 3, 100)) * 3 + 1
        out = instancenorm_forward(batch, eps=0.0)
        assert np.all(np.abs(out.mean(axis=2)) < 1e-10)
        assert np.all(np.abs(out.var(axis=2) - 1.0) < 1e-6)

    @pytest.mark.parametrize("forward", [instancenorm_forward, layernorm_forward])
    def test_negative_eps_rejected(self, forward):
        with pytest.raises(ParameterOutOfRangeError):
            forward(np.ones((1, 1, 8)), eps=-1e-5)


class TestLayerNorm:
    def test_constant_sample_zeros(self):
        np.testing.assert_allclose(
            layernorm_forward(np.full((1, 2, 4), 3.0), eps=1e-5), 0.0
        )

    def test_pm_one_unchanged(self):
        batch = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
        np.testing.assert_allclose(layernorm_forward(batch, eps=0.0), batch, atol=1e-12)

    def test_moments(self):
        rng = np.random.default_rng(11)
        batch = rng.standard_normal((3, 2, 50)) * 2 - 1
        out = layernorm_forward(batch, eps=0.0)
        assert np.all(np.abs(out.mean(axis=(1, 2))) < 1e-10)
        assert np.all(np.abs(out.var(axis=(1, 2)) - 1.0) < 1e-6)


class TestBatchNorm:
    def test_pooled_mean_zero(self):
        rng = np.random.default_rng(12)
        batch = rng.standard_normal((4, 2, 32)) + 5.0
        out, _ = batchnorm_forward(BatchNormLayer(), batch)
        assert np.all(np.abs(out.mean(axis=(0, 2))) < 1e-10)

    def test_running_stats_recurrence(self):
        rng = np.random.default_rng(13)
        batch = rng.standard_normal((3, 2, 16)) + 2.0
        mu = batch.mean(axis=(0, 2))
        var = batch.var(axis=(0, 2))
        layer = BatchNormLayer(stat_momentum=0.1)
        _, layer = batchnorm_forward(layer, batch)
        _, layer = batchnorm_forward(layer, batch)
        # Scalar recomputation of the EMA from its (0, 1) start.
        exp_mean = 0.9 * (0.9 * 0.0 + 0.1 * mu) + 0.1 * mu
        exp_var = 0.9 * (0.9 * 1.0 + 0.1 * var) + 0.1 * var
        np.testing.assert_allclose(layer.running_mean, exp_mean, atol=1e-12)
        np.testing.assert_allclose(layer.running_var, exp_var, atol=1e-12)
        assert layer.num_batches_tracked == 2

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(14)
        batch = rng.standard_normal((3, 1, 16))
        _, layer = batchnorm_forward(BatchNormLayer(), batch)
        out, layer2 = batchnorm_forward(layer, batch * 100, "eval")
        expected = (batch * 100 - layer.running_mean[None, :, None]) / np.sqrt(
            layer.running_var[None, :, None] + layer.eps
        )
        np.testing.assert_allclose(out, expected, atol=1e-10)
        assert layer2.num_batches_tracked == 1

    def test_eval_without_stats(self):
        with pytest.raises(EvalWithoutStatsError):
            batchnorm_forward(BatchNormLayer(), np.zeros((1, 1, 8)), "eval")

    def test_train_needs_two_pooled_samples(self):
        # one sample of each of two channels: N * l = 1
        with pytest.raises(ParameterOutOfRangeError, match="at least 2 pooled samples"):
            batchnorm_update(BatchNormLayer(), np.ones((1, 2, 1)))

    def test_update_returns_the_statistics_the_forward_normalizes_with(self):
        batch = np.random.default_rng(42).standard_normal((3, 2, 16)) * 2.0 + 1.0
        mu, var, layer = batchnorm_update(BatchNormLayer(), batch)
        np.testing.assert_array_equal(mu, batch.mean(axis=(0, 2)))
        np.testing.assert_array_equal(var, batch.var(axis=(0, 2)))
        out, trained = batchnorm_forward(BatchNormLayer(), batch)
        assert dumps_json(state_to_dict(layer)) == dumps_json(state_to_dict(trained))
        np.testing.assert_array_equal(
            out, (batch - mu[:, None]) / np.sqrt(var[:, None] + layer.eps))
        r_mean, r_var, same = batchnorm_update(layer, batch, "eval")
        assert r_mean is layer.running_mean and r_var is layer.running_var
        assert same is layer

    @pytest.mark.parametrize("fields, error", [
        ({"running_mean": np.zeros(2)}, ShapeMismatchError),
        ({"running_var": np.ones(2)}, ShapeMismatchError),
        ({"running_mean": np.zeros((1, 2)), "running_var": np.ones((1, 2))},
         ShapeMismatchError),
        ({"running_mean": 0.0, "running_var": 1.0}, ShapeMismatchError),
        ({"running_mean": np.zeros(2), "running_var": np.ones(1)}, ShapeMismatchError),
        ({"running_mean": np.zeros(2), "running_var": np.array([-1.0, 1.0])},
         ParameterOutOfRangeError),
        ({"running_mean": np.array([np.nan, 0.0]), "running_var": np.ones(2)},
         NonFiniteInputError),
        ({"running_mean": np.zeros(2), "running_var": np.array([1.0, np.inf])},
         NonFiniteInputError),
        # Explicit ids keep each row's name when a row before it is removed.
        pytest.param({"num_batches_tracked": -1}, ParameterOutOfRangeError,
                     id="fields13-ParameterOutOfRangeError"),
        pytest.param({"eps": float("nan")}, ParameterOutOfRangeError,
                     id="fields14-ParameterOutOfRangeError"),
        pytest.param({"eps": float("inf")}, ParameterOutOfRangeError,
                     id="fields15-ParameterOutOfRangeError"),
        pytest.param({"eps": 10 ** 400}, ParameterOutOfRangeError,
                     id="fields16-eps 10**400"),
        pytest.param({"eps": 0.0}, ParameterOutOfRangeError,
                     id="fields17-ParameterOutOfRangeError"),
        pytest.param({"stat_momentum": float("nan")}, ParameterOutOfRangeError,
                     id="fields18-ParameterOutOfRangeError"),
        pytest.param({"stat_momentum": 10 ** 400}, ParameterOutOfRangeError,
                     id="fields19-stat_momentum 10**400"),
    ])
    def test_invalid_state_rejected(self, fields, error):
        with pytest.raises(error):
            BatchNormLayer(**fields)

    @pytest.mark.parametrize("mode", [pytest.param("train", id="train-fields1"),
                                      pytest.param("eval", id="eval-fields2")])
    def test_batch_of_other_channel_count(self, mode):
        layer = BatchNormLayer(running_mean=np.zeros(3), running_var=np.ones(3))
        with pytest.raises(ShapeMismatchError, match="batch has 2 channels, the layer has 3"):
            batchnorm_forward(layer, np.ones((2, 2, 8)), mode)


class TestAffinePeaks:
    """The standardizing forwards build their output in place: they peak at
    the output, with no second output-sized temporary."""

    BATCH = np.random.default_rng(43).standard_normal((64, 4, 1024)) + 1.0
    TRAINED = batchnorm_forward(BatchNormLayer(), BATCH)[1]

    @pytest.mark.parametrize("forward", [
        pytest.param(instancenorm_forward, id="instancenorm"),
        pytest.param(layernorm_forward, id="layernorm"),
        pytest.param(lambda b: batchnorm_forward(BatchNormLayer(), b)[0],
                     id="batchnorm train"),
        pytest.param(lambda b: batchnorm_forward(TestAffinePeaks.TRAINED, b, "eval")[0],
                     id="batchnorm eval"),
    ])
    def test_peak_is_within_the_output(self, forward):
        out = []
        peak = peak_bytes(lambda: out.append(forward(self.BATCH)))
        assert out[0].nbytes == 2 * 2 ** 20
        assert peak <= 1.1 * out[0].nbytes


class TestStackPeak:
    """Each forward filters the centred copy it makes in place, and each later
    layer of a stack centres and filters that copy, so the stack holds one
    batch: the output, plus Welch's and the filter's temporaries."""

    BATCH = TestAffinePeaks.BATCH
    FS = (16, 8, 4)
    LAYERS = psdnorm_stack_forward(FS, BATCH)[1]

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_peak_is_the_output_plus_four_budgets(self, mode):
        out = []
        peak = peak_bytes(lambda: out.append(
            psdnorm_stack_forward(self.FS, self.BATCH, mode, self.LAYERS)[0]))
        assert peak <= out[0].nbytes + 4 * BUDGET_BYTES


class TestOwnership:
    """Each layer setting has one owner: ``PsdNormLayer`` keeps its Welch
    settings as its own fields, and every layer array is a read-only copy."""

    def test_welch_is_built_from_the_layer_fields(self):
        layer = PsdNormLayer(filter_size=4, stride=1, window_kind="boxcar")
        assert layer.welch == WelchConfig(4, 1, "boxcar")
        assert list(asdict(PsdNormLayer())) == [
            "filter_size", "momentum", "stride", "window_kind", "barycenter",
            "update_count"]
        # Stride 0 resolves to its default, in the field and in welch alike.
        assert PsdNormLayer(filter_size=4).stride == PsdNormLayer().welch.stride == 2
        with pytest.raises(TypeError):
            PsdNormLayer(welch=WelchConfig(5))

    @pytest.mark.parametrize("settings", [
        {"filter_size": 4, "stride": 5},
        {"stride": -1},
        {"stride": 1.0},
        {"window_kind": "tukey"},
    ])
    def test_invalid_welch_fields_rejected(self, settings):
        with pytest.raises(ParameterOutOfRangeError):
            PsdNormLayer(**settings)

    def test_read_only_inputs_pass_through_unchanged(self):
        x = np.random.default_rng(44).standard_normal((3, 2, 300)) + 1.0
        x.flags.writeable = False
        before = x.tobytes()
        layer = psdnorm_forward(PsdNormLayer(filter_size=8), x)[1]
        psdnorm_forward(layer, x, "eval")
        psdnorm_stack_forward([8, 4], x)
        apply_mapping(x, np.ones((3, 2, 8)) / 8)
        tma_transform(layer, x[0])
        assert x.tobytes() == before

    def test_barycenter_is_a_read_only_copy(self):
        b = np.ones((2, 4))
        layer = PsdNormLayer(filter_size=4, barycenter=b, update_count=1)
        b[0, 1] = 5.0  # would make the barycenter asymmetric
        np.testing.assert_array_equal(layer.barycenter, np.ones((2, 4)))
        with pytest.raises(ValueError):
            layer.barycenter[0, 1] = 5.0
        batch = np.random.default_rng(40).standard_normal((2, 2, 64))
        psdnorm_forward(layer, batch, "eval")
        _, trained = psdnorm_forward(layer, batch)
        with pytest.raises(ValueError):
            trained.barycenter[0, 0] = 1.0

    def test_running_statistics_are_read_only_copies(self):
        m, v = np.zeros(2), np.ones(2)
        layer = BatchNormLayer(running_mean=m, running_var=v)
        m[0], v[0] = 3.0, -5.0
        np.testing.assert_array_equal(layer.running_mean, np.zeros(2))
        np.testing.assert_array_equal(layer.running_var, np.ones(2))
        _, trained = batchnorm_forward(layer, np.ones((2, 2, 8)))
        for held in (layer, trained):
            for name in ("running_mean", "running_var"):
                with pytest.raises(ValueError):
                    getattr(held, name)[0] = 1.0

    def test_layers_and_reports_compare_and_hash_by_identity(self):
        # Their array fields would make a field-by-field == ambiguous.
        report = evaluate_alignment(
            make_shifted_domains(np.ones((1, 4)), 2, 1.0, n_signals=2, length=64),
            "none", WelchConfig(4))
        for make in (
            lambda: PsdNormLayer(filter_size=4, barycenter=np.ones((2, 4)),
                                 update_count=1),
            lambda: BatchNormLayer(running_mean=np.zeros(2), running_var=np.ones(2)),
            lambda: replace(report),
        ):
            a, b = make(), make()
            assert a == a and a != b
            assert hash(a) == hash(a)
            assert {a, b, a} == {a, b} and a in {a} and b not in {a}

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_stack_snapshots_are_the_layers_barycenters(self, mode):
        batch = np.random.default_rng(41).standard_normal((3, 2, 64))
        _, layers, _ = psdnorm_stack_forward([4, 2], batch)
        _, layers, snapshots = psdnorm_stack_forward([4, 2], batch, mode, layers)
        for snapshot, layer in zip(snapshots, layers):
            assert snapshot is layer.barycenter
            with pytest.raises(ValueError):
                snapshot[0, 0] = 1.0


class TestModeIsAnArgument:
    """A layer holds only its state document; train or eval is chosen per call."""

    @staticmethod
    def layer_and_forward(kind, batch):
        if kind == "psdnorm":
            return psdnorm_forward(PsdNormLayer(filter_size=8), batch)[1], psdnorm_forward
        if kind == "tma":
            return tma_fit([batch[:2], batch[2:]], WelchConfig(8)), psdnorm_forward
        return batchnorm_forward(BatchNormLayer(), batch)[1], batchnorm_forward

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("kind", ["psdnorm", "tma", "batchnorm"])
    def test_saved_and_loaded_copy_behaves_the_same(self, tmp_path, kind, mode):
        rng = np.random.default_rng(22)
        layer, forward = self.layer_and_forward(kind, rng.standard_normal((4, 2, 128)))
        save_state(tmp_path / "state.json", layer)
        copy = load_state(tmp_path / "state.json")
        held_out = rng.standard_normal((3, 2, 128)) * 2.0 + 1.0
        out, after = forward(layer, held_out, mode)
        out_copy, after_copy = forward(copy, held_out, mode)
        assert out.tobytes() == out_copy.tobytes()
        assert dumps_json(state_to_dict(after)) == dumps_json(state_to_dict(after_copy))
        assert (after is layer) == (mode == "eval")

    def test_tma_transform_without_barycenter(self):
        x = np.random.default_rng(23).standard_normal((2, 64))
        with pytest.raises(EvalWithoutStatsError):
            tma_transform(PsdNormLayer(filter_size=8), x)

    @pytest.mark.parametrize("forward, layer", [
        (psdnorm_forward, PsdNormLayer(filter_size=4)),
        (batchnorm_forward, BatchNormLayer()),
    ])
    def test_unknown_mode_rejected(self, forward, layer):
        with pytest.raises(ParameterOutOfRangeError, match="mode must be one of"):
            forward(layer, np.ones((2, 1, 8)), mode="test")


class TestHyperparameters:
    """eps and the momenta must be finite numbers in range."""

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), HUGE])
    @pytest.mark.parametrize("forward", [instancenorm_forward, layernorm_forward])
    def test_standardize_eps(self, forward, eps):
        with pytest.raises(ParameterOutOfRangeError, match="eps must be a finite"):
            forward(np.ones((1, 1, 8)), eps=eps)

    @pytest.mark.parametrize("value", [np.int64(4), 4.5, 4.0, True, "4"],
                             ids=["numpy int", "4.5", "4.0", "bool", "str"])
    @pytest.mark.parametrize("build", [
        lambda v: WelchConfig(v).filter_size,
        lambda v: WelchConfig(8, stride=v).stride,
        lambda v: PsdNormLayer(filter_size=v).filter_size,
        lambda v: PsdNormLayer(filter_size=4, barycenter=np.ones((1, 4)),
                               update_count=v).update_count,
        lambda v: BatchNormLayer(num_batches_tracked=v).num_batches_tracked,
        lambda v: DomainSpec(np.ones((1, 4)), n_signals=v, length=16,
                             seed=0).n_signals,
        lambda v: DomainSpec(np.ones((1, 4)), n_signals=1, length=v, seed=0).length,
        lambda v: DomainSpec(np.ones((1, 4)), n_signals=1, length=16, seed=v).seed,
        lambda v: len(make_shifted_domains(np.ones((1, 4)), v, 1.0)),
        # Domain i's spec is seeded with seed * 100_003 + i.
        lambda v: make_shifted_domains(np.ones((1, 4)), 2, 1.0,
                                       seed=v)[0].seed // 100_003,
        lambda v: psdnorm_stack_forward([v], np.ones((1, 1, 16)))[1][0].filter_size,
    ], ids=["WelchConfig.filter_size", "WelchConfig.stride", "PsdNormLayer.filter_size",
            "PsdNormLayer.update_count", "BatchNormLayer.num_batches_tracked",
            "DomainSpec.n_signals", "DomainSpec.length", "DomainSpec.seed",
            "make_shifted_domains.k", "make_shifted_domains.seed", "stack fs"])
    def test_sizes_and_counts_are_integers(self, build, value):
        """Every size and count takes an int or numpy integer, stored as an int
        (so that state documents hold it as a JSON integer), and refuses a
        bool or a float."""
        if isinstance(value, np.integer):
            stored = build(value)
            assert (stored, type(stored)) == (4, int)
        else:
            with pytest.raises(ParameterOutOfRangeError, match="must be an integer"):
                build(value)

    @pytest.mark.parametrize("build", [
        lambda: DomainSpec(np.ones((1, 4)), n_signals=1, length=16, seed=-1),
        lambda: make_shifted_domains(np.ones((1, 4)), 2, 1.0, seed=-1),
    ], ids=["DomainSpec", "make_shifted_domains"])
    def test_negative_seed_refused(self, build):
        with pytest.raises(ParameterOutOfRangeError, match="seed must be an integer >= 0"):
            build()

    def test_numpy_integer_seed_samples_as_the_int(self):
        from psdnorm import sample_gaussian_with_psd

        def draw(seed):
            [spec] = make_shifted_domains(np.ones((2, 4)), 2, 1.0, n_signals=2,
                                          length=32, seed=seed)[1:]
            return sample_gaussian_with_psd(spec)

        np.testing.assert_array_equal(draw(np.int64(7)), draw(7))

    def test_integers_are_stored_as_floats(self):
        assert type(PsdNormLayer(momentum=1).momentum) is float
        layer = BatchNormLayer(eps=1, stat_momentum=0)
        assert (type(layer.eps), type(layer.stat_momentum)) == (float, float)
