"""Property-based differential tests of ``welch_psd_raw`` and ``apply_mapping``,
whose docstrings alone state the rules by which they choose a form: ``edges``
finds with the kernel spy where each form and mode begins, both sides and a row
of several blocks meet the oracles, and so do hypothesis draws.  The one pin is
perfbench's traffic.  Then the benchmark's post-mapping PSDs,
``DomainSpec.raw_mapped_psds``, against Welch of the whole-signal mapping, and
what they hold in memory."""

import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from psdnorm import (
    DomainSpec,
    NonFiniteInputError,
    PsdNormLayer,
    WelchConfig,
    apply_mapping,
    centered_psd,
    monge_filter,
    psdnorm_forward,
    psdnorm_stack_forward,
    psdnorm_update,
    welch_psd,
)
from psdnorm import layers
from psdnorm.monge import RATIO_CAP, _filter, _taps
from psdnorm.spectral import BUDGET_BYTES, _centre, check_psd, welch_psd_raw

from conftest import FORMS, LAYOUTS, KernelSpy
from oracles import DENSE_MAX_LEN, dense_monge_oracle, rfft_welch_raw, whole_signal_mapping

try:
    from scipy import signal
except ImportError:
    signal = None
try:
    from hypothesis import HealthCheck, event, given, settings
    from hypothesis import strategies as st
except ImportError:  # the draws need the test extra; the edges and the pin do not
    given = None

#: Filter sizes, chosen with no regard to either rule.
SIZES = [*range(1, 131), 257, 1000, 5001]
#: (kernel, f, stride) scans: every Welch stride to f = 8, then the default, f and, at three f, 1.
SCANS = [*(("filter", f, 0) for f in SIZES),
         *(("welch", f, s) for f in SIZES for s in range(1, f + 1)
           if f <= 8 or s in (f // 2, f) or s == 1 and f in (64, 128, 257))]


@functools.cache
def edges(kernel, f, stride):
    """{l: (key at l - 1, key at l)} where the key of a dry call changes, for
    l from f to two budgets past it: bisection between the points of a
    geometric scan, blind only to a return to a form within one step."""
    with pytest.MonkeyPatch.context() as mp:
        spy = KernelSpy(mp)
        look = functools.cache(lambda l: spy.observe(kernel, l, f, stride).key)
        top, found = 2 * (BUDGET_BYTES // 8 + f), {}
        assert look(top) == look(2 * top)  # no edge past the scan

        def bisect(a, b):
            if look(a) != look(b):
                if b == a + 1:
                    found[b] = look(a), look(b)
                else:
                    bisect(a, (a + b) // 2)
                    bisect((a + b) // 2, b)

        points = sorted({f, top, *np.geomspace(f, top, 24).astype(int).tolist()})
        for a, b in zip(points, points[1:]):
            bisect(a, b)
    return found


def close(p, ref, floor=0.0):
    """p within 1e-12 of each bin of ref, plus ``floor`` times its row's peak."""
    assert np.all(np.abs(p - ref) <= 1e-12 * ref + floor * ref.max(axis=-1, keepdims=True))


def filtered_in_place(x, h):
    """x's rows filtered as the forward filters them: centred in a C-ordered
    copy, which the filter then overwrites."""
    rows = _centre(x.reshape(-1, x.shape[-1]).copy())
    _filter(rows, None, h.reshape(len(rows), -1), rows)
    return rows.reshape(x.shape)


def check(spy, x, how):
    """Checks an (N, c, l) batch's ``welch_psd_raw`` (``how`` a config),
    mirrored exactly and ``close`` to the rfft Welch and scipy's, or its
    ``apply_mapping`` (``how`` the taps), within 1e-12 of x's largest sample of
    the whole-signal mapping and bit for bit the in-place filter's; rows
    alone keep their bits, whatever x's memory layout.  Returns the key of a
    dry call on one row, which takes the same form."""
    welch = isinstance(how, WelchConfig)
    name = "welch" if welch else "filter"
    kernel = (lambda y, i=None: welch_psd_raw(y, how)) if welch else (
        lambda y, i=slice(None): apply_mapping(y, how[i]))
    out, calls = spy.run(kernel, x)
    if welch:
        f, stride = how.filter_size, how.stride
        assert np.array_equal(out, out[..., -np.arange(f) % f])
        close(out, np.stack([rfft_welch_raw(xj, how) for xj in x]))
        if signal is not None:  # its FFT rounds a bin far below the peak in its own way
            close(out, signal.welch(x, window=how.window_kind, nperseg=f, detrend=False,
                                    noverlap=f - stride, return_onesided=False)[1], 1e-14)
    else:
        f, stride = how.shape[-1], 0
        ref = np.stack([whole_signal_mapping(xj, hj) for xj, hj in zip(x, how)])
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(x))
        assert filtered_in_place(x, how).tobytes() == out.tobytes()
    for j in range(len(x)):
        np.testing.assert_array_equal(kernel(x[j], j), out[j])
        for k in range(x.shape[1]):
            np.testing.assert_array_equal(kernel(x[j, k], (j, k))[0], out[j, k])
    key = spy.observe(name, x.shape[-1], f, stride).key
    assert calls[name].form == key[1]
    return key


@pytest.mark.parametrize("kernel, f, stride", SCANS)
def test_l_equal_f_several_blocks_and_both_sides_of_each_edge_meet_the_oracles(
        kernel_spy, kernel, f, stride):
    found, rng = edges(kernel, f, stride), np.random.default_rng(f)
    # and one channel of several blocks: three times the shortest row read in blocks, plus one
    several = [3 * l + 1 for l, (_, above) in found.items() if above[2] == "blocks"][:1]
    for l in sorted({f, *several, *(l - side for l in found for side in (0, 1))}):
        x = rng.standard_normal((1, 1 if l in several else 2, l)) + 2.0
        how = (WelchConfig(f, stride) if kernel == "welch"
               else rng.standard_normal(x.shape[:2] + (f,)) / np.sqrt(f))
        check(kernel_spy, x, how)


def test_edges_reach_every_form():
    assert {key for scan in SCANS for pair in edges(*scan).values() for key in pair} == FORMS


#: Perfbench's workload shapes and the blocks each row is filtered in.
TRAFFIC = [((64, 4, 1024), 16, 1), ((64, 4, 1024), 8, 1), ((64, 4, 1024), 4, 1),
           ((1, 2, 2 ** 19), 64, 65), ((4, 2, 2 ** 14), 64, 3), ((8, 2, 4096), 8, 1)]


@pytest.mark.parametrize("shape, f, blocks", TRAFFIC)
def test_perfbench_shapes_take_gram_welch_and_toeplitz_filters(kernel_spy, shape, f, blocks):
    welch, filtered = (kernel_spy.observe(k, shape[-1], f) for k in ("welch", "filter"))
    assert (welch.key, filtered.form, filtered.reads) == (("welch", "gram", "whole"),
                                                         "toeplitz", blocks)


@pytest.mark.parametrize("how", [np.ones((3, 2, 8)), WelchConfig(1)], ids=["filter", "welch"])
def test_fortran_ordered_rows_keep_their_bits_alone(kernel_spy, how):
    x = np.asfortranarray(np.random.default_rng(41).standard_normal((3, 2, 1000)))
    check(kernel_spy, x, how)


def draws(strategies, examples=100, spied=True):
    """``given(**strategies(st))`` with ``examples`` examples, or a skip.  A
    ``spied`` test's kernel_spy holds nothing from one example to the next."""
    if given is None:
        return pytest.mark.skip(reason="hypothesis is not installed")
    checks = [HealthCheck.function_scoped_fixture] if spied else []
    return lambda test: settings(max_examples=examples, suppress_health_check=checks)(
        given(**strategies(st))(test))


def batches(st, **more):
    """(N, c), f and samples past it (log-uniform), a seed, a layout and ``more``."""
    return {"n": st.integers(1, 4), "c": st.integers(1, 3),
            "f": st.integers(0, 10).flatmap(lambda e: st.integers(2 ** e >> 1 or 1, 2 ** e)),
            "extra": st.integers(0, 15).flatmap(lambda e: st.integers(2 ** e >> 1, 2 ** e)),
            "seed": st.integers(0, 2 ** 32 - 1), "layout": st.sampled_from(sorted(LAYOUTS)),
            **more}


@draws(lambda st: batches(st, shift=st.integers(-2 ** 20, 2 ** 20),
                          a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3)))
def test_filter_draws_match_the_oracle_and_are_equivariant_and_linear(
        kernel_spy, n, c, f, extra, seed, layout, shift, a, b):
    rng = np.random.default_rng(seed)
    x, z = (LAYOUTS[layout](rng.standard_normal((n, c, f + extra)) + 2.0) for _ in "xz")
    h = rng.standard_normal((n, c, f)) / np.sqrt(f)
    event(" ".join(check(kernel_spy, x, h)))
    y, tol = apply_mapping(x, h), 1e-12 * (np.max(np.abs(x)) + np.max(np.abs(z)))
    np.testing.assert_allclose(apply_mapping(np.roll(x, shift, -1), h),
                               np.roll(y, shift, -1), rtol=0, atol=tol)
    np.testing.assert_allclose(apply_mapping(a * x + b * z, h), a * y + b * apply_mapping(z, h),
                               rtol=0, atol=tol * (1 + abs(a) + abs(b)))
    np.testing.assert_allclose(apply_mapping(x, np.broadcast_to(np.eye(1, f)[0], h.shape)),
                               x - x.mean(axis=-1, keepdims=True), rtol=0, atol=tol)


@draws(lambda st: batches(st, stride=st.integers(0, 1024), a=st.floats(1e-3, 1e3),
                          window=st.sampled_from(("hann", "boxcar"))))
def test_welch_draws_match_the_oracles_and_scale_by_a_squared(
        kernel_spy, n, c, f, extra, seed, layout, stride, window, a):
    x = LAYOUTS[layout](np.random.default_rng(seed).standard_normal((n, c, f + extra)))
    cfg = WelchConfig(f, stride and 1 + (stride - 1) % f, window)  # 0: the default
    event(" ".join(check(kernel_spy, x, cfg)))
    close(welch_psd_raw(a * x, cfg), a * a * welch_psd_raw(x, cfg))


@draws(lambda st: {"c": st.integers(1, 3), "f": st.integers(1, DENSE_MAX_LEN),
                   "seed": st.integers(0, 2 ** 32 - 1)}, examples=30, spied=False)
def test_monge_filters_are_deltas_and_at_f_equal_l_the_dense_map(c, f, seed):
    half = 10.0 ** np.random.default_rng(seed).uniform(-6, 6, (3, c, f // 2 + 1))
    p, p_src, p_tgt = np.concatenate([half, half[..., (f - 1) // 2:0:-1]], axis=-1)
    np.testing.assert_allclose(monge_filter(p, p), np.eye(1, f).repeat(c, 0), rtol=0, atol=1e-15)
    p_src, p_tgt = p_src ** 0.05, p_tgt ** 0.05  # within a factor 2 of 1: well conditioned
    x = np.random.default_rng(seed + 1).standard_normal((c, f)) + 2.0
    out = apply_mapping(x, monge_filter(p_src, p_tgt))
    assert np.max(np.abs(out - dense_monge_oracle(p_src, p_tgt, x))) <= 1e-6 * np.max(np.abs(x))


@draws(lambda st: {"f": st.integers(1, 32), "a": st.floats(1e-100, 1e100),
                   "seed": st.integers(0, 2 ** 32 - 1)}, examples=30, spied=False)
def test_train_forwards_are_scale_equivariant(f, a, seed):
    # the PSD floor scales with each PSD's largest bin, so a signal stored in
    # volts is normalized as the same signal in microvolts
    x = np.cumsum(np.random.default_rng(seed).standard_normal((4, 2, 256)), axis=-1)
    layer = PsdNormLayer(filter_size=f)
    y, scaled = psdnorm_forward(layer, x)[0], psdnorm_forward(layer, a * x)[0]
    assert np.max(np.abs(scaled / a - y)) <= 1e-12 * np.max(np.abs(y))


def walks(seed, shape=(4, 2, 256)):
    return np.cumsum(np.random.default_rng(seed).standard_normal(shape), axis=-1)


@pytest.mark.parametrize("layout", sorted(set(LAYOUTS) - {"C"}))
@pytest.mark.parametrize("shape, f", [((8, 2, 4096), 8), ((3, 2, 1000), 5)])
def test_forwards_and_centred_psds_keep_the_c_batch_bits_in_any_layout(shape, f, layout):
    # rows of another layout than C's have their means summed from copies,
    # a chunk of signals at a time (one signal of (8, 2, 4096) fills a chunk)
    b = walks(43, shape) + 3.0
    x = LAYOUTS[layout](b)
    (y, trained), (z, same) = (psdnorm_forward(PsdNormLayer(filter_size=f), a) for a in (b, x))
    assert z.tobytes() == y.tobytes() and same.barycenter.tobytes() == trained.barycenter.tobytes()
    assert psdnorm_forward(trained, x, "eval")[0].tobytes() == \
        psdnorm_forward(trained, b, "eval")[0].tobytes()
    assert centered_psd(x, trained.welch).tobytes() == centered_psd(b, trained.welch).tobytes()


@draws(lambda st: {"f": st.integers(1, 32), "a": st.floats(1e-100, 1e100),
                   "seed": st.integers(0, 2 ** 32 - 1)}, examples=30, spied=False)
def test_eval_forwards_are_scale_equivariant_until_a_ratio_is_capped(f, a, seed):
    # a batch and a barycenter scaled by a and a^2 map to the output scaled
    # by a; the batch alone maps to the same output, as the target is fixed,
    # until some bin's ratio of the barycenter to its PSD reaches RATIO_CAP
    x = walks(seed)
    layer = psdnorm_forward(PsdNormLayer(filter_size=f), x)[1]
    y = psdnorm_forward(layer, x, "eval")[0]
    tol = 1e-12 * np.max(np.abs(y))
    both = replace(layer, barycenter=a * a * layer.barycenter)
    assert np.max(np.abs(psdnorm_forward(both, a * x, "eval")[0] / a - y)) <= tol
    capped = np.max(layer.barycenter / centered_psd(a * x, layer.welch)) >= RATIO_CAP
    event("capped" if capped else "uncapped")
    if not capped:
        assert np.max(np.abs(psdnorm_forward(layer, a * x, "eval")[0] - y)) <= tol


@draws(lambda st: {"f": st.integers(1, 32), "seed": st.integers(0, 2 ** 32 - 1),
                   "order": st.permutations(range(4))}, examples=30, spied=False)
def test_channel_permutations_keep_every_bit(f, seed, order):
    # channels share no arithmetic: not in Welch, the barycenter or the filter
    x, order = walks(seed, (3, 4, 200)), list(order)
    pair = [PsdNormLayer(filter_size=f)] * 2  # fed x and x with permuted channels
    for _ in range(2):  # a fresh layer's step, then a running update
        (y, pair[0]), (z, pair[1]) = (psdnorm_forward(pair[0], x),
                                      psdnorm_forward(pair[1], x[:, order]))
        assert y[:, order].tobytes() == z.tobytes()
        assert pair[0].barycenter[order].tobytes() == pair[1].barycenter.tobytes()
    y, z = (psdnorm_forward(layer, b, "eval")[0] for layer, b in zip(pair, (x, x[:, order])))
    assert y[:, order].tobytes() == z.tobytes()


@draws(lambda st: {"f": st.integers(1, 32), "seed": st.integers(0, 2 ** 32 - 1),
                   "order": st.permutations(range(6))}, examples=30, spied=False)
def test_batch_permutations_stay_within_a_few_ulps(f, seed, order):
    # only the barycenter's mean over the batch depends on its order; an eval
    # forward reads none, so it keeps every bit
    x, order = walks(seed, (6, 2, 200)), list(order)
    (y, layer), (z, permuted) = (psdnorm_forward(PsdNormLayer(filter_size=f), b)
                                 for b in (x, x[order]))
    ulp = np.finfo(float).eps
    assert np.max(np.abs(permuted.barycenter - layer.barycenter)
                  / layer.barycenter) <= 8 * ulp
    assert np.max(np.abs(z - y[order])) <= 8 * ulp * np.max(np.abs(y))
    assert (psdnorm_forward(layer, x[order], "eval")[0].tobytes()
            == psdnorm_forward(layer, x, "eval")[0][order].tobytes())


def trusting_forwards(monkeypatch):
    """Replaces ``layers._taps`` with one that checks what the forward hands it:
    every batch of source PSDs, as (N * c, f) rows, and the target, a running
    barycenter, must pass ``check_psd``.  Returns the list of the source
    shapes it is handed, one per call."""
    calls = []

    def checked(p_src, p_tgt):
        check_psd(p_src.reshape(-1, p_tgt.shape[1]), "source PSD")
        check_psd(p_tgt, "target PSD")
        calls.append(p_src.shape)
        return _taps(p_src, p_tgt)

    monkeypatch.setattr(layers, "_taps", checked)
    return calls


@draws(lambda st: {"n": st.integers(1, 3), "c": st.integers(1, 3),
                   "f": st.integers(1, 16), "extra": st.integers(0, 8),
                   "log_a": st.floats(-100, 100), "constant": st.integers(0, 3),
                   "seed": st.integers(0, 2 ** 32 - 1)}, examples=100)
def test_the_taps_core_and_the_running_barycenters_get_valid_psds(
        monkeypatch, n, c, f, extra, log_a, constant, seed):
    # rows of about f samples at scales 1e-100 to 1e100, some of them constant
    # (an all-zero PSD, floored), through a layer and a stack of f, f//2
    calls = trusting_forwards(monkeypatch)
    x = 10.0 ** log_a * np.random.default_rng(seed).standard_normal((n, c, f + extra))
    x.reshape(-1, x.shape[-1])[:constant] = 10.0 ** log_a
    layer, fs = PsdNormLayer(filter_size=f), [f, max(1, f // 2)]
    stack = None
    for mode in ("train", "train", "eval"):
        layer = psdnorm_forward(layer, x, mode)[1]
        stack = psdnorm_stack_forward(fs, x, mode, stack)[1]
        for bary in [layer.barycenter, *(s.barycenter for s in stack)]:
            check_psd(bary, "running barycenter")
    assert len(calls) == 9


@draws(lambda st: {"n": st.integers(1, 3), "c": st.integers(1, 3),
                   "f": st.integers(1, 16), "extra": st.integers(0, 64),
                   "log_a": st.floats(-100, 100), "constant": st.integers(0, 3),
                   "seed": st.integers(0, 2 ** 32 - 1)}, spied=False)
def test_forwards_equal_the_checked_public_path_bit_for_bit(
        n, c, f, extra, log_a, constant, seed):
    x = 10.0 ** log_a * np.random.default_rng(seed).standard_normal((n, c, f + extra))
    x.reshape(-1, x.shape[-1])[:constant] = 10.0 ** log_a
    layer = PsdNormLayer(filter_size=f)
    for mode in ("train", "train", "eval"):
        psds = welch_psd(x - x.mean(axis=-1, keepdims=True), layer.welch)
        stepped = psdnorm_update(layer, psds, mode)
        expected = apply_mapping(x, monge_filter(psds, stepped.barycenter))
        out, layer = psdnorm_forward(layer, x, mode)
        assert out.tobytes() == expected.tobytes()
        assert layer.barycenter.tobytes() == stepped.barycenter.tobytes()



def mirror(half, f):
    """The (c, f) PSD whose bins 0..f//2 are half's columns, mirrored onto
    bins f//2 + 1..f - 1 so that ``check_psd`` takes it exactly."""
    return np.concatenate([half, half[:, (f - 1) // 2:0:-1]], axis=1)


def random_psd(rng, c, f):
    """A (c, f) PSD with log-uniform bins over one decade."""
    return mirror(10.0 ** rng.uniform(-0.5, 0.5, (c, f // 2 + 1)), f)


def mapped_psds(spec, target, cfg):
    """``spec.raw_mapped_psds``, and the rfft Welch of each of the sample's
    signals mapped whole, circularly, by the eval forward's taps."""
    h = monge_filter(centered_psd(spec.signals, cfg), target)
    ref = np.stack([rfft_welch_raw(whole_signal_mapping(xj, hj), cfg)
                    for xj, hj in zip(spec.signals, h)])
    return spec.raw_mapped_psds(cfg, target), ref


@draws(lambda st: {"n": st.integers(1, 3), "c": st.integers(1, 3),
                   "f": st.integers(1, 24).flatmap(lambda f: st.tuples(
                       st.just(f), st.integers(1, f))),
                   "extra": st.integers(0, 11).flatmap(lambda e: st.integers(2 ** e >> 1, 2 ** e)),
                   "seed": st.integers(0, 2 ** 32 - 1),
                   "window": st.sampled_from(("hann", "boxcar"))}, spied=False)
def test_mapped_psds_match_welch_of_the_mapped_signal(n, c, f, extra, seed, window):
    # every stride 1..f, odd f, l = f and trailing samples; a bin far below its
    # row's peak (boxcar's bin 0 at l = f is zero but for rounding) is held to
    # 1e-14 of the peak, as scipy is
    (f, stride), rng = f, np.random.default_rng(seed)
    spec = DomainSpec(random_psd(rng, c, f), n, f + extra, seed)
    close(*mapped_psds(spec, random_psd(rng, c, f), WelchConfig(f, stride, window)), 1e-14)


@pytest.mark.parametrize("f, stride", [(1, 1), (4, 2), (5, 5), (8, 3), (16, 8), (31, 7)])
def test_mapped_psds_read_the_samples_that_wrap_around_each_end(f, stride):
    # l = 3 f + 2: the last segments read filter outputs that sum samples from
    # both ends, which the oracle's circular convolution sums alike
    rng = np.random.default_rng(f)
    spec = DomainSpec(random_psd(rng, 2, f), 2, 3 * f + 2, f)
    close(*mapped_psds(spec, random_psd(rng, 2, f), WelchConfig(f, stride)))


@pytest.mark.parametrize("f", [4, 7, 8, 16, 32])
def test_whitened_random_walks_keep_their_bins_within_1e_9(f):
    # a walk's spectrum, 1 / (4 sin^2(pi k / l)), puts the bins of its Welch
    # PSD about 1e3 to 1e5 apart, under RATIO_CAP, so no gain is capped;
    # whitening raises the smallest bins to the largest
    l = 4096
    k = np.arange(l // 2 + 1)
    k[0] = 1  # the walk's infinite bin 0 as its bin 1
    spec = DomainSpec(mirror(np.repeat(1 / (4 * np.sin(np.pi * k / l) ** 2)[None], 2, 0), l),
                      3, l, f)
    p = spec.centered_psds(WelchConfig(f))
    spread = p.max(axis=-1) / p.min(axis=-1)
    assert spread.max() > 1e3 and spread.max() < RATIO_CAP
    a, b = mapped_psds(spec, np.ones(p.shape[1:]), WelchConfig(f))
    assert np.max(np.abs(a - b) / b) <= 1e-9


@pytest.mark.parametrize("shape, f, stride", [((8, 2, 4096), 8, 0), ((64, 4, 1024), 16, 0),
                                              ((4, 2, 1024), 8, 1), ((8, 2, 4096), 24, 0)])
def test_mapped_psds_peak_at_one_copy_of_the_sample_and_keep_only_their_output(
        shape, f, stride):
    # the filter's four and a half budgets, beside the centred copy, the taps
    # and the output; after the call the spec holds the output and its key
    n, c, l = shape
    cfg, target = WelchConfig(f, stride), np.full((c, f), 2.0)
    spec = DomainSpec(np.ones((c, f)), n, l, 7)
    spec.raw_mapped_psds(cfg, target)  # warm FFT plans and the Toeplitz index
    spec = replace(spec)
    spec.centered_psds(cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        p = spec.raw_mapped_psds(cfg, target)
        kept, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    taps = 8 * n * c * f
    assert peak <= spec.signals.nbytes + taps + p.nbytes + 4.5 * BUDGET_BYTES
    assert kept <= p.nbytes + target.nbytes + 4096


@pytest.mark.filterwarnings("error")
def test_mapped_psds_refuse_what_they_cannot_read():
    # the benchmark hands the cores finite samples and taps, whose power can
    # still pass the float range: the sample's own, or its mapped copy's
    cfg = WelchConfig(4)
    for psd, target in ((1e307, 1.0), (1e303, 1e308)):
        spec = DomainSpec(np.full((1, 4), psd), 2, 64, 0)
        with pytest.raises(NonFiniteInputError, match="input power"):
            spec.raw_mapped_psds(cfg, np.full((1, 4), target))
