"""Property-based differential tests of ``welch_psd_raw`` and ``apply_mapping``,
whose docstrings alone state the rules by which they choose a form: ``edges``
finds with the kernel spy where each form and mode begins, both sides and a row
of several blocks meet the oracles, and so do hypothesis draws.  The one pin is
perfbench's traffic.  Then the post-mapping PSD from ``window_grams`` and
``mapped_psd_raw`` against Welch of the mapped signal, and their peak memory."""

import functools

import numpy as np
import pytest

from psdnorm import (
    NonFiniteInputError,
    PsdNormLayer,
    ShapeMismatchError,
    WelchConfig,
    apply_mapping,
    centered_psd,
    monge_filter,
    psdnorm_forward,
)
from psdnorm.monge import RATIO_CAP, _filter, mapped_psd_raw
from psdnorm.spectral import BUDGET_BYTES, _centre, welch_psd_raw, window_grams

from conftest import FORMS, KernelSpy, peak_bytes
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
LAYOUTS = {"C": lambda x: x, "Fortran": np.asfortranarray,
           "strided": lambda x: np.repeat(x, 2, axis=-1)[..., ::2],
           "reversed": lambda x: x[..., ::-1].copy()[..., ::-1],
           "cropped": lambda x: np.pad(x, ((0, 0), (0, 0), (1, 2)))[..., 1:-2]}


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


def mapped_psds(x, h, cfg):
    """``mapped_psd_raw`` of x's centred window Grams, and ``welch_psd_raw`` of
    the mapped signal."""
    grams = window_grams(x - x.mean(axis=-1, keepdims=True), cfg)
    return mapped_psd_raw(grams, h, cfg), welch_psd_raw(apply_mapping(x, h), cfg)


@draws(lambda st: {"n": st.integers(1, 3), "c": st.integers(1, 3),
                   "f": st.integers(1, 24).flatmap(lambda f: st.tuples(
                       st.just(f), st.integers(1, f))),
                   "extra": st.integers(0, 11).flatmap(lambda e: st.integers(2 ** e >> 1, 2 ** e)),
                   "seed": st.integers(0, 2 ** 32 - 1),
                   "window": st.sampled_from(("hann", "boxcar"))}, spied=False)
def test_mapped_psds_from_window_grams_match_welch_of_the_mapped_signal(
        n, c, f, extra, seed, window):
    # every stride 1..f, odd f, l = f and trailing samples; a bin far below its
    # row's peak (boxcar's bin 0 at l = f is zero but for rounding) is held to
    # 1e-14 of the peak, as scipy is
    (f, stride), rng = f, np.random.default_rng(seed)
    x = rng.standard_normal((n, c, f + extra)) + 2.0
    h = rng.standard_normal((n, c, f)) / np.sqrt(f)
    close(*mapped_psds(x, h, WelchConfig(f, stride, window)), 1e-14)


@pytest.mark.parametrize("f, stride", [(1, 1), (4, 2), (5, 5), (8, 3), (16, 8), (31, 7)])
def test_window_grams_read_the_samples_that_wrap_around_each_end(f, stride):
    x = np.random.default_rng(f).standard_normal((2, 2, 3 * f + 2))
    x[..., 0], x[..., -1] = 1e8, -1e8
    h = np.random.default_rng(f + 1).standard_normal((2, 2, f)) / np.sqrt(f)
    close(*mapped_psds(x, h, WelchConfig(f, stride)))


@pytest.mark.parametrize("f", [4, 7, 8, 16, 32])
def test_whitened_random_walks_keep_their_bins_within_1e_9(f):
    # a walk's bins span about 1e4 to 1e5, under RATIO_CAP, so no gain is
    # capped; whitening leaves the quadratic form's rounding relative to the
    # largest source bins (worst here: 6.2e-12)
    x = np.cumsum(np.random.default_rng(f).standard_normal((3, 2, 4096)), axis=-1)
    cfg = WelchConfig(f)
    p = centered_psd(x, cfg)
    spread = p.max(axis=-1) / p.min(axis=-1)
    assert spread.max() > 1e3 and spread.max() < RATIO_CAP
    a, b = mapped_psds(x, monge_filter(p, np.ones(p.shape[1:])), cfg)
    assert np.max(np.abs(a - b) / b) <= 1e-9


@pytest.mark.parametrize("shape, f, stride", [((8, 2, 4096), 8, 0), ((64, 4, 1024), 16, 0),
                                              ((4, 2, 1024), 8, 1), ((8, 2, 4096), 24, 0)])
def test_window_grams_and_mapped_psds_peak_at_their_output_plus_the_budget(shape, f, stride):
    # f = 24 is the largest at which one row's temporaries fit the budget
    rng, cfg = np.random.default_rng(7), WelchConfig(f, stride)
    x, h = rng.standard_normal(shape), rng.standard_normal(shape[:-1] + (f,))
    grams = window_grams(x, cfg)
    assert peak_bytes(lambda: window_grams(x, cfg)) <= grams.nbytes + BUDGET_BYTES
    p = mapped_psd_raw(grams, h, cfg)
    assert peak_bytes(lambda: mapped_psd_raw(grams, h, cfg)) <= p.nbytes + BUDGET_BYTES


@pytest.mark.filterwarnings("error")
def test_window_grams_and_mapped_psds_refuse_what_they_cannot_read():
    cfg, x = WelchConfig(4), np.ones((2, 1, 64))
    for bad in (np.nan, 1e200):  # a NaN sample, and squares past the float range
        y = x.copy()
        y[1, 0, 5] = bad
        with pytest.raises(NonFiniteInputError, match="input power"):
            window_grams(y, cfg)
    grams = window_grams(x, cfg)
    for g, h in ((grams, np.ones((2, 1, 5))), (grams[:1], np.ones((2, 1, 4)))):
        with pytest.raises(ShapeMismatchError, match="window Grams"):
            mapped_psd_raw(g, h, cfg)
    with pytest.raises(NonFiniteInputError, match="filter taps"):
        mapped_psd_raw(grams, np.full((2, 1, 4), np.inf), cfg)
