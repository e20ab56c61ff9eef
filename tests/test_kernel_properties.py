"""Property-based differential tests of ``welch_psd_raw`` and ``apply_mapping``,
whose docstrings alone state the rules by which they choose a form: ``edges``
finds with the kernel spy where each form and mode begins, both sides and a row
of several blocks meet the oracles, and so do hypothesis draws.  The one pin is
perfbench's traffic."""

import functools

import numpy as np
import pytest

from psdnorm import WelchConfig, apply_mapping, monge_filter
from psdnorm.spectral import BUDGET_BYTES, welch_psd_raw

from conftest import FORMS, KernelSpy
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
           "reversed": lambda x: x[..., ::-1].copy()[..., ::-1]}


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


def check(spy, x, how, bits=True):
    """Checks an (N, c, l) batch's ``welch_psd_raw`` (``how`` a config),
    mirrored exactly and ``close`` to the rfft Welch and scipy's, or its
    ``apply_mapping`` (``how`` the taps), within 1e-12 of x's largest sample of
    the whole-signal mapping; with ``bits``, rows alone keep their bits.
    Returns the key of a dry call on one row, which takes the same form."""
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
    for j in range(len(x) if bits else 0):
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


@pytest.mark.xfail(strict=True, reason="numpy sums a Fortran-ordered batch in another order")
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
    event(" ".join(check(kernel_spy, x, h, bits=layout != "Fortran")))  # see the xfail
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
    event(" ".join(check(kernel_spy, x, cfg, bits=layout != "Fortran")))
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
