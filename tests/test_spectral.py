"""Tests for the signal-processing substrate."""

import cmath

import numpy as np
import pytest

from psdnorm import (
    LengthTooShortError,
    NonFiniteInputError,
    ParameterOutOfRangeError,
    ShapeMismatchError,
    WelchConfig,
    apply_mapping,
    centered_psd,
    make_window,
    monge_filter,
    welch_psd,
)
from psdnorm import spectral
from psdnorm.spectral import (
    BUDGET_BYTES,
    check_finite,
    floored,
    n_segments,
    psd_floor,
    welch_psd_raw,
)

from conftest import LAYOUTS as SIGNAL_LAYOUTS, peak_bytes
from oracles import fourier_matrix


def direct_welch(x, f, stride, window):
    """Independent Welch oracle: explicit loops and cmath DFTs."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    c, l = x.shape
    n_seg = (l - f) // stride + 1
    p = np.zeros((c, f))
    for m in range(c):
        for s in range(n_seg):
            seg = [window[k] * x[m, s * stride + k] for k in range(f)]
            for b in range(f):
                acc = 0j
                for k in range(f):
                    acc += seg[k] * cmath.exp(-2j * cmath.pi * k * b / f)
                p[m, b] += abs(acc) ** 2
    return p / n_seg


class TestFourierMatrix:
    def test_n1(self):
        assert fourier_matrix(1) == pytest.approx(np.array([[1.0]]))

    def test_n2(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(fourier_matrix(2), expected, atol=1e-15)

    def test_n4_entry(self):
        # entry (2,2) in 1-based indexing: exp(-i*pi/2)/2 = -i/2
        assert fourier_matrix(4)[1, 1] == pytest.approx(-0.5j, abs=1e-15)

    @pytest.mark.parametrize("n", list(range(1, 65)))
    def test_unitary(self, n):
        f = fourier_matrix(n)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(n), atol=1e-10)

    def test_rejects_zero(self):
        with pytest.raises(ParameterOutOfRangeError):
            fourier_matrix(0)


class TestWindows:
    def test_boxcar_4(self):
        np.testing.assert_allclose(make_window("boxcar", 4), [0.5] * 4)

    def test_boxcar_1(self):
        np.testing.assert_allclose(make_window("boxcar", 1), [1.0])

    def test_hann_unit_norm(self):
        w = make_window("hann", 8)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        # Independent derivation: periodic taps normalized by their own norm.
        taps = np.array([0.5 * (1 - np.cos(2 * np.pi * k / 8)) for k in range(8)])
        np.testing.assert_allclose(w, taps / np.linalg.norm(taps), atol=1e-14)

    def test_hann_degenerate(self):
        np.testing.assert_allclose(make_window("hann", 1), [1.0])

    def test_bad_inputs(self):
        with pytest.raises(ParameterOutOfRangeError):
            make_window("hann", 0)
        with pytest.raises(ParameterOutOfRangeError):
            make_window("hamming", 4)

    @pytest.mark.parametrize("f", [2.5, 4.0, True])
    def test_length_must_be_an_integer(self, f):
        with pytest.raises(ParameterOutOfRangeError, match="must be an integer >= 1"):
            make_window("hann", f)

    @pytest.mark.parametrize("kind", ["hann", "boxcar"])
    def test_welch_builds_each_window_and_basis_once(self, kind, monkeypatch):
        # Welch keeps one read-only window and basis per (kind, f), equal to
        # fresh ones, while make_window still returns a fresh writable array.
        w, basis = spectral._welch_window(kind, 8), spectral._welch_basis(kind, 8)
        assert spectral._welch_window(kind, 8) is w
        assert spectral._welch_basis(kind, 8) is basis
        np.testing.assert_array_equal(w, make_window(kind, 8))
        np.testing.assert_array_equal(basis, spectral._welch_basis.__wrapped__(kind, 8))
        for a in (w, basis):
            with pytest.raises(ValueError):
                a[0] = 1.0
        fresh = make_window(kind, 8)
        assert fresh.flags.writeable and fresh is not make_window(kind, 8)
        # Welch with the kept arrays gives the bits of Welch building its own,
        # in the Gram form and in the per-segment rfft form.
        x = np.random.default_rng(38).standard_normal((2, 3, 200))
        cfgs = [WelchConfig(8, window_kind=kind), WelchConfig(64, window_kind=kind)]
        kept = [welch_psd_raw(x, cfg) for cfg in cfgs]
        for name in ("_welch_window", "_welch_basis"):
            monkeypatch.setattr(spectral, name, getattr(spectral, name).__wrapped__)
        for cfg, p in zip(cfgs, kept):
            np.testing.assert_array_equal(welch_psd_raw(x, cfg), p)


class TestSegment:
    def test_counts_and_starts(self):
        # Boxcar f=4, stride 2: segments start at 0, 2, 4, 6 and sample 10
        # is dropped.  An impulse at n adds 1/4 to the DC bin of every
        # segment that covers n.
        cfg = WelchConfig(4, stride=2, window_kind="boxcar")
        assert n_segments(11, cfg) == 4
        covering = [1, 1, 2, 2, 2, 2, 2, 2, 1, 1, 0]
        for n, count in enumerate(covering):
            x = np.zeros((1, 11))
            x[0, n] = 1.0
            assert welch_psd_raw(x, cfg)[0, 0] == pytest.approx(0.25 * count / 4)

    def test_exact_fit(self):
        cfg = WelchConfig(4, stride=2)
        x = np.arange(4.0)[None, :]
        assert n_segments(4, cfg) == 1
        single = np.abs(np.fft.fft(x * make_window("hann", 4), axis=1)) ** 2
        np.testing.assert_allclose(welch_psd_raw(x, cfg), single, atol=1e-12)

    def test_too_short(self):
        cfg = WelchConfig(4, stride=2)
        with pytest.raises(LengthTooShortError):
            welch_psd_raw(np.zeros((1, 3)), cfg)
        with pytest.raises(LengthTooShortError):
            n_segments(3, cfg)


class TestWelch:
    def test_zero_signal_clamped_to_floor(self):
        p = welch_psd(np.zeros((2, 64)), WelchConfig(8))
        assert np.all(p == psd_floor(np.zeros((2, 8))))

    def test_constant_signal_dc(self):
        # Value frozen from the independent direct-DFT oracle.
        cfg = WelchConfig(4, stride=4, window_kind="boxcar")
        x = np.ones((1, 8))
        oracle = direct_welch(x, 4, 4, make_window("boxcar", 4))
        assert oracle[0, 0] == pytest.approx(4.0)
        np.testing.assert_allclose(welch_psd(x, cfg), np.maximum(oracle, 1e-10 * 4.0),
                                   atol=1e-12)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 37))
        for kind in ("hann", "boxcar"):
            cfg = WelchConfig(8, stride=3, window_kind=kind)
            oracle = direct_welch(x, 8, 3, make_window(kind, 8))
            np.testing.assert_allclose(welch_psd_raw(x, cfg), oracle, atol=1e-10)

    def test_white_noise_flat(self):
        rng = np.random.default_rng(1)
        bins = np.zeros(8)
        n_seeds = 20
        for _ in range(n_seeds):
            x = rng.standard_normal((1, 2 ** 14))
            bins += welch_psd(x, WelchConfig(8, window_kind="boxcar"))[0]
        np.testing.assert_allclose(bins / n_seeds, 1.0, atol=0.05)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 512))
        p = welch_psd(x, WelchConfig(8))
        for k in range(1, 8):
            assert np.all(
                np.abs(p[:, k] - p[:, 8 - k]) < 1e-8 * p.max()
            )

    def test_bins_mirror_exactly(self):
        x = np.random.default_rng(9).standard_normal((3, 64))
        for f in range(1, 17):
            for stride in sorted({1, max(1, f // 2), f}):
                p = welch_psd_raw(x, WelchConfig(f, stride=stride))
                mirrored = p[:, -np.arange(f) % f]
                assert np.array_equal(p, mirrored), f"f={f}, stride={stride}"

    def test_positivity(self):
        rng = np.random.default_rng(3)
        p = welch_psd(rng.standard_normal((2, 100)), WelchConfig(5))
        assert np.all(p > 0)

    def test_nonfinite_rejected(self):
        x = np.zeros((1, 16))
        x[0, 3] = np.nan
        with pytest.raises(NonFiniteInputError):
            welch_psd(x, WelchConfig(4))

    def test_parseval_unitary_basis(self):
        # The unitary DFT of a windowed segment preserves its energy.
        rng = np.random.default_rng(4)
        w = make_window("hann", 16)
        f16 = fourier_matrix(16)
        for _ in range(10):
            seg = w * rng.standard_normal(16)
            spec = seg @ f16.conj()
            assert abs(np.sum(np.abs(spec) ** 2) - np.sum(seg ** 2)) < 1e-10

    def test_matches_scipy(self):
        signal = pytest.importorskip("scipy.signal")
        x = np.random.default_rng(30).standard_normal((2, 200))
        worst = 0.0
        for f in (1, 2, 5, 8, 16):
            for kind in ("hann", "boxcar"):
                for stride in sorted({1, max(1, f // 2), f}):
                    cfg = WelchConfig(f, stride=stride, window_kind=kind)
                    _, ref = signal.welch(x, fs=1, window=kind, nperseg=f,
                                          noverlap=f - stride, detrend=False,
                                          return_onesided=False, scaling="density")
                    ours = welch_psd_raw(x, cfg)
                    worst = max(worst, np.max(np.abs(ours - ref) / ref))
        assert worst < 1e-12


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("f, n_seg", [(8, 16), (128, 3)], ids=["gram", "rfft"])
    def test_nonfinite_anywhere_in_any_row_rejected(self, f, n_seg, bad):
        cfg = WelchConfig(f)
        length = n_seg * cfg.stride + f - 1  # stride - 1 trailing samples
        assert n_segments(length, cfg) == n_seg
        x = np.random.default_rng(37).standard_normal((40, 3, length))
        welch_psd_raw(x, cfg)
        deep = x.copy()
        deep[-2, 1, length // 2] = bad
        trailing = x[:1].copy()
        trailing[0, 0, -1] = bad
        for y in (deep, trailing, trailing[0]):
            with pytest.raises(NonFiniteInputError):
                welch_psd_raw(y, cfg)

    @pytest.mark.parametrize("f", [5, 8])
    def test_rows_floored_again_give_the_signal_bits(self, f):
        # Each row's welch_psd, floored again over the whole PSD, is the
        # whole-signal estimate bit for bit: no row's floor exceeds the
        # signal's.  The DC offset puts the quiet rows' bins under the floor.
        scales = np.array([0.0, 1e-4, 1.0, 1e2])[:, np.newaxis]
        x = np.random.default_rng(f).standard_normal((4, 1001)) * scales + 1e3
        cfg = WelchConfig(f)
        whole = welch_psd(x, cfg)
        assert np.any(whole == psd_floor(whole))
        rows = floored(np.concatenate([welch_psd(r, cfg) for r in x]))
        assert rows.tobytes() == whole.tobytes()

    def test_floor_is_per_signal(self):
        # The loud signals' floor, 1e-10 of their largest bin, is far above
        # the silent signal's own floor, the smallest normal float.
        b = np.random.default_rng(33).standard_normal((3, 2, 256)) * 1e6
        b[1] = 0.0
        cfg = WelchConfig(8)
        p = welch_psd(b, cfg)
        assert np.all(p[1] == np.finfo(float).tiny)
        assert np.all(psd_floor(p)[[0, 2]] > 1.0)
        for j in range(3):
            np.testing.assert_array_equal(p[j], welch_psd(b[j], cfg))


class TestCircularConvolve:
    def test_identity_filter(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 16))
        h = np.zeros((2, 4))
        h[:, 0] = 1.0
        np.testing.assert_allclose(
            apply_mapping(x, h), x - x.mean(axis=1, keepdims=True), atol=1e-12
        )

    def test_shift_by_one(self):
        out = apply_mapping([[1.0, 2.0, 3.0, 4.0]], [[0.0, 1.0]])
        np.testing.assert_allclose(out, [[1.5, -1.5, -0.5, 0.5]], atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        # Zero-phase placement: tap k sits at lag k for k <= f // 2 and at
        # lag k - f otherwise.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 16)) + 2.0
        xc = x - x.mean(axis=1, keepdims=True)
        for f in (4, 5):
            h = rng.standard_normal((2, f))
            expected = np.zeros_like(x)
            for m in range(2):
                for n in range(16):
                    for k in range(f):
                        lag = k if k <= f // 2 else k - f
                        expected[m, n] += h[m, k] * xc[m, (n - lag) % 16]
            np.testing.assert_allclose(apply_mapping(x, h), expected, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((2, 2, 32))
        h = rng.standard_normal((2, 6))
        a, b = 2.5, -1.25
        lhs = apply_mapping(a * x + b * y, h)
        rhs = a * apply_mapping(x, h) + b * apply_mapping(y, h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            apply_mapping(np.zeros((2, 8)), np.zeros((3, 2)))

    def test_filter_too_long(self):
        with pytest.raises(LengthTooShortError):
            apply_mapping(np.zeros((1, 4)), np.zeros((1, 8)))


class TestCentering:
    # f = 1 with a boxcar window makes each PSD bin the channel's variance.
    VARIANCE = WelchConfig(1, stride=1, window_kind="boxcar")

    def test_example(self):
        x = np.array([[1.0, 3.0], [-2.0, 2.0]])
        np.testing.assert_allclose(centered_psd(x, self.VARIANCE), [[1.0], [4.0]])
        np.testing.assert_allclose(
            apply_mapping(x, [[1.0], [1.0]]), [[-1.0, 1.0], [-2.0, 2.0]]
        )

    def test_constant_rows(self):
        x = np.array([[3.0] * 5, [-1.0] * 5])
        p = centered_psd(x, self.VARIANCE)
        assert np.all(p == psd_floor(np.zeros((2, 1))))
        np.testing.assert_allclose(apply_mapping(x, [[1.0], [1.0]]), 0.0, atol=1e-15)

    def test_centered_row_sums(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 100)) + 5.0
        out = apply_mapping(x, rng.standard_normal((3, 7)))
        assert np.all(np.abs(out.sum(axis=1)) < 1e-10)
        np.testing.assert_array_equal(
            centered_psd(x, WelchConfig(8)),
            welch_psd(x - x.mean(axis=1, keepdims=True), WelchConfig(8)),
        )


#: Layouts of a (3, 5, 16391) array, of more than BUDGET_BYTES items: C
#: order, whose flat view check_finite tests in slices, and views with no
#: flat view, whose first axis it slices: Fortran order and two strided
#: views in slices of many rows, and a strided row larger than the budget
#: on its own.
SHAPE = (3, 5, 2 ** 14 + 7)
LAYOUTS = [pytest.param(lambda a: a, id="C"), pytest.param(lambda a: a.T, id="Fortran"),
           pytest.param(lambda a: a[:, ::2], id="strided"),
           pytest.param(lambda a: a.transpose(1, 0, 2)[1:], id="permuted"),
           pytest.param(lambda a: a.reshape(1, -1)[:, ::2], id="one long row")]


class TestCheckFinite:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finds_a_nonfinite_value_anywhere(self, layout, bad):
        view = layout(np.ones(SHAPE))
        assert view.size > BUDGET_BYTES and check_finite(view) is view
        # Both ends, both sides of the first slice's end, and a few more.
        rng = np.random.default_rng(39)
        for k in [0, BUDGET_BYTES - 1, BUDGET_BYTES, view.size - 1,
                  *rng.integers(0, view.size, 4)]:
            a = np.ones(SHAPE)
            layout(a)[np.unravel_index(k, view.shape)] = bad
            with pytest.raises(NonFiniteInputError,
                               match=r"^taps contains NaN or Inf \(non-finite values\)$"):
                check_finite(layout(a), "taps")

    @pytest.mark.parametrize("make", [lambda: np.ones((2, 2 ** 19)),
                                      lambda: np.ones((2, 2 ** 20))[:, ::2]],
                             ids=["contiguous", "strided"])
    def test_masks_keep_to_the_byte_budget(self, make):
        # A mask of the whole (2, 2^19) array would take 16 BUDGET_BYTES,
        # and a flat copy of the strided one 128.
        x = make()
        assert peak_bytes(lambda: check_finite(x)) <= BUDGET_BYTES + 4096


def test_long_signal_memory_is_bounded():
    # Whole-signal kernels peak at 4x the input; blocks and chunks keep each
    # temporary within BUDGET_BYTES beside the one centred or output copy.
    # The filter reads the long row in blocks, where a padded copy of the
    # whole row would peak at about 2x.
    x = np.random.default_rng(35).standard_normal((2, 2 ** 19))
    for f in (64, 8):
        cfg = WelchConfig(f)
        p = centered_psd(x, cfg)
        h = monge_filter(p, np.ones_like(p))
        apply_mapping(x, h)  # warm FFT plans outside the measured calls
        assert peak_bytes(lambda: centered_psd(x, cfg)) <= 1.25 * x.nbytes
        assert peak_bytes(lambda: apply_mapping(x, h)) <= 1.25 * x.nbytes


#: Layouts of each shape that the budget tests run: long rows in C order
#: and two others, and a (4, 2, 2^17) batch in C order and in each layout
#: whose rows no view of the whole batch holds.
BUDGET_LAYOUTS = {(64, 4, 1024): ("C",), (2, 2 ** 19): ("C", "Fortran", "strided"),
                  (1, 2, 2 ** 19): ("C", "Fortran", "strided"),
                  (4, 2, 2 ** 17): ("C", "Fortran", "every-other", "channel-major")}


@pytest.mark.parametrize("shape, f", [((64, 4, 1024), 4), ((64, 4, 1024), 16),
                                      ((64, 4, 1024), 64), ((1, 2, 2 ** 19), 8),
                                      ((1, 2, 2 ** 19), 64), ((1, 2, 2 ** 19), 65),
                                      ((4, 2, 2 ** 17), 8), ((4, 2, 2 ** 17), 64)])
def test_filter_keeps_to_the_byte_budget(shape, f):
    # Beside its output, a chunk or block holds its buffer, each row's
    # Toeplitz matrix or FFT response and the product's temporaries, each
    # within BUDGET_BYTES, whichever form the shape takes.  Rows of another
    # layout than C's are copied for their means, a chunk at a time, and
    # filtered from views: a copy of the whole batch would take 128 budgets.
    rng = np.random.default_rng(40)
    h = rng.standard_normal(shape[:2] + (f,)) / np.sqrt(f)
    x = rng.standard_normal(shape)
    for layout in BUDGET_LAYOUTS[shape]:
        y = SIGNAL_LAYOUTS[layout](x)
        apply_mapping(y, h)  # warm FFT plans and the Toeplitz index
        assert peak_bytes(lambda: apply_mapping(y, h)) - y.nbytes <= 4.5 * BUDGET_BYTES


def test_welch_keeps_to_the_byte_budget():
    # No temporary exceeds BUDGET_BYTES, the finiteness mask of a long row
    # included: check_finite tests the row in pieces.  A mask of the whole
    # row would take l = 8 BUDGET_BYTES.  Nor does the Gram form copy a
    # segment: it reads each residue class of segments in place, where a
    # copy of a row's half-overlapping segments would take 16 l bytes.  A
    # row of another layout than C's may be copied, one at a time, but
    # never the whole batch (128 budgets).
    cfg = WelchConfig(64)
    for shape in ((2, 2 ** 19), (4, 2, 2 ** 17)):
        x = np.random.default_rng(38).standard_normal(shape)
        for layout in BUDGET_LAYOUTS[shape]:
            y = SIGNAL_LAYOUTS[layout](x)
            welch_psd_raw(y, cfg)
            copied = 0 if layout == "C" else 8 * shape[-1]
            assert peak_bytes(lambda: welch_psd_raw(y, cfg)) <= copied + 3 * BUDGET_BYTES
