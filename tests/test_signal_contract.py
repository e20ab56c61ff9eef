"""One table of malformed signal arrays, run through every entry point that
takes a signal or a batch.

``spectral.as_signals`` decides the shape of a signal for all of them: a
(c, l) signal or an (N, c, l) batch with no empty axis, a 1-D array read as
one channel.  Each malformed row raises ``ShapeMismatchError`` everywhere,
and a PSDN file with an empty axis exits 3 in every command that reads it.
The filter taps of ``apply_mapping`` are checked where they enter too: empty
taps raise ``ShapeMismatchError`` and taps with NaN or Inf
``NonFiniteInputError``, for short taps and long ones alike.

``spectral.check_finite`` decides finiteness for all of them: a NaN or Inf
sample raises ``NonFiniteInputError`` everywhere, at an interior sample and
at a trailing one that no Welch segment reads, and a PSDN file holding one
exits 3 in every command that reads it.  Finite samples whose row sum or
squares pass the float range raise it too, naming the input's mean, power
or variance.
"""

import json
import warnings

import numpy as np
import pytest

from psdnorm import (
    BatchNormLayer,
    NonFiniteInputError,
    PsdNormLayer,
    ShapeMismatchError,
    WelchConfig,
    apply_mapping,
    batchnorm_forward,
    centered_psd,
    instancenorm_forward,
    layernorm_forward,
    psdnorm_forward,
    psdnorm_stack_forward,
    tma_fit,
    tma_transform,
    welch_psd,
)
from psdnorm.cli import EXIT_VALIDATION, main
from psdnorm.io import write_signal
from psdnorm.spectral import n_segments

F = 4
CFG = WelchConfig(F)
TRAINED = PsdNormLayer(filter_size=F, barycenter=np.ones((1, F)), update_count=1)
BN_TRAINED = BatchNormLayer(running_mean=np.zeros(1), running_var=np.ones(1),
                            num_batches_tracked=1)

MALFORMED = [
    pytest.param(np.float64(1.0), id="0-D"),
    pytest.param(np.ones((1, 1, 1, 64)), id="4-D"),
    pytest.param(np.ones((0, 64)), id="zero channels"),
    pytest.param(np.ones((1, 0)), id="zero length"),
    pytest.param(np.ones((2, 1, 0)), id="batch of zero length"),
    pytest.param(np.ones((0, 1, 64)), id="N = 0"),
]

ENTRY_POINTS = [
    pytest.param(lambda x: welch_psd(x, CFG), id="welch_psd"),
    pytest.param(lambda x: centered_psd(x, CFG), id="centered_psd"),
    pytest.param(lambda x: apply_mapping(x, np.ones((1, F))), id="apply_mapping"),
    pytest.param(lambda x: psdnorm_forward(PsdNormLayer(filter_size=F), x),
                 id="psdnorm_forward train"),
    pytest.param(lambda x: psdnorm_forward(TRAINED, x, "eval"),
                 id="psdnorm_forward eval"),
    pytest.param(lambda x: psdnorm_stack_forward([F, 2], x),
                 id="psdnorm_stack_forward"),
    pytest.param(lambda x: tma_fit([x], CFG).barycenter, id="tma_fit"),
    pytest.param(lambda x: tma_transform(TRAINED, x), id="tma_transform"),
    pytest.param(instancenorm_forward, id="instancenorm_forward"),
    pytest.param(layernorm_forward, id="layernorm_forward"),
    pytest.param(lambda x: batchnorm_forward(BatchNormLayer(), x),
                 id="batchnorm_forward"),
    pytest.param(lambda x: batchnorm_forward(BN_TRAINED, x, "eval"),
                 id="batchnorm_forward eval"),
]


@pytest.mark.parametrize("x", MALFORMED)
@pytest.mark.parametrize("call", ENTRY_POINTS)
def test_malformed_signal_raises_shape_mismatch(call, x):
    with pytest.raises(ShapeMismatchError):
        call(x)


@pytest.mark.parametrize("x, h", [
    pytest.param(np.zeros((2, 64)), np.ones((2, 0)), id="(c, 0)"),
    pytest.param(np.zeros(64), np.ones(0), id="1-D"),
    pytest.param(np.zeros((3, 2, 64)), np.ones((3, 2, 0)), id="(N, c, 0)"),
])
def test_empty_taps_raise_shape_mismatch(x, h):
    with pytest.raises(ShapeMismatchError):
        apply_mapping(x, h)


@pytest.mark.parametrize("f", [4, 32])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_taps_raise(f, bad):
    h = np.ones((2, 2, f))
    h[1, 0, f // 2] = bad
    with pytest.raises(NonFiniteInputError):
        apply_mapping(np.zeros((2, 2, 64)), h)


#: A length whose last sample no Welch segment of CFG reads: its 31
#: segments of 4 samples, 2 apart, end at sample 63.
L_TRAILING = 65
NON_FINITE = [pytest.param(np.nan, id="NaN"), pytest.param(np.inf, id="+Inf"),
              pytest.param(-np.inf, id="-Inf")]


def test_trailing_sample_is_read_by_no_segment():
    last_end = (n_segments(L_TRAILING, CFG) - 1) * CFG.stride + F
    assert last_end == L_TRAILING - 1


def signal_with(bad, where: int) -> np.ndarray:
    """A (1, L_TRAILING) signal holding ``bad`` at sample ``where``."""
    x = np.random.default_rng(where).standard_normal((1, L_TRAILING)) + 1.0
    x[0, where] = bad
    return x


@pytest.mark.parametrize("where", [10, L_TRAILING - 1], ids=["interior", "trailing"])
@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("call", ENTRY_POINTS)
def test_nonfinite_sample_raises(call, bad, where):
    with pytest.raises(NonFiniteInputError):
        call(signal_with(bad, where))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_batchnorm_train_blames_the_input_not_its_state(bad):
    with pytest.raises(NonFiniteInputError) as caught:
        batchnorm_forward(BatchNormLayer(), signal_with(bad, 10))
    message = str(caught.value)
    assert message.startswith("input ") and "running_mean" not in message


#: The entry points that take the mean of each row of their input: all but
#: Welch, which reads no mean, and BatchNorm eval, which subtracts a stored one.
MEAN_ENTRY_POINTS = [p for p in ENTRY_POINTS
                     if p.id not in ("welch_psd", "batchnorm_forward eval")]


@pytest.mark.parametrize("call", MEAN_ENTRY_POINTS)
def test_a_row_whose_sum_overflows_is_refused(call):
    # Every sample is finite, but the row mean is not: unrefused, the row
    # would map to Inf or NaN.  The error says so, in place of numpy's
    # overflow warning, which the test run turns into an error.
    with pytest.raises(NonFiniteInputError, match="^input mean contains"):
        call(np.full((1, 64), 1e308))


#: The entry points that take a power or a variance of their input: all but
#: ``apply_mapping`` and BatchNorm eval, which neither square a sample.
POWER_ENTRY_POINTS = [p for p in ENTRY_POINTS
                      if p.id not in ("apply_mapping", "batchnorm_forward eval")]


@pytest.mark.parametrize("call", POWER_ENTRY_POINTS)
def test_a_row_whose_squares_overflow_is_refused(call):
    # Every sample and the row mean (0) are finite, but each square passes
    # the float range: unrefused, Welch returns Inf bins and the
    # standardizing forwards zero rows.  The error names the input's power
    # or variance, in place of numpy's overflow warning.
    with pytest.raises(NonFiniteInputError,
                       match="^input (power|variance) contains"):
        call(np.tile([1e200, -1e200], (1, 32)))


@pytest.mark.parametrize("call", ENTRY_POINTS)
def test_a_row_holding_both_infinities_raises_no_warning(call):
    x = np.ones((1, 64))
    x[0, :2] = np.inf, -np.inf  # a sum of NaN, not of Inf
    with pytest.raises(NonFiniteInputError):
        call(x)


def test_tma_transform_refuses_a_batch():
    with pytest.raises(ShapeMismatchError):
        tma_transform(TRAINED, np.ones((2, 1, 64)))


def _first(result):
    """The array part of an entry point's result."""
    return result[0] if isinstance(result, tuple) else result


@pytest.mark.parametrize("call", ENTRY_POINTS)
def test_1d_signal_is_one_channel(call):
    x = np.random.default_rng(0).standard_normal(64) + 1.0
    np.testing.assert_array_equal(_first(call(x)), _first(call(x[np.newaxis])))


def _psdn(tmp_path, shape):
    path = tmp_path / "empty.psdn"
    write_signal(path, np.ones(shape))
    return str(path)


CLI_CALLS = [
    pytest.param(lambda sig, out: ["psd", sig, "--f", str(F), "--out-csv",
                                   str(out / "p.csv"), "--out-json",
                                   str(out / "p.json")], id="psd"),
    pytest.param(lambda sig, out: ["align", sig, "--f", str(F), "--out", str(out)],
                 id="align"),
    pytest.param(lambda sig, out: ["layer", sig, "--kind", "psdnorm", "--f", str(F),
                                   "--out", str(out)], id="layer psdnorm"),
    *[pytest.param(lambda sig, out, kind=kind: ["layer", sig, "--kind", kind,
                                                "--out", str(out)],
                   id=f"layer {kind}")
      for kind in ("instancenorm", "batchnorm", "layernorm")],
]


@pytest.mark.parametrize("shape", [(2, 0), (0, 64)],
                         ids=["zero length", "zero channels"])
@pytest.mark.parametrize("argv", CLI_CALLS)
def test_empty_signal_file_exits_3(tmp_path, capsys, argv, shape):
    sig = _psdn(tmp_path, shape)
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv(sig, out))
    assert code == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "validation" and sig in error["message"]
    assert [str(w.message) for w in caught] == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("argv", CLI_CALLS)
def test_nonfinite_signal_file_exits_3(tmp_path, capsys, argv, bad):
    sig = str(tmp_path / "bad.psdn")
    write_signal(sig, signal_with(bad, L_TRAILING - 1))
    out = tmp_path / "out"
    out.mkdir()
    assert main(argv(sig, out)) == EXIT_VALIDATION
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "validation" and sig in error["message"]
    assert "non-finite" in error["message"]
    assert list(out.iterdir()) == []
