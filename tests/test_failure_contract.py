"""One table per failure, run through every entry point that can meet it.

Each failure has one error class wherever it is caught: a signal shorter
than f is a ``LengthTooShortError``, a channel count that differs is a
``ShapeMismatchError``, an eval before any training is an
``EvalWithoutStatsError``, too few items is a ``ParameterOutOfRangeError``
(from ``check_integer``), and a state document that cannot be read is a
``StateFileError`` naming its path (exit 4 in the CLI).
"""

import json

import numpy as np
import pytest

from psdnorm import (
    BatchNormLayer,
    DomainSpec,
    EvalWithoutStatsError,
    LengthTooShortError,
    ParameterOutOfRangeError,
    PsdNormLayer,
    ShapeMismatchError,
    WelchConfig,
    apply_mapping,
    batchnorm_forward,
    centered_psd,
    evaluate_alignment,
    make_shifted_domains,
    monge_filter,
    psdnorm_forward,
    psdnorm_stack_forward,
    tma_fit,
    tma_transform,
    wasserstein_barycenter,
    welch_psd,
)
from psdnorm.cli import EXIT_STATE, main
from psdnorm.io import save_state, write_signal

F = 4
CFG = WelchConfig(F)
TRAINED = PsdNormLayer(filter_size=F, barycenter=np.ones((1, F)), update_count=1)


def raises_exactly(error, call):
    """Run ``call`` and check that it raises ``error`` itself, not a subclass."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    return info.value


SHORT = np.ones((1, F - 1))  # one channel, one sample fewer than F

SHORTER_THAN_F = [
    pytest.param(lambda: welch_psd(SHORT, CFG), id="welch_psd"),
    pytest.param(lambda: centered_psd(SHORT, CFG), id="centered_psd"),
    pytest.param(lambda: apply_mapping(SHORT, np.ones((1, F))), id="apply_mapping"),
    pytest.param(lambda: psdnorm_forward(PsdNormLayer(filter_size=F), SHORT),
                 id="psdnorm_forward train"),
    pytest.param(lambda: psdnorm_forward(TRAINED, SHORT, "eval"),
                 id="psdnorm_forward eval"),
    pytest.param(lambda: psdnorm_stack_forward([F, 2], SHORT),
                 id="psdnorm_stack_forward"),
    pytest.param(lambda: tma_fit([SHORT], CFG), id="tma_fit"),
    pytest.param(lambda: tma_transform(TRAINED, SHORT), id="tma_transform"),
    pytest.param(lambda: DomainSpec(np.ones((1, F)), 1, F - 1, 0), id="DomainSpec"),
]


@pytest.mark.parametrize("call", SHORTER_THAN_F)
def test_signal_shorter_than_f(call):
    raises_exactly(LengthTooShortError, call)


TWO_CHANNELS = np.random.default_rng(0).standard_normal((2, 64))
ONE_CHANNEL_STATS = BatchNormLayer(running_mean=np.zeros(1), running_var=np.ones(1),
                                   num_batches_tracked=1)

CHANNEL_COUNT_DIFFERS = [
    pytest.param(lambda: apply_mapping(TWO_CHANNELS, np.ones((1, F))),
                 id="apply_mapping"),
    pytest.param(lambda: monge_filter(np.ones((2, F)), np.ones((1, F))),
                 id="monge_filter"),
    pytest.param(lambda: psdnorm_forward(TRAINED, TWO_CHANNELS, "eval"),
                 id="psdnorm_forward eval"),
    pytest.param(lambda: batchnorm_forward(ONE_CHANNEL_STATS, TWO_CHANNELS, "eval"),
                 id="batchnorm_forward eval"),
    pytest.param(lambda: tma_fit([TWO_CHANNELS[:1], TWO_CHANNELS], CFG), id="tma_fit"),
    pytest.param(lambda: tma_transform(TRAINED, TWO_CHANNELS), id="tma_transform"),
]


@pytest.mark.parametrize("call", CHANNEL_COUNT_DIFFERS)
def test_channel_count_differs(call):
    raises_exactly(ShapeMismatchError, call)


EVAL_BEFORE_TRAINING = [
    pytest.param(lambda: psdnorm_forward(PsdNormLayer(filter_size=F), TWO_CHANNELS,
                                         "eval"), id="psdnorm_forward"),
    pytest.param(lambda: tma_transform(PsdNormLayer(filter_size=F), TWO_CHANNELS),
                 id="tma_transform"),
    pytest.param(lambda: batchnorm_forward(BatchNormLayer(), TWO_CHANNELS, "eval"),
                 id="batchnorm_forward"),
]


@pytest.mark.parametrize("call", EVAL_BEFORE_TRAINING)
def test_eval_before_training(call):
    raises_exactly(EvalWithoutStatsError, call)


def read_error(capsys):
    return json.loads(capsys.readouterr().err)["error"]


def signal_file(tmp_path):
    path = tmp_path / "x.psdn"
    write_signal(path, np.random.default_rng(1).standard_normal((1, 256)))
    return str(path)


@pytest.mark.parametrize("kind", ["psdnorm", "batchnorm"])
def test_layer_eval_without_state_exits_4(tmp_path, capsys, kind):
    out = tmp_path / "out"
    code = main(["layer", signal_file(tmp_path), "--kind", kind, "--mode", "eval",
                 "--out", str(out)])
    assert code == EXIT_STATE
    assert read_error(capsys)["kind"] == "state"
    assert not out.exists()


def test_align_to_a_state_without_barycenter_exits_4(tmp_path, capsys):
    state = tmp_path / "fresh.json"
    save_state(state, PsdNormLayer(filter_size=F))
    out = tmp_path / "out"
    code = main(["align", signal_file(tmp_path), "--f", str(F), "--target", str(state),
                 "--out", str(out)])
    assert code == EXIT_STATE
    error = read_error(capsys)
    assert error["kind"] == "state" and "carries no barycenter" in error["message"]
    assert not out.exists()


def one_domain():
    return make_shifted_domains(np.ones((1, F)), 2, 1.0, n_signals=1, length=64)[:1]


TOO_FEW_ITEMS = [
    pytest.param(lambda: wasserstein_barycenter([]), "PSD count",
                 id="wasserstein_barycenter"),
    pytest.param(lambda: psdnorm_stack_forward([], TWO_CHANNELS), "filter size count",
                 id="psdnorm_stack_forward"),
    pytest.param(lambda: tma_fit([], CFG), "domain count", id="tma_fit"),
    pytest.param(lambda: evaluate_alignment(one_domain(), "none"), "domain count",
                 id="evaluate_alignment"),
    pytest.param(lambda: make_shifted_domains(np.ones((1, F)), 1, 1.0),
                 "domain count k", id="make_shifted_domains"),
]


@pytest.mark.parametrize("call, what", TOO_FEW_ITEMS)
def test_too_few_items(call, what):
    error = raises_exactly(ParameterOutOfRangeError, call)
    assert str(error).startswith(f"{what} must be an integer >= ")


MALFORMED_STATE = [
    pytest.param(b'{"kind": ', id="invalid JSON"),
    pytest.param(b'\xff\xfe{"kind": "psdnorm"}', id="not UTF-8"),
    pytest.param(b"[" * 200_000 + b"]" * 200_000, id="200000-deep array"),
    pytest.param(b"[1, 2, 3]", id="JSON list"),
]


@pytest.mark.parametrize("command", ["align", "layer"])
@pytest.mark.parametrize("document", MALFORMED_STATE)
def test_malformed_state_document_exits_4_naming_it(tmp_path, capsys, command,
                                                    document):
    state = tmp_path / "state.json"
    state.write_bytes(document)
    out = tmp_path / "out"
    if command == "align":
        argv = ["align", signal_file(tmp_path), "--f", str(F), "--target", str(state)]
    else:
        argv = ["layer", signal_file(tmp_path), "--kind", "psdnorm", "--mode", "eval",
                "--state-in", str(state)]
    assert main(argv + ["--out", str(out)]) == EXIT_STATE
    error = read_error(capsys)
    assert error["kind"] == "state" and error["message"].startswith(f"{state}: ")
    assert not out.exists()
