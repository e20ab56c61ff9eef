"""One table of invalid PSDs, run through every entry point that takes a PSD.

``spectral.check_psd`` decides validity for all of them, so each row raises
the same error class everywhere, and a state document carrying the row
exits 4 before ``align`` writes anything.
"""

import json

import numpy as np
import pytest

from psdnorm import (
    AsymmetricPsdError,
    DomainSpec,
    NonFiniteInputError,
    NonPositivePsdError,
    PsdNormLayer,
    ShapeMismatchError,
    make_shifted_domains,
    monge_filter,
)
from psdnorm.cli import EXIT_STATE, main
from psdnorm.io import save_state, write_signal

BAD_PSDS = [
    pytest.param([[1.0, np.nan, 1.0, np.nan]], NonFiniteInputError, id="nan"),
    pytest.param([[1.0, np.inf, 1.0, np.inf]], NonFiniteInputError, id="inf"),
    pytest.param([[1.0, 0.0, 1.0, 0.0]], NonPositivePsdError, id="zero"),
    pytest.param([[1.0, -1.0, 1.0, -1.0]], NonPositivePsdError, id="negative"),
    # Bin 1 differs from bin 3: no real signal has this spectrum.
    pytest.param([[1.0, 2.0, 5.0, 3.0]], AsymmetricPsdError, id="asymmetric"),
    pytest.param(np.ones((1, 1, 4)).tolist(), ShapeMismatchError, id="3-D"),
]
GOOD = np.ones((1, 4))
#: A source may also be an (N, c, f) batch: the shape row moves up an axis.
BAD_SOURCES = BAD_PSDS[:-1] + [
    pytest.param(np.ones((1, 1, 1, 4)).tolist(), ShapeMismatchError, id="4-D"),
]


@pytest.mark.parametrize("psd, error", BAD_PSDS)
def test_layer_barycenter(psd, error):
    with pytest.raises(error):
        PsdNormLayer(filter_size=4, barycenter=np.array(psd), update_count=1)


@pytest.mark.parametrize("psd, error", BAD_SOURCES)
def test_monge_filter_source(psd, error):
    psd = np.array(psd)
    with pytest.raises(error):
        monge_filter(psd, GOOD)
    if psd.ndim == 2:  # the same source as the second of a batch
        with pytest.raises(error):
            monge_filter(np.stack([GOOD, psd]), GOOD)


def test_monge_filter_source_batch_of_one():
    np.testing.assert_array_equal(monge_filter(GOOD[np.newaxis], GOOD),
                                  monge_filter(GOOD, GOOD)[np.newaxis])


@pytest.mark.parametrize("psd, error", BAD_PSDS)
def test_monge_filter_target(psd, error):
    with pytest.raises(error):
        monge_filter(GOOD, np.array(psd))


@pytest.mark.parametrize("psd, error", BAD_PSDS)
def test_domain_spec(psd, error):
    with pytest.raises(error):
        DomainSpec(np.array(psd), n_signals=1, length=16, seed=0)


@pytest.mark.parametrize("psd, error", BAD_PSDS)
def test_make_shifted_domains_base(psd, error):
    with pytest.raises(error, match="base PSD"):
        make_shifted_domains(np.array(psd), 2, 1.0, n_signals=1, length=16)


@pytest.mark.parametrize("psd, error", BAD_PSDS)
def test_align_target_state_exit_4(tmp_path, capsys, psd, error):
    state = tmp_path / "state.json"
    save_state(state, PsdNormLayer(filter_size=4, barycenter=GOOD, update_count=1))
    doc = json.loads(state.read_text())
    doc["barycenter"] = psd  # NaN and Inf are written as JSON NaN / Infinity
    state.write_text(json.dumps(doc))
    sig = tmp_path / "x.psdn"
    write_signal(sig, np.random.default_rng(0).standard_normal((1, 256)))
    out = tmp_path / "out"
    code = main(["align", str(sig), "--f", "4", "--target", str(state),
                 "--out", str(out)])
    assert code == EXIT_STATE
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "state"
    assert "barycenter" in error["message"]
    assert list(out.glob("*")) == []
