"""Fuzzing of state documents: any JSON value either loads as a layer or is
rejected with ``StateFileError``, and the commands that read a state exit
with one of the documented codes."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from psdnorm import BatchNormLayer, PsdNormLayer  # noqa: E402
from psdnorm.cli import EXIT_IO, EXIT_OK, EXIT_STATE, EXIT_VALIDATION, main  # noqa: E402
from psdnorm.io import StateFileError, load_state, state_to_dict, write_signal  # noqa: E402

EXIT_CODES = {EXIT_OK, EXIT_IO, EXIT_VALIDATION, EXIT_STATE}
FUZZ = settings(max_examples=40)  # the profile that tests/conftest.py loads sets the rest

# JSON integers are unbounded; 10 ** 400 is beyond the float range.
numbers = st.integers() | st.floats() | st.just(10 ** 400)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
arrays = st.lists(numbers, max_size=4) | st.lists(st.lists(numbers, max_size=5), max_size=3)

# Valid documents that match the flags the commands below are run with.
VALID = [
    state_to_dict(PsdNormLayer(filter_size=4, barycenter=np.ones((1, 4)),
                               update_count=1)),
    state_to_dict(BatchNormLayer(running_mean=np.zeros(1), running_var=np.ones(1),
                                 num_batches_tracked=1)),
]


@st.composite
def documents(draw):
    """Any JSON value, or a valid state document with a few keys replaced
    by other JSON values or arrays, or dropped."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = dict(draw(st.sampled_from(VALID)))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=3)):
        if draw(st.booleans()):
            doc[key] = draw(json_values | arrays)
        else:
            doc.pop(key, None)
    return doc


@pytest.fixture(scope="module")
def signal_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "x.psdn"
    write_signal(path, np.random.default_rng(0).standard_normal((1, 64)))
    return path


@FUZZ
@given(doc=documents())
def test_load_state_returns_a_layer_or_raises_state_file_error(doc):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "state.json"
        path.write_text(json.dumps(doc))
        try:
            layer = load_state(path)
        except StateFileError:
            return
    assert isinstance(layer, (PsdNormLayer, BatchNormLayer))


@FUZZ
@given(doc=documents(), kind=st.sampled_from(["psdnorm", "batchnorm"]),
       mode=st.sampled_from(["train", "eval"]))
def test_commands_exit_with_a_contract_code(signal_path, doc, kind, mode):
    with tempfile.TemporaryDirectory() as d:
        state = Path(d) / "state.json"
        state.write_text(json.dumps(doc))
        out = str(Path(d) / "out")
        codes = [
            main(["align", str(signal_path), "--f", "4", "--target", str(state),
                  "--out", out]),
            main(["layer", str(signal_path), "--kind", kind, "--mode", mode,
                  *(["--f", "4"] if kind == "psdnorm" else []),
                  "--state-in", str(state), "--out", out]),
        ]
    assert set(codes) <= EXIT_CODES
