"""Tests for the binary signal container and JSON state documents."""

import json

import numpy as np
import pytest

from psdnorm import (
    BatchNormLayer,
    NonFiniteInputError,
    PsdNormLayer,
    ShapeMismatchError,
    batchnorm_forward,
    psdnorm_forward,
)
from psdnorm.io import (
    SignalFileError,
    StateFileError,
    load_state,
    read_rows,
    read_signal,
    save_state,
    signal_shape,
    state_to_dict,
    write_signal,
)


class TestSignalContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 17)).astype(np.float32).astype(float)
        path = tmp_path / "sig.psdn"
        write_signal(path, x)
        np.testing.assert_array_equal(read_signal(path), x)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "sig.psdn"
        write_signal(path, np.zeros((2, 5)))
        raw = path.read_bytes()
        assert raw[:4] == b"PSDN"
        assert len(raw) == 20 + 2 * 5 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "sig.psdn"
        write_signal(path, np.zeros((1, 4)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"WAVE"
        path.write_bytes(bytes(raw))
        with pytest.raises(SignalFileError):
            read_signal(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "sig.psdn"
        path.write_bytes(b"PSDN\x01")
        with pytest.raises(SignalFileError):
            read_signal(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "sig.psdn"
        write_signal(path, np.zeros((1, 8)))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(SignalFileError):
            read_signal(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "sig.psdn"
        write_signal(path, np.zeros((1, 4)))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(SignalFileError):
            read_signal(path)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ShapeMismatchError):
            write_signal(tmp_path / "x.psdn", np.zeros(8))

    def test_rows_written_from_an_iterator(self, tmp_path):
        x = np.arange(12.0).reshape(3, 4)
        whole, rows = tmp_path / "whole.psdn", tmp_path / "rows.psdn"
        write_signal(whole, x)
        write_signal(rows, (row for row in x))
        assert rows.read_bytes() == whole.read_bytes()

    def test_rows_of_other_lengths_refused(self, tmp_path):
        with pytest.raises(ShapeMismatchError, match="row 1 has shape"):
            write_signal(tmp_path / "x.psdn", iter([np.zeros(4), np.zeros(3)]))

    def test_read_rows_yields_each_row(self, tmp_path):
        path = tmp_path / "sig.psdn"
        x = np.arange(12.0).reshape(3, 4)
        write_signal(path, x)
        assert signal_shape(path) == (3, 4)
        rows = list(read_rows(path, (3, 4)))
        assert [r.dtype for r in rows] == [np.float64] * 3
        np.testing.assert_array_equal(np.stack(rows), x)

    def test_read_rows_refuses_a_changed_shape(self, tmp_path):
        path = tmp_path / "sig.psdn"
        write_signal(path, np.zeros((2, 6)))
        shape = signal_shape(path)
        write_signal(path, np.zeros((3, 4)))
        with pytest.raises(SignalFileError, match="differs from the"):
            next(read_rows(path, shape))

    @pytest.mark.parametrize("shape", [(2, 0), (0, 64)])
    def test_empty_axis_refused_naming_the_file(self, tmp_path, shape):
        path = tmp_path / "empty.psdn"
        write_signal(path, np.ones(shape))
        with pytest.raises(ShapeMismatchError, match="empty.psdn: signal must"):
            read_signal(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, tmp_path, bad):
        path = tmp_path / "sig.psdn"
        x = np.zeros((2, 8))
        x[1, 3] = bad
        write_signal(path, x)
        with pytest.raises(NonFiniteInputError, match="sig.psdn"):
            read_signal(path)


class TestStateDocuments:
    def test_psdnorm_round_trip_byte_identical(self, tmp_path):
        bary = np.array([[1.5, 2.25, 2.25]])  # bins 1 and 2 mirror each other
        layer = PsdNormLayer(filter_size=3, barycenter=bary, update_count=3)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_state(p1, layer)
        save_state(p2, load_state(p1))
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_state(p1)
        assert loaded.filter_size == 3
        np.testing.assert_array_equal(loaded.barycenter, bary)
        assert loaded.update_count == 3

    def test_momentum_round_trip_gives_identical_next_step(self, tmp_path):
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((3, 2, 64))
        layer = PsdNormLayer(filter_size=4, momentum=0.5,
                             barycenter=np.full((2, 4), 2.0), update_count=1)
        path = tmp_path / "s.json"
        save_state(path, layer)
        loaded = load_state(path)
        assert loaded.momentum == 0.5
        out_a, layer_a = psdnorm_forward(layer, batch)
        out_b, layer_b = psdnorm_forward(loaded, batch)
        np.testing.assert_array_equal(out_a, out_b)
        np.testing.assert_array_equal(layer_a.barycenter, layer_b.barycenter)

    def test_fresh_psdnorm_state(self, tmp_path):
        path = tmp_path / "fresh.json"
        save_state(path, PsdNormLayer(filter_size=4))
        loaded = load_state(path)
        assert loaded.barycenter is None
        assert loaded.update_count == 0

    def test_earlier_document_gives_the_same_next_step(self, tmp_path):
        # The layout written before the barycenter moved onto the layer.
        path = tmp_path / "old.json"
        path.write_text(
            '{\n  "barycenter": [\n    [\n      1.5,\n      0.5,\n      0.25,\n'
            '      0.5\n    ]\n  ],\n  "f": 4,\n  "kind": "psdnorm",\n'
            '  "library_version": "0.1.0",\n  "momentum": 0.25,\n'
            '  "update_count": 2,\n  "welch": {\n    "filter_size": 4,\n'
            '    "stride": 2,\n    "window_kind": "hann"\n  }\n}\n'
        )
        loaded = load_state(path)
        layer = PsdNormLayer(filter_size=4, momentum=0.25,
                             barycenter=np.array([[1.5, 0.5, 0.25, 0.5]]),
                             update_count=2)
        batch = np.random.default_rng(2).standard_normal((3, 1, 64))
        out_a, layer_a = psdnorm_forward(loaded, batch)
        out_b, layer_b = psdnorm_forward(layer, batch)
        np.testing.assert_array_equal(out_a, out_b)
        np.testing.assert_array_equal(layer_a.barycenter, layer_b.barycenter)
        assert layer_a.update_count == 3
        save_state(tmp_path / "new.json", loaded)
        assert (tmp_path / "new.json").read_bytes() == path.read_bytes()

    def test_roundoff_asymmetry_loads_and_gives_the_same_next_step(self, tmp_path):
        # Bin 3 mirrors bin 1 up to 1e-15 of the largest bin: roundoff, as in
        # states whose PSDs came from a two-sided FFT.
        bary = np.array([[1.5, 0.5, 0.25, 0.5]])
        doc = state_to_dict(PsdNormLayer(filter_size=4, barycenter=bary,
                                         update_count=2))
        doc["barycenter"][0][3] += 1.5e-15
        path = tmp_path / "roundoff.json"
        path.write_text(json.dumps(doc))
        loaded = load_state(path)
        assert loaded.barycenter[0, 3] != loaded.barycenter[0, 1]
        layer = PsdNormLayer(filter_size=4, barycenter=bary, update_count=2)
        batch = np.random.default_rng(3).standard_normal((3, 1, 64))
        for mode in ("train", "eval"):
            out_a, layer_a = psdnorm_forward(loaded, batch, mode)
            out_b, layer_b = psdnorm_forward(layer, batch, mode)
            np.testing.assert_array_equal(out_a, out_b)
            np.testing.assert_allclose(layer_a.barycenter, layer_b.barycenter,
                                       rtol=1e-14)

    def test_batchnorm_round_trip_byte_identical(self, tmp_path):
        layer = BatchNormLayer(
            stat_momentum=0.25,
            running_mean=np.array([0.25, -0.5]),
            running_var=np.array([1.5, 0.75]),
            num_batches_tracked=4,
        )
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_state(p1, layer)
        save_state(p2, load_state(p1))
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_state(p1)
        np.testing.assert_array_equal(loaded.running_mean, layer.running_mean)
        assert loaded.num_batches_tracked == 4
        assert not {"gamma", "beta"} & set(json.loads(p1.read_text()))

    def test_batchnorm_document_with_identity_affine_loads(self, tmp_path):
        # Documents written while the layer had a fixed affine carry gamma 1
        # and beta 0; they load as the layer without it, and map the same.
        layer = BatchNormLayer(running_mean=np.array([0.25, -0.5]),
                               running_var=np.array([1.5, 0.75]),
                               num_batches_tracked=4)
        doc = {**state_to_dict(layer), "gamma": 1.0, "beta": 0.0}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        loaded = load_state(path)
        assert state_to_dict(loaded) == state_to_dict(layer)
        batch = np.random.default_rng(4).standard_normal((3, 2, 64))
        for mode in ("train", "eval"):
            np.testing.assert_array_equal(batchnorm_forward(loaded, batch, mode)[0],
                                          batchnorm_forward(layer, batch, mode)[0])

    def test_state_is_sorted_json(self, tmp_path):
        path = tmp_path / "s.json"
        save_state(path, PsdNormLayer(filter_size=2))
        text = path.read_text()
        keys = [ln.strip().split('"')[1] for ln in text.splitlines()
                if ln.startswith('  "')]
        assert keys == sorted(keys)
        assert text.endswith("\n")



_DROP = object()


def _psdnorm_doc(**changes) -> dict:
    """A valid psdnorm state document with some keys changed or dropped."""
    doc = {
        "kind": "psdnorm", "library_version": "0.1.0", "f": 2, "momentum": 0.01,
        "welch": {"filter_size": 2, "stride": 1, "window_kind": "hann"},
        "barycenter": [[1.0, 2.0]], "update_count": 1,
    }
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not _DROP}


class TestMalformedStateDocuments:
    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "JSON object"),
        ("psdnorm", "JSON object"),
        ({"kind": "zscore"}, "unsupported state kind"),
        (_psdnorm_doc(update_count=_DROP), "no key 'update_count'"),
        (_psdnorm_doc(f="2"), "'f' has type str"),
        (_psdnorm_doc(update_count=True), "'update_count' has type bool"),
        (_psdnorm_doc(barycenter={"a": 1}), "'barycenter' has type dict"),
        (_psdnorm_doc(welch={"filter_size": 2, "stride": 1}), "no key 'window_kind'"),
        (_psdnorm_doc(barycenter=[[1.0, "x"]]), "psdnorm state: could not convert"),
        (_psdnorm_doc(barycenter=[[1.0, 2.0], [3.0]]), "psdnorm state: setting an array element"),
        (_psdnorm_doc(barycenter=[[1.0, 2.0, 3.0]]), "shape"),
        (_psdnorm_doc(barycenter=[[1.0, float("nan")]]), "NaN"),
        (_psdnorm_doc(barycenter=[[1.0, 0.0]]), "positive"),
        (_psdnorm_doc(update_count=0), "update_count"),
        (_psdnorm_doc(update_count=-1), "update_count"),
        (_psdnorm_doc(barycenter=None), "update_count"),
        (_psdnorm_doc(momentum=2.0), "momentum"),
        ({"kind": "batchnorm", "gamma": 1.0, "beta": 0.0}, "no key 'eps'"),
        (_psdnorm_doc(barycenter=[[10 ** 400, 2.0]]), "too large to convert"),
        # Only the identity affine (gamma 1, beta 0) of earlier documents loads.
        ({**state_to_dict(BatchNormLayer()), "gamma": 2.0}, "key 'gamma' is 2.0"),
        ({**state_to_dict(BatchNormLayer()), "beta": -1.0}, "key 'beta' is -1.0"),
        ({**state_to_dict(BatchNormLayer()), "gamma": [1.0, 1.0]},
         "key 'gamma' has type list"),
        ({**state_to_dict(BatchNormLayer()), "beta": True}, "key 'beta' has type bool"),
        # The layer's one filter size is stored twice; the two must agree.
        (_psdnorm_doc(welch={"filter_size": 4, "stride": 1, "window_kind": "hann"}),
         "key 'f' is 2, but welch.filter_size is 4"),
    ])
    def test_rejected_with_state_file_error(self, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StateFileError, match=message) as info:
            load_state(path)
        assert str(path) in str(info.value)

    def test_valid_document_loads(self, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(_psdnorm_doc()))
        np.testing.assert_array_equal(load_state(path).barycenter, [[1.0, 2.0]])

    def test_kind_must_match_when_given(self, tmp_path):
        path = tmp_path / "bn.json"
        save_state(path, BatchNormLayer())
        assert isinstance(load_state(path, kind="batchnorm"), BatchNormLayer)
        with pytest.raises(StateFileError, match="'batchnorm' is not 'psdnorm'"):
            load_state(path, kind="psdnorm")
