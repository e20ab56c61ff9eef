"""Tests for the binary signal container and JSON state documents."""

import numpy as np
import pytest

from psdnorm import (
    BarycenterState,
    BatchNormLayer,
    PsdNormLayer,
    ShapeMismatchError,
    WelchConfig,
    psdnorm_forward,
)
from psdnorm.io import (
    SignalFileError,
    load_state,
    read_signal,
    save_state,
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


class TestStateDocuments:
    def test_psdnorm_round_trip_byte_identical(self, tmp_path):
        bary = BarycenterState(value=np.array([[1.5, 2.25, 0.75]]), update_count=3)
        layer = PsdNormLayer(filter_size=3, welch=WelchConfig(3), barycenter=bary)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_state(p1, layer)
        save_state(p2, load_state(p1))
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_state(p1)
        assert loaded.filter_size == 3
        np.testing.assert_array_equal(loaded.barycenter.value, bary.value)
        assert loaded.barycenter.update_count == 3

    def test_momentum_round_trip_gives_identical_next_step(self, tmp_path):
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((3, 2, 64))
        bary = BarycenterState(value=np.full((2, 4), 2.0), update_count=1)
        layer = PsdNormLayer(filter_size=4, momentum=0.5, barycenter=bary)
        path = tmp_path / "s.json"
        save_state(path, layer)
        loaded = load_state(path)
        assert loaded.momentum == 0.5
        out_a, layer_a = psdnorm_forward(layer, batch)
        out_b, layer_b = psdnorm_forward(loaded, batch)
        np.testing.assert_array_equal(out_a, out_b)
        np.testing.assert_array_equal(layer_a.barycenter.value, layer_b.barycenter.value)

    def test_fresh_psdnorm_state(self, tmp_path):
        path = tmp_path / "fresh.json"
        save_state(path, PsdNormLayer(filter_size=4))
        loaded = load_state(path)
        assert loaded.barycenter.is_empty
        assert loaded.barycenter.update_count == 0

    def test_batchnorm_round_trip_byte_identical(self, tmp_path):
        layer = BatchNormLayer(
            gamma=2.0,
            beta=-1.0,
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

    def test_state_is_sorted_json(self, tmp_path):
        path = tmp_path / "s.json"
        save_state(path, PsdNormLayer(filter_size=2))
        text = path.read_text()
        keys = [ln.strip().split('"')[1] for ln in text.splitlines()
                if ln.startswith('  "')]
        assert keys == sorted(keys)
        assert text.endswith("\n")

