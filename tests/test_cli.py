"""End-to-end tests of the command-line front end, run in process."""

import json

import numpy as np
import pytest

from psdnorm import DomainSpec, sample_gaussian_with_psd
from psdnorm.cli import EXIT_IO, EXIT_OK, EXIT_STATE, EXIT_VALIDATION, main
from psdnorm.io import load_state, read_signal, save_state, write_signal


def write_white_noise(path, c=2, length=2 ** 12, seed=0):
    spec = DomainSpec(np.ones((c, 8)), n_signals=1, length=length, seed=seed)
    x = sample_gaussian_with_psd(spec)[0]
    write_signal(path, x)
    return read_signal(path)


def read_error(capsys):
    return json.loads(capsys.readouterr().err)["error"]


class TestPsdCommand:
    def test_zero_signal_all_clamped(self, tmp_path):
        sig = tmp_path / "zero.psdn"
        write_signal(sig, np.zeros((2, 64)))
        out_csv = tmp_path / "psd.csv"
        out_json = tmp_path / "psd.json"
        assert main(["psd", str(sig), "--f", "8",
                     "--out-csv", str(out_csv), "--out-json", str(out_json)]) == EXIT_OK
        summary = json.loads(out_json.read_text())
        assert summary["all_clamped"] is True
        assert summary["clamped_bins"] == 16
        assert summary["files"][0]["segments"] == 15

    def test_white_noise_near_flat(self, tmp_path):
        sig = tmp_path / "white.psdn"
        write_white_noise(sig, c=1, length=2 ** 14, seed=3)
        out_csv = tmp_path / "psd.csv"
        out_json = tmp_path / "psd.json"
        assert main(["psd", str(sig), "--f", "8",
                     "--out-csv", str(out_csv), "--out-json", str(out_json)]) == EXIT_OK
        psd = np.loadtxt(out_csv, delimiter=",", ndmin=2)
        assert psd.shape == (1, 8)
        np.testing.assert_allclose(psd, 1.0, atol=0.15)
        summary = json.loads(out_json.read_text())
        assert summary["all_clamped"] is False
        assert summary["config"]["f"] == 8

    def test_missing_file(self, tmp_path, capsys):
        code = main(["psd", str(tmp_path / "absent.psdn"),
                     "--out-csv", str(tmp_path / "a.csv"),
                     "--out-json", str(tmp_path / "a.json")])
        assert code == EXIT_IO
        assert read_error(capsys)["kind"] == "io"

    def test_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.psdn"
        bad.write_bytes(b"not a signal at all")
        code = main(["psd", str(bad),
                     "--out-csv", str(tmp_path / "a.csv"),
                     "--out-json", str(tmp_path / "a.json")])
        assert code == EXIT_IO
        assert read_error(capsys)["kind"] == "io"


class TestAlignCommand:
    def test_align_to_own_barycenter_single_input_centers(self, tmp_path):
        sig = tmp_path / "x.psdn"
        x = write_white_noise(sig, c=1, seed=5) + 2.0
        write_signal(sig, x)
        x = read_signal(sig)
        out = tmp_path / "aligned"
        assert main(["align", str(sig), "--f", "8", "--out", str(out)]) == EXIT_OK
        y = read_signal(out / "x.aligned.psdn")
        np.testing.assert_allclose(
            y, x - x.mean(axis=1, keepdims=True), atol=1e-3
        )
        report = json.loads((out / "report.json").read_text())
        rec = report["signals"][0]
        assert rec["pre_distance"] == pytest.approx(0.0, abs=1e-12)

    def test_unit_target_f1_standardizes(self, tmp_path):
        sig = tmp_path / "x.psdn"
        x = write_white_noise(sig, c=2, seed=6) * 3.0 + 1.0
        write_signal(sig, x)
        out = tmp_path / "aligned"
        assert main(["align", str(sig), "--f", "1", "--stride", "1",
                     "--window", "boxcar", "--target", "unit",
                     "--out", str(out)]) == EXIT_OK
        y = read_signal(out / "x.aligned.psdn")
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-3)

    def test_align_reduces_distance(self, tmp_path):
        spec_a = DomainSpec(
            np.exp(0.8 * np.cos(2 * np.pi * np.arange(8) / 8))[None, :],
            n_signals=1, length=2 ** 13, seed=7,
        )
        spec_b = DomainSpec(
            np.exp(-0.8 * np.cos(2 * np.pi * np.arange(8) / 8))[None, :],
            n_signals=1, length=2 ** 13, seed=8,
        )
        pa = tmp_path / "a.psdn"
        pb = tmp_path / "b.psdn"
        write_signal(pa, sample_gaussian_with_psd(spec_a)[0])
        write_signal(pb, sample_gaussian_with_psd(spec_b)[0])
        out = tmp_path / "aligned"
        assert main(["align", str(pa), str(pb), "--f", "8",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        for rec in report["signals"]:
            assert rec["post_distance"] < rec["pre_distance"]

    def test_matches_inline_composition(self, tmp_path):
        from psdnorm import (
            WelchConfig,
            apply_mapping,
            bures_distance,
            monge_filter,
            wasserstein_barycenter,
            welch_psd,
        )

        paths, signals = [], []
        for seed, offset in ((9, 1.0), (10, -2.0)):
            path = tmp_path / f"s{seed}.psdn"
            write_signal(path, write_white_noise(path, seed=seed) * seed + offset)
            paths.append(path)
            signals.append(read_signal(path))
        out = tmp_path / "aligned"
        assert main(["align", *map(str, paths), "--f", "8", "--out", str(out)]) == EXIT_OK
        cfg = WelchConfig(8)

        def psd(x):
            return welch_psd(x - x.mean(axis=1, keepdims=True), cfg)

        psds = [psd(x) for x in signals]
        target = wasserstein_barycenter(psds)
        records = json.loads((out / "report.json").read_text())["signals"]
        for path, x, p, rec in zip(paths, signals, psds, records):
            y = apply_mapping(x, monge_filter(p, target))
            written = read_signal(out / (path.stem + ".aligned.psdn"))
            np.testing.assert_array_equal(written, y.astype(np.float32).astype(float))
            assert rec["pre_distance"] == bures_distance(p, target)
            assert rec["post_distance"] == bures_distance(psd(y), target)

    def test_shape_mismatch_exit_3(self, tmp_path, capsys):
        pa = tmp_path / "a.psdn"
        pb = tmp_path / "b.psdn"
        write_signal(pa, np.zeros((1, 64)) + np.arange(64))
        write_signal(pb, np.zeros((2, 64)) + np.arange(64))
        code = main(["align", str(pa), str(pb), "--f", "8",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert read_error(capsys)["kind"] == "validation"

    def test_state_target_without_barycenter_exit_4(self, tmp_path, capsys):
        from psdnorm import PsdNormLayer
        from psdnorm.io import save_state

        state = tmp_path / "fresh.json"
        save_state(state, PsdNormLayer(filter_size=8))
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, seed=9)
        code = main(["align", str(sig), "--f", "8", "--target", str(state),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_STATE
        assert read_error(capsys)["kind"] == "state"


    def test_tma_aligner_state_target(self, tmp_path):
        from psdnorm import WelchConfig, tma_fit, tma_transform

        paths, signals = [], []
        for seed in (11, 12, 13):
            path = tmp_path / f"s{seed}.psdn"
            write_signal(path, write_white_noise(path, seed=seed) * (seed - 10))
            signals.append(read_signal(path))
            paths.append(path)
        aligner = tma_fit([np.stack(signals[:2]), signals[2]], WelchConfig(8))
        state = tmp_path / "tma.json"
        save_state(state, aligner)
        out = tmp_path / "aligned"
        assert main(["align", *map(str, paths), "--f", "8", "--target", str(state),
                     "--out", str(out)]) == EXIT_OK
        for path, x in zip(paths, signals):
            written = read_signal(out / (path.stem + ".aligned.psdn"))
            expected = tma_transform(aligner, x).astype(np.float32).astype(float)
            np.testing.assert_array_equal(written, expected)

    @pytest.mark.parametrize("flags, named", [
        (["--window", "boxcar"], "window_kind='boxcar'"),
        (["--stride", "1"], "stride=1"),
        (["--f", "4"], "filter_size=4"),
    ])
    def test_state_target_with_other_welch_flags_exit_4(self, tmp_path, capsys,
                                                         flags, named):
        from psdnorm import PsdNormLayer

        state = tmp_path / "state.json"
        save_state(state, PsdNormLayer(filter_size=8, barycenter=np.ones((1, 8)),
                                       update_count=1))
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, seed=14)
        out = tmp_path / "out"
        code = main(["align", str(sig), "--f", "8", *flags, "--target", str(state),
                     "--out", str(out)])
        assert code == EXIT_STATE
        error = read_error(capsys)
        assert error["kind"] == "state"
        assert "window_kind='hann'" in error["message"] and named in error["message"]
        assert not (out / "x.aligned.psdn").exists()


class TestMalformedState:
    """Every defective state document ends in exit 4 with the JSON error."""

    def run(self, tmp_path, command, doc):
        state = tmp_path / "state.json"
        state.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, length=2 ** 10, seed=15)
        out = tmp_path / "out"
        if command == "align":
            argv = ["align", str(sig), "--f", "4", "--target", str(state)]
        else:
            argv = ["layer", str(sig), "--kind", "psdnorm", "--f", "4",
                    "--state-in", str(state)]
        return main(argv + ["--out", str(out)]), out

    @staticmethod
    def psdnorm_doc(tmp_path):
        from psdnorm import PsdNormLayer

        path = tmp_path / "good.json"
        save_state(path, PsdNormLayer(filter_size=4, barycenter=np.ones((1, 4)),
                                      update_count=1))
        return json.loads(path.read_text())

    @pytest.mark.parametrize("command", ["align", "layer"])
    def test_missing_update_count(self, tmp_path, capsys, command):
        doc = self.psdnorm_doc(tmp_path)
        del doc["update_count"]
        code, _ = self.run(tmp_path, command, doc)
        assert code == EXIT_STATE
        error = read_error(capsys)
        assert error["kind"] == "state"
        assert "update_count" in error["message"]

    @pytest.mark.parametrize("command", ["align", "layer"])
    def test_json_list(self, tmp_path, capsys, command):
        code, _ = self.run(tmp_path, command, [1, 2, 3])
        assert code == EXIT_STATE
        assert read_error(capsys)["kind"] == "state"

    def test_batchnorm_state_for_psdnorm_layer(self, tmp_path, capsys):
        from psdnorm import BatchNormLayer

        state = tmp_path / "bn.json"
        save_state(state, BatchNormLayer())
        code, _ = self.run(tmp_path, "layer", state.read_text())
        assert code == EXIT_STATE
        error = read_error(capsys)
        assert error["kind"] == "state"
        assert "'batchnorm' is not 'psdnorm'" in error["message"]

    def test_psdnorm_state_for_batchnorm_layer(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(self.psdnorm_doc(tmp_path)))
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, length=2 ** 10, seed=16)
        code = main(["layer", str(sig), "--kind", "batchnorm", "--mode", "eval",
                     "--state-in", str(state), "--out", str(tmp_path / "out")])
        assert code == EXIT_STATE
        assert read_error(capsys)["kind"] == "state"

    @pytest.mark.parametrize("command", ["align", "layer"])
    def test_nan_barycenter_writes_nothing(self, tmp_path, capsys, command):
        doc = self.psdnorm_doc(tmp_path)
        doc["barycenter"][0][1] = float("nan")
        code, out = self.run(tmp_path, command, doc)
        assert code == EXIT_STATE
        assert read_error(capsys)["kind"] == "state"
        assert list(out.glob("*.psdn")) == []

    @pytest.mark.parametrize("command", ["align", "layer"])
    def test_nan_momentum_writes_nothing(self, tmp_path, capsys, command):
        doc = self.psdnorm_doc(tmp_path)
        doc["momentum"] = float("nan")
        code, out = self.run(tmp_path, command, doc)
        assert code == EXIT_STATE
        assert "momentum must be a finite number" in read_error(capsys)["message"]
        assert list(out.glob("*.psdn")) == []


    def test_batchnorm_state_without_statistics(self, tmp_path, capsys):
        doc = {"kind": "batchnorm", "gamma": 1.0, "beta": 0.0, "eps": 1e-5,
               "stat_momentum": 0.1, "running_mean": None, "running_var": None,
               "num_batches_tracked": 2}
        state = tmp_path / "bn.json"
        state.write_text(json.dumps(doc))
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, length=2 ** 10, seed=17)
        code = main(["layer", str(sig), "--kind", "batchnorm", "--mode", "eval",
                     "--state-in", str(state), "--out", str(tmp_path / "out")])
        assert code == EXIT_STATE
        assert read_error(capsys)["kind"] == "state"


class TestLayerStateFlags:
    """``layer --state-in`` rejects flags that differ from the state, like
    ``align --target``."""

    @pytest.mark.parametrize("kind, flags, named", [
        ("psdnorm", ["--f", "8"], "filter_size=8"),
        ("psdnorm", ["--stride", "1"], "stride=1"),
        ("psdnorm", ["--window", "boxcar"], "window_kind='boxcar'"),
        ("psdnorm", ["--momentum", "0.5"], "momentum 0.01, the flags give 0.5"),
        ("batchnorm", ["--eps", "0.001"], "eps 1e-05, the flags give 0.001"),
    ])
    def test_other_flags_exit_4(self, tmp_path, capsys, kind, flags, named):
        from psdnorm import BatchNormLayer, PsdNormLayer

        state = tmp_path / "state.json"
        save_state(state, PsdNormLayer(filter_size=4, barycenter=np.ones((1, 4)),
                                       update_count=1) if kind == "psdnorm"
                   else BatchNormLayer(running_mean=np.zeros(1),
                                       running_var=np.ones(1), num_batches_tracked=1))
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, length=2 ** 10, seed=18)
        out = tmp_path / "out"
        argv = ["layer", str(sig), "--kind", kind, "--mode", "eval", "--f", "4",
                "--state-in", str(state), "--out", str(out)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        code = main(argv + flags)
        assert code == EXIT_STATE
        error = read_error(capsys)
        assert error["kind"] == "state"
        assert named in error["message"]


class TestAlignWritesAllOrNothing:
    """align checks every output before it keeps any file: on exit 3 no
    .aligned.psdn file and no report.json of the call is left."""

    def state(self, tmp_path, barycenter):
        from psdnorm import PsdNormLayer

        path = tmp_path / "state.json"
        save_state(path, PsdNormLayer(filter_size=4, barycenter=barycenter,
                                      update_count=1))
        return str(path)

    def test_float32_overflow_exit_3(self, tmp_path, capsys):
        ok, loud = tmp_path / "ok.psdn", tmp_path / "loud.psdn"
        write_white_noise(ok, c=1, length=256, seed=24)
        write_signal(loud, 1e36 * np.random.default_rng(24).standard_normal((1, 256)))
        out = tmp_path / "out"
        code = main(["align", str(ok), str(loud), "--f", "4", "--out", str(out),
                     "--target", self.state(tmp_path, np.full((1, 4), 1e80))])
        assert code == EXIT_VALIDATION
        error = read_error(capsys)
        assert error["kind"] == "validation" and "loud.psdn" in error["message"]
        assert "not finite in float32" in error["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("target", ["unit", "state"])
    def test_channel_count_differs_from_target_exit_3(self, tmp_path, capsys, target):
        pa, pb = tmp_path / "a.psdn", tmp_path / "b.psdn"
        write_white_noise(pa, c=2, length=256, seed=25)
        write_white_noise(pb, c=3, length=256, seed=26)
        if target == "state":
            target = self.state(tmp_path, np.ones((2, 4)))
        out = tmp_path / "out"
        code = main(["align", str(pa), str(pb), "--f", "4", "--target", target,
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "b.psdn: PSD shape (3, 4) differs" in read_error(capsys)["message"]
        assert list(out.iterdir()) == []

    def test_failure_after_a_written_file_removes_it(self, tmp_path, capsys,
                                                     monkeypatch):
        import psdnorm.cli

        paths = [tmp_path / f"s{i}.psdn" for i in range(3)]
        for i, path in enumerate(paths):
            write_white_noise(path, c=1, length=256, seed=27 + i)
        written = []
        write = psdnorm.cli.write_signal

        def write_then_fail(path, y):
            write(path, y)
            written.append(path)
            if len(written) == 2:
                raise OSError("disk full")

        monkeypatch.setattr(psdnorm.cli, "write_signal", write_then_fail)
        out = tmp_path / "out"
        (out / "old").mkdir(parents=True)
        code = main(["align", *map(str, paths), "--f", "4", "--out", str(out)])
        assert code == EXIT_IO and "disk full" in read_error(capsys)["message"]
        assert len(written) == 2
        assert [p.name for p in out.iterdir()] == ["old"]


class TestBatchNormState:
    def run(self, tmp_path, **changes):
        doc = {"kind": "batchnorm", "gamma": 1.0, "beta": 0.0, "eps": 1e-5,
               "stat_momentum": 0.1, "running_mean": [0.0, 0.0],
               "running_var": [1.0, 1.0], "num_batches_tracked": 1, **changes}
        state = tmp_path / "bn.json"
        state.write_text(json.dumps(doc))
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=2, length=2 ** 10, seed=19)
        out = tmp_path / "out"
        code = main(["layer", str(sig), "--kind", "batchnorm", "--mode", "eval",
                     "--state-in", str(state), "--out", str(out)])
        return code, out

    def test_statistics_of_other_channel_count_exit_3(self, tmp_path, capsys):
        code, out = self.run(tmp_path, running_mean=[0.0] * 3, running_var=[1.0] * 3)
        assert code == EXIT_VALIDATION
        assert "batch has 2 channels, the layer has 3" in read_error(capsys)["message"]
        assert list(out.glob("*.psdn")) == []

    @pytest.mark.parametrize("changes, message", [
        ({"running_var": [1.0]}, "differ in length"),
        ({"running_var": [-1.0, 1.0]}, "running_var must be >= 0"),
        ({"running_mean": [float("nan"), 0.0]}, "running_mean contains NaN"),
        ({"eps": float("nan")}, "eps must be a finite number"),
        pytest.param({"eps": 10 ** 400}, "eps must be a finite number",
                     id="changes4-eps 10**400"),
        ({"stat_momentum": float("inf")}, "stat_momentum must be a finite number"),
    ])
    def test_invalid_statistics_exit_4(self, tmp_path, capsys, changes, message):
        code, out = self.run(tmp_path, **changes)
        assert code == EXIT_STATE
        error = read_error(capsys)
        assert error["kind"] == "state" and message in error["message"]
        assert list(out.glob("*.psdn")) == []



class TestNonFiniteResult:
    """NaN never reaches a written file with exit 0."""

    @pytest.mark.parametrize("kind", ["instancenorm", "layernorm"])
    def test_zero_eps_on_constant_file_writes_nothing(self, tmp_path, capsys, kind):
        sig = tmp_path / "x.psdn"
        write_signal(sig, np.full((2, 64), 3.0))
        out = tmp_path / "out"
        code = main(["layer", str(sig), "--kind", kind, "--eps", "0",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "not finite" in read_error(capsys)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["instancenorm", "layernorm"])
    def test_negative_eps_exit_3(self, tmp_path, capsys, kind):
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, length=2 ** 10, seed=20)
        code = main(["layer", str(sig), "--kind", kind, "--eps", "-0.5",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "eps must be" in read_error(capsys)["message"]

    @pytest.mark.parametrize("kind", ["instancenorm", "layernorm", "batchnorm"])
    def test_nan_eps_exit_3(self, tmp_path, capsys, kind):
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, length=2 ** 10, seed=31)
        out = tmp_path / "out"
        code = main(["layer", str(sig), "--kind", kind, "--eps", "nan",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "eps must be a finite number" in read_error(capsys)["message"]
        assert not out.exists()

    def test_bench_without_seeds_exit_3(self, tmp_path, capsys):
        out = tmp_path / "b"
        code = main(["bench", "--seeds", "0", "--signals", "2",
                     "--length", str(2 ** 10), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "--seeds" in read_error(capsys)["message"]
        assert not out.exists()


class TestNonFiniteSignal:
    @pytest.mark.parametrize("kind", ["psdnorm", "instancenorm", "batchnorm", "layernorm"])
    def test_layer_rejects_nan_file(self, tmp_path, capsys, kind):
        sig = tmp_path / "x.psdn"
        x = np.ones((2, 64))
        x[0, 5] = np.nan
        write_signal(sig, x)
        out = tmp_path / "out"
        code = main(["layer", str(sig), "--kind", kind, "--f", "4", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert read_error(capsys)["kind"] == "validation"
        assert not (out / "x.out.psdn").exists()


class TestLayerCommand:
    def make_batch(self, tmp_path, n=3, seed=0):
        paths = []
        for j in range(n):
            p = tmp_path / f"sig{j}.psdn"
            write_white_noise(p, c=2, length=2 ** 11, seed=seed * 1000 + j)
            paths.append(str(p))
        return paths

    def test_train_then_eval_round_trip(self, tmp_path):
        paths = self.make_batch(tmp_path)
        out1 = tmp_path / "train_out"
        state1 = tmp_path / "state1.json"
        code = main(["layer", *paths, "--kind", "psdnorm", "--mode", "train",
                     "--f", "4", "--state-out", str(state1), "--out", str(out1)])
        assert code == EXIT_OK
        layer = load_state(state1)
        assert layer.update_count == 1

        out2 = tmp_path / "eval_out"
        state2 = tmp_path / "state2.json"
        code = main(["layer", *paths, "--kind", "psdnorm", "--mode", "eval",
                     "--f", "4", "--state-in", str(state1),
                     "--state-out", str(state2), "--out", str(out2)])
        assert code == EXIT_OK
        assert state1.read_bytes() == state2.read_bytes()

        # Eval is deterministic: repeating it reproduces identical bytes.
        out3 = tmp_path / "eval_out_2"
        code = main(["layer", *paths, "--kind", "psdnorm", "--mode", "eval",
                     "--f", "4", "--state-in", str(state1), "--out", str(out3)])
        assert code == EXIT_OK
        for p in paths:
            stem = p.rsplit("/", 1)[-1].replace(".psdn", "")
            a = (out2 / f"{stem}.out.psdn").read_bytes()
            b = (out3 / f"{stem}.out.psdn").read_bytes()
            assert a == b

    def test_eval_without_state_exit_4(self, tmp_path, capsys):
        paths = self.make_batch(tmp_path, n=1, seed=1)
        code = main(["layer", *paths, "--kind", "psdnorm", "--mode", "eval",
                     "--f", "4", "--out", str(tmp_path / "out")])
        assert code == EXIT_STATE
        assert read_error(capsys)["kind"] == "state"

    def test_instancenorm_outputs(self, tmp_path):
        paths = self.make_batch(tmp_path, n=2, seed=2)
        out = tmp_path / "out"
        code = main(["layer", *paths, "--kind", "instancenorm", "--eps", "0",
                     "--out", str(out)])
        assert code == EXIT_OK
        for p in paths:
            stem = p.rsplit("/", 1)[-1].replace(".psdn", "")
            y = read_signal(out / f"{stem}.out.psdn")
            np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-6)
            np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-3)

    def test_batchnorm_state_round_trip(self, tmp_path):
        paths = self.make_batch(tmp_path, n=2, seed=3)
        state1 = tmp_path / "bn1.json"
        code = main(["layer", *paths, "--kind", "batchnorm", "--mode", "train",
                     "--state-out", str(state1), "--out", str(tmp_path / "o1")])
        assert code == EXIT_OK
        layer = load_state(state1)
        assert layer.num_batches_tracked == 1

        state2 = tmp_path / "bn2.json"
        code = main(["layer", *paths, "--kind", "batchnorm", "--mode", "eval",
                     "--state-in", str(state1), "--state-out", str(state2),
                     "--out", str(tmp_path / "o2")])
        assert code == EXIT_OK
        assert state1.read_bytes() == state2.read_bytes()


class TestBenchCommand:
    def test_none_ratio_one_and_psdnorm_wins(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--domains", "2", "--seeds", "2",
                     "--signals", "4", "--length", str(2 ** 11),
                     "--channels", "1", "--f", "8",
                     "--methods", "none,instancenorm,psdnorm",
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        results = report["results"]
        assert results["none"]["mean"] == pytest.approx(1.0)
        assert results["psdnorm"]["mean"] < results["instancenorm"]["mean"]
        csv_lines = (out / "ratios.csv").read_text().splitlines()
        assert csv_lines[0] == "method,mean_ratio,std_ratio"
        assert len(csv_lines) == 4

    def test_repeat_is_byte_identical(self, tmp_path):
        args = ["bench", "--domains", "2", "--seeds", "2", "--signals", "4",
                "--length", str(2 ** 11), "--channels", "1", "--f", "8",
                "--methods", "psdnorm"]
        out1 = tmp_path / "b1"
        out2 = tmp_path / "b2"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "ratios.csv").read_bytes() == (out2 / "ratios.csv").read_bytes()

    def test_unknown_method_exit_3(self, tmp_path, capsys):
        code = main(["bench", "--methods", "zscore",
                     "--seeds", "1", "--signals", "2",
                     "--length", str(2 ** 10),
                     "--out", str(tmp_path / "b")])
        assert code == EXIT_VALIDATION
        assert read_error(capsys)["kind"] == "validation"
