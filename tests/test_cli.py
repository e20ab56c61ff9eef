"""End-to-end tests of the command-line front end, run in process."""

import json
import warnings

import numpy as np
import pytest

import psdnorm.cli
import psdnorm.errors
import psdnorm.io
import psdnorm.synth
from psdnorm import (
    AsymmetricPsdError,
    DomainSpec,
    EvalWithoutStatsError,
    LengthTooShortError,
    NonFiniteInputError,
    NonPositivePsdError,
    ParameterOutOfRangeError,
    ShapeMismatchError,
    WelchConfig,
    evaluate_alignment,
    make_shifted_domains,
    monge_filter,
    sample_gaussian_with_psd,
    welch_psd,
)
from psdnorm.cli import EXIT_IO, EXIT_OK, EXIT_STATE, EXIT_VALIDATION, main
from psdnorm.io import (
    SignalFileError,
    StateFileError,
    load_state,
    read_signal,
    save_state,
    write_signal,
)


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

    def test_silent_channel_beside_a_noisy_one(self, tmp_path):
        sig = tmp_path / "half.psdn"
        x = write_white_noise(sig, c=2, length=256, seed=4)
        x[0] = 0.0
        write_signal(sig, x)
        out_csv = tmp_path / "psd.csv"
        out_json = tmp_path / "psd.json"
        assert main(["psd", str(sig), "--f", "8",
                     "--out-csv", str(out_csv), "--out-json", str(out_json)]) == EXIT_OK
        summary = json.loads(out_json.read_text())
        assert summary["files"][0]["clamped_bins"] == summary["clamped_bins"] == 8
        assert summary["all_clamped"] is False
        np.testing.assert_array_equal(np.loadtxt(out_csv, delimiter=",", ndmin=2),
                                      welch_psd(read_signal(sig), WelchConfig(8)))

    def test_peak_memory_is_below_two_rows(self, tmp_path):
        # psd reads one row at a time, as align does: a (4, 2^16) file never
        # has two of its float64 rows in memory at once.
        import tracemalloc

        length = 2 ** 16
        sig = tmp_path / "long.psdn"
        write_white_noise(sig, c=4, length=length, seed=5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["psd", str(sig), "--f", "64", "--out-csv",
                         str(tmp_path / "a.csv"), "--out-json",
                         str(tmp_path / "a.json")]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * length

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

    def test_failed_json_write_leaves_no_csv(self, tmp_path, capsys):
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, length=256, seed=4)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["psd", str(sig), "--out-csv", str(out / "a.csv"),
                     "--out-json", str(tmp_path / "absent" / "a.json")])
        assert code == EXIT_IO
        assert read_error(capsys)["kind"] == "io"
        assert list(out.iterdir()) == []

    def test_one_path_for_csv_and_json_exit_3(self, tmp_path, capsys):
        # The JSON would silently replace the PSD table.
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, length=256, seed=4)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["psd", str(sig), "--out-csv", str(out / "o.txt"),
                     "--out-json", str(out / "." / "o.txt")])
        assert code == EXIT_VALIDATION
        error = read_error(capsys)
        assert error["kind"] == "validation"
        assert "two outputs would be written to" in error["message"]
        assert list(out.iterdir()) == []

    def test_directory_output_path_leaves_no_csv(self, tmp_path, capsys):
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=1, length=256, seed=4)
        out = tmp_path / "out"
        (out / "j.json").mkdir(parents=True)
        code = main(["psd", str(sig), "--out-csv", str(out / "a.csv"),
                     "--out-json", str(out / "j.json")])
        assert code == EXIT_IO
        assert read_error(capsys)["kind"] == "io"
        assert [p.name for p in out.iterdir()] == ["j.json"]


class TestAlignCommand:
    def test_inputs_with_one_stem_exit_3(self, tmp_path, capsys):
        paths = [tmp_path / d / "x.psdn" for d in ("a", "b")]
        for seed, path in enumerate(paths):
            path.parent.mkdir()
            write_white_noise(path, c=1, length=256, seed=seed)
        out = tmp_path / "out"
        code = main(["align", *map(str, paths), "--f", "4", "--out", str(out)])
        assert code == EXIT_VALIDATION
        error = read_error(capsys)
        assert error["kind"] == "validation"
        assert "would both be written to" in error["message"]
        assert list(out.glob("*")) == []

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

    def test_taps_are_synthesised_once_per_call(self, tmp_path, monkeypatch):
        calls = []

        def counting(p_src, p_tgt):
            calls.append(np.shape(p_src))
            return monge_filter(p_src, p_tgt)

        monkeypatch.setattr("psdnorm.cli.monge_filter", counting)
        paths = [tmp_path / f"s{seed}.psdn" for seed in range(3)]
        for seed, path in enumerate(paths):
            write_white_noise(path, c=2, length=256, seed=seed)
        assert main(["align", *map(str, paths), "--f", "8",
                     "--out", str(tmp_path / "aligned")]) == EXIT_OK
        assert calls == [(3, 2, 8)]

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


class TestCommandLine:
    """A malformed command line is a validation failure: exit 3 and one JSON
    error line, not argparse's exit 2 and usage text."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["psd", "x.psdn", "--f", "abc", "--out-csv", "p.csv",
                      "--out-json", "p.json"], id="bad int"),
        pytest.param(["layer", "x.psdn", "--kind", "psdnorm", "--momentum", "abc",
                      "--out", "o"], id="bad float"),
        pytest.param(["layer", "x.psdn", "--kind", "foo", "--out", "o"],
                     id="unknown choice"),
        pytest.param(["align", "x.psdn"], id="missing required flag"),
        pytest.param(["psd", "x.psdn", "--out-csv", "p.csv", "--out-json", "p.json",
                      "--bogus"], id="unknown flag"),
        pytest.param(["frobnicate"], id="unknown subcommand"),
        pytest.param([], id="empty argv"),
    ])
    def test_malformed_exits_3(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "validation"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, named", [
        pytest.param(["psd", "--f", "0", "--out-csv", "p.csv", "--out-json", "p.json"],
                     "--f must be an integer >= 1, got 0", id="psd --f 0"),
        pytest.param(["align", "--stride", "-1", "--out", "o"],
                     "--stride must be an integer >= 0, got -1", id="align --stride -1"),
        pytest.param(["layer", "--kind", "psdnorm", "--f", "0", "--out", "o"],
                     "--f must be an integer >= 1, got 0", id="layer --f 0"),
        pytest.param(["layer", "--kind", "psdnorm", "--stride", "-1", "--out", "o"],
                     "--stride must be an integer >= 0, got -1",
                     id="layer --stride -1"),
        # checked as the command line is parsed, before the kind's settings
        pytest.param(["layer", "--kind", "instancenorm", "--f", "0", "--out", "o"],
                     "--f must be an integer >= 1, got 0", id="layer instancenorm --f 0"),
    ])
    def test_welch_flag_out_of_range_names_the_flag(self, tmp_path, capsys, monkeypatch,
                                                    argv, named):
        monkeypatch.chdir(tmp_path)
        write_white_noise(tmp_path / "x.psdn", c=1, length=256)
        assert main([argv[0], "x.psdn", *argv[1:]]) == EXIT_VALIDATION
        assert named in read_error(capsys)["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["x.psdn"]

    @pytest.mark.parametrize("command", ["psd", "align", "layer"])
    def test_file_shorter_than_f_is_named_before_any_row_is_read(
            self, tmp_path, capsys, monkeypatch, command):
        long, short = tmp_path / "long.psdn", tmp_path / "short.psdn"
        write_white_noise(long, c=2, length=256, seed=30)
        write_signal(short, np.ones((2, 6)))
        monkeypatch.setattr(psdnorm.cli, "read_rows", None)  # no row may be read
        out = tmp_path / "out"
        outputs = {"psd": ["--out-csv", str(out / "p.csv"),
                           "--out-json", str(out / "p.json")],
                   "align": ["--out", str(out)],
                   "layer": ["--kind", "psdnorm", "--out", str(out)]}[command]
        code = main([command, str(long), str(short), "--f", "8", *outputs])
        assert code == EXIT_VALIDATION
        assert read_error(capsys)["message"] == f"{short}: signal length 6 < filter size 8"
        assert not out.exists()

    def test_layer_checks_files_against_the_default_f(self, tmp_path, capsys,
                                                      monkeypatch):
        short = tmp_path / "short.psdn"
        write_signal(short, np.ones((2, 4)))
        monkeypatch.setattr(psdnorm.cli, "read_rows", None)  # no row may be read
        out = tmp_path / "out"
        code = main(["layer", str(short), "--kind", "psdnorm", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert read_error(capsys)["message"] == f"{short}: signal length 4 < filter size 5"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["layer", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out


def leaf_error_classes() -> set[type]:
    """The error classes of ``errors.py`` and ``io.py`` that no class extends."""
    modules = (psdnorm.errors, psdnorm.io)
    return {c for m in modules for c in vars(m).values()
            if isinstance(c, type) and issubclass(c, psdnorm.errors.PsdNormError)
            and c.__module__ == m.__name__ and not c.__subclasses__()}


class TestExitCodes:
    """``main`` maps each error class to one exit code and kind: 4 for a
    state contract violation, 2 for I/O, 3 for any other validation."""

    TABLE = [
        (EvalWithoutStatsError, EXIT_STATE, "state"),
        (StateFileError, EXIT_STATE, "state"),
        (SignalFileError, EXIT_IO, "io"),
        (FileNotFoundError, EXIT_IO, "io"),
        (PermissionError, EXIT_IO, "io"),
        (ShapeMismatchError, EXIT_VALIDATION, "validation"),
        (LengthTooShortError, EXIT_VALIDATION, "validation"),
        (NonFiniteInputError, EXIT_VALIDATION, "validation"),
        (ParameterOutOfRangeError, EXIT_VALIDATION, "validation"),
        (NonPositivePsdError, EXIT_VALIDATION, "validation"),
        (AsymmetricPsdError, EXIT_VALIDATION, "validation"),
        (ValueError, EXIT_VALIDATION, "validation"),
        (MemoryError, EXIT_VALIDATION, "validation"),
    ]

    @pytest.mark.parametrize("error, code, kind", TABLE,
                             ids=[error.__name__ for error, _, _ in TABLE])
    def test_class_maps_to_exit_code(self, tmp_path, capsys, monkeypatch, error, code,
                                     kind):
        def fail(args):
            raise error("injected")

        monkeypatch.setattr(psdnorm.cli, "cmd_bench", fail)
        assert main(["bench", "--out", str(tmp_path / "b")]) == code
        assert read_error(capsys) == {"kind": kind, "message": "injected"}

    def test_table_names_every_leaf_class(self):
        assert leaf_error_classes() - {error for error, _, _ in self.TABLE} == set()


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
    def test_f_differs_from_welch_filter_size(self, tmp_path, capsys, command):
        doc = self.psdnorm_doc(tmp_path)
        doc["welch"]["filter_size"] = 8
        code, out = self.run(tmp_path, command, doc)
        assert code == EXIT_STATE
        error = read_error(capsys)
        assert error["kind"] == "state"
        assert "key 'f' is 4, but welch.filter_size is 8" in error["message"]
        assert list(out.glob("*")) == []

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
    def test_asymmetric_barycenter_writes_nothing(self, tmp_path, capsys, command):
        # Bin 1 differs from bin 3: no real signal has this spectrum.
        doc = self.psdnorm_doc(tmp_path)
        doc["barycenter"] = [[1.0, 2.0, 5.0, 3.0]]
        code, out = self.run(tmp_path, command, doc)
        assert code == EXIT_STATE
        error = read_error(capsys)
        assert error["kind"] == "state"
        assert "barycenter is not conjugate-symmetric: bin 1 differs from bin 3" \
            in error["message"]
        assert list(out.glob("*")) == []

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
    ``align --target``, and names the setting."""

    # The ids are those of the earlier rows, whose messages named whole
    # WelchConfig values.
    @pytest.mark.parametrize("kind, flags, named", [
        pytest.param("psdnorm", ["--f", "8"], "filter_size 4, the flags give 8",
                     id="psdnorm-flags0-filter_size=8"),
        pytest.param("psdnorm", ["--stride", "1"], "stride 2, the flags give 1",
                     id="psdnorm-flags1-stride=1"),
        pytest.param("psdnorm", ["--window", "boxcar"],
                     "window_kind hann, the flags give boxcar",
                     id="psdnorm-flags2-window_kind='boxcar'"),
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
        argv = ["layer", str(sig), "--kind", kind, "--mode", "eval",
                *(["--f", "4"] if kind == "psdnorm" else []),
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
        assert not out.exists()

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


class TestAlignRowByRow:
    """align reads, maps and writes one channel row at a time, in two passes
    over each file, and gives the bytes of the whole-array computation."""

    SHAPES = {
        # Channel scales far apart, so the positivity floor, which welch_psd
        # sets over a whole (c, f) PSD, binds in the quiet channel.
        "3x10007 DC 1e3": ((3, 10007), [1e-4, 1.0, 1e2], 1e3),
        "2x65536": ((2, 2 ** 16), [1e-5, 10.0], 0.0),
    }

    def files(self, tmp_path, shape, scales, offset):
        rng = np.random.default_rng(shape[1])
        paths = []
        for i in range(2):
            path = tmp_path / f"s{i}.psdn"
            x = rng.standard_normal(shape) * (i + 1)
            write_signal(path, x * np.array(scales)[:, np.newaxis] + offset)
            paths.append(path)
        return paths

    @pytest.mark.parametrize("target", ["barycenter", "unit", "state"])
    @pytest.mark.parametrize("f", [5, 64])
    @pytest.mark.parametrize("case", list(SHAPES))
    def test_bytes_equal_whole_array_composition(self, tmp_path, case, f, target):
        from psdnorm import (
            PsdNormLayer,
            apply_mapping,
            bures_distance,
            centered_psd,
            psdnorm_forward,
            wasserstein_barycenter,
        )

        shape, scales, offset = self.SHAPES[case]
        paths = self.files(tmp_path, shape, scales, offset)
        cfg = WelchConfig(f)
        signals = [read_signal(p) for p in paths]
        psds = [centered_psd(x, cfg) for x in signals]
        if target == "barycenter":
            goal = wasserstein_barycenter(psds)
        elif target == "unit":
            goal = np.ones_like(psds[0])
        else:
            rng = np.random.default_rng(f)
            _, layer = psdnorm_forward(PsdNormLayer(filter_size=f),
                                       rng.standard_normal((3, shape[0], 4 * f)))
            target = str(tmp_path / "state.json")
            save_state(target, layer)
            goal = layer.barycenter
        out = tmp_path / "aligned"
        assert main(["align", *map(str, paths), "--f", str(f), "--target", target,
                     "--out", str(out)]) == EXIT_OK
        records = json.loads((out / "report.json").read_text())["signals"]
        expected = tmp_path / "expected.psdn"
        for path, x, p, rec in zip(paths, signals, psds, records):
            y = apply_mapping(x, monge_filter(p, goal))
            write_signal(expected, y)
            written = (out / (path.stem + ".aligned.psdn")).read_bytes()
            assert written == expected.read_bytes()
            assert rec["pre_distance"] == bures_distance(p, goal)
            assert rec["post_distance"] == bures_distance(centered_psd(y, cfg), goal)

    def peak_bytes(self, paths, out):
        import tracemalloc

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["align", *map(str, paths), "--f", "64",
                         "--out", str(out)]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_the_file_count(self, tmp_path):
        length = 2 ** 16
        paths = [tmp_path / f"s{seed}.psdn" for seed in range(4)]
        for seed, path in enumerate(paths):
            write_white_noise(path, c=2, length=length, seed=seed)
        one = self.peak_bytes(paths[:1], tmp_path / "one")
        four = self.peak_bytes(paths, tmp_path / "four")
        assert four <= 1.25 * one
        assert four <= 5 * 8 * length

    @pytest.mark.parametrize("cut, named", [
        ("before the header", "payload size"),
        ("inside a row", "file ends 4095 samples into a row of 4096"),
    ])
    def test_file_truncated_between_passes_exit_2(self, tmp_path, capsys, monkeypatch,
                                                  cut, named):
        import psdnorm.cli

        paths = [tmp_path / f"s{seed}.psdn" for seed in range(2)]
        for seed, path in enumerate(paths):
            write_white_noise(path, c=2, length=4096, seed=seed)
        read_rows, opened = psdnorm.cli.read_rows, []

        def truncate(path):
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size - 4)

        def read_then_truncate(path, shape):
            opened.append(path)
            second_pass = opened.count(path) == 2 and path == str(paths[1])
            if second_pass and cut == "before the header":
                truncate(paths[1])
            rows = read_rows(path, shape)
            if second_pass and cut == "inside a row":
                yield next(rows)
                truncate(paths[1])
            yield from rows

        monkeypatch.setattr(psdnorm.cli, "read_rows", read_then_truncate)
        out = tmp_path / "out"
        code = main(["align", *map(str, paths), "--f", "8", "--out", str(out)])
        assert code == EXIT_IO
        error = read_error(capsys)
        assert error["kind"] == "io" and "s1.psdn" in error["message"]
        assert named in error["message"]
        assert list(out.iterdir()) == []


class TestBatchNormState:
    def run(self, tmp_path, out="out", **changes):
        doc = {"kind": "batchnorm", "eps": 1e-5,
               "stat_momentum": 0.1, "running_mean": [0.25, -0.5],
               "running_var": [1.5, 0.75], "num_batches_tracked": 1, **changes}
        state = tmp_path / "bn.json"
        state.write_text(json.dumps(doc))
        sig = tmp_path / "x.psdn"
        write_white_noise(sig, c=2, length=2 ** 10, seed=19)
        out = tmp_path / out
        code = main(["layer", str(sig), "--kind", "batchnorm", "--mode", "eval",
                     "--state-in", str(state), "--out", str(out)])
        return code, out

    def test_identity_affine_of_earlier_documents_maps_the_same(self, tmp_path):
        code, out = self.run(tmp_path, "new")
        assert code == EXIT_OK
        code, old = self.run(tmp_path, "old", gamma=1.0, beta=0.0)
        assert code == EXIT_OK
        assert (old / "x.out.psdn").read_bytes() == (out / "x.out.psdn").read_bytes()

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
        ({"gamma": 2.0}, "key 'gamma' is 2.0"),
        ({"beta": -1.0}, "key 'beta' is -1.0"),
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
        f = ["--f", "4"] if kind == "psdnorm" else []
        code = main(["layer", str(sig), "--kind", kind, *f, "--out", str(out)])
        assert code == EXIT_VALIDATION
        error = read_error(capsys)
        assert error["kind"] == "validation" and "non-finite" in error["message"]
        assert not (out / "x.out.psdn").exists()


class TestLayerCommand:
    def make_batch(self, tmp_path, n=3, seed=0):
        paths = []
        for j in range(n):
            p = tmp_path / f"sig{j}.psdn"
            write_white_noise(p, c=2, length=2 ** 11, seed=seed * 1000 + j)
            paths.append(str(p))
        return paths

    @pytest.mark.parametrize("flag", ["--state-in", "--state-out"])
    @pytest.mark.parametrize("kind", ["instancenorm", "layernorm"])
    def test_stateless_kind_refuses_state_flags(self, tmp_path, capsys, kind, flag):
        # Neither file exists: the flag is refused before any file is read.
        state = tmp_path / "s.json"
        code = main(["layer", str(tmp_path / "missing.psdn"), "--kind", kind,
                     flag, str(state), "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert flag in read_error(capsys)["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, flag", [
        ("psdnorm", "--eps"),
        *[(kind, flag) for kind in ("batchnorm", "instancenorm", "layernorm")
          for flag in ("--momentum", "--f", "--stride", "--window")],
    ])
    def test_flag_the_kind_has_no_setting_for_exits_3(self, tmp_path, capsys,
                                                      kind, flag):
        # The input file does not exist: the flag is refused before any read.
        value = {"--window": "boxcar", "--f": "4", "--stride": "1"}.get(flag, "0.5")
        code = main(["layer", str(tmp_path / "missing.psdn"), "--kind", kind,
                     flag, value, "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        error = read_error(capsys)
        assert error["kind"] == "validation"
        assert f"--kind {kind} has no setting for {flag}" in error["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, flag", [("psdnorm", "--momentum"),
                                            ("batchnorm", "--eps")])
    def test_out_of_range_setting_with_state_in_exits_3(self, tmp_path, capsys,
                                                        kind, flag):
        # The flag is checked as a layer setting before the state is compared.
        paths = self.make_batch(tmp_path, n=1)
        state = tmp_path / "state.json"
        assert main(["layer", *paths, "--kind", kind, "--state-out", str(state),
                     "--out", str(tmp_path / "o1")]) == EXIT_OK
        code = main(["layer", *paths, "--kind", kind, "--mode", "eval", flag, "-1",
                     "--state-in", str(state), "--out", str(tmp_path / "o2")])
        assert code == EXIT_VALIDATION
        assert f"{flag[2:]} must be a finite number" in read_error(capsys)["message"]
        assert not (tmp_path / "o2").exists()

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

    def test_inputs_with_one_stem_exit_3(self, tmp_path, capsys):
        paths = [tmp_path / d / "x.psdn" for d in ("a", "b")]
        for seed, path in enumerate(paths):
            path.parent.mkdir()
            write_white_noise(path, c=1, length=256, seed=seed)
        out = tmp_path / "out"
        code = main(["layer", *map(str, paths), "--kind", "instancenorm",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        error = read_error(capsys)
        assert error["kind"] == "validation"
        assert "would both be written to" in error["message"]
        assert list(out.glob("*")) == []

    def test_files_of_other_shapes_exit_3_naming_both(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.psdn", tmp_path / "b.psdn"
        write_white_noise(pa, c=2, length=256, seed=0)
        write_white_noise(pb, c=2, length=512, seed=1)
        out = tmp_path / "out"
        code = main(["layer", str(pa), str(pb), "--kind", "instancenorm",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        message = read_error(capsys)["message"]
        assert str(pa) in message and str(pb) in message
        assert "(2, 256)" in message and "(2, 512)" in message
        assert not out.exists()

    def test_failure_after_a_written_file_removes_it(self, tmp_path, capsys,
                                                     monkeypatch):
        import psdnorm.cli

        paths = self.make_batch(tmp_path, n=3, seed=4)
        written = []
        write = psdnorm.cli.write_signal

        def write_then_fail(path, y):
            write(path, y)
            written.append(path)
            if len(written) == 2:
                raise OSError("disk full")

        monkeypatch.setattr(psdnorm.cli, "write_signal", write_then_fail)
        out = tmp_path / "out"
        code = main(["layer", *paths, "--kind", "instancenorm", "--out", str(out)])
        assert code == EXIT_IO and "disk full" in read_error(capsys)["message"]
        assert len(written) == 2
        assert list(out.iterdir()) == []

    def test_failed_state_write_leaves_no_signal(self, tmp_path, capsys):
        paths = self.make_batch(tmp_path, n=2, seed=5)
        out = tmp_path / "out"
        code = main(["layer", *paths, "--kind", "psdnorm", "--f", "4", "--out",
                     str(out), "--state-out", str(tmp_path / "absent" / "s.json")])
        assert code == EXIT_IO
        assert read_error(capsys)["kind"] == "io"
        assert list(out.iterdir()) == []

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

    def test_reads_files_into_one_batch_without_copies(self, tmp_path):
        # The batch is the one float64 copy of the inputs: 8 N c l bytes,
        # filled row by row.  InstanceNorm adds its output, a float32 copy
        # of it and its own temporaries, 3.2x in all; a list of the files
        # held beside an np.stack of them would reach 4x.
        import tracemalloc

        shape = (2, 2 ** 16)
        paths = [tmp_path / f"s{seed}.psdn" for seed in range(4)]
        for seed, path in enumerate(paths):
            write_white_noise(path, c=shape[0], length=shape[1], seed=seed)
        argv = ["layer", *map(str, paths), "--kind", "instancenorm",
                "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 8 * len(paths) * shape[0] * shape[1]

    def test_outputs_equal_the_forward_of_the_stacked_files(self, tmp_path):
        # With no setting flag, every kind runs with the library's defaults.
        from psdnorm import (
            BatchNormLayer,
            PsdNormLayer,
            batchnorm_forward,
            instancenorm_forward,
            layernorm_forward,
            psdnorm_forward,
        )

        paths = self.make_batch(tmp_path, n=3, seed=6)
        batch = np.stack([read_signal(p) for p in paths])
        expected = {
            "instancenorm": (instancenorm_forward(batch), None),
            "layernorm": (layernorm_forward(batch), None),
            "psdnorm": psdnorm_forward(PsdNormLayer(), batch),
            "batchnorm": batchnorm_forward(BatchNormLayer(), batch),
        }
        for kind, (y, layer) in expected.items():
            out = tmp_path / kind
            state = [] if layer is None else ["--state-out", str(out / "state.json")]
            assert main(["layer", *paths, "--kind", kind, *state,
                         "--out", str(out)]) == EXIT_OK
            for p, row in zip(paths, y):
                stem = p.rsplit("/", 1)[-1].replace(".psdn", "")
                write_signal(tmp_path / "expected.psdn", row)
                assert ((out / f"{stem}.out.psdn").read_bytes()
                        == (tmp_path / "expected.psdn").read_bytes())
            if layer is not None:
                save_state(tmp_path / "expected.json", layer)
                assert ((out / "state.json").read_bytes()
                        == (tmp_path / "expected.json").read_bytes())

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


class TestLayerMatchesAlign:
    """``layer --kind psdnorm`` maps its batch by one forward and ``align``
    maps each file a row at a time: under one target they write the same
    bytes, on both filter forms and on rows filtered in several blocks."""

    CASES = {"2x4096 f8": ((2, 4096), 8, 3), "3x1000 f5": ((3, 1000), 5, 2),
             "2x32768 f64": ((2, 2 ** 15), 64, 2), "1x20000 f96": ((1, 20000), 96, 2)}

    @pytest.mark.parametrize("case", list(CASES))
    def test_layer_writes_the_bytes_of_align(self, tmp_path, case):
        from psdnorm import PsdNormLayer, psdnorm_forward

        shape, f, n = self.CASES[case]
        rng = np.random.default_rng(f)
        paths = []
        for i in range(n):
            paths.append(str(tmp_path / f"s{i}.psdn"))
            write_signal(paths[-1], np.cumsum(rng.standard_normal(shape), axis=-1))
        # a state trained on other signals, whose barycenter is not the files'
        state = str(tmp_path / "state.json")
        save_state(state, psdnorm_forward(PsdNormLayer(filter_size=f),
                                          rng.standard_normal((2,) + shape))[1])
        runs = {"train": ["layer", "--kind", "psdnorm"],
                "eval": ["layer", "--kind", "psdnorm", "--mode", "eval", "--state-in", state],
                "barycenter": ["align", "--target", "barycenter"],
                "state": ["align", "--target", state]}
        for out, argv in runs.items():
            assert main([*argv, *paths, "--f", str(f), "--out", str(tmp_path / out)]) == EXIT_OK
        for i in range(n):
            for layer_out, align_out in (("train", "barycenter"), ("eval", "state")):
                assert ((tmp_path / layer_out / f"s{i}.out.psdn").read_bytes()
                        == (tmp_path / align_out / f"s{i}.aligned.psdn").read_bytes())


class TestBenchCommand:
    def test_repeated_method_exits_before_sampling(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(psdnorm.synth, "sample_gaussian_with_psd", None)
        out = tmp_path / "b"
        code = main(["bench", "--methods", "psdnorm,none,psdnorm", "--seeds", "1",
                     "--signals", "2", "--length", str(2 ** 10), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "'psdnorm' is named twice" in read_error(capsys)["message"]
        assert not out.exists()

    # --length must hold one Welch segment of the default --f 8.
    SIZE_FLAGS = [("--seeds", "-2", 1), ("--channels", "0", 1), ("--channels", "-1", 1),
                  ("--domains", "1", 2), ("--signals", "0", 1), ("--length", "0", 8),
                  ("--length", "4", 8), ("--f", "-3", 1), ("--f", "0", 1),
                  ("--stride", "-1", 0)]

    @pytest.mark.parametrize("flag, value, bound", SIZE_FLAGS,
                             ids=[f"{flag}-{value}" for flag, value, _ in SIZE_FLAGS])
    def test_size_flag_below_1_exits_before_sampling(self, tmp_path, capsys,
                                                     monkeypatch, flag, value, bound):
        monkeypatch.setattr(psdnorm.synth, "sample_gaussian_with_psd", None)
        out = tmp_path / "b"
        code = main(["bench", "--signals", "2", "--length", str(2 ** 10), flag, value,
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        message = read_error(capsys)["message"]
        assert f"{flag} must be an integer >= {bound}, got {value}" in message
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1.5", "nan", "inf"])
    def test_shift_not_a_finite_non_negative_number_exits_before_sampling(
            self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setattr(psdnorm.synth, "sample_gaussian_with_psd", None)
        out = tmp_path / "b"
        code = main(["bench", "--shift", value, "--out", str(out)])
        assert code == EXIT_VALIDATION
        message = read_error(capsys)["message"]
        assert f"--shift must be a finite number in [0, inf], got {value}" in message
        assert not out.exists()

    def test_shift_that_overflows_a_tilt_exits_3_with_only_the_error(self, tmp_path,
                                                                      capsys):
        # exp(800 a) passes the float range for some domain's a; its Inf bin
        # must be refused as any other, with no numpy warning beside it.
        out = tmp_path / "b"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["bench", "--shift", "800", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert [str(w.message) for w in caught] == []
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"] == "generating PSD contains NaN or Inf (non-finite values)"
        assert not out.exists()

    def test_length_too_large_to_allocate_exits_3(self, tmp_path, capsys):
        # A PiB-scale signal: numpy refuses the allocation at once.
        out = tmp_path / "b"
        code = main(["bench", "--length", str(2 ** 50), "--signals", "1", "--seeds",
                     "1", "--domains", "2", "--methods", "none", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "Unable to allocate" in read_error(capsys)["message"]
        assert not out.exists()

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

    @pytest.mark.parametrize("methods", [
        "none,instancenorm,psdnorm", "none,instancenorm,batchnorm,layernorm,tma,psdnorm"])
    def test_ratios_equal_fresh_domains_per_method(self, tmp_path, methods):
        # Each seed's domains are drawn once for all methods; every ratio must
        # equal that of domains built afresh for its method and seed.
        assert main(["bench", "--domains", "2", "--seeds", "2", "--signals", "2",
                     "--length", str(2 ** 10), "--channels", "1", "--f", "8",
                     "--methods", methods, "--out", str(tmp_path)]) == EXIT_OK
        expected = {m: [evaluate_alignment(
            make_shifted_domains(np.ones((1, 8)), 2, 1.0, n_signals=2,
                                 length=2 ** 10, seed=seed),
            m, WelchConfig(8)).reduction_ratio for seed in range(2)]
            for m in methods.split(",")}
        report = json.loads((tmp_path / "report.json").read_text())
        assert {m: r["ratios"] for m, r in report["results"].items()} == expected

    def test_unknown_method_among_known_exits_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(psdnorm.synth, "sample_gaussian_with_psd", None)
        out = tmp_path / "b"
        code = main(["bench", "--methods", "none,zscore", "--seeds", "1",
                     "--signals", "2", "--length", str(2 ** 10), "--out", str(out)])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'zscore'" in json.loads(captured.err)["error"]["message"]
        assert not out.exists()

    def test_unknown_method_exit_3(self, tmp_path, capsys):
        code = main(["bench", "--methods", "zscore",
                     "--seeds", "1", "--signals", "2",
                     "--length", str(2 ** 10),
                     "--out", str(tmp_path / "b")])
        assert code == EXIT_VALIDATION
        assert read_error(capsys)["kind"] == "validation"
