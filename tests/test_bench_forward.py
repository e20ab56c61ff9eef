"""Tests of ``tools/bench_forward.py``: its interleaved A/B primitive on an
injected clock and on stubs that burn CPU, and a smoke run of every timed
call on tiny shapes, which rebuilds the forward pass stage by stage from
library calls, so an API change that breaks the tool fails here."""

import collections
import importlib.util
import time
from pathlib import Path

import numpy as np

from conftest import FORMS

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_forward.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_forward", TOOL)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


class FakeClock:
    """A clock that moves only when a stub call charges it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def charging_stubs(clock, costs, log):
    """One stub per copy: each call logs its copy's index and charges the
    clock that copy's cost, in seconds."""

    def stub(k):
        def call():
            log.append(k)
            clock.now += costs[k]
        return call

    return [stub(k) for k in range(len(costs))]


def burn(seconds):
    """Spend ``seconds`` of this thread's CPU time, which a sleep would not."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_rounds_alternate_which_copy_goes_first(monkeypatch):
    bench = load_tool()
    monkeypatch.setattr(bench, "MIN_SAMPLE_S", 0.375)
    clock, log = FakeClock(), []
    # Costs are binary fractions, so the fake clock sums them exactly.
    row = bench.compare(charging_stubs(clock, [0.25, 0.125, 0.125], log), clock)

    # One warm-up call each, then one call and three calls of the after
    # copy to reach the minimum sample time, then three calls per sample.
    assert row["calls_per_sample"] == 3
    assert log[:7] == [0, 1, 2, 1, 1, 1, 1]
    samples = log[7:]
    assert samples[::3] == samples[1::3] == samples[2::3]
    rounds = [samples[i:i + 9:3] for i in range(0, len(samples), 9)]
    assert len(rounds) == bench.AB_PAIRS
    assert all(sorted(r) == [0, 1, 2] for r in rounds)
    assert collections.Counter(r[0] for r in rounds) == dict.fromkeys(
        range(3), bench.AB_PAIRS // 3)
    for a, b in ((0, 1), (1, 2), (0, 2)):
        assert sum(r.index(a) < r.index(b) for r in rounds) == bench.AB_PAIRS // 2


def test_ratio_ci_and_wins_on_a_fake_clock(monkeypatch):
    bench = load_tool()
    monkeypatch.setattr(bench, "MIN_SAMPLE_S", 0.375)
    clock = FakeClock()
    row = bench.compare(charging_stubs(clock, [0.25, 0.125, 0.125], []), clock)

    assert (row["before_ms"], row["after_ms"], row["again_ms"]) == (250, 125, 125)
    assert row["after_over_before"] == {"ratio": 0.5, "ci95": [0.5, 0.5],
                                        "wins": bench.AB_PAIRS}
    # Equal times are a tie, which counts as a win for neither copy.
    assert row["after_over_again"] == {"ratio": 1.0, "ci95": [1.0, 1.0], "wins": 0}


def test_bootstrap_resamples_rounds_in_pairs():
    bench = load_tool()
    # Every round halves however slow the host was in it: resampled in
    # pairs, the ratio cannot move.
    assert bench.ratio([1, 2, 3, 4, 8], [2, 4, 6, 8, 16]) == {
        "ratio": 0.5, "ci95": [0.5, 0.5], "wins": 5}
    spread = bench.ratio([1, 2, 3, 4, 5], [1, 1, 1, 1, 1])
    assert spread["ratio"] == 3.0 and spread["wins"] == 0
    assert 1.0 <= spread["ci95"][0] < 3.0 < spread["ci95"][1] <= 5.0


def test_a_copy_that_burns_more_cpu_reads_as_resolved(monkeypatch):
    bench = load_tool()
    monkeypatch.setattr(bench, "AB_PAIRS", 12)
    monkeypatch.setattr(bench, "MIN_SAMPLE_S", 0.004)

    def slower():
        burn(0.00125)

    # thread time: BLAS workers that earlier tests started count toward process time
    row = bench.compare([lambda: burn(0.001), slower, slower], time.thread_time)

    assert row["after_over_before"]["ci95"][0] > 1.1
    assert row["after_over_before"]["wins"] == 0
    assert 1.1 < row["after_over_before"]["ratio"] < 1.5


def test_forward_rows_on_one_tiny_shape(monkeypatch):
    bench = load_tool()
    libs = [bench.load_copy(ROOT, f"psdnorm_{side}") for side in bench.COPIES]
    assert len({lib.PsdNormLayer for lib in libs}) == 3  # three separate copies
    monkeypatch.setattr(bench, "GRID", [(2, 1, 64, 4)])
    monkeypatch.setattr(bench, "STACK_SHAPE", (2, 1, 64))
    monkeypatch.setattr(bench, "CORPUS", {"domains": 2, "signals": 1, "channels": 1,
                                          "length": 64, "f": 4})
    monkeypatch.setattr(bench, "AB_PAIRS", 2)
    monkeypatch.setattr(bench, "MIN_SAMPLE_S", 0.0)
    # The synthesis stage must time the call that the forward makes: one
    # (N, c, f) batch of source PSDs against the one (c, f) target.  The
    # domain_corpus unit call evaluates every method on one spec list.
    shapes, evaluated, spec_lists = [], [], []
    for lib in libs:
        def recording_monge_filter(p_src, p_tgt, monge_filter=lib.monge_filter):
            shapes.append((p_src.shape, p_tgt.shape))
            return monge_filter(p_src, p_tgt)

        def recording_evaluate_alignment(specs, method,
                                         evaluate_alignment=lib.evaluate_alignment):
            evaluated.append((len(specs), specs[0].signals.shape, method))
            spec_lists.append(specs)  # kept, so that no two share an id
            return evaluate_alignment(specs, method)

        monkeypatch.setattr(lib, "monge_filter", recording_monge_filter)
        monkeypatch.setattr(lib, "evaluate_alignment", recording_evaluate_alignment)

    t = time.perf_counter()
    doc = bench.forward_rows(libs)
    elapsed = time.perf_counter() - t

    [row] = doc["grid"]
    assert row["identical"] is doc["stack"]["identical"] is True
    assert doc["evaluate_alignment"]["identical"] is True
    timed = ["calls_per_sample", "before_ms", "after_ms", "again_ms",
             "after_over_before", "after_over_again"]
    assert shapes and set(shapes) == {((2, 1, 4), (1, 4))}
    assert list(row["stages"]) == list(bench.STAGES)
    for entry in [*row["stages"].values(), row["train"], row["eval"],
                  row["instancenorm"]]:
        assert list(entry) == timed and entry["calls_per_sample"] == 1
    for peak in ("train_peak_mib", "welch_peak_mib", "instancenorm_peak_mib"):
        assert set(row[peak]) == {"before", "after"}
        assert all(mib > 0 for mib in row[peak].values())
    layers = [f"layer_{i}" for i in range(1, len(bench.STACK_FS) + 1)]
    assert [k for k in doc["stack"] if k not in ("shape", "fs", "identical")] == [
        *layers, "stack_train", "stack_eval", "instancenorm", "train_peak_mib"]
    assert set(doc["stack"]["train_peak_mib"]) == {"before", "after"}
    assert all(mib > 0 for mib in doc["stack"]["train_peak_mib"].values())
    methods = libs[1].synth.METHODS
    assert set(evaluated) == {(2, (1, 1, 64), m) for m in methods}
    # The unit call and the per-method rows each evaluate every method in
    # each copy's warm-up call, the calibration call and every round, and
    # in one untimed call of the before and after copies, which the
    # ``identical`` field compares.
    calls = len(libs) + 1 + len(libs) * bench.AB_PAIRS + 2
    assert len(evaluated) == 2 * len(methods) * calls
    # One sample per unit call, and one per copy for the per-method rows,
    # whose every call takes fresh copies of that copy's kept specs.
    assert len({id(specs[0].signals) for specs in spec_lists}) == calls + len(libs)
    assert len({id(specs[0]) for specs in spec_lists}) == calls + len(methods) * calls
    corpus = doc["evaluate_alignment"]
    assert list(corpus["unit"]) == timed
    assert list(corpus["per_method"]) == list(methods)
    assert all(list(row) == timed for row in corpus["per_method"].values())
    assert elapsed < 1.0


def test_align_row_on_tiny_files(monkeypatch, tmp_path):
    import psdnorm

    bench = load_tool()
    monkeypatch.setattr(bench, "ALIGN_SHAPE", (2, 256))
    monkeypatch.setattr(bench, "ALIGN_F", 8)
    monkeypatch.setattr(bench, "AB_PAIRS", 2)
    monkeypatch.setattr(bench, "MIN_SAMPLE_S", 0.0)

    doc = bench.align_row([psdnorm] * 3, tmp_path)

    assert doc["files"] == bench.ALIGN_FILES
    assert doc["identical"] is True
    assert len(list(tmp_path.glob("rec*.psdn"))) == bench.ALIGN_FILES
    assert all((tmp_path / side).is_dir() for side in bench.COPIES)
    assert doc["call"]["after_ms"] > 0
    assert all(peak > 0 for peak in doc["peak_mib"].values())


def test_a_perturbed_filter_reads_as_not_identical(monkeypatch, tmp_path):
    # Two copies of one tree read identical above; here the after copy's
    # Toeplitz products, which every tiny shape's filter takes at f = 4 or
    # f = 8, move each output by one ulp.
    bench = load_tool()
    libs = [bench.load_copy(ROOT, f"psdnorm_{side}") for side in bench.COPIES]
    for name, value in [("GRID", [(2, 1, 64, 4)]), ("STACK_SHAPE", (2, 1, 64)),
                        ("CORPUS", {"domains": 2, "signals": 1, "channels": 1,
                                    "length": 64, "f": 4}),
                        ("ALIGN_SHAPE", (2, 256)), ("ALIGN_F", 8),
                        ("AB_PAIRS", 2), ("MIN_SAMPLE_S", 0.0)]:
        monkeypatch.setattr(bench, name, value)
    monge = importlib.import_module(f"{libs[1].__name__}.monge")

    def perturbed(block, matrices, out, product=monge._tiled_product):
        product(block, matrices, out)
        np.nextafter(out, np.inf, out=out)

    monkeypatch.setattr(monge, "_tiled_product", perturbed)

    doc = bench.forward_rows(libs)
    align = bench.align_row(libs, tmp_path)

    assert [row["identical"] for row in doc["grid"]] == [False]
    assert doc["stack"]["identical"] is doc["evaluate_alignment"]["identical"] is False
    assert align["identical"] is False


def test_grid_reaches_both_welch_forms_and_each_filter_form_and_mode(kernel_spy):
    # a form depends on the row length and f alone; no grid row reads blocks of
    # segments or filters by FFT in blocks
    assert {kernel_spy.observe(kernel, l, f).key for _, _, l, f in
            load_tool().GRID for kernel in ("welch", "filter")} == FORMS - {
        ("welch", "rfft", "blocks"), ("filter", "fft", "blocks")}
