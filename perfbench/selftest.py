"""Tests of the benchmark itself.

Run from the root of the repository:

    python -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the library's default test run: the
exact counts below describe the library as it is when the benchmark was
written, and a later change to the library may move them on purpose.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.prepare_environment()

import psdnorm  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class TinyTrain(workloads.TrainBatches):
    DOMAINS, PER_DOMAIN, CHANNELS, LENGTH, POOL = 2, 2, 2, 128, 2


class TinyLong(workloads.LongRecording):
    LENGTH, STATE_LENGTH = 2 ** 10, 2 ** 8


class TinyCorpus(workloads.DomainCorpus):
    PER_DOMAIN, LENGTH = 2, 256


TINY = (TinyTrain, TinyLong, TinyCorpus)


def _traced(workload, calls: int, kind: str = "unit"):
    tr = tracing.Tracer()
    tr.install()
    try:
        for _ in range(calls):
            with tr.root(kind):
                getattr(workload, kind)()
    finally:
        tr.restore()
    return tr


def _traced_attributes():
    return [
        f"{name}.{attr}"
        for name, mod in sys.modules.items()
        if name == "psdnorm" or name.startswith("psdnorm.")
        for attr, value in vars(mod).items()
        if getattr(value, "__perfbench_traced__", False)
    ]


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_wrappers_are_gone_after_a_traced_run(cls, tmp_path):
    original = psdnorm.spectral.welch_psd
    workload = cls(3, tmp_path)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert psdnorm.layers.welch_psd is not original
        loop = run.timed_loop(workload, 0.05, tr)
    finally:
        tr.restore()
    assert loop["failed"] == 0 and loop["attempted"] >= 2
    assert _traced_attributes() == []
    assert psdnorm.layers.welch_psd is original
    assert psdnorm.welch_psd is original


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_self_times_and_gaps_sum_to_wall_time(cls, tmp_path):
    workload = cls(4, tmp_path)
    tr = tracing.Tracer()
    tr.install()
    try:
        run.timed_loop(workload, 0.05, tr)
    finally:
        tr.restore()
    spans = tr.spans
    own = tracing.self_times(spans)
    assert min(own) >= 0.0
    roots = sorted((s for s in spans if s.parent < 0), key=lambda s: s.start)
    gaps = sum(b.start - a.end for a, b in zip(roots, roots[1:]))
    wall = roots[-1].end - roots[0].start
    assert math.isclose(sum(own) + gaps, wall, rel_tol=1e-9, abs_tol=1e-9)
    assert {s.call_id for s in spans} == set(range(len(roots)))


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_input_digest_follows_the_seed(cls, tmp_path):
    a = cls(7, tmp_path / "a").input_digest()
    b = cls(7, tmp_path / "b").input_digest()
    c = cls(8, tmp_path / "c").input_digest()
    assert a == b
    assert a != c


def test_wrong_output_counts_as_a_failure(tmp_path, monkeypatch):
    workload = TinyTrain(0, tmp_path)
    stack_forward = psdnorm.psdnorm_stack_forward

    def nan_output(*args, **kwargs):
        out, layers, snapshots = stack_forward(*args, **kwargs)
        return out * math.nan, layers, snapshots

    monkeypatch.setattr(psdnorm, "psdnorm_stack_forward", nan_output)
    loop = run.timed_loop(workload, 0.05)
    assert loop["attempted"] >= 2
    assert loop["failed"] == loop["attempted"]
    assert "non-finite" in loop["errors"][0]


def _write_nan(path, x):
    psdnorm.io.write_signal(path, x * math.nan)


def _injected_error(*args):
    raise psdnorm.ShapeMismatchError("injected")


@pytest.mark.parametrize("attr, fault, message", [
    ("write_signal", _write_nan, "non-finite"),
    ("apply_mapping", _injected_error, "align exited 3"),
])
def test_cli_fault_counts_as_a_failure(attr, fault, message, tmp_path, monkeypatch):
    workload = TinyLong(0, tmp_path)
    monkeypatch.setattr(psdnorm.cli, attr, fault)
    loop = run.timed_loop(workload, 0.05)
    assert loop["failed"] == loop["attempted"] >= 2
    assert message in loop["errors"][0]


def test_wrong_filter_fails_the_reference_check(tmp_path, monkeypatch):
    clean = workloads.TrainBatches(run.REFERENCE_SEED, tmp_path / "clean")
    assert run.compare_reference("train_batches", clean.reference_values()) == []

    monge_filter = psdnorm.monge.monge_filter

    def sharper(p_src, p_tgt):
        return monge_filter(p_src, p_tgt * 1.01)

    monkeypatch.setattr(psdnorm.layers, "monge_filter", sharper)
    wrong = workloads.TrainBatches(run.REFERENCE_SEED, tmp_path / "wrong")
    assert run.compare_reference("train_batches", wrong.reference_values())


def _layer_metrics(workload, calls: int = 2) -> dict:
    tr = _traced(workload, calls)
    summary = tracing.summarize(tr.spans, "unit")
    assert summary["roots"] == calls
    return {k: v for k, (v, _) in tracing.layer_metrics(
        summary, workload.unit_samples, workload.distinct_signals).items()}


def test_counts_repeat_exactly(tmp_path):
    train = _layer_metrics(workloads.TrainBatches(0, tmp_path / "t"))
    assert train["spectral.welch_psd.calls"] == 192
    assert train["monge.monge_filter.calls"] == 192
    assert train["layers.psdnorm_forward.calls"] == 3
    corpus = _layer_metrics(workloads.DomainCorpus(0, tmp_path / "d"))
    assert corpus["synth.regen_ratio"] == 6.0
    assert corpus["synth.sample_gaussian_with_psd.calls"] == 18
    recording = _layer_metrics(TinyLong(0, tmp_path / "l"))
    assert recording["spectral.welch_psd.passes"] == 2.0
    assert recording["io.read_signal.bytes"] == 4 * (20 + 4 * 2 * 2 ** 10)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload",
         "train_batches", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
