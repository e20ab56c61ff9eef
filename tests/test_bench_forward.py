"""Smoke test of ``tools/bench_forward.py``, which rebuilds the forward pass
stage by stage from library calls: an API change that breaks it fails here."""

import importlib.util
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_forward.py"
STAGES = {"centre_welch", "batch_barycenter", "running_update", "synthesis",
          "filtering"}


def one_call_ms(fn, seconds=0.5):
    t = time.perf_counter()
    fn()
    return 1000 * (time.perf_counter() - t)


def test_stage_times_on_one_tiny_shape(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_forward", TOOL)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "GRID", [(2, 1, 64, 4)])
    monkeypatch.setattr(bench, "STACK_SHAPE", (2, 1, 64))
    monkeypatch.setattr(bench, "best_ms", one_call_ms)

    t = time.perf_counter()
    doc = bench.stage_times()
    elapsed = time.perf_counter() - t

    [row] = doc["grid"]
    assert set(row["stages_ms"]) == STAGES
    assert len(doc["stack"]["per_layer_train_ms"]) == len(bench.STACK_FS)
    assert {"stack_train_ms", "stack_eval_ms", "instancenorm_ms"} <= set(doc["stack"])
    assert elapsed < 1.0
