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


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_forward", TOOL)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_stage_times_on_one_tiny_shape(monkeypatch):
    import psdnorm

    bench = load_tool()
    monkeypatch.setattr(bench, "GRID", [(2, 1, 64, 4)])
    # The synthesis stage must time the call that the forward makes: one
    # (N, c, f) batch of source PSDs against the one (c, f) target.
    shapes, monge_filter = [], psdnorm.monge_filter

    def recording_monge_filter(p_src, p_tgt):
        shapes.append((p_src.shape, p_tgt.shape))
        return monge_filter(p_src, p_tgt)

    monkeypatch.setattr(psdnorm, "monge_filter", recording_monge_filter)
    monkeypatch.setattr(bench, "STACK_SHAPE", (2, 1, 64))
    # The domain_corpus entry times every method on one tiny spec list.
    monkeypatch.setattr(bench, "CORPUS", {"domains": 2, "signals": 1, "channels": 1,
                                          "length": 64, "f": 4})
    evaluated, evaluate_alignment = [], psdnorm.evaluate_alignment

    def recording_evaluate_alignment(specs, method):
        evaluated.append((len(specs), specs[0].signals.shape, method))
        return evaluate_alignment(specs, method)

    monkeypatch.setattr(psdnorm, "evaluate_alignment", recording_evaluate_alignment)
    monkeypatch.setattr(bench, "best_ms", one_call_ms)

    t = time.perf_counter()
    doc = bench.stage_times()
    elapsed = time.perf_counter() - t

    [row] = doc["grid"]
    assert shapes and set(shapes) == {((2, 1, 4), (1, 4))}
    assert set(row["stages_ms"]) == STAGES
    assert len(doc["stack"]["per_layer_train_ms"]) == len(bench.STACK_FS)
    assert {"stack_train_ms", "stack_eval_ms", "instancenorm_ms"} <= set(doc["stack"])
    assert evaluated == [(2, (1, 1, 64), m) for m in psdnorm.synth.METHODS]
    assert doc["evaluate_alignment"]["unit_ms"] > 0
    assert elapsed < 1.0


def test_align_memory_on_tiny_files(monkeypatch, tmp_path):
    bench = load_tool()
    monkeypatch.setattr(bench, "ALIGN_SHAPE", (2, 256))
    monkeypatch.setattr(bench, "ALIGN_F", 8)
    monkeypatch.setattr(bench, "best_ms", one_call_ms)

    assert bench.write_align_inputs(tmp_path) == {"files": bench.ALIGN_FILES}
    doc = bench.align_memory(tmp_path)

    assert doc["files"] == bench.ALIGN_FILES
    assert doc["peak_mib"] > 0 and doc["call_ms"] > 0
    assert doc["maxrss_above_import_mib"] >= 0


def test_merge_rounds_takes_each_time_at_its_minimum():
    bench = load_tool()

    def run(filtering, train, floor, per_layer, unit):
        return {"environment": {"numpy": "x"},
                "grid": [{"shape": "1x1x64", "f": 4,
                          "stages_ms": {"filtering": filtering, "synthesis": 1.0},
                          "train_ms": train, "instancenorm_ms": floor,
                          "instancenorm_floor_ratio": round(train / floor, 2),
                          "train_peak_mib": 0.5}],
                "stack": {"fs": [16, 8, 4], "per_layer_train_ms": per_layer},
                "evaluate_alignment": {"methods": ["none"], "unit_ms": unit}}

    first = run(5.0, 8.0, 2.0, [3.0, 1.0, 2.0], 9.0)
    second = run(3.0, 9.0, 1.0, [2.0, 4.0, 2.0], 10.0)
    second["grid"][0]["train_peak_mib"] = 0.75

    doc = bench.merge_rounds([first, second])

    assert doc == run(3.0, 8.0, 1.0, [2.0, 1.0, 2.0], 9.0)
    assert doc["grid"][0]["instancenorm_floor_ratio"] == 8.0
    assert first == run(5.0, 8.0, 2.0, [3.0, 1.0, 2.0], 9.0)  # rounds left as they were
