"""End-to-end and per-layer benchmark of psdnorm.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_batches --seed 0 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout.  Each run builds the
workload's inputs from ``--seed`` (set-up, repeated and timed), measures
quality and peak memory in untimed passes, runs a closed loop of workload
calls for ``--seconds``, checks every output, and compares one call at the
reference seed with ``reference.json``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` splits the time between an untraced and a traced loop
and reports per-layer metrics.  The last line of standard output is the
result object; the line before it records the environment.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3
FLOOR_REPEATS = 5


def prepare_environment() -> None:
    """Pin math libraries to one thread and put the checkout's ``src`` first
    on the import path.  Exits with code 2 when the sources are missing.
    No bytecode is written, so every run compiles the same imports and leaves
    nothing behind in the checkout."""
    sys.dont_write_bytecode = True
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "psdnorm" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no psdnorm sources under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 when no call succeeded."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_cache": l3,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class HostClock:
    """Host speed from a fixed numpy FFT kernel that never calls psdnorm.

    The host is shared, and its speed drifts by up to 40 % over tens of
    seconds.  Timing the kernel between workload calls and rescaling each
    call by the mean of the kernel times just before and after it gives times
    on a host where the kernel takes ``reference_s``.  The kernel's array
    size follows the workload's (``HOST_KERNEL`` on the workload class), so
    that it competes for the same cache level: a small kernel tracks the
    short-signal workloads and misses the drift of the long-recording one,
    and the other way round.  A change to psdnorm moves the rescaled times
    exactly as it moves the raw ones; raw times are kept in the run record.
    """

    REPEATS = 5

    def __init__(self, workload):
        import numpy as np

        shape, self.reference_s = workload.HOST_KERNEL
        self._fft = np.fft
        self._x = np.random.default_rng(0).standard_normal(shape)
        self._passes = max(1, 2 ** 15 // self._x.size)

    def kernel_s(self) -> float:
        fft = self._fft
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            for _ in range(self._passes):
                fft.ifft(fft.fft(self._x, axis=1), axis=1)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def rescale(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.reference_s / ((before + after) / 2)


def timed_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop with one caller: a unit call, then an eval call, until
    ``seconds`` have passed.  Only the calls are timed, each raw and rescaled
    by ``HostClock``.  A call fails when it raises or its check fails."""
    clock = HostClock(workload)
    times = {"unit": [], "eval": []}
    raw = {"unit": [], "eval": []}
    kernel = [clock.kernel_s()]
    attempted = failed = 0
    errors = []
    steps = (("unit", workload.unit, workload.check_unit),
             ("eval", workload.eval, workload.check_eval))
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for kind, call, check in steps:
            attempted += 1
            error = None
            try:
                with tracer.root(kind) if tracer else nullcontext():
                    t0 = time.perf_counter()
                    result = call()
                    elapsed = time.perf_counter() - t0
            except Exception as exc:  # a failing call is counted, not fatal
                error = exc
            kernel.append(clock.kernel_s())
            if error is None:
                try:
                    check(result)
                except Exception as exc:  # a wrong output, counted likewise
                    error = exc
            if error is not None:
                failed += 1
                errors.append(f"{kind}: {type(error).__name__}: {error}")
                continue
            raw[kind].append(elapsed)
            times[kind].append(clock.rescale(elapsed, kernel[-2], kernel[-1]))
    busy = sum(times["unit"]) + sum(times["eval"])
    samples = (workload.unit_samples * len(times["unit"])
               + workload.eval_samples * len(times["eval"]))
    return {
        "times": times,
        "raw_times": raw,
        "kernel_s": statistics.median(kernel),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "throughput_msps": samples / busy / 1e6 if busy else 0.0,
    }


def peak_mem_mib(workload) -> float:
    """tracemalloc peak above the baseline during one unit call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = workload.unit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    workload.check_unit(result)
    return (peak - base) / 2 ** 20


def _flatten(value):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from ((f"{key}.{k}" if k else key, v) for k, v in _flatten(value[key]))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from ((f"{i}.{k}" if k else str(i), x) for k, x in _flatten(v))
    else:
        yield "", value


def compare_reference(name: str, values: dict) -> list:
    """Mismatches between ``values`` and the stored reference of ``name``."""
    stored = json.loads(REFERENCE.read_text()).get(name)
    if stored is None:
        return [f"no reference stored for {name}"]
    got, want = dict(_flatten(values)), dict(_flatten(stored))
    if got.keys() != want.keys():
        return [f"reference keys differ: {sorted(got.keys() ^ want.keys())}"]
    return [
        f"{key}: {got[key]!r} != {want[key]!r}" for key in want
        if not math.isclose(got[key], want[key], rel_tol=REFERENCE_RTOL, abs_tol=1e-12)
    ]


def run(args, workdir: Path, import_s: float):
    from tracer import Tracer, layer_metrics, summarize
    from workloads import WORKLOADS

    import psdnorm

    cls = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed}
    clock = HostClock(cls)
    kernel = [clock.kernel_s()]
    setups, raw_setups, warmup_errors = [], [], []
    for _ in range(1 if args.trace else SETUPS):
        t0 = time.perf_counter()
        workload = cls(args.seed, workdir / "inputs")
        try:  # one untimed warm-up call
            workload.check_unit(workload.unit())
        except Exception as exc:  # reported through "correct"
            warmup_errors.append(f"{type(exc).__name__}: {exc}")
        raw_setups.append(time.perf_counter() - t0)
        kernel.append(clock.kernel_s())
        setups.append(clock.rescale(raw_setups[-1], kernel[-2], kernel[-1]))

    metrics = {}
    if args.trace:
        half = args.seconds / 2
        untraced = timed_loop(workload, half)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_loop(workload, half, tracer)
        finally:
            tracer.restore()
        RUN_DIR.mkdir(exist_ok=True)
        trace_path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        floor = workload.floor_batch()
        floor_times = []
        for _ in range(FLOOR_REPEATS):
            t0 = time.perf_counter()
            psdnorm.instancenorm_forward(floor)
            floor_times.append(time.perf_counter() - t0)
        summary = summarize(tracer.spans, "unit")
        metrics = layer_metrics(summary, workload.unit_samples,
                                workload.distinct_signals)
        metrics["layers.instancenorm_floor_ratio"] = (
            _quantile(untraced["raw_times"]["unit"], 0.5) / statistics.median(floor_times),
            "ratio")
        metrics["trace.overhead_pct"] = (
            100.0 * (untraced["throughput_msps"] / traced["throughput_msps"] - 1.0)
        if traced["throughput_msps"] else 0.0, "%")
        loops = [untraced, traced]
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["traced_unit_calls"] = summary["roots"]
    else:
        peak = peak_mem_mib(workload)
        loop = timed_loop(workload, args.seconds)
        loops = [loop]
        unit, ev = loop["times"]["unit"], loop["times"]["eval"]
        metrics = {
            "setup_s": (clock.rescale(import_s, kernel[0], kernel[0])
                        + statistics.median(setups), "s"),
            "throughput_msps": (loop["throughput_msps"], "Msamples/s"),
            "call_p50_ms": (1e3 * _quantile(unit, 0.5), "ms"),
            "call_p90_ms": (1e3 * _quantile(unit, 0.9), "ms"),
            "eval_p50_ms": (1e3 * _quantile(ev, 0.5), "ms"),
            "eval_p90_ms": (1e3 * _quantile(ev, 0.9), "ms"),
            "peak_mem_mib": (peak, "MiB"),
            "success_rate": (1.0 - loop["failed"] / loop["attempted"], "ratio"),
        }
        record.update({
            "unit_calls": len(unit), "eval_calls": len(ev),
            "raw_call_p50_ms": 1e3 * _quantile(loop["raw_times"]["unit"], 0.5),
            "raw_eval_p50_ms": 1e3 * _quantile(loop["raw_times"]["eval"], 0.5),
            "host_kernel_ms": 1e3 * loop["kernel_s"],
            "raw_setup_runs_s": raw_setups, "raw_import_s": import_s,
        })

    # Outputs at the reference seed are compared with stored values, and
    # alignment quality is measured there too: it depends strongly on the
    # random domain shifts, so across seeds it would spread far beyond any
    # useful bound.
    reference_workload = cls(REFERENCE_SEED, workdir / "reference")
    reference = reference_workload.reference_values()
    if not args.trace:
        metrics.update({k: (v, "ratio") for k, v in reference_workload.quality().items()})
    if args.record_reference:
        doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        doc[args.workload] = reference
        REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    mismatches = compare_reference(args.workload, reference)

    attempted = sum(lp["attempted"] for lp in loops)
    failed = sum(lp["failed"] for lp in loops)
    record.update({
        "environment": environment(),
        "input_digest": workload.input_digest(),
        "unit_input_samples": workload.unit_samples,
        "unit_input_bytes_float64": 8 * workload.unit_samples,
        "unit_input_vs_l3": "computed: samples x 8 bytes, against the L3 size above",
        "io_note": "io.* times are page-cache I/O on files written during set-up, not disk",
        "errors": [e for lp in loops for e in lp["errors"]] + warmup_errors,
        "reference_mismatches": mismatches[:10],
    })
    correct = failed == 0 and not warmup_errors and not mismatches
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_batches", "long_recording", "domain_corpus"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's reference-seed values in reference.json")
    args = parser.parse_args(argv)

    prepare_environment()
    import psdnorm
    import tracer  # noqa: F401  (imports are timed as part of set-up)
    import workloads  # noqa: F401

    if not Path(psdnorm.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"perfbench: psdnorm imported from {psdnorm.__file__}\n")
        return 2
    import_s = time.perf_counter() - _T0

    workdir = RUN_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        record, result = run(args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
