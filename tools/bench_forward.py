"""Stage-by-stage and layer-by-layer timings of the PSDNorm forward pass.

Run from the root of a checkout:

    python tools/bench_forward.py --out BENCH_forward.json
    python tools/bench_forward.py --out BENCH_forward.json \\
        --before ../psdnorm-parent --pairs 10 --seconds 8

The first form times, over a fixed (N, c, l, f) grid that includes the
shapes of perfbench's three workloads, each stage of one train-mode forward
(centre + Welch, batch barycenter, running update, tap synthesis, filtering),
the whole train and eval forward, the InstanceNorm floor and the tracemalloc
peak of the train forward, then each layer of the ``train_batches`` stack
and the ``domain_corpus`` unit call (three fresh domain specs, drawn and
evaluated by ``evaluate_alignment`` for each of the six methods).  Every
time is the best of the runs in half a second (at least five), with BLAS
pinned to one thread.  It then runs ``psdnorm align`` over the
``long_recording`` file set (four (2, 2^19) files, f = 64) in a fresh
process, which records how far its own ``ru_maxrss`` rises above its value
after the imports during the first call, the tracemalloc peak of a second
call, and the best call time.

The grid, stack and unit call are timed in STAGE_ROUNDS rounds, each in
a fresh process, and every ``*_ms`` time is the minimum over the rounds.
``--before DIR`` names a checkout of the commit to compare with.  The
rounds then alternate which tree's library runs first, so that both
trees see the same spells of host load, and that tree's times go under
``"stages_before"`` (each row's stages and its whole train and eval
forward, the stack and the ``domain_corpus`` unit call); ``align`` is
measured with each tree's library, and ``--pairs`` pairs of perfbench runs
(``--seconds`` each, ``--seed``) alternate which tree runs first; the file
keeps every run, each side's median and quartiles, and how many pairs the
change won.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]

#: (N, c, l, f) shapes: the train_batches stack (three f on one batch), the
#: layer's default f = 5 on that batch (odd, so Welch's Gram form sums three
#: residue classes of segments), the domain_corpus fit, per-domain and
#: per-signal (N = 1) calls, the complexity gate's base shape, one
#: long_recording file, and two filter sizes whose rows Welch sums by
#: per-segment rfft instead of the Gram form.  f = 16 and f = 32 on the
#: stack's batch sit on either side of ``apply_mapping``'s time-domain /
#: FFT crossover, and a long row at f = 8 is filtered in the time domain
#: in blocks, where the long_recording file (f = 64) takes overlap-save.
GRID = [
    (64, 4, 1024, 16), (64, 4, 1024, 8), (64, 4, 1024, 4), (64, 4, 1024, 5),
    (24, 2, 4096, 8), (8, 2, 4096, 8), (1, 2, 4096, 8),
    (8, 4, 4096, 8),
    (1, 2, 2 ** 19, 64), (1, 2, 2 ** 19, 8),
    (64, 4, 1024, 32), (64, 4, 1024, 64), (8, 4, 4096, 256),
]
STACK_SHAPE, STACK_FS = (64, 4, 1024), (16, 8, 4)
#: perfbench's domain_corpus unit call: K domains of N (c, l) signals drawn
#: from shifted ones((c, f)) PSDs at shift 1, then every method at Welch f.
CORPUS = {"domains": 3, "signals": 8, "channels": 2, "length": 4096, "f": 8}
#: perfbench's long_recording align call: four (2, 2^19) files, f = 64.
ALIGN_FILES, ALIGN_SHAPE, ALIGN_F = 4, (2, 2 ** 19), 64
WORKLOADS = ("train_batches", "long_recording", "domain_corpus")
#: Rounds of the stage timings per tree, alternating between the trees.
STAGE_ROUNDS = 3


def best_ms(fn, seconds: float = 0.5) -> float:
    """Best time of fn() over at least 5 runs and ``seconds``, after one
    warm-up run: the minimum drops runs that other processes slowed."""
    fn()
    times, start = [], time.perf_counter()
    while len(times) < 5 or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return round(1000 * min(times), 3)


def peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return round((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20, 3)
    finally:
        tracemalloc.stop()


def batch(shape, seed: int = 0):
    import numpy as np

    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * rng.uniform(0.5, 2.0, shape[:2] + (1,)) + 1.0


def trained_layer(b, f: int):
    """A layer after one train pass over b, so later passes take the
    running-update branch."""
    import psdnorm

    return psdnorm.psdnorm_forward(psdnorm.PsdNormLayer(filter_size=f), b)[1]


def stage_times() -> dict:
    import psdnorm
    from psdnorm.layers import centered_psd

    grid = []
    for n, c, l, f in GRID:
        b = batch((n, c, l))
        layer = trained_layer(b, f)
        cfg = layer.welch
        psds = centered_psd(b, cfg)
        batch_bary = psdnorm.wasserstein_barycenter(psds)
        target = psdnorm.running_update(layer.barycenter, batch_bary, layer.momentum)
        taps = psdnorm.monge_filter(psds, target)
        stages = {
            "centre_welch": best_ms(lambda: centered_psd(b, cfg)),
            "batch_barycenter": best_ms(lambda: psdnorm.wasserstein_barycenter(psds)),
            "running_update": best_ms(lambda: psdnorm.running_update(
                layer.barycenter, batch_bary, layer.momentum)),
            "synthesis": best_ms(lambda: psdnorm.monge_filter(psds, target)),
            "filtering": best_ms(lambda: psdnorm.apply_mapping(b, taps)),
        }
        train = best_ms(lambda: psdnorm.psdnorm_forward(layer, b))
        floor = best_ms(lambda: psdnorm.instancenorm_forward(b))
        grid.append({
            "shape": f"{n}x{c}x{l}", "f": f,
            "stages_ms": stages,
            "train_ms": train,
            "eval_ms": best_ms(lambda: psdnorm.psdnorm_forward(layer, b, "eval")),
            "instancenorm_ms": floor,
            "instancenorm_floor_ratio": round(train / floor, 2),
            "train_peak_mib": peak_mib(lambda: psdnorm.psdnorm_forward(layer, b)),
            "input_mib": round(b.nbytes / 2 ** 20, 3),
        })

    b = batch(STACK_SHAPE)
    _, layers, _ = psdnorm.psdnorm_stack_forward(STACK_FS, b)
    per_layer, out = [], b
    for layer in layers:
        x = out
        per_layer.append(best_ms(lambda: psdnorm.psdnorm_forward(layer, x)))
        out, _ = psdnorm.psdnorm_forward(layer, x)
    stack = {
        "shape": "x".join(map(str, STACK_SHAPE)), "fs": list(STACK_FS),
        "per_layer_train_ms": per_layer,
        "stack_train_ms": best_ms(
            lambda: psdnorm.psdnorm_stack_forward(STACK_FS, b, layers=layers)),
        "stack_eval_ms": best_ms(
            lambda: psdnorm.psdnorm_stack_forward(STACK_FS, b, "eval", layers)),
        "instancenorm_ms": best_ms(lambda: psdnorm.instancenorm_forward(b)),
    }
    return {"environment": environment(), "grid": grid, "stack": stack,
            "evaluate_alignment": corpus_unit()}


def corpus_unit() -> dict:
    """The best time of the ``domain_corpus`` unit call: fresh specs (so
    nothing drawn or estimated by an earlier call is reused), then
    ``evaluate_alignment`` for each method."""
    import numpy as np
    import psdnorm

    def unit():
        specs = psdnorm.make_shifted_domains(
            np.ones((CORPUS["channels"], CORPUS["f"])), CORPUS["domains"], 1.0,
            n_signals=CORPUS["signals"], length=CORPUS["length"])
        return [psdnorm.evaluate_alignment(specs, m) for m in psdnorm.synth.METHODS]

    return {**CORPUS, "methods": list(psdnorm.synth.METHODS),
            "unit_ms": best_ms(unit)}


def merge_rounds(rounds: list[dict]) -> dict:
    """One stage-timing document from the rounds of it: each time (any
    number under a key that ends in ``_ms``) the minimum over the rounds,
    each other value the first round's, and each row's InstanceNorm floor
    ratio taken again from its merged times."""

    def merge(values, timed):
        first = values[0]
        if isinstance(first, dict):
            return {k: merge([v[k] for v in values], timed or k.endswith("_ms"))
                    for k in first}
        if isinstance(first, list):
            return [merge(list(vs), timed) for vs in zip(*values)]
        return min(values) if timed else first

    doc = merge(rounds, False)
    for row in doc["grid"]:
        row["instancenorm_floor_ratio"] = round(row["train_ms"] / row["instancenorm_ms"], 2)
    return doc


def write_align_inputs(directory: Path) -> dict:
    """Write the long_recording file set, drawn as perfbench draws it at
    seed 0, into ``directory``."""
    import numpy as np
    import psdnorm
    import psdnorm.io

    c, l = ALIGN_SHAPE
    specs = psdnorm.make_shifted_domains(np.ones((c, ALIGN_F)), ALIGN_FILES, 1.0,
                                         n_signals=1, length=l, seed=0)
    for i, spec in enumerate(specs):
        psdnorm.io.write_signal(directory / f"rec{i}.psdn",
                                psdnorm.sample_gaussian_with_psd(spec)[0])
    return {"files": len(specs)}


def align_memory(directory: Path) -> dict:
    """``psdnorm align`` over the files of ``directory``.  Run in a fresh
    process: ``ru_maxrss`` of the process is a high-water mark, so only
    its rise during the first call, over its value after the imports,
    measures that call."""
    import psdnorm.cli

    paths = sorted(map(str, directory.glob("rec*.psdn")))
    argv = ["align", *paths, "--f", str(ALIGN_F), "--out", str(directory / "out")]

    def align():
        if psdnorm.cli.main(argv) != 0:
            raise RuntimeError("align failed")

    imported = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    align()
    rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - imported
    return {"files": len(paths), "shape": list(ALIGN_SHAPE), "f": ALIGN_F,
            "import_maxrss_mib": round(imported / 1024, 2),
            "maxrss_above_import_mib": round(rise / 1024, 2),
            "peak_mib": peak_mib(align),
            "call_ms": best_ms(align)}


def in_tree(tree: Path, what: str, directory: Path | None = None) -> dict:
    """Run this file's ``--measure what`` with the library of ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    where = ["--dir", str(directory)] if directory else []
    proc = subprocess.run([sys.executable, __file__, "--measure", what, *where],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def perfbench(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds",
         str(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def summarize(before: list[dict], after: list[dict]) -> dict:
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = {"correct": [all(r["correct"] for r in before), all(r["correct"] for r in after)]}
    for name, direction in better.items():
        pairs = [(b[name], a[name]) for b, a in zip(before, after)]
        sign = 1 if direction == "lower" else -1
        q_before = statistics.quantiles([b for b, _ in pairs], n=4)
        out[name] = {
            "before": [round(b, 4) for b, _ in pairs],
            "after": [round(a, 4) for _, a in pairs],
            "before_median": round(statistics.median(b for b, _ in pairs), 4),
            "after_median": round(statistics.median(a for _, a in pairs), 4),
            "before_iqr": round(q_before[2] - q_before[0], 4),
            "after_wins": sum(sign * (b - a) > 0 for b, a in pairs),
        }
    return out


def environment() -> dict:
    import numpy as np

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "cores": len(os.sched_getaffinity(0)),
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    parser.add_argument("--before", type=Path, help="checkout of the commit to compare with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--measure", help=argparse.SUPPRESS,
                        choices=("stages", "align_inputs", "align"))
    parser.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if args.measure:
        measure = {"stages": stage_times,
                   "align_inputs": lambda: write_align_inputs(args.dir),
                   "align": lambda: align_memory(args.dir)}[args.measure]
        print(json.dumps(measure()))
        return 0
    if args.before and args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    trees = {"after": ROOT}
    if args.before:
        trees = {"before": args.before.resolve(), **trees}
    rounds = {side: [] for side in trees}
    for i in range(STAGE_ROUNDS):
        for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            rounds[side].append(in_tree(trees[side], "stages"))
    doc = merge_rounds(rounds["after"])
    with tempfile.TemporaryDirectory() as directory:
        in_tree(ROOT, "align_inputs", Path(directory))
        doc["align"] = {side: in_tree(tree, "align", Path(directory))
                        for side, tree in trees.items()}
    if args.before:
        doc["stages_before"] = merge_rounds(rounds["before"])
        runs = {w: {"before": [], "after": []} for w in WORKLOADS}
        for i in range(args.pairs):
            for workload in WORKLOADS:
                for side in (("before", "after") if i % 2 == 0 else ("after", "before")):
                    runs[workload][side].append(
                        perfbench(trees[side], workload, args.seconds, args.seed))
        doc["perfbench_pairs"] = {
            "seconds": args.seconds, "seed": args.seed, "pairs": args.pairs,
            **{w: summarize(r["before"], r["after"]) for w, r in runs.items()}}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
