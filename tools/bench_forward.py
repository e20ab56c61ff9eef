"""Interleaved A/B timings of the PSDNorm forward pass, by stage and layer.

Run from the root of a checkout:

    python tools/bench_forward.py --out BENCH_forward.json
    python tools/bench_forward.py --out BENCH_forward.json \\
        --before ../psdnorm-parent --pairs 10 --seconds 8

One process imports three copies of the library: the ``--before``
checkout's (this tree's when it is absent), this tree's, and this tree's
again.  It times, over a fixed (N, c, l, f) grid that includes the shapes of
perfbench's three workloads, each stage of a train forward, the whole train
and eval forward and the InstanceNorm floor, then each layer of the
``train_batches`` stack, the ``domain_corpus`` unit call, each of its
methods on specs estimated beforehand, and ``psdnorm align`` over the
``long_recording`` files.  Each call runs in AB_PAIRS
rounds of interleaved samples, one per copy, in an order that cycles
through all six, so every copy sees the same spells of host load.  A sample
repeats the call until it lasts MIN_SAMPLE_S of process CPU time (one
repeat count per row).  BLAS is pinned to one thread.

A timed row holds each copy's median call time (``before_ms``,
``after_ms``, ``again_ms``) and two ratios of medians, each with its
bootstrap 95 % CI over the rounds and the rounds the after copy won:
``after_over_before`` is the change, ``after_over_again`` the row's A/A
control.  The A/A CI shows how far equal code strays on this host; a row
reads as changed only where its B/A CI excludes 1 by more than that.  Grid
rows also hold each tree's tracemalloc peak of a train forward, of a
``welch_psd`` call and of an InstanceNorm call, the stack that of a
train-mode stack, and ``align`` that of a call, each the median of
PEAK_CALLS calls.
Each grid row, the stack, the ``domain_corpus`` calls and ``align`` also
read ``identical``: whether one untimed call of each of their calls in the
before and after copies returned the same bits, every output array,
barycenter, report distance and ratio, and every byte of ``align``'s output
files.  A change that claims to keep its bits shows it there.
With ``--before``, ``--pairs`` pairs of perfbench runs (``--seconds`` each,
``--seed``) then alternate which tree runs first; the file keeps every run,
each side's median and quartiles, and how many pairs the change won.
"""

from __future__ import annotations

import argparse
import copy
import importlib.util
import itertools
import json
import math
import os
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
#: long_recording file at the workload's f = 64 and at f = 8, and three
#: larger f on rows of 1024 and 4096.  tests/test_bench_forward.py checks
#: which forms of Welch and of the filter the rows reach.
GRID = [(64, 4, 1024, 16), (64, 4, 1024, 8), (64, 4, 1024, 4), (64, 4, 1024, 5),
        (24, 2, 4096, 8), (8, 2, 4096, 8), (1, 2, 4096, 8), (8, 4, 4096, 8),
        (1, 2, 2 ** 19, 64), (1, 2, 2 ** 19, 8),
        (64, 4, 1024, 32), (64, 4, 1024, 64), (8, 4, 4096, 256)]
STAGES = ("centre_welch", "batch_barycenter", "running_update", "synthesis",
          "filtering")
STACK_SHAPE, STACK_FS = (64, 4, 1024), (16, 8, 4)
#: perfbench's domain_corpus unit call: K domains of N (c, l) signals drawn
#: from shifted ones((c, f)) PSDs at shift 1, then every method at Welch f.
CORPUS = {"domains": 3, "signals": 8, "channels": 2, "length": 4096, "f": 8}
#: perfbench's long_recording align call: four (2, 2^19) files, f = 64.
ALIGN_FILES, ALIGN_SHAPE, ALIGN_F = 4, (2, 2 ** 19), 64
WORKLOADS = ("train_batches", "long_recording", "domain_corpus")

#: The library copies, in the order of the list that ``compare`` times.
COPIES = ("before", "after", "again")
#: All six orders of the copies: each runs first, second and last equally often.
ORDERS = list(itertools.permutations(range(len(COPIES))))
#: Rounds of interleaved samples per timed call, a multiple of the orders.
AB_PAIRS = 42
#: Process CPU seconds that one sample lasts at least.
MIN_SAMPLE_S = 0.02
#: Bootstrap resamples of the rounds behind each 95 % CI.
RESAMPLES = 2000
#: Calls whose median tracemalloc peak a peak field reads: one call's peak
#: strays by some KiB (six ``align`` calls over one file set, by 13.6 KiB).
PEAK_CALLS = 3


def load_copy(tree: Path, name: str):
    """The psdnorm package of ``tree``, imported as ``name``.  Its modules
    import each other relatively, so copies share no module or state, nor
    does a copy share any with an earlier one of its name, whose modules it
    drops first."""
    for key in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[key]
    package = tree / "src" / "psdnorm"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sample(fn, n: int, clock) -> float:
    t = clock()
    for _ in range(n):
        fn()
    return clock() - t


def ratio(new: list, base: list) -> dict:
    """median(new) / median(base) over paired rounds, the 2.5 and 97.5
    percentiles of that ratio over RESAMPLES resamples of the rounds, and
    the number of rounds in which new took less time than base."""
    import numpy as np

    new, base = np.asarray(new), np.asarray(base)
    rounds = np.random.default_rng(0).integers(0, len(new), (RESAMPLES, len(new)))
    boot = np.median(new[rounds], axis=1) / np.median(base[rounds], axis=1)
    return {"ratio": round(float(np.median(new) / np.median(base)), 4),
            "ci95": [round(float(q), 4) for q in np.percentile(boot, [2.5, 97.5])],
            "wins": int(np.sum(new < base))}


def compare(fns, clock=time.process_time) -> dict:
    """Time the before, after and again calls ``fns``: a warm-up call of
    each, then AB_PAIRS rounds of one sample of each, a sample being as many
    calls as make the after call last MIN_SAMPLE_S."""
    for fn in fns:
        fn()
    n = 1
    while (elapsed := sample(fns[1], n, clock)) < MIN_SAMPLE_S:
        n = max(n + 1, math.ceil(n * MIN_SAMPLE_S / elapsed)) if elapsed else 2 * n
    samples = [[] for _ in fns]
    for i in range(AB_PAIRS):
        for k in ORDERS[i % len(ORDERS)]:
            samples[k].append(1000 * sample(fns[k], n, clock) / n)
    before, after, again = samples
    return {"calls_per_sample": n,
            **{f"{side}_ms": round(statistics.median(s), 4)
               for side, s in zip(COPIES, samples)},
            "after_over_before": ratio(after, before),
            "after_over_again": ratio(after, again)}


def peak_mib(fn) -> float:
    """The median over PEAK_CALLS calls of fn of the tracemalloc peak above
    the level the call starts at, in MiB."""
    tracemalloc.start()
    try:
        peaks = []
        for _ in range(PEAK_CALLS):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return round(statistics.median(peaks) / 2 ** 20, 3)
    finally:
        tracemalloc.stop()


def batch(shape, seed: int = 0):
    import numpy as np

    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * rng.uniform(0.5, 2.0, shape[:2] + (1,)) + 1.0


def grid_calls(lib, b, f: int) -> dict:
    """A grid row's calls with library copy ``lib``: each stage of the train
    forward of a layer trained once on b (so it takes the running-update
    branch), the whole forward and the InstanceNorm floor."""
    layer = lib.psdnorm_forward(lib.PsdNormLayer(filter_size=f), b)[1]
    cfg = layer.welch
    psds = lib.centered_psd(b, cfg)
    batch_bary = lib.wasserstein_barycenter(psds)
    target = lib.running_update(layer.barycenter, batch_bary, layer.momentum)
    taps = lib.monge_filter(psds, target)
    return {
        "centre_welch": lambda: lib.centered_psd(b, cfg),
        "batch_barycenter": lambda: lib.wasserstein_barycenter(psds),
        "running_update": lambda: lib.running_update(
            layer.barycenter, batch_bary, layer.momentum),
        "synthesis": lambda: lib.monge_filter(psds, target),
        "filtering": lambda: lib.apply_mapping(b, taps),
        "train": lambda: lib.psdnorm_forward(layer, b),
        "eval": lambda: lib.psdnorm_forward(layer, b, "eval"),
        "instancenorm": lambda: lib.instancenorm_forward(b),
    }


def stack_calls(lib, b) -> dict:
    """Each layer of the train_batches stack on its own input, the whole
    stack in train and eval mode, and the InstanceNorm floor."""
    _, layers, _ = lib.psdnorm_stack_forward(STACK_FS, b)
    calls, x = {}, b
    for i, layer in enumerate(layers, 1):
        calls[f"layer_{i}"] = lambda layer=layer, x=x: lib.psdnorm_forward(layer, x)
        x = lib.psdnorm_forward(layer, x)[0]
    return {**calls,
            "stack_train": lambda: lib.psdnorm_stack_forward(STACK_FS, b, layers=layers),
            "stack_eval": lambda: lib.psdnorm_stack_forward(STACK_FS, b, "eval", layers),
            "instancenorm": lambda: lib.instancenorm_forward(b)}


def corpus_calls(lib) -> dict:
    """The ``domain_corpus`` unit call: fresh specs (so nothing drawn or
    estimated by an earlier call is reused), then ``evaluate_alignment``
    for each method.  Then each method on its own, on shallow copies of
    specs whose samples are drawn and whose PSDs are estimated beforehand,
    so that a row times the method's own work: a copy shares the sample and
    the PSDs, but whatever else a method keeps on a spec (the mapped PSDs
    of ``tma`` and ``psdnorm``) it builds afresh on each call, as the unit
    call does."""
    import numpy as np

    def specs():
        return lib.make_shifted_domains(
            np.ones((CORPUS["channels"], CORPUS["f"])), CORPUS["domains"], 1.0,
            n_signals=CORPUS["signals"], length=CORPUS["length"])

    def unit():
        fresh = specs()
        return [lib.evaluate_alignment(fresh, m) for m in lib.synth.METHODS]

    kept = specs()
    for spec in kept:
        spec.centered_psds(lib.WelchConfig(CORPUS["f"]))
    return {"unit": unit,
            **{m: lambda m=m: lib.evaluate_alignment([copy.copy(s) for s in kept], m)
               for m in lib.synth.METHODS}}


def result_bytes(value) -> list:
    """The arrays and numbers of a call's result as (dtype, shape, bytes),
    in order: a sequence's items, a layer's barycenter, and an
    ``AlignmentReport``'s distances and ratio."""
    import numpy as np

    if isinstance(value, (list, tuple)):
        return [item for v in value for item in result_bytes(v)]
    if hasattr(value, "barycenter"):  # a PSDNorm layer
        return result_bytes(value.barycenter)
    if hasattr(value, "post_distances"):  # an AlignmentReport
        return result_bytes([value.pre_distances, value.post_distances,
                             value.reduction_ratio])
    a = np.asarray(value)
    return [(a.dtype.str, a.shape, a.tobytes())]


def identical(calls: list[dict]) -> bool:
    """Whether one untimed call of each named call of the before and after
    copies' ``calls`` returns the same bits (``result_bytes``)."""
    before, after = calls[:2]
    return all(result_bytes(before[name]()) == result_bytes(after[name]())
               for name in before)


def timed(calls: list[dict]) -> dict:
    """Each named call of the before, after and again copies' ``calls``,
    compared."""
    return {name: compare([copy[name] for copy in calls]) for name in calls[0]}


def forward_rows(libs) -> dict:
    """The grid, the stack and the ``domain_corpus`` calls, timed on the
    before, after and again library copies ``libs``."""
    grid = []
    for n, c, l, f in GRID:
        b = batch((n, c, l))
        calls = [grid_calls(lib, b, f) for lib in libs]
        rows = timed(calls)
        stages = {name: rows.pop(name) for name in STAGES}
        grid.append({
            "shape": f"{n}x{c}x{l}", "f": f, "identical": identical(calls),
            "stages": stages, **rows,
            "train_peak_mib": {side: peak_mib(copy["train"])
                               for side, copy in zip(COPIES, calls[:2])},
            "welch_peak_mib": {side: peak_mib(lambda lib=lib: lib.welch_psd(
                b, lib.WelchConfig(f))) for side, lib in zip(COPIES, libs[:2])},
            "instancenorm_peak_mib": {side: peak_mib(copy["instancenorm"])
                                      for side, copy in zip(COPIES, calls[:2])},
            "input_mib": round(b.nbytes / 2 ** 20, 3),
        })
    b = batch(STACK_SHAPE)
    stack = [stack_calls(lib, b) for lib in libs]
    corpus = [corpus_calls(lib) for lib in libs]
    corpus_identical, corpus = identical(corpus), timed(corpus)
    return {"grid": grid,
            "stack": {"shape": "x".join(map(str, STACK_SHAPE)), "fs": list(STACK_FS),
                      "identical": identical(stack), **timed(stack),
                      "train_peak_mib": {side: peak_mib(copy["stack_train"])
                                         for side, copy in zip(COPIES, stack[:2])}},
            "evaluate_alignment": {**CORPUS, "methods": list(libs[1].synth.METHODS),
                                   "identical": corpus_identical,
                                   "unit": corpus.pop("unit"), "per_method": corpus}}


def same_outputs(a: Path, b: Path) -> bool:
    """Whether two ``align`` output directories hold the same signal files,
    byte for byte, and reports of the same distances."""
    names = sorted(path.name for path in a.glob("*.psdn"))
    if not names or names != sorted(path.name for path in b.glob("*.psdn")):
        return False
    distances = [[(r["pre_distance"], r["post_distance"]) for r in
                  json.loads((d / "report.json").read_text())["signals"]] for d in (a, b)]
    return distances[0] == distances[1] and all(
        (a / name).read_bytes() == (b / name).read_bytes() for name in names)


def align_row(libs, directory: Path) -> dict:
    """``psdnorm align`` over the long_recording file set, drawn as perfbench
    draws it at seed 0 into ``directory``, timed on the library copies
    ``libs``, each writing its own output directory."""
    import numpy as np

    c, l = ALIGN_SHAPE
    specs = libs[1].make_shifted_domains(np.ones((c, ALIGN_F)), ALIGN_FILES, 1.0,
                                         n_signals=1, length=l, seed=0)
    paths = [str(directory / f"rec{i}.psdn") for i in range(len(specs))]
    write_signal = importlib.import_module(f"{libs[1].__name__}.io").write_signal
    for path, spec in zip(paths, specs):
        write_signal(path, libs[1].sample_gaussian_with_psd(spec)[0])

    def align_calls(lib, side):
        main = importlib.import_module(f"{lib.__name__}.cli").main
        argv = ["align", *paths, "--f", str(ALIGN_F), "--out", str(directory / side)]

        def align():
            if main(argv) != 0:
                raise RuntimeError(f"align failed with the {side} library")
        return {"call": align}

    calls = [align_calls(lib, side) for lib, side in zip(libs, COPIES)]
    for side_calls in calls[:2]:
        side_calls["call"]()
    return {"files": len(paths), "shape": list(ALIGN_SHAPE), "f": ALIGN_F,
            "identical": same_outputs(directory / COPIES[0], directory / COPIES[1]),
            **timed(calls),
            "peak_mib": {side: peak_mib(copy["call"])
                         for side, copy in zip(COPIES, calls[:2])}}


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


def environment(before: bool) -> dict:
    import numpy as np

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "cores": len(os.sched_getaffinity(0)),
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
            "before_tree": before, "ab_pairs": AB_PAIRS,
            "min_sample_ms": 1000 * MIN_SAMPLE_S, "bootstrap_resamples": RESAMPLES,
            "peak_calls": PEAK_CALLS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    parser.add_argument("--before", type=Path, help="checkout of the commit to compare with")
    parser.add_argument("--pairs", type=int, default=10, help="perfbench run pairs")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.before and args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    for var in THREAD_VARS:
        os.environ[var] = "1"

    trees = {"before": (args.before or ROOT).resolve(), "after": ROOT}
    libs = [load_copy(tree, f"psdnorm_{side}")
            for side, tree in zip(COPIES, (trees["before"], ROOT, ROOT))]
    start = time.perf_counter()
    doc = {"environment": environment(bool(args.before)), **forward_rows(libs)}
    with tempfile.TemporaryDirectory() as directory:
        doc["align"] = align_row(libs, Path(directory))
    doc["ab_wall_s"] = round(time.perf_counter() - start, 1)
    if args.before:
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
