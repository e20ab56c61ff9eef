"""The benchmark's three closed-loop workloads.

Each workload generates its inputs from the run seed in its constructor (the
timed set-up), then exposes two calls into the public API of ``psdnorm``:
``unit`` (the call the workload is about) and ``eval`` (the call that reads a
fixed target and updates nothing).  The loop times the calls alone; the
``check_*`` methods raise ``CheckFailed`` on a wrong output and run outside
the timed region.  Library functions are looked up on their modules at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import psdnorm
import psdnorm.cli
import psdnorm.io


class CheckFailed(Exception):
    """A call returned, but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _finite(x, shape, what: str) -> None:
    x = np.asarray(x)
    _require(x.shape == tuple(shape), f"{what}: shape {x.shape} != {tuple(shape)}")
    _require(bool(np.all(np.isfinite(x))), f"{what}: non-finite values")


def _draw(specs, k: int) -> np.ndarray:
    """The k-th fresh batch from the domains of ``specs``, domain-major."""
    return np.concatenate([
        psdnorm.sample_gaussian_with_psd(replace(s, seed=s.seed * 1000 + k))
        for s in specs
    ])


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _centred_psd(x, cfg):
    return psdnorm.welch_psd(x - x.mean(axis=-1, keepdims=True), cfg)


def inter_group_ratio(before, after, cfg) -> float:
    """Mean pairwise Bures distance between group barycenters after a
    mapping over the same before it; groups are sequences of (c, l) signals."""
    def mean_distance(groups):
        barys = [psdnorm.wasserstein_barycenter([_centred_psd(x, cfg) for x in g])
                 for g in groups]
        d = [psdnorm.bures_distance(barys[i], barys[j])
             for i in range(len(barys)) for j in range(i + 1, len(barys))]
        return float(np.mean(d))
    return mean_distance(after) / mean_distance(before)


def residual_ratio(before, after, target, cfg) -> float:
    """Mean over signals of d(PSD after, target) / d(PSD before, target)."""
    return float(np.mean([
        psdnorm.bures_distance(_centred_psd(y, cfg), target)
        / psdnorm.bures_distance(_centred_psd(x, cfg), target)
        for x, y in zip(before, after)
    ]))


class TrainBatches:
    """Train-mode stack forward over a fresh batch, then an eval-mode stack
    forward over a held-out batch with the returned layers."""

    name = "train_batches"
    FS = (16, 8, 4)
    DOMAINS, PER_DOMAIN, CHANNELS, LENGTH = 4, 16, 4, 1024
    POOL = 8
    HOST_KERNEL = ((8, 1024), 0.0007)  # (shape, reference seconds), see run.HostClock

    def __init__(self, seed: int, workdir: Path):
        specs = psdnorm.make_shifted_domains(
            np.ones((self.CHANNELS, self.FS[0])), self.DOMAINS, 1.0,
            n_signals=self.PER_DOMAIN, length=self.LENGTH, seed=seed)
        self.pool = [_draw(specs, k) for k in range(self.POOL)]
        self.held_out = _draw(specs, self.POOL)
        self.layers = None
        self._next = 0
        shape = self.held_out.shape
        self.unit_samples = self.eval_samples = int(np.prod(shape))
        self.distinct_signals = 0

    def input_digest(self) -> str:
        return _digest(self.pool + [self.held_out])

    def floor_batch(self) -> np.ndarray:
        return self.pool[0]

    def unit(self):
        batch = self.pool[self._next % self.POOL]
        self._next += 1
        out, self.layers, snapshots = psdnorm.psdnorm_stack_forward(
            self.FS, batch, layers=self.layers)
        return out, snapshots

    def check_unit(self, result) -> None:
        out, snapshots = result
        _finite(out, self.held_out.shape, "train output")
        _require(len(snapshots) == len(self.FS), "one barycenter per layer")
        for f, bary in zip(self.FS, snapshots):
            _finite(bary, (self.CHANNELS, f), f"barycenter f={f}")
            _require(bool(np.all(bary > 0)), f"barycenter f={f} not positive")

    def eval(self):
        out, _, _ = psdnorm.psdnorm_stack_forward(
            self.FS, self.held_out, mode="eval", layers=self.layers)
        return out

    def check_eval(self, out) -> None:
        _finite(out, self.held_out.shape, "eval output")

    def reference_values(self) -> dict:
        out, snapshots = self.unit()
        ev = self.eval()
        return {
            "train_sumsq": float((out ** 2).sum()),
            "train_head": out[0, 0, :4].tolist(),
            "barycenters": [float(b.sum()) for b in snapshots],
            "eval_sumsq": float((ev ** 2).sum()),
        }

    def quality(self) -> dict:
        cfg = psdnorm.WelchConfig(self.FS[0])
        held = np.split(self.held_out, self.DOMAINS)
        normalized = np.split(self.eval(), self.DOMAINS)
        aligner = psdnorm.tma_fit(np.split(self.pool[0], self.DOMAINS), cfg)
        mapped = np.stack([psdnorm.tma_transform(aligner, x) for x in self.held_out])
        return {
            "psdnorm_ratio": inter_group_ratio(held, normalized, cfg),
            "tma_ratio": inter_group_ratio(held, np.split(mapped, self.DOMAINS), cfg),
            "align_residual_ratio": residual_ratio(
                self.held_out, mapped, aligner.barycenter, cfg),
        }


class LongRecording:
    """``psdnorm align`` over four long recordings toward their barycenter,
    then the same files toward the barycenter stored in a trained layer
    state (``--target state.json``)."""

    name = "long_recording"
    F, FILES, CHANNELS, LENGTH = 64, 4, 2, 2 ** 19
    STATE_LENGTH = 2 ** 14
    HOST_KERNEL = ((2, 2 ** 16), 0.006)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        specs = psdnorm.make_shifted_domains(
            np.ones((self.CHANNELS, self.F)), self.FILES, 1.0,
            n_signals=1, length=self.LENGTH, seed=seed)
        self.signals = [psdnorm.sample_gaussian_with_psd(s)[0] for s in specs]
        self.paths = []
        for i, x in enumerate(self.signals):
            path = self.workdir / f"rec{i}.psdn"
            psdnorm.io.write_signal(path, x)
            self.paths.append(str(path))
        short = [replace(s, length=self.STATE_LENGTH) for s in specs]
        _, layer = psdnorm.psdnorm_forward(psdnorm.PsdNormLayer(filter_size=self.F),
                                           _draw(short, 1))
        self.state_path = self.workdir / "state.json"
        psdnorm.io.save_state(self.state_path, layer)
        self.unit_dir = self.workdir / "unit"
        self.eval_dir = self.workdir / "eval"
        self.unit_samples = self.eval_samples = self.FILES * self.CHANNELS * self.LENGTH
        self.distinct_signals = 0

    def input_digest(self) -> str:
        return _digest(self.signals)

    def floor_batch(self) -> np.ndarray:
        return np.stack(self.signals)

    def _align(self, target, out_dir):
        stderr = _io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = psdnorm.cli.main(["align", *self.paths, "--f", str(self.F),
                                     "--target", str(target), "--out", str(out_dir)])
        return code, stderr.getvalue()

    def _check(self, result, out_dir) -> list:
        code, stderr = result
        _require(code == 0, f"align exited {code}")
        _require(stderr == "", f"align wrote to stderr: {stderr.strip()[:200]}")
        records = json.loads((out_dir / "report.json").read_text())["signals"]
        _require(len(records) == self.FILES, "one report record per file")
        for r in records:
            _require(np.isfinite(r["pre_distance"]) and np.isfinite(r["post_distance"]),
                     "non-finite distance in report")
            y = np.fromfile(r["output"], dtype="<f4", offset=20)
            _finite(y, (self.CHANNELS * self.LENGTH,), r["output"])
        return records

    def unit(self):
        return self._align("barycenter", self.unit_dir)

    def check_unit(self, result) -> None:
        self._check(result, self.unit_dir)

    def eval(self):
        return self._align(self.state_path, self.eval_dir)

    def check_eval(self, result) -> None:
        self._check(result, self.eval_dir)

    def _outputs(self, out_dir):
        return [psdnorm.io.read_signal(out_dir / (Path(p).stem + ".aligned.psdn"))
                for p in self.paths]

    def reference_values(self) -> dict:
        records = self._check(self.unit(), self.unit_dir)
        self.check_eval(self.eval())
        first = self._outputs(self.unit_dir)[0]
        return {
            "pre_distance": [r["pre_distance"] for r in records],
            "post_distance": [r["post_distance"] for r in records],
            "aligned_sumsq": float((first ** 2).sum()),
            "eval_sumsq": float((self._outputs(self.eval_dir)[0] ** 2).sum()),
        }

    def quality(self) -> dict:
        """Reads the outputs of the last unit and eval calls."""
        cfg = psdnorm.WelchConfig(self.F)
        records = json.loads((self.unit_dir / "report.json").read_text())["signals"]
        inputs = [[x] for x in self.signals]
        return {
            "psdnorm_ratio": inter_group_ratio(
                inputs, [[y] for y in self._outputs(self.eval_dir)], cfg),
            "tma_ratio": inter_group_ratio(
                inputs, [[y] for y in self._outputs(self.unit_dir)], cfg),
            "align_residual_ratio": float(np.mean(
                [r["post_distance"] / r["pre_distance"] for r in records])),
        }


class DomainCorpus:
    """``evaluate_alignment`` for every method over a fresh three-domain
    corpus, then per-signal ``tma_transform`` of a held-out corpus with an
    aligner fitted during set-up."""

    name = "domain_corpus"
    DOMAINS, PER_DOMAIN, CHANNELS, F, LENGTH = 3, 8, 2, 8, 4096
    HELD_OUT_SEED = 1_000_000
    HOST_KERNEL = ((8, 1024), 0.0007)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._next = 0
        self.cfg = psdnorm.WelchConfig(self.F)
        held = self.specs(self.HELD_OUT_SEED + seed)
        self.held_out = np.concatenate(
            [psdnorm.sample_gaussian_with_psd(s) for s in held])
        self.aligner = psdnorm.tma_fit(np.split(self.held_out, self.DOMAINS), self.cfg)
        self.unit_samples = self.eval_samples = int(self.held_out.size)
        self.distinct_signals = self.DOMAINS * self.PER_DOMAIN

    def specs(self, seed: int):
        return psdnorm.make_shifted_domains(
            np.ones((self.CHANNELS, self.F)), self.DOMAINS, 1.0,
            n_signals=self.PER_DOMAIN, length=self.LENGTH, seed=seed)

    def input_digest(self) -> str:
        corpus = [psdnorm.sample_gaussian_with_psd(s) for s in self.specs(self.seed)]
        return _digest(corpus + [self.held_out])

    def floor_batch(self) -> np.ndarray:
        return self.held_out

    def unit(self):
        specs = self.specs(self.seed + self._next)
        self._next += 1
        return [psdnorm.evaluate_alignment(specs, m) for m in psdnorm.synth.METHODS]

    def check_unit(self, reports) -> None:
        _require([r.method for r in reports] == list(psdnorm.synth.METHODS),
                 "one report per method")
        k = self.DOMAINS
        for r in reports:
            _finite(r.pre_distances, (k, k), f"{r.method} pre distances")
            _finite(r.post_distances, (k, k), f"{r.method} post distances")
            _require(np.isfinite(r.reduction_ratio) and r.reduction_ratio > 0,
                     f"{r.method} ratio {r.reduction_ratio}")
        _require(abs(reports[0].reduction_ratio - 1.0) < 1e-12,
                 "method 'none' must leave the distances unchanged")

    def eval(self):
        return [psdnorm.tma_transform(self.aligner, x) for x in self.held_out]

    def check_eval(self, outputs) -> None:
        _require(len(outputs) == len(self.held_out), "one output per signal")
        for y in outputs:
            _finite(y, self.held_out.shape[1:], "tma output")

    def reference_values(self) -> dict:
        reports = self.unit()
        self.check_unit(reports)
        return {
            "ratios": [r.reduction_ratio for r in reports],
            "pre_distances": reports[0].pre_distances[np.triu_indices(self.DOMAINS, 1)].tolist(),
            "eval_sumsq": float(sum((y ** 2).sum() for y in self.eval())),
        }

    def quality(self) -> dict:
        ratios = {
            m: float(np.mean([psdnorm.evaluate_alignment(self.specs(self.seed + j), m)
                              .reduction_ratio for j in (0, 1)]))
            for m in ("psdnorm", "tma")
        }
        return {
            "psdnorm_ratio": ratios["psdnorm"],
            "tma_ratio": ratios["tma"],
            "align_residual_ratio": residual_ratio(
                self.held_out, self.eval(), self.aligner.barycenter, self.cfg),
        }


WORKLOADS = {w.name: w for w in (TrainBatches, LongRecording, DomainCorpus)}
