"""Command-line front end.

Subcommands: ``psd`` (Welch estimation to CSV/JSON), ``align`` (Monge mapping
of signal files toward a target PSD), ``layer`` (one normalization-layer
forward pass with persisted state), and ``bench`` (synthetic domain-shift
benchmark).

Exit codes: 0 success, 2 I/O failure, 3 shape/validation failure, 4 state
contract violation.  Failures also emit a machine-readable JSON object on
stderr: {"error": {"kind": ..., "message": ...}}.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    EvalWithoutBarycenterError,
    EvalWithoutStatsError,
    NonFiniteInputError,
    ParameterOutOfRangeError,
    PsdNormError,
    ShapeMismatchError,
)
from .geometry import bures_distance, wasserstein_barycenter
from .io import (
    SignalFileError,
    StateFileError,
    dumps_json,
    load_state,
    read_signal,
    save_state,
    write_signal,
)
from .layers import (
    BatchNormLayer,
    PsdNormLayer,
    batchnorm_forward,
    centered_psd,
    instancenorm_forward,
    layernorm_forward,
    psdnorm_forward,
)
from .monge import apply_mapping, monge_filter
from .spectral import WelchConfig, n_segments, psd_floor, welch_psd_raw
from .synth import METHODS, evaluate_alignment, make_shifted_domains

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_STATE = 4


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")
    return code


def _run_config(args, extra=None) -> dict:
    """Resolved configuration embedded in every JSON report."""
    return {
        "command": args.command,
        "f": getattr(args, "f", None),
        "momentum": getattr(args, "momentum", None),
        "window": getattr(args, "window", None),
        "stride": getattr(args, "stride", None),
        "library_version": __version__,
        **(extra or {}),
    }


def _welch_from_args(args) -> WelchConfig:
    return WelchConfig(args.f, stride=args.stride, window_kind=args.window)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_psd(args) -> int:
    cfg = _welch_from_args(args)
    rows, files, clamp_total, bins_total = [], [], 0, 0
    for path in args.inputs:
        x = read_signal(path)
        raw = welch_psd_raw(x, cfg)
        floor = psd_floor(raw)
        clamped = int(np.count_nonzero(raw < floor))
        p = np.maximum(raw, floor)
        rows.append(p)
        clamp_total += clamped
        bins_total += p.size
        files.append({
            "path": str(path),
            "channels": int(x.shape[0]),
            "length": int(x.shape[1]),
            "segments": n_segments(x.shape[1], cfg),
            "clamped_bins": clamped,
        })
    np.savetxt(args.out_csv, np.vstack(rows), delimiter=",", fmt="%.17g")
    summary = {
        "config": _run_config(args),
        "window_kind": cfg.window_kind,
        "files": files,
        "clamped_bins": clamp_total,
        "all_clamped": clamp_total == bins_total,
    }
    Path(args.out_json).write_text(dumps_json(summary))
    return EXIT_OK


def _load_matching_state(path, kind: str, **flags):
    """Load a ``kind`` state whose fields named in ``flags`` equal the values
    the command-line flags give."""
    layer = load_state(path, kind=kind)
    for name, given in flags.items():
        if getattr(layer, name) != given:
            raise StateFileError(f"state file {path} holds {name}"
                                 f" {getattr(layer, name)}, the flags give {given}")
    return layer


def _resolve_target(args, psds, cfg: WelchConfig) -> np.ndarray:
    if args.target == "barycenter":
        return wasserstein_barycenter(psds)
    if args.target == "unit":
        return np.ones_like(psds[0])
    layer = _load_matching_state(args.target, "psdnorm", welch=cfg)  # a path
    if layer.barycenter is None:
        raise EvalWithoutBarycenterError(
            f"state file {args.target} carries no barycenter"
        )
    return layer.barycenter


def _write_finite(path, y, source) -> None:
    """Write y as a float32 signal file, refusing a non-finite result."""
    with np.errstate(over="ignore"):
        y = y.astype(np.float32)
    if not np.all(np.isfinite(y)):
        raise NonFiniteInputError(f"{source}: aligned output is not finite in"
                                  " float32; align writes no output")
    write_signal(path, y)


def cmd_align(args) -> int:
    cfg = _welch_from_args(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    signals = [read_signal(p) for p in args.inputs]
    psds = [centered_psd(x, cfg) for x in signals]
    target = _resolve_target(args, psds, cfg)
    for path, p in zip(args.inputs, psds):
        if p.shape != target.shape:
            raise ShapeMismatchError(f"{path}: PSD shape {p.shape} differs from"
                                     f" the target's {target.shape}")
    # Files are written under temporary names and renamed once every output
    # has passed, so a failure leaves none of this call's files behind.
    staged, records = [], []
    try:
        for i, (path, x, p) in enumerate(zip(args.inputs, signals, psds)):
            y = apply_mapping(x, monge_filter(p, target))
            out_path = out_dir / (Path(path).stem + ".aligned.psdn")
            part = out_dir / f".{i}.{out_path.name}.part"
            staged.append((part, out_path))
            _write_finite(part, y, path)
            records.append({
                "input": str(path),
                "output": str(out_path),
                "pre_distance": bures_distance(p, target),
                "post_distance": bures_distance(centered_psd(y, cfg), target),
            })
        report = {
            "config": _run_config(args, {"target": args.target}),
            "signals": records,
        }
        part = out_dir / ".report.json.part"
        staged.append((part, out_dir / "report.json"))
        part.write_text(dumps_json(report))
    except BaseException:
        for part, _ in staged:
            part.unlink(missing_ok=True)
        raise
    for part, final in staged:
        part.replace(final)
    return EXIT_OK


def cmd_layer(args) -> int:
    batch = np.stack([read_signal(p) for p in args.inputs])
    layer = None
    # A non-finite result is reported below as one error, not as warnings.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if args.kind == "instancenorm":
            out = instancenorm_forward(batch, eps=args.eps)
        elif args.kind == "layernorm":
            out = layernorm_forward(batch, eps=args.eps)
        else:
            flags = ({"eps": args.eps} if args.kind == "batchnorm" else
                     {"welch": _welch_from_args(args), "momentum": args.momentum})
            if args.state_in:
                layer = _load_matching_state(args.state_in, args.kind, **flags)
            elif args.kind == "batchnorm":
                layer = BatchNormLayer(**flags)
            else:
                layer = PsdNormLayer(filter_size=args.f, **flags)
            forward = batchnorm_forward if args.kind == "batchnorm" else psdnorm_forward
            out, layer = forward(layer, batch, args.mode)
        out = out.astype(np.float32)
    if not np.all(np.isfinite(out)):
        raise NonFiniteInputError(f"{args.kind} output is not finite in float32;"
                                  " nothing was written")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, y in zip(args.inputs, out):
        write_signal(out_dir / (Path(path).stem + ".out.psdn"), y)
    if layer is not None and args.state_out:
        if args.mode == "train" or not args.state_in:
            save_state(args.state_out, layer)
        else:
            # Eval must leave state byte-identical.
            Path(args.state_out).write_bytes(Path(args.state_in).read_bytes())
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.seeds < 1:
        raise ParameterOutOfRangeError(f"--seeds must be >= 1, got {args.seeds}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    methods = args.methods.split(",")
    base = np.ones((args.channels, args.f))
    welch = _welch_from_args(args)
    per_method = {}
    for method in methods:
        ratios = []
        for seed in range(args.seeds):
            domains = make_shifted_domains(
                base, args.domains, args.shift,
                n_signals=args.signals, length=args.length, seed=seed,
            )
            ratios.append(evaluate_alignment(domains, method, welch).reduction_ratio)
        per_method[method] = {
            "ratios": ratios,
            "mean": float(np.mean(ratios)),
            "std": float(np.std(ratios)),
        }
    report = {
        "config": _run_config(args, {
            "domains": args.domains,
            "shift": args.shift,
            "seeds": args.seeds,
            "methods": methods,
            "signals": args.signals,
            "length": args.length,
            "channels": args.channels,
        }),
        "results": per_method,
    }
    (out_dir / "report.json").write_text(dumps_json(report))
    lines = ["method,mean_ratio,std_ratio"]
    for method in methods:
        r = per_method[method]
        lines.append(f"{method},{r['mean']:.17g},{r['std']:.17g}")
    (out_dir / "ratios.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_welch_flags(p, default_f=5):
    p.add_argument("--f", type=int, default=default_f, help="filter size / PSD bins")
    p.add_argument("--stride", type=int, default=0,
                   help="segment stride (0 = f // 2)")
    p.add_argument("--window", choices=("hann", "boxcar"), default="hann")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdnorm",
        description="Spectral alignment of multichannel time series",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psd", help="Welch PSD estimation of signal files")
    p.add_argument("inputs", nargs="+")
    _add_welch_flags(p)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", required=True)
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("align", help="Monge-map signal files toward a target PSD")
    p.add_argument("inputs", nargs="+")
    _add_welch_flags(p)
    p.add_argument("--target", default="barycenter",
                   help="'barycenter', 'unit', or a path to a state file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("layer", help="one normalization-layer forward pass")
    p.add_argument("inputs", nargs="+", help="batch of signal files")
    p.add_argument("--kind", required=True,
                   choices=("psdnorm", "instancenorm", "batchnorm", "layernorm"))
    p.add_argument("--mode", choices=("train", "eval"), default="train")
    p.add_argument("--state-in", default=None)
    p.add_argument("--state-out", default=None)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--momentum", type=float, default=1e-2)
    _add_welch_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_layer)

    p = sub.add_parser("bench", help="synthetic domain-shift benchmark")
    p.add_argument("--domains", type=int, default=3)
    p.add_argument("--shift", type=float, default=1.0)
    p.add_argument("--methods", default="none,instancenorm,psdnorm",
                   help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--signals", type=int, default=8, help="signals per domain")
    p.add_argument("--length", type=int, default=2 ** 12)
    p.add_argument("--channels", type=int, default=2)
    _add_welch_flags(p, default_f=8)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EvalWithoutBarycenterError, EvalWithoutStatsError, StateFileError) as e:
        return _fail("state", str(e), EXIT_STATE)
    except (SignalFileError, FileNotFoundError, json.JSONDecodeError, OSError) as e:
        return _fail("io", str(e), EXIT_IO)
    except (PsdNormError, ValueError) as e:
        return _fail("validation", str(e), EXIT_VALIDATION)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
