"""Command-line front end.

Subcommands: ``psd`` (Welch estimation to CSV/JSON), ``align`` (Monge mapping
of signal files toward a target PSD), ``layer`` (one normalization-layer
forward pass with persisted state), and ``bench`` (synthetic domain-shift
benchmark).

``align`` reads its files with ``io.read_rows`` and writes each output with
one ``io.write_signal`` call over a generator of its rows, so it holds one
channel row of one file, and its mapped result, whatever the number and
length of the files; ``psd`` reads its files the same way.  Both check
every file's header, its length against ``--f`` included, before they read
any row.  ``layer`` checks every file's header, its length against the
psdnorm layer's filter size included, and loads and checks ``--state-in``,
then reads the rows of all files into one preallocated batch.

Exit codes: 0 success, 2 I/O failure, 3 shape/validation failure (a
malformed command line, and a shape too large to allocate, included), 4
state contract violation.  Failures also emit a machine-readable JSON
object on stderr: {"error": {"kind": ..., "message": ...}}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    EvalWithoutStatsError,
    LengthTooShortError,
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
    read_rows,
    save_state,
    signal_shape,
    write_signal,
)
from .layers import (
    MODES,
    BatchNormLayer,
    PsdNormLayer,
    batchnorm_forward,
    instancenorm_forward,
    layernorm_forward,
    psdnorm_forward,
)
from .monge import apply_mapping, monge_filter
from .spectral import (
    WINDOW_KINDS,
    WelchConfig,
    _centre,
    check_finite,
    check_integer,
    check_number,
    floored,
    n_segments,
    psd_floor,
    welch_psd,
)
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
    return WelchConfig(check_integer("--f", args.f, 1),
                       stride=check_integer("--stride", args.stride, 0),
                       window_kind=args.window)


@contextmanager
def _staged_writes():
    """Yield ``stage(path)``, which names a temporary file beside ``path``
    for the caller to write; a path that is a directory, or was staged
    before, is refused (``IsADirectoryError``, ``ParameterOutOfRangeError``).
    When the block ends every staged file is renamed to its path; if it
    raises they are all deleted, so a failed command leaves none of its
    files.  Only a rename that fails for another reason (say, in a directory
    made read-only after staging) can leave the files renamed before it."""
    staged = []

    def stage(path) -> Path:
        path = Path(path).parent.resolve() / Path(path).name
        if path.is_dir():
            raise IsADirectoryError(f"output path {path} is a directory")
        if any(path == final for _, final in staged):
            raise ParameterOutOfRangeError(f"two outputs would be written to {path}")
        part = path.with_name(f".{len(staged)}.{path.name}.part")
        staged.append((part, path))
        return part

    try:
        yield stage
        for part, path in staged:
            part.replace(path)
    finally:
        for part, _ in staged:
            part.unlink(missing_ok=True)


def _output_paths(out_dir: Path, inputs, suffix: str) -> list[Path]:
    """One output path per input file, named by its stem; inputs whose
    outputs would overwrite each other are refused."""
    owners = {}
    for path in inputs:
        out = out_dir / (Path(path).stem + suffix)
        if out in owners:
            raise ParameterOutOfRangeError(
                f"{owners[out]} and {path} would both be written to {out}")
        owners[out] = path
    return list(owners)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _file_psd(rows, cfg: WelchConfig) -> np.ndarray:
    """``welch_psd`` of the signal whose channel rows ``rows`` yields: each
    row's estimate, floored again over the whole PSD, has the bits of the
    whole-signal estimate.  ``map``, unlike a loop variable, holds no row
    while the next one is read."""
    return floored(np.concatenate(list(map(welch_psd, rows, itertools.repeat(cfg)))))


def _signal_shapes(paths, cfg: WelchConfig) -> list[tuple[int, int]]:
    """The (c, l) of each signal file in ``paths``, read from the headers
    before any row is: each l must hold one Welch segment of ``cfg`` (else
    LengthTooShortError naming the file)."""
    shapes = [signal_shape(p) for p in paths]
    for path, (_, l) in zip(paths, shapes):
        try:
            n_segments(l, cfg)
        except LengthTooShortError as e:
            raise LengthTooShortError(f"{path}: {e}") from None
    return shapes


def _float32(y: np.ndarray, what: str) -> np.ndarray:
    """``y`` cast to float32, where it must be finite (else NonFiniteInputError
    naming ``what``): the check of every signal that a command writes."""
    with np.errstate(over="ignore"):
        y = y.astype(np.float32)
    try:
        return check_finite(y, what)
    except NonFiniteInputError:
        raise NonFiniteInputError(f"{what} is not finite in float32;"
                                  " nothing was written") from None


def cmd_psd(args) -> int:
    cfg = _welch_from_args(args)
    psds, files = [], []
    for path, (c, l) in zip(args.inputs, _signal_shapes(args.inputs, cfg)):
        p = _file_psd(read_rows(path, (c, l)), cfg)
        clamped = int(np.count_nonzero(p == psd_floor(p)))
        psds.append(p)
        files.append({"path": str(path), "channels": c, "length": l,
                      "segments": n_segments(l, cfg), "clamped_bins": clamped})
    clamp_total = sum(record["clamped_bins"] for record in files)
    summary = {
        "config": _run_config(args),
        "window_kind": cfg.window_kind,
        "files": files,
        "clamped_bins": clamp_total,
        "all_clamped": clamp_total == sum(p.size for p in psds),
    }
    with _staged_writes() as stage:
        np.savetxt(stage(args.out_csv), np.vstack(psds), delimiter=",", fmt="%.17g")
        stage(args.out_json).write_text(dumps_json(summary))
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


# The field that holds each stateful kind's statistics, and their name.
_LAYER_STATS = {"psdnorm": ("barycenter", "barycenter"),
                "batchnorm": ("running_mean", "running statistics")}


def _load_eval_state(path, kind: str, **flags):
    """``_load_matching_state``, which must hold the statistics that an
    eval-mode forward reads (else EvalWithoutStatsError naming the file)."""
    layer = _load_matching_state(path, kind, **flags)
    field, stats = _LAYER_STATS[kind]
    if getattr(layer, field) is None:
        raise EvalWithoutStatsError(f"state file {path} carries no {stats}")
    return layer


def _resolve_target(args, psds, cfg: WelchConfig) -> np.ndarray:
    if args.target == "barycenter":
        return wasserstein_barycenter(psds)
    if args.target == "unit":
        return np.ones_like(psds[0])
    return _load_eval_state(args.target, "psdnorm", welch=cfg).barycenter  # a path


def _aligned_rows(path, shape, taps, cfg: WelchConfig, post: list):
    """Yield each row of the signal file at ``path`` mapped by its row of
    ``taps`` and cast by ``_float32``; then append the ``welch_psd`` of the
    centred float64 result to ``post``."""
    rows = read_rows(path, shape)
    for h in taps:
        y = apply_mapping(next(rows), h)
        y32 = _float32(y, f"{path}: aligned output")
        yield y32[0]
        post.append(welch_psd(_centre(y), cfg))
        del y, y32  # here, not earlier: freeing y32 before Welch slowed align ~10 %


def cmd_align(args) -> int:
    """Map each file onto the target PSD in two passes over it, each holding
    one channel row: the first estimates the file's PSD, the second maps
    each row, writes it and estimates the PSD of the result.  Rows never
    share arithmetic and ``floored`` sets the Welch floor over each whole
    PSD, so the files and the report have the bits of the whole-signal
    computation."""
    cfg = _welch_from_args(args)
    out_dir = Path(args.out)
    out_paths = _output_paths(out_dir, args.inputs, ".aligned.psdn")
    shapes = _signal_shapes(args.inputs, cfg)
    psds = [_file_psd(map(_centre, read_rows(p, shape)), cfg)
            for p, shape in zip(args.inputs, shapes)]
    target = _resolve_target(args, psds, cfg)
    for path, p in zip(args.inputs, psds):
        if p.shape != target.shape:
            raise ShapeMismatchError(f"{path}: PSD shape {p.shape} differs from"
                                     f" the target's {target.shape}")
    taps = monge_filter(np.stack(psds), target)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    with _staged_writes() as stage:
        for path, shape, out_path, p, h in zip(args.inputs, shapes, out_paths, psds,
                                               taps):
            post = []
            write_signal(stage(out_path), _aligned_rows(path, shape, h, cfg, post))
            records.append({
                "input": str(path),
                "output": str(out_path),
                "pre_distance": bures_distance(p, target),
                "post_distance": bures_distance(floored(np.concatenate(post)), target),
            })
        report = {
            "config": _run_config(args, {"target": args.target}),
            "signals": records,
        }
        stage(out_dir / "report.json").write_text(dumps_json(report))
    return EXIT_OK


# Each ``layer`` setting flag and the layer field of the same meaning.
_LAYER_FIELDS = {"f": "filter_size", "stride": "stride", "window": "window_kind",
                 "momentum": "momentum", "eps": "eps"}
# The lower bound of each integer ``layer`` flag, checked under the flag's name.
_LAYER_INTEGER_FLAGS = {"f": 1, "stride": 0}
# Each ``layer --kind``: its layer class (None if it keeps no state), its
# forward and the fields that its flags may set.
_LAYER_KINDS = {
    "psdnorm": (PsdNormLayer, psdnorm_forward,
                ("filter_size", "stride", "window_kind", "momentum")),
    "instancenorm": (None, instancenorm_forward, ("eps",)),
    "batchnorm": (BatchNormLayer, batchnorm_forward, ("eps",)),
    "layernorm": (None, layernorm_forward, ("eps",)),
}


def cmd_layer(args) -> int:
    """Run one layer forward over the batch of all input files, which are
    checked by their headers (against the layer's Welch config for
    ``--kind psdnorm``) before any sample is read and then read row by row
    into the one (N, c, l) float64 batch.  ``--state-in`` is loaded before
    that, and in eval mode it must hold the layer's statistics, as ``align
    --target`` requires of its state.  Each setting flag sets the layer
    field of the same meaning; a flag not given leaves the library's
    default, and one that the kind has no setting for is refused."""
    layer_class, forward, fields = _LAYER_KINDS[args.kind]
    if layer_class is None and (args.state_in or args.state_out):
        raise ParameterOutOfRangeError(f"--kind {args.kind} has no state;"
                                       " it takes no --state-in or --state-out")
    settings = {}
    for flag, name in _LAYER_FIELDS.items():
        if flag in vars(args):
            if name not in fields:
                raise ParameterOutOfRangeError(f"--kind {args.kind} has no setting"
                                               f" for --{flag}")
            settings[name] = getattr(args, flag)
            if flag in _LAYER_INTEGER_FLAGS:
                check_integer(f"--{flag}", settings[name], _LAYER_INTEGER_FLAGS[flag])
    layer = layer_class(**settings) if layer_class else None
    out_dir = Path(args.out)
    out_paths = _output_paths(out_dir, args.inputs, ".out.psdn")
    welch = getattr(layer, "welch", None)  # only a psdnorm layer estimates PSDs
    shapes = (_signal_shapes(args.inputs, welch) if welch
              else [signal_shape(p) for p in args.inputs])
    for path, shape in zip(args.inputs, shapes):
        if shape != shapes[0]:
            raise ShapeMismatchError(f"{path}: signal shape {shape} differs from"
                                     f" {args.inputs[0]}'s {shapes[0]}")
    if args.state_in:
        load = _load_eval_state if args.mode == "eval" else _load_matching_state
        layer = load(args.state_in, args.kind,
                     **{name: getattr(layer, name) for name in fields})
    batch = np.empty((len(shapes),) + shapes[0])
    for x, path in zip(batch, args.inputs):
        for i, row in enumerate(read_rows(path, shapes[0])):
            x[i] = row
    # A non-finite result is reported below as one error, not as warnings.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if layer is None:
            out = forward(batch, **settings)
        else:
            out, layer = forward(layer, batch, args.mode)
    out = _float32(out, f"{args.kind} output")

    out_dir.mkdir(parents=True, exist_ok=True)
    with _staged_writes() as stage:
        for out_path, y in zip(out_paths, out):
            write_signal(stage(out_path), y)
        if args.state_out:
            if args.mode == "train" or not args.state_in:
                save_state(stage(args.state_out), layer)
            else:
                # Eval must leave state byte-identical.
                stage(args.state_out).write_bytes(Path(args.state_in).read_bytes())
    return EXIT_OK


def cmd_bench(args) -> int:
    welch = _welch_from_args(args)
    check_integer("--domains", args.domains, 2)
    check_number("--shift", args.shift, 0)
    check_integer("--seeds", args.seeds, 1)
    check_integer("--signals", args.signals, 1)
    check_integer("--length", args.length, args.f)
    check_integer("--channels", args.channels, 1)
    methods = args.methods.split(",")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ParameterOutOfRangeError(f"--methods: unknown method {unknown[0]!r},"
                                       f" choose from {','.join(METHODS)}")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise ParameterOutOfRangeError(f"--methods: {repeated[0]!r} is named twice")
    base = np.ones((args.channels, args.f))
    ratios = {method: [] for method in methods}
    # Seed outermost, so each seed's domains are drawn once for every method.
    for seed in range(args.seeds):
        domains = make_shifted_domains(
            base, args.domains, args.shift,
            n_signals=args.signals, length=args.length, seed=seed,
        )
        for method, r in ratios.items():
            r.append(evaluate_alignment(domains, method, welch).reduction_ratio)
    per_method = {
        method: {"ratios": r, "mean": float(np.mean(r)), "std": float(np.std(r))}
        for method, r in ratios.items()
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
    lines = ["method,mean_ratio,std_ratio"]
    for method in methods:
        r = per_method[method]
        lines.append(f"{method},{r['mean']:.17g},{r['std']:.17g}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _staged_writes() as stage:
        stage(out_dir / "report.json").write_text(dumps_json(report))
        stage(out_dir / "ratios.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are validation failures, reported by
    ``main`` as exit 3 with the JSON error, not argparse's exit 2 and usage
    text.  Subparsers are made of the same class."""

    def error(self, message):
        raise ParameterOutOfRangeError(f"{self.prog}: {message}")


def _add_welch_flags(p, default_f=None):
    """--f, --stride and --window, defaulting to ``default_f``, 0 and hann;
    with no ``default_f`` they have no default, so the layer's hold."""
    p.add_argument("--f", type=int, help="filter size / PSD bins")
    p.add_argument("--stride", type=int, help="segment stride (0 = f // 2)")
    p.add_argument("--window", choices=WINDOW_KINDS)
    if default_f is not None:
        p.set_defaults(f=default_f, stride=0, window="hann")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="psdnorm",
        description="Spectral alignment of multichannel time series",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psd", help="Welch PSD estimation of signal files")
    p.add_argument("inputs", nargs="+")
    _add_welch_flags(p, default_f=5)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", required=True)
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("align", help="Monge-map signal files toward a target PSD")
    p.add_argument("inputs", nargs="+")
    _add_welch_flags(p, default_f=5)
    p.add_argument("--target", default="barycenter",
                   help="'barycenter', 'unit', or a path to a state file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_align)

    # The setting flags have no default: an unset one is absent from args.
    p = sub.add_parser("layer", help="one normalization-layer forward pass",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("inputs", nargs="+", help="batch of signal files")
    p.add_argument("--kind", required=True, choices=tuple(_LAYER_KINDS))
    p.add_argument("--mode", choices=MODES, default="train")
    p.add_argument("--state-in", default=None)
    p.add_argument("--state-out", default=None)
    p.add_argument("--eps", type=float)
    p.add_argument("--momentum", type=float)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (EvalWithoutStatsError, StateFileError) as e:
        return _fail("state", str(e), EXIT_STATE)
    except (SignalFileError, OSError) as e:
        return _fail("io", str(e), EXIT_IO)
    except (PsdNormError, ValueError, MemoryError) as e:
        return _fail("validation", str(e), EXIT_VALIDATION)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
