"""Bits that do not depend on the BLAS thread count: one fixed table of
kernel calls runs in two subprocesses, with the BLAS thread variables at 1
and at 2, and each row's output must hash alike in both.  The benchmark's
mapped PSDs and reports are built from Welch passes and the filter alone, so
they are rows like any other.

Run as a script, this file prints the table's SHA-256 per row as JSON."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psdnorm
from psdnorm import (WelchConfig, apply_mapping, evaluate_alignment, make_shifted_domains,
                     psdnorm_stack_forward)
from psdnorm.spectral import welch_psd_raw
from psdnorm.synth import METHODS

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROWS = ("welch gram (8, 2, 4096) f=8", "welch gram Fortran (8, 2, 4096) f=8",
        "welch rfft (8, 4, 4096) f=96",
        "filter toeplitz (1, 2, 65536) f=64", "filter fft (8, 4, 4096) f=96",
        "stack train (64, 4, 1024) fs=(16, 8, 4)", "stack eval (64, 4, 1024) fs=(16, 8, 4)",
        "mapped (8, 2, 4096) f=8", "mapped (1, 2, 65536) f=64",
        "evaluate_alignment 3 x (8, 2, 4096) f=64",
        "evaluate_alignment 3 x (1, 2, 65536) f=64")


def table() -> dict:
    """{row: SHA-256 of the bytes of its outputs} over ``ROWS``: each form of
    Welch, and the Gram form on a Fortran-ordered batch, each form of the
    filter, a train and an eval stack forward, the benchmark's mapped PSDs
    at f = 8 and 64, and every method's ``evaluate_alignment`` report at
    f = 64 on short rows and on a long one."""
    def draw(*shape):
        return np.random.default_rng(shape).standard_normal(shape)

    def taps(shape, f):
        return draw(*shape[:-1], f) / np.sqrt(f)

    out = {}
    for form, shape, f in (("gram", (8, 2, 4096), 8), ("rfft", (8, 4, 4096), 96)):
        out[f"welch {form} {shape} f={f}"] = [welch_psd_raw(draw(*shape), WelchConfig(f))]
    shape = (8, 2, 4096)
    out[f"welch gram Fortran {shape} f=8"] = [
        welch_psd_raw(np.asfortranarray(draw(*shape)), WelchConfig(8))]
    for form, shape, f in (("toeplitz", (1, 2, 2 ** 16), 64), ("fft", (8, 4, 4096), 96)):
        out[f"filter {form} {shape} f={f}"] = [apply_mapping(draw(*shape), taps(shape, f))]
    x, fs = draw(64, 4, 1024), (16, 8, 4)
    y, layers, _ = psdnorm_stack_forward(fs, x)
    out[f"stack train {x.shape} fs={fs}"] = [y, *(layer.barycenter for layer in layers)]
    out[f"stack eval {x.shape} fs={fs}"] = [psdnorm_stack_forward(fs, x, "eval", layers)[0]]
    for (n, c, l), f in (((8, 2, 4096), 8), ((1, 2, 2 ** 16), 64)):
        source, target = make_shifted_domains(np.ones((c, f)), 2, 1.0, n_signals=n, length=l)
        out[f"mapped {(n, c, l)} f={f}"] = [source.raw_mapped_psds(WelchConfig(f), target.psd)]
    for n, l in ((8, 2 ** 12), (1, 2 ** 16)):  # the bench CLI's default shape, and a long row
        domains = make_shifted_domains(np.ones((2, 64)), 3, 1.0, n_signals=n, length=l)
        reports = [evaluate_alignment(domains, method) for method in METHODS]
        out[f"evaluate_alignment 3 x {(n, 2, l)} f=64"] = [
            a for r in reports
            for a in (r.pre_distances, r.post_distances, np.float64(r.reduction_ratio))]
    return {row: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
            for row, arrays in out.items()}


@pytest.fixture(scope="module")
def hashes() -> list:
    """``table()`` as two subprocesses print it, at 1 and at 2 BLAS threads."""
    path = os.pathsep.join(filter(None, [str(Path(psdnorm.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, threads), "PYTHONPATH": path}
        done = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                              text=True, check=True, timeout=600)
        runs.append(json.loads(done.stdout))
    return runs


def test_the_table_has_its_rows(hashes):
    assert [sorted(run) for run in hashes] == [sorted(ROWS)] * 2


@pytest.mark.parametrize("row", ROWS)
def test_bits_do_not_depend_on_the_blas_thread_count(hashes, row):
    one, two = hashes
    assert one[row] == two[row]


if __name__ == "__main__":
    json.dump(table(), sys.stdout)
