"""Shared test set-up: one deterministic hypothesis profile, and the
``kernel_spy`` fixture, which records the form each kernel call takes."""

from functools import partial

import numpy as np
import pytest

from psdnorm import WelchConfig, monge, spectral


def pytest_configure(config):
    try:  # imported here, so that the suite collects without hypothesis
        from hypothesis import settings
    except ImportError:
        return
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")


#: Every (kernel, form, mode) that ``KernelCall.key`` can read.
FORMS = {("welch", "gram", "whole"), ("welch", "rfft", "whole"), ("welch", "rfft", "blocks"),
         *(("filter", form, mode) for form in ("toeplitz", "fft") for mode in ("whole", "blocks"))}


class KernelCall:
    """One kernel call: its form (``gram`` or ``rfft``, ``toeplitz`` or ``fft``)
    and how many views of segments or products it read."""

    def __init__(self, kernel):
        self.kernel, self.form, self.reads = kernel, "", 0

    @property
    def key(self) -> tuple:
        """(kernel, form, mode) of a call on one row, which is one chunk: the
        Gram form reads one view per residue class of segments, over the whole
        row; another form reads one per block of the row."""
        whole = self.form == "gram" or self.reads == 1
        return self.kernel, self.form, "whole" if whole else "blocks"


class KernelSpy:
    """Wraps the functions through which the kernels' forms differ (only Welch's
    Gram form reads ``_welch_basis``; a filter's form is the product it calls).
    ``run`` records the ``KernelCall`` of the one call of each kernel it makes;
    ``dry=True`` empties each product and view: a call is cheap, its output junk."""

    def __init__(self, monkeypatch):
        self.calls, self.dry = {}, False
        for name in ("_welch_basis", "_segments"):
            monkeypatch.setattr(spectral, name, partial(getattr(self, name),
                                                        getattr(spectral, name)))
        for name, form in (("_tiled_product", "toeplitz"), ("_fft_product", "fft")):
            monkeypatch.setattr(monge, name, partial(self._product, form, getattr(monge, name)))

    def _welch_basis(self, fn, kind, f):
        self.calls.setdefault("welch", KernelCall("welch")).form = "gram"
        return fn(kind, f)

    def _segments(self, fn, rows, start, count, step, f):
        call = self.calls.setdefault("welch", KernelCall("welch"))
        call.form, call.reads = call.form or "rfft", call.reads + 1
        return fn(rows, start, 0 if self.dry else count, step, f)

    def _product(self, form, fn, block, kernel, out):
        call = self.calls.setdefault("filter", KernelCall("filter"))
        call.form, call.reads = form, call.reads + 1
        if not self.dry:
            fn(block, kernel, out)

    def observe(self, kernel, l, f, stride=0) -> KernelCall:
        """The ``KernelCall`` of a dry call of a kernel on one row of l samples."""
        x = np.zeros((1, l))
        how = WelchConfig(f, stride) if kernel == "welch" else np.zeros((1, f))
        fn = spectral.welch_psd_raw if kernel == "welch" else monge.apply_mapping
        return self.run(fn, x, how, dry=True)[1][kernel]

    def run(self, fn, *args, dry=False):
        """fn(*args), and the {kernel: ``KernelCall``} of the calls it made."""
        self.calls, self.dry = {}, dry
        try:
            return fn(*args), self.calls
        finally:
            self.calls, self.dry = {}, False


@pytest.fixture
def kernel_spy(monkeypatch):
    return KernelSpy(monkeypatch)
