"""Spans and counters recorded around calls into dgml's public functions.

Tracing is installed only for a traced run: ``install`` replaces each
traced function by a wrapper at every place a dgml module binds it (its
defining module, and every module that imported it by name, such as
``twolevel.assemble`` or ``cli.gmres``), and ``Installed.remove`` puts the
originals back.  Untraced runs never see a wrapper.

A span's self time is its duration minus the time of the spans that ran
inside it, so nested layers are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("discretization", "twolevel", "lfa", "optimize", "solver", "spectrum", "cli")

# span name -> (defining module, attribute); each becomes <name>.self_s,
# <name>.s and <name>.calls
SPANS = {
    "discretization.assemble": ("discretization", "assemble"),
    "discretization.assemble_1d": ("discretization", "assemble_1d"),
    "discretization.assemble_2d": ("discretization", "assemble_2d"),
    "twolevel.build_two_level": ("twolevel", "build_two_level"),
    "twolevel.preconditioner_matrix": ("twolevel", "preconditioner_matrix"),
    "twolevel.error_matrix": ("twolevel", "error_matrix"),
    "spectrum.two_level_error_eigenvalues": ("spectrum", "two_level_error_eigenvalues"),
    "spectrum.analyze": ("spectrum", "analyze"),
    "spectrum.cluster_eigenvalues": ("spectrum", "cluster_eigenvalues"),
    "spectrum.eigenvalues_dense": ("spectrum", "eigenvalues_dense"),
    "solver.gmres": ("solver", "gmres"),
    "lfa.symbol_radius": ("lfa", "symbol_radius"),
    "lfa.error_spectrum_symbols": ("lfa", "error_spectrum_symbols"),
    "optimize.clustering_parameters": ("optimize", "clustering_parameters"),
    "optimize.nelder_mead": ("optimize", "nelder_mead"),
    "optimize.golden_section": ("optimize", "golden_section"),
    "optimize.optimize_1d_alpha": ("optimize", "optimize_1d_alpha"),
    "optimize.optimize_1d_alpha_delta": ("optimize", "optimize_1d_alpha_delta"),
    "optimize.optimize_2d": ("optimize", "optimize_2d"),
    "cli.preset_params": ("cli", "preset_params"),
    "cli.write_csv": ("cli", "write_csv"),
}

# hot small functions: a call count only, since a span per call would
# cost more than the call
COUNTERS = {
    "lfa.eigenvalues_closed_form_at": ("lfa", "eigenvalues_closed_form_at"),
    "lfa.symbol_error": ("lfa", "symbol_error"),
}


class Tracer:
    """Aggregated spans (total, child time, calls, errors) and counters."""

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self.peaks = defaultdict(float)
        self._open = []  # child-time accumulators of the open spans

    @contextmanager
    def span(self, name: str):
        self.calls[name] += 1
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            duration = time.perf_counter() - start
            self.total[name] += duration
            self.child[name] += self._open.pop()
            if self._open:
                self._open[-1] += duration

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def returned(self, name: str) -> int:
        return self.calls[name] - self.errors[name]

    def timed(self, name: str, fn):
        """fn wrapped in a span; for callables the benchmark passes in."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"s": self.total[name], "self_s": self.self_s(name),
                       "calls": self.calls[name], "errors": self.errors[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "peaks": dict(sorted(self.peaks.items())),
        }


# per-function extras: call(tracer, fn, args, kwargs) -> result


def _build_two_level(tracer, fn, args, kwargs):
    ops = fn(*args, **kwargs)
    mb = sum(v.nbytes for v in vars(ops).values() if isinstance(v, np.ndarray)) / 2**20
    tracer.peaks["twolevel.dense_mb"] = max(tracer.peaks["twolevel.dense_mb"], mb)
    return ops


def _gmres(tracer, fn, args, kwargs):
    report = fn(*args, **kwargs)
    tracer.counts["solver.gmres.iterations"] += report.iterations
    return report


def _nelder_mead(tracer, fn, args, kwargs):
    objective, *rest = args

    def counted(x):
        tracer.counts["optimize.nelder_mead.evals"] += 1
        return objective(x)

    return fn(counted, *rest, **kwargs)


def _optimize_2d(tracer, fn, args, kwargs):
    before = tracer.returned("spectrum.two_level_error_eigenvalues")
    solution = fn(*args, **kwargs)
    tracer.counts["optimize.optimize_2d.nfev"] += solution.iterations
    tracer.counts["optimize.optimize_2d.useful_evals"] += (
        tracer.returned("spectrum.two_level_error_eigenvalues") - before
    )
    return solution


EXTRAS = {
    "twolevel.build_two_level": _build_two_level,
    "solver.gmres": _gmres,
    "optimize.nelder_mead": _nelder_mead,
    "optimize.optimize_2d": _optimize_2d,
}


def _span_wrapper(tracer, name, fn):
    extra = EXTRAS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            if extra is None:
                return fn(*args, **kwargs)
            return extra(tracer, fn, args, kwargs)

    return wrapper


def _counter_wrapper(tracer, name, fn):
    key = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class Installed:
    """The patched bindings; ``remove`` restores the originals."""

    def __init__(self):
        self.patched = []  # (module, attribute, original)
        self.missing = []  # traced names the package no longer defines

    def remove(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every traced function at each dgml binding of it."""
    modules = [importlib.import_module(f"dgml.{m}") for m in MODULES]
    modules.append(importlib.import_module("dgml"))
    installed = Installed()
    for table, make in ((SPANS, _span_wrapper), (COUNTERS, _counter_wrapper)):
        for name, (home, attr) in table.items():
            original = getattr(importlib.import_module(f"dgml.{home}"), attr, None)
            if original is None:
                installed.missing.append(name)
                continue
            wrapper = make(tracer, name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        installed.patched.append((module, key, original))
                        setattr(module, key, wrapper)
    return installed
