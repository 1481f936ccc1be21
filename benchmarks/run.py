"""dgml benchmark: one workload per process, result as the last stdout line.

    python3 benchmarks/run.py --workload solve-1d --seed 1 --seconds 20 --trace 0

Run from the repository root; dgml is imported from ``src/``.  With
``--trace 0`` the result holds the end-to-end metrics (setup_s, run_s,
peak_rss_mb).  With ``--trace 1`` it holds the per-layer metrics: the
seconds are split between untraced and traced passes, and
``trace.overhead_s`` is the difference of their median pass times.  Every
run writes a JSON record (environment, phase medians, full trace) under
``runs/benchmark/``.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("solve-1d", "spectrum-2d", "lfa-1d")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit) of every per-layer metric, reported by each workload
PER_LAYER = (
    ("discretization.assemble_1d.self_s", "s"),
    ("discretization.assemble_2d.self_s", "s"),
    ("twolevel.build_two_level.self_s", "s"),
    ("twolevel.build_two_level.calls", "count"),
    ("twolevel.dense_mb", "MB"),
    ("twolevel.preconditioner_matrix.self_s", "s"),
    ("twolevel.error_matrix.self_s", "s"),
    ("spectrum.two_level_error_eigenvalues.self_s", "s"),
    ("spectrum.two_level_error_eigenvalues.calls", "count"),
    ("spectrum.cluster_eigenvalues.self_s", "s"),
    ("spectrum.eigenvalues_dense.self_s", "s"),
    ("solver.gmres.self_s", "s"),
    ("solver.gmres.calls", "count"),
    ("solver.gmres.iterations", "count"),
    ("solver.apply_A.s", "s"),
    ("solver.apply_A.calls", "count"),
    ("solver.apply_M.s", "s"),
    ("solver.apply_M.calls", "count"),
    ("lfa.symbol_radius.self_s", "s"),
    ("lfa.symbol_radius.calls", "count"),
    ("lfa.eigenvalues_closed_form_at.calls", "count"),
    ("lfa.error_spectrum_symbols.self_s", "s"),
    ("lfa.symbol_error.calls", "count"),
    ("optimize.nelder_mead.self_s", "s"),
    ("optimize.nelder_mead.evals", "count"),
    ("optimize.golden_section.self_s", "s"),
    ("optimize.optimize_2d.failed_evals", "count"),
    ("optimize.optimize_2d.useful_ratio", "ratio"),
    ("cli.preset_params.self_s", "s"),
    ("cli.preset_params.calls", "count"),
    ("cli.write_csv.self_s", "s"),
    ("cli.optimize.s", "s"),
    ("cli.spectrum1d.s", "s"),
    ("cli.gmres-sweep.s", "s"),
    ("cli.lfa-verify.s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> int:
    """One BLAS thread per CPU this process may run on; set before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def git_revision() -> str:
    """HEAD's commit from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int) -> dict:
    import numpy as np

    try:  # the version only: importing scipy would add to the peak RSS
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
    }


def measure(workload, seconds, tally, tracer=None):
    """Whole passes until `seconds` have elapsed (at least one)."""
    from workloads import Phases

    passes, records = [], []
    start = time.perf_counter()
    while True:
        phases = Phases()
        t0 = time.perf_counter()
        records.append(workload.run_pass(phases, tally, tracer))
        passes.append((phases, time.perf_counter() - t0))
        if time.perf_counter() - start >= seconds:
            return passes, records


def phase_medians(passes) -> dict:
    names = sorted({name for phases, _ in passes for name in phases.seconds})
    out = {f"{name}_s": statistics.median(p.seconds[name] for p, _ in passes) for name in names}
    out["run_s"] = statistics.median(p.run_s for p, _ in passes)
    out["pass_s"] = statistics.median(wall for _, wall in passes)
    out["per_pass"] = [dict(phases.seconds) for phases, _ in passes]
    return out


def per_layer(tracer, npasses: int, overhead_s: float) -> dict:
    """Per-pass values of the PER_LAYER metrics from one traced run."""
    counts = tracer.counts
    nfev = counts["optimize.optimize_2d.nfev"]
    useful = counts["optimize.optimize_2d.useful_evals"]
    special = {
        "twolevel.dense_mb": tracer.peaks["twolevel.dense_mb"],
        "optimize.optimize_2d.failed_evals": (nfev - useful) / npasses,
        "optimize.optimize_2d.useful_ratio": useful / nfev if nfev else 0.0,
        "trace.overhead_s": overhead_s,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name in special:
            value = special[name]
        elif kind == "self_s":
            value = tracer.self_s(span) / npasses
        elif kind == "s":
            value = tracer.total[span] / npasses
        elif name in counts:
            value = counts[name] / npasses
        else:  # a span's call count
            value = tracer.calls[span] / npasses
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dgml" / "__init__.py").is_file():
        print(f"benchmark: no dgml sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from workloads import WORKLOADS, Tally

    env = environment(threads)
    out_root = ROOT / "runs" / "benchmark"
    out_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warmup()
        tally = Tally()
        if args.trace:
            passes, records = measure(workload, args.seconds / 2, tally)
            tracer = tracing.Tracer()
            installed = tracing.install(tracer)
            try:
                traced, more = measure(workload, args.seconds / 2, tally, tracer)
            finally:
                installed.remove()
            records += more
            overhead = phase_medians(traced)["pass_s"] - phase_medians(passes)["pass_s"]
            metrics = per_layer(tracer, len(traced), overhead)
            detail = {"untraced": phase_medians(passes), "traced": phase_medians(traced),
                      "trace": tracer.summary(), "missing_spans": installed.missing}
        else:
            passes, records = measure(workload, args.seconds, tally)
            medians = phase_medians(passes)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": medians["setup_s"], "unit": "s"},
                "run_s": {"value": medians["run_s"], "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            detail = {"phases": medians}
        failures = workload.check(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=len(records), outputs=workload.summary(records), env=env,
                  errors=tally.errors, check_failures=failures)
    record_path = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(detail, indent=1, default=str) + "\n")
    for line in failures + tally.errors:
        print(f"FAILED: {line}")
    print(json.dumps({k: v for k, v in detail.items() if k != "trace"}, default=str))
    print(json.dumps({"correct": not failures, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
