"""Command-line experiment runner.

Subcommands reproduce the library's headline experiments as deterministic
CSV tables (%.12e floats, fixed row order) with optional self-contained SVG
plots and a key=value meta sidecar per run:

    spectrum1d   eigenvalues of the 1D error operator per parameter preset
    spectrum2d   eigenvalues of the 2D error operator per parameter preset
    gmres-sweep  preconditioned GMRES iteration counts over mesh sizes
    optimize     the clustering triple with quartic and system residuals
    lfa-verify   dense-vs-symbol spectrum agreement gate (exit 2 on failure)

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numerical
failure.  DGML_DENSE_CAP overrides the dense-size cap.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import __version__, lfa, optimize, spectrum
from .discretization import (
    BoundaryCondition,
    ConfigError,
    DiscretizationConfig,
    SizeCapError,
    dense_cap,
    source_vector,
)
from .solver import gmres
from .twolevel import MethodParams, apply_preconditioner, build_two_level, error_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NUMERICAL = 3

PRESETS_1D = ("classical", "alpha-delta", "clustering")
PRESETS_2D = ("classical-1d", "alpha-delta-1d", "clustering-1d", "numeric-2d")
_COLORS = {
    "classical": "#2ca02c",
    "alpha-delta": "#1f77b4",
    "clustering": "#d62728",
    "classical-1d": "#000000",
    "alpha-delta-1d": "#2ca02c",
    "clustering-1d": "#1f77b4",
    "numeric-2d": "#d62728",
    "custom": "#9467bd",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved description of one CLI run, recorded in the meta sidecar."""

    command: str
    config: DiscretizationConfig | None
    presets: tuple[str, ...]
    out: str
    format: str
    tol: float
    cluster_tol: float


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; contract says 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@lru_cache(maxsize=None)
def preset_params(name: str) -> MethodParams:
    """Resolve a named parameter preset."""
    if name in ("classical", "classical-1d"):
        return MethodParams(8.0 / 9.0, 2.0, 0.5)
    if name in ("alpha-delta", "alpha-delta-1d"):
        alpha, d0, _ = optimize.optimize_1d_alpha_delta(0.5)
        return MethodParams(alpha, d0, 0.5)
    if name in ("clustering", "clustering-1d"):
        return optimize.clustering_parameters().params
    raise KeyError(f"unknown preset {name!r}")


def fmt(x) -> str:
    return f"{float(x):.12e}"


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(
                    ",".join(
                        v if isinstance(v, str) else fmt(v) for v in row
                    )
                    + "\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_meta(spec: ExperimentSpec, pairs, extra: dict | None = None) -> None:
    path = f"{spec.out}_meta.txt"
    with open(path, "w") as fh:
        fh.write(f"version={__version__}\n")
        fh.write(f"dense_cap={dense_cap()}\n")
        fh.write(f"command={spec.command}\n")
        if spec.config is not None:
            fh.write(f"cells={spec.config.cells_per_dim}\n")
            fh.write(f"bc={spec.config.bc.value}\n")
            fh.write(f"dim={spec.config.dim}\n")
        fh.write(f"format={spec.format}\n")
        fh.write(f"tol={spec.tol!r}\n")
        fh.write(f"cluster_tol={spec.cluster_tol!r}\n")
        fh.write(f"presets={','.join(spec.presets)}\n")
        for key, value in _params_meta(pairs).items():
            fh.write(f"{key}={value}\n")
        for key, value in (extra or {}).items():
            fh.write(f"{key}={value}\n")


def _params_meta(pairs) -> dict:
    out = {}
    for name, params in pairs:
        a, d, c = params.as_tuple()
        out[f"params_{name}"] = f"alpha={fmt(a)},delta0={fmt(d)},c={fmt(c)}"
    return out


# ---------------------------------------------------------------------------
# minimal self-contained SVG plots (no plotting dependency)

_W, _H, _M = 640, 480, 60.0


def _svg_open(title, xlabel, ylabel, xlim, ylim):
    x0, x1 = xlim
    y0, y1 = ylim
    pad_x = (x1 - x0) or 1.0
    pad_y = (y1 - y0) or 1.0
    x0, x1 = x0 - 0.05 * pad_x, x1 + 0.05 * pad_x
    y0, y1 = y0 - 0.05 * pad_y, y1 + 0.05 * pad_y

    def tx(x):
        return _M + (x - x0) / (x1 - x0) * (_W - 2 * _M)

    def ty(y):
        return _H - _M - (y - y0) / (y1 - y0) * (_H - 2 * _M)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>',
        f'<rect x="{_M}" y="{_M}" width="{_W - 2 * _M}" height="{_H - 2 * _M}" '
        f'fill="none" stroke="black"/>',
    ]
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = y0 + (y1 - y0) * i / 4
        parts.append(
            f'<text x="{tx(xv):.1f}" y="{_H - _M + 16}" text-anchor="middle" '
            f'font-size="10">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{_M - 6}" y="{ty(yv) + 3:.1f}" text-anchor="end" '
            f'font-size="10">{yv:.3g}</text>'
        )
    return parts, tx, ty


def svg_plot(path, title, xlabel, ylabel, series, lines=False):
    """series: list of (label, color, xs, ys)."""
    all_x = np.concatenate([np.asarray(s[2], float) for s in series if len(s[2])])
    all_y = np.concatenate([np.asarray(s[3], float) for s in series if len(s[3])])
    parts, tx, ty = _svg_open(
        title, xlabel, ylabel, (all_x.min(), all_x.max()), (all_y.min(), all_y.max())
    )
    for idx, (label, color, xs, ys) in enumerate(series):
        pts = [(tx(x), ty(y)) for x, y in zip(xs, ys)]
        if lines and len(pts) > 1:
            poly = " ".join(f"{px:.1f},{py:.1f}" for px, py in pts)
            parts.append(f'<polyline points="{poly}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for px, py in pts:
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="{color}" fill-opacity="0.6"/>')
        parts.append(
            f'<text x="{_W - _M - 4}" y="{_M + 16 + 14 * idx}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


# ---------------------------------------------------------------------------
# commands


def _series(pairs, rows, key, x, y):
    """One plot series per preset: columns x and y of the rows whose column
    key names it."""
    return [
        (name, _COLORS.get(name, "#333"),
         [r[x] for r in rows if r[key] == name], [r[y] for r in rows if r[key] == name])
        for name, _ in pairs
    ]


def _selected_params(args, allowed, config, default=None) -> list[tuple[str, MethodParams]]:
    """Preset list (default: all allowed), or a single custom triple when
    overrides are given; the numeric-2d preset runs the 2D optimizer on the
    command's mesh."""
    if args.preset and args.preset not in allowed:
        raise ConfigError(f"preset {args.preset!r} not in {allowed}")
    names = (args.preset,) if args.preset else default or allowed

    def resolve(name):
        if name == "numeric-2d":
            return optimize.optimize_2d(config, max_evals=args.max_evals).params
        return preset_params(name)

    if any(v is not None for v in (args.alpha, args.delta0, args.c)):
        base = resolve(names[0])
        params = MethodParams(
            base.alpha if args.alpha is None else args.alpha,
            base.penalty if args.delta0 is None else args.delta0,
            base.discontinuity if args.c is None else args.c,
        )
        return [("custom", params)]
    return [(name, resolve(name)) for name in names]


def _spectrum_rows(pairs, config) -> list[list]:
    rows = []
    for name, params in pairs:
        cfg = DiscretizationConfig(config.cells_per_dim, params.penalty, config.bc, config.dim)
        eigs = spectrum.two_level_error_eigenvalues(cfg, params)
        order = np.lexsort((eigs.imag, eigs.real))
        rows.extend([[eigs[i].real, eigs[i].imag, name] for i in order])
    return rows


def cmd_spectrum(args) -> int:
    """spectrum1d and spectrum2d: error-operator eigenvalues per preset."""
    dim = 1 if args.command == "spectrum1d" else 2
    config = DiscretizationConfig(args.cells, 2.0, BoundaryCondition(args.bc), dim)
    pairs = _selected_params(args, PRESETS_1D if dim == 1 else PRESETS_2D, config)
    spec = ExperimentSpec(args.command, config, tuple(n for n, _ in pairs),
                          args.out, args.format, args.tol, args.cluster_tol)
    rows = _spectrum_rows(pairs, config)
    if args.format in ("csv", "both"):
        write_csv(f"{args.out}_spectrum.csv", ["re", "im", "preset"], rows)
    if args.format in ("svg", "both"):
        svg_plot(f"{args.out}_spectrum.svg", f"{dim}D error-operator spectrum, J={args.cells}",
                 "Re", "Im", _series(pairs, rows, 2, 0, 1))
    write_meta(spec, pairs, {"max_evals": args.max_evals} if dim == 2 else None)
    for name, _ in pairs:
        sub = np.array([complex(r[0], r[1]) for r in rows if r[2] == name])
        report = spectrum.analyze(sub, tol=args.cluster_tol)
        print(f"{name}: {len(sub)} eigenvalues, radius {report.spectral_radius:.6f}, "
              f"{len(report.clusters)} clusters at tol {args.cluster_tol:g}")
    return EXIT_OK


def cmd_gmres_sweep(args) -> int:
    cells = [int(s) for s in args.cells_list.split(",")]
    config = DiscretizationConfig(cells[0], 2.0, BoundaryCondition(args.bc), 1)
    pairs = _selected_params(args, PRESETS_1D, config, default=("classical", "clustering"))
    rows = []
    unconverged = []
    for name, params in pairs:
        for J in cells:
            cfg = DiscretizationConfig(J, params.penalty, BoundaryCondition(args.bc), 1)
            ops = build_two_level(cfg, params)
            b = source_vector(cfg)
            report = gmres(lambda v: ops.A @ v, lambda v: apply_preconditioner(ops, v), b, tol=args.tol)
            relres = report.residual_history[-1] / report.residual_history[0]
            rows.append([J, name, report.iterations, relres])
            if not report.converged:
                unconverged.append(f"J={J} {name}")
    if args.format in ("csv", "both"):
        write_csv(f"{args.out}_gmres.csv", ["J", "preset", "iterations", "final_relres"],
                  [[str(r[0]), r[1], str(r[2]), fmt(r[3])] for r in rows])
    if args.format in ("svg", "both"):
        svg_plot(f"{args.out}_gmres.svg", f"GMRES iterations to {args.tol:g}",
                 "cells J", "iterations", _series(pairs, rows, 1, 0, 2), lines=True)
    spec = ExperimentSpec("gmres-sweep", config, tuple(name for name, _ in pairs),
                          args.out, args.format, args.tol, args.cluster_tol)
    write_meta(spec, pairs, {"cells_list": args.cells_list})
    for J, name, iters, relres in rows:
        print(f"J={J:4d} {name:12s} iterations={iters:3d} relres={relres:.3e}")
    if unconverged:
        print(f"dgml: numerical failure: GMRES did not converge to {args.tol:g} for "
              f"{', '.join(unconverged)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_optimize(args) -> int:
    sol = optimize.clustering_parameters()
    alpha, d0, c = sol.params.as_tuple()
    quartics = [
        ("quartic_residual_c", optimize.polyval(optimize.DISCONTINUITY_QUARTIC, c)),
        ("quartic_residual_delta0", optimize.polyval(optimize.PENALTY_QUARTIC, d0)),
        ("quartic_residual_alpha", optimize.polyval(optimize.RELAXATION_QUARTIC, alpha)),
    ]
    rows = [
        ["alpha", alpha],
        ["delta0", d0],
        ["c", c],
        *[[k, v] for k, v in quartics],
        ["system_residual_1", sol.residuals[0]],
        ["system_residual_2", sol.residuals[1]],
        ["system_residual_3", sol.residuals[2]],
        ["rho", sol.rho],
    ]
    write_csv(f"{args.out}_params.csv", ["name", "value"],
              [[r[0], fmt(r[1])] for r in rows])
    spec = ExperimentSpec("optimize", None, ("clustering",), args.out,
                          args.format, args.tol, args.cluster_tol)
    write_meta(spec, [("clustering", sol.params)])
    for name, value in rows:
        print(f"{name} = {value:.12e}")
    return EXIT_OK


def cmd_lfa_verify(args) -> int:
    cells = [int(s) for s in args.cells_list.split(",")]
    rng = np.random.default_rng(0)
    cases = [(name, preset_params(name)) for name in PRESETS_1D]
    for i in range(2):
        cases.append(
            (f"random{i}", MethodParams(rng.uniform(0.2, 1.0), rng.uniform(1.1, 3.0), rng.uniform(0.1, 0.9)))
        )
    rows = []
    worst = 0.0
    for J in cells:
        for name, params in cases:
            cfg = DiscretizationConfig(J, params.penalty, BoundaryCondition.PERIODIC, 1)
            dense_eigs = spectrum.eigenvalues_dense(error_matrix(build_two_level(cfg, params)))
            if args.inject_error:  # the symbol side sees a nudged discontinuity
                params = MethodParams(params.alpha, params.penalty, params.discontinuity + 1e-3)
            sym_eigs = lfa.error_spectrum_symbols(J, params)
            dev = lfa.multiset_deviation(dense_eigs, sym_eigs)
            worst = max(worst, dev)
            rows.append([str(J), name, fmt(dev)])
    write_csv(f"{args.out}_verify.csv", ["J", "params", "max_deviation"], rows)
    spec = ExperimentSpec(
        "lfa-verify",
        DiscretizationConfig(cells[0], 2.0, BoundaryCondition.PERIODIC, 1),
        tuple(name for name, _ in cases), args.out, args.format, args.tol,
        args.cluster_tol,
    )
    write_meta(spec, cases, {"cells_list": args.cells_list, "inject_error": args.inject_error})
    for J, name, dev in rows:
        print(f"J={J:>3s} {name:12s} deviation={dev}")
    if worst > 1e-8:
        print(f"VERIFICATION FAILED: worst deviation {worst:.3e} > 1e-8", file=sys.stderr)
        return EXIT_VERIFY
    print(f"verification passed: worst deviation {worst:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(sub, cells_default=32):
    sub.add_argument("--cells", type=int, default=cells_default, help="cells per dimension J")
    sub.add_argument("--bc", choices=["periodic", "dirichlet"], default="dirichlet")
    sub.add_argument("--preset", default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--delta0", type=float, default=None)
    sub.add_argument("--c", type=float, default=None)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--out", default="dgml_run", help="output path prefix")
    sub.add_argument("--format", choices=["csv", "svg", "both"], default="csv")
    sub.add_argument("--cluster-tol", type=float, default=1e-6, dest="cluster_tol")


def build_parser() -> _Parser:
    parser = _Parser(prog="dgml", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s1 = subs.add_parser("spectrum1d", help="1D error-operator spectra per preset")
    _add_common(s1)
    s1.set_defaults(func=cmd_spectrum)

    s2 = subs.add_parser("spectrum2d", help="2D error-operator spectra per preset")
    _add_common(s2)
    s2.add_argument("--max-evals", type=int, default=50, dest="max_evals",
                    help="objective-evaluation cap for the numeric-2d preset")
    s2.set_defaults(func=cmd_spectrum)

    s3 = subs.add_parser("gmres-sweep", help="GMRES iteration counts over mesh sizes")
    _add_common(s3)
    s3.add_argument("--cells-list", default="16,32,64,128,256", dest="cells_list")
    s3.set_defaults(func=cmd_gmres_sweep)

    s4 = subs.add_parser("optimize", help="clustering triple and residuals")
    _add_common(s4)
    s4.set_defaults(func=cmd_optimize)

    s5 = subs.add_parser("lfa-verify", help="dense-vs-symbol verification gate")
    _add_common(s5)
    s5.add_argument("--cells-list", default="4,8,16,32", dest="cells_list")
    s5.add_argument("--inject-error", action="store_true", dest="inject_error",
                    help="fault-injection test mode: give the symbol side c + 1e-3")
    s5.set_defaults(func=cmd_lfa_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"dgml: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, SizeCapError, ValueError) as exc:
        print(f"dgml: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"dgml: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
