"""Command-line experiment runner.

Subcommands reproduce the library's headline experiments as deterministic
CSV tables (%.12e floats, fixed row order) with optional self-contained SVG
plots and a key=value meta sidecar per run.  Each subcommand accepts only
the flags it reads, unabbreviated:

    spectrum1d   --cells --bc --preset --alpha --delta0 --c --format --cluster-tol --out
    spectrum2d   the spectrum1d flags and --max-evals
    gmres-sweep  --cells-list --bc --preset --alpha --delta0 --c --tol --format --out
    optimize     --out
    lfa-verify   --cells-list --inject-error --out

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numerical
failure.  DGML_DENSE_CAP overrides the dense-size cap.
"""

from __future__ import annotations

import argparse
import sys
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
VERIFY_TOL = 1e-8  # lfa-verify's gate on max |Phi^H E Phi - blockdiag(symbol_error)|

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; contract says 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive(kind):
    """argparse type: a finite value of kind (float or int) above 0."""

    def parse(text):
        try:
            value = kind(text)
            if 0 < value < float("inf"):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a positive finite {kind.__name__}, got {text!r}")

    return parse


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
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else fmt(v) for v in row) + "\n")


def write_meta(args, config: DiscretizationConfig | None, pairs, extra: dict | None = None) -> None:
    """Key=value sidecar: the command's arguments, resolved mesh and the
    parameter triple of each preset in pairs."""
    with open(f"{args.out}_meta.txt", "w") as fh:
        fh.write(f"version={__version__}\n")
        fh.write(f"dense_cap={dense_cap()}\n")
        fh.write(f"command={args.command}\n")
        if config is not None:
            fh.write(f"cells={config.cells_per_dim}\n")
            fh.write(f"bc={config.bc.value}\n")
            fh.write(f"dim={config.dim}\n")
        for key in ("format", "tol", "cluster_tol"):  # only the command's own flags
            if key in vars(args):
                fh.write(f"{key}={getattr(args, key)}\n")
        fh.write(f"presets={','.join(name for name, _ in pairs)}\n")
        for name, params in pairs:
            a, d, c = params.as_tuple()
            fh.write(f"params_{name}=alpha={fmt(a)},delta0={fmt(d)},c={fmt(c)}\n")
        for key, value in (extra or {}).items():
            fh.write(f"{key}={value}\n")


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


def _sorted_spectrum(config, params) -> np.ndarray:
    """Error-operator eigenvalues on config's mesh, in (real, imag) order."""
    cfg = DiscretizationConfig(config.cells_per_dim, params.penalty, config.bc, config.dim)
    eigs = spectrum.two_level_error_eigenvalues(cfg, params)
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def cmd_spectrum(args) -> int:
    """spectrum1d and spectrum2d: error-operator eigenvalues per preset."""
    dim = 1 if args.command == "spectrum1d" else 2
    config = DiscretizationConfig(args.cells, 2.0, BoundaryCondition(args.bc), dim)
    pairs = _selected_params(args, PRESETS_1D if dim == 1 else PRESETS_2D, config)
    spectra = [_sorted_spectrum(config, params) for _, params in pairs]
    rows = [[z.real, z.imag, name] for (name, _), eigs in zip(pairs, spectra) for z in eigs]
    if args.format in ("csv", "both"):
        write_csv(f"{args.out}_spectrum.csv", ["re", "im", "preset"], rows)
    if args.format in ("svg", "both"):
        svg_plot(f"{args.out}_spectrum.svg", f"{dim}D error-operator spectrum, J={args.cells}",
                 "Re", "Im", _series(pairs, rows, 2, 0, 1))
    write_meta(args, config, pairs, {"max_evals": args.max_evals} if dim == 2 else None)
    for (name, _), eigs in zip(pairs, spectra):
        report = spectrum.analyze(eigs, tol=args.cluster_tol)
        print(f"{name}: {len(eigs)} eigenvalues, radius {report.spectral_radius:.6f}, "
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
                  [[str(r[0]), r[1], str(r[2]), f"{r[3]:.3e}"] for r in rows])
    if args.format in ("svg", "both"):
        svg_plot(f"{args.out}_gmres.svg", f"GMRES iterations to {args.tol:g}",
                 "cells J", "iterations", _series(pairs, rows, 1, 0, 2), lines=True)
    write_meta(args, config, pairs, {"cells_list": args.cells_list})
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
        ("quartic_residual_c", np.polyval(optimize.DISCONTINUITY_QUARTIC, c)),
        ("quartic_residual_delta0", np.polyval(optimize.PENALTY_QUARTIC, d0)),
        ("quartic_residual_alpha", np.polyval(optimize.RELAXATION_QUARTIC, alpha)),
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
    write_meta(args, None, [("clustering", sol.params)])
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
        k = np.arange(J // 2)
        for name, params in cases:
            cfg = DiscretizationConfig(J, params.penalty, BoundaryCondition.PERIODIC, 1)
            E = error_matrix(build_two_level(cfg, params)).reshape(J // 2, 4, J // 2, 4)
            blocks = np.fft.fft(np.fft.ifft(E, axis=2), axis=0)  # Phi^H E Phi, [k, i, k', j]
            if args.inject_error:  # the symbol side sees a nudged discontinuity
                params = MethodParams(params.alpha, params.penalty, params.discontinuity + 1e-3)
            blocks[k, :, k, :] -= lfa.symbol_error(k, J, params)
            dev = np.abs(blocks).max()  # block mismatch and leak off the diagonal
            worst = max(worst, dev)
            rows.append([str(J), name, fmt(dev)])
    write_csv(f"{args.out}_verify.csv", ["J", "params", "max_deviation"], rows)
    write_meta(args, DiscretizationConfig(cells[0], 2.0, BoundaryCondition.PERIODIC, 1), cases,
               {"cells_list": args.cells_list, "inject_error": args.inject_error})
    for J, name, dev in rows:
        print(f"J={J:>3s} {name:12s} deviation={dev}")
    if worst > VERIFY_TOL:
        print(f"VERIFICATION FAILED: worst deviation {worst:.3e} > {VERIFY_TOL:g}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"verification passed: worst deviation {worst:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="dgml", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, func, text in (
        ("spectrum1d", cmd_spectrum, "eigenvalues of the 1D error operator per parameter preset"),
        ("spectrum2d", cmd_spectrum, "eigenvalues of the 2D error operator per parameter preset"),
        ("gmres-sweep", cmd_gmres_sweep, "preconditioned GMRES iteration counts over mesh sizes"),
        ("optimize", cmd_optimize, "the clustering triple with quartic and system residuals"),
        ("lfa-verify", cmd_lfa_verify, "Fourier blocks of E vs the LFA symbols (exit 2 on failure)"),
    ):
        # allow_abbrev=False: a prefix must not turn into a longer flag
        sub[name] = subs.add_parser(name, help=text, allow_abbrev=False)
        sub[name].add_argument("--out", default="dgml_run", help="output path prefix")
        sub[name].set_defaults(func=func)
    spectra = (sub["spectrum1d"], sub["spectrum2d"])
    for s in spectra:
        s.add_argument("--cells", type=int, default=32, help="cells per dimension J")
        s.add_argument("--cluster-tol", type=_positive(float), default=1e-6, dest="cluster_tol")
    for s in (*spectra, sub["gmres-sweep"]):
        s.add_argument("--bc", choices=["periodic", "dirichlet"], default="dirichlet")
        s.add_argument("--preset", default=None)
        s.add_argument("--alpha", type=float, default=None)
        s.add_argument("--delta0", type=float, default=None)
        s.add_argument("--c", type=float, default=None)
        s.add_argument("--format", choices=["csv", "svg", "both"], default="csv")
    sub["spectrum2d"].add_argument("--max-evals", type=_positive(int), default=50, dest="max_evals",
                                   help="objective-evaluation cap for the numeric-2d preset; "
                                   "its 4-vertex initial simplex is always evaluated")
    sub["gmres-sweep"].add_argument("--tol", type=_positive(float), default=1e-8)
    sub["gmres-sweep"].add_argument("--cells-list", default="16,32,64,128,256", dest="cells_list")
    sub["lfa-verify"].add_argument("--cells-list", default="4,8,16,32", dest="cells_list")
    sub["lfa-verify"].add_argument("--inject-error", action="store_true", dest="inject_error",
                                   help="fault-injection test mode: give the symbol side c + 1e-3")
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
        print(f"dgml: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
