"""The three benchmark workloads.

Each workload draws its inputs from the seed when it is created, then runs
whole passes.  A pass times its phases into a ``Phases`` object (``setup``
is reported as ``setup_s``; every other phase adds to ``run_s``), counts
its operations into a ``Tally``, and returns a small record that ``check``
compares with the oracles once the timed passes are over.

dgml functions are always looked up on their module at call time
(``twolevel.build_two_level(...)``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracles
from dgml import cli, discretization, lfa, optimize, solver, spectrum, twolevel

DIRICHLET = discretization.BoundaryCondition.DIRICHLET
CLASSICAL = (8.0 / 9.0, 2.0, 0.5)
CLUSTERING_RADIUS = 0.19732  # the paper's clustered radius, 5 digits


class Phases:
    """Wall time per named phase of one pass."""

    def __init__(self):
        self.seconds = defaultdict(float)

    @contextlib.contextmanager
    def time(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start

    @property
    def setup_s(self) -> float:
        return self.seconds["setup"]

    @property
    def run_s(self) -> float:
        return sum(v for k, v in self.seconds.items() if k != "setup")


class Tally:
    """Operations attempted and failed over the timed passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; a raised exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # recorded and reported, the pass goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def skip(self, count: int, why: str):
        """Operations that could not start because an earlier one failed."""
        self.attempted += count
        self.failed += count
        self.errors.append(f"{count} operations skipped: {why}")


class Workload:
    """A seeded set of inputs and the pass that runs them."""

    def run_pass(self, phases: Phases, tally: Tally, tracer=None) -> dict:
        raise NotImplementedError

    def warmup(self):
        """One untimed pass, so that BLAS threads and the allocator are warm."""
        self.run_pass(Phases(), Tally())

    def check(self, records) -> list[str]:
        raise NotImplementedError

    def summary(self, records) -> dict:
        """Outputs worth printing beside the timings."""
        return {}


def _params(triple) -> twolevel.MethodParams:
    return twolevel.MethodParams(*triple)


def _triple(params) -> tuple[float, float, float]:
    return tuple(float(v) for v in params.as_tuple())


def _traced(tracer, name, fn):
    return fn if tracer is None else tracer.timed(name, fn)


class Solve1D(Workload):
    """Dirichlet 1D set-up and GMRES sweep (the paper's Fig. 1, right)."""

    CELLS = (128, 256, 512, 1024)
    RANDOM_RHS = 16
    TOL = 1e-8
    REL_ERR = 1e-6  # bound on |x - x_direct| / |x_direct| per solve
    MAX_CLUSTERING_ITERS = 8

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng(seed)
        self.triples = {
            "classical": CLASSICAL,
            "clustering": _triple(optimize.clustering_parameters().params),
        }
        self.rhs = {
            J: [np.ones(2 * J)] + [rng.standard_normal(2 * J) for _ in range(self.RANDOM_RHS)]
            for J in self.CELLS
        }
        # oracle: stencil entries (sparse) and direct solutions per (triple, J)
        self.stencil, self.direct = {}, {}
        for name, (_, delta0, _) in self.triples.items():
            for J in self.CELLS:
                A = oracles.sipg_1d(J, delta0)
                rows, cols = np.nonzero(A)
                self.stencil[name, J] = (rows, cols, A[rows, cols], np.abs(A).max())
                self.direct[name, J] = np.linalg.solve(A, np.array(self.rhs[J]).T).T

    def run_pass(self, phases: Phases, tally: Tally, tracer=None) -> dict:
        record = {}
        for name, triple in self.triples.items():
            params = _params(triple)
            for J in self.CELLS:
                cfg = discretization.DiscretizationConfig(J, params.penalty, DIRICHLET, 1)
                with phases.time("setup"):
                    built = tally.attempt(self._setup, cfg, params)
                if built is None:
                    tally.skip(len(self.rhs[J]), f"set-up failed for {name}, J={J}")
                    continue
                A, ops, Minv = built
                apply_A = _traced(tracer, "solver.apply_A", lambda v: ops.A @ v)
                apply_M = _traced(tracer, "solver.apply_M", lambda v: Minv @ v)
                reports = []
                with phases.time("solve"):
                    for b in self.rhs[J]:
                        reports.append(tally.attempt(solver.gmres, apply_A, apply_M, b, tol=self.TOL))
                record[name, J] = self._digest(name, J, A, reports)
        return record

    @staticmethod
    def _setup(cfg, params):
        A = discretization.assemble_1d(cfg)
        ops = twolevel.build_two_level(cfg, params)
        return A, ops, twolevel.preconditioner_matrix(ops)

    def _digest(self, name, J, A, reports) -> dict:
        A = np.asarray(getattr(A, "entries", A))
        rows, cols, vals, scale = self.stencil[name, J]
        done = [r for r in reports if r is not None]
        errs = [
            np.linalg.norm(r.solution - x) / np.linalg.norm(x)
            for r, x in zip(reports, self.direct[name, J]) if r is not None
        ]
        return {
            "matrix_ok": A.shape == (2 * J, 2 * J)
            and np.count_nonzero(A) == len(vals)
            and float(np.max(np.abs(A[rows, cols] - vals))) <= 1e-14 * scale,
            "converged": all(r.converged for r in done),
            "max_rel_err": max(errs, default=0.0),
            "iters_ones": reports[0].iterations if reports[0] is not None else None,
            "iterations": sum(r.iterations for r in done),
        }

    def check(self, records) -> list[str]:
        bad = []
        for record in records:
            for (name, J), d in record.items():
                where = f"{name}, J={J}"
                if not d["matrix_ok"]:
                    bad.append(f"assemble_1d differs from the stencil oracle ({where})")
                if not d["converged"]:
                    bad.append(f"a GMRES solve did not converge ({where})")
                if not d["max_rel_err"] <= self.REL_ERR:
                    bad.append(f"solution off the direct solve by {d['max_rel_err']:.2e} ({where})")
            ones = {key: d["iters_ones"] for key, d in record.items()}
            clus = {ones.get(("clustering", J)) for J in self.CELLS}
            if len(clus) != 1 or None in clus or max(clus) > self.MAX_CLUSTERING_ITERS:
                bad.append(f"clustering iterations on b=ones not constant and <= 8: {sorted(clus, key=str)}")
            for J in self.CELLS:
                c, k = ones.get(("classical", J)), ones.get(("clustering", J))
                if c is None or k is None or not c > k:
                    bad.append(f"classical ({c}) not above clustering ({k}) at J={J}")
        return bad

    def summary(self, records) -> dict:
        return {"gmres_iterations": [sum(d["iterations"] for d in r.values()) for r in records]}


class Spectrum2D(Workload):
    """Dirichlet 2D spectrum report at J=32 and optimize_2d at J=16."""

    J_SPECTRUM = 32
    J_OPTIMIZE = 16
    J_ORACLE = 8
    MAX_EVALS = 30
    CLUSTER_TOL = 1e-6

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng(seed)
        self.start = _triple(optimize.clustering_parameters().params)
        # a seeded admissible triple for the untimed J=8 oracle comparison
        self.random_triple = (rng.uniform(0.3, 1.0), rng.uniform(1.2, 3.0), rng.uniform(0.2, 0.8))
        self.j_spectrum, self.j_optimize = self.J_SPECTRUM, self.J_OPTIMIZE

    def warmup(self):
        """The same pass at half the sizes: it warms BLAS and the allocator
        without paying for a full-size pass."""
        self.j_spectrum, self.j_optimize = self.J_SPECTRUM // 2, self.J_OPTIMIZE // 2
        try:
            super().warmup()
        finally:
            self.j_spectrum, self.j_optimize = self.J_SPECTRUM, self.J_OPTIMIZE

    def _config(self, J, delta0):
        return discretization.DiscretizationConfig(J, delta0, DIRICHLET, 2)

    def run_pass(self, phases: Phases, tally: Tally, tracer=None) -> dict:
        params = _params(self.start)
        J = self.j_spectrum
        cfg = self._config(J, params.penalty)
        with phases.time("setup"):
            ops = tally.attempt(twolevel.build_two_level, cfg, params)
        record = {"J": J, "operators_ok": ops is not None and self._operators_ok(ops)}
        del ops
        with phases.time("spectrum_2d"):
            eigs = tally.attempt(spectrum.two_level_error_eigenvalues, cfg, params)
            report = None if eigs is None else tally.attempt(spectrum.analyze, eigs, tol=self.CLUSTER_TOL)
        if eigs is None:
            tally.skip(1, "no eigenvalues to analyze")
        if report is not None:
            record.update(
                count=len(report.eigenvalues),
                max_imag=float(np.max(np.abs(report.eigenvalues.imag))),
                zeros=int(np.sum(np.abs(report.eigenvalues) <= 1e-10)),
                radius=report.spectral_radius,
                clusters=len(report.clusters),
            )
        with phases.time("optimize_2d"):
            sol = tally.attempt(
                optimize.optimize_2d, self._config(self.j_optimize, params.penalty),
                params, max_evals=self.MAX_EVALS,
            )
        if sol is not None:
            record.update(opt_triple=_triple(sol.params), opt_rho=sol.rho, nfev=sol.iterations)
        return record

    def _operators_ok(self, ops) -> bool:
        """A is the Kronecker sum and P the Kronecker square of the 1D oracle
        operators; compared one block row at a time to stay small."""
        J, (_, delta0, c) = self.j_spectrum, self.start
        A1, P1 = oracles.sipg_1d(J, delta0), oracles.prolongation_1d(J, c)
        n1, eye = A1.shape[0], np.eye(A1.shape[0])
        A, P = np.asarray(ops.A), np.asarray(ops.P)
        if A.shape != (n1 * n1, n1 * n1) or P.shape != (n1 * n1, (n1 // 2) ** 2):
            return False
        scale = np.abs(A1).max()
        for i in range(n1):
            rows = slice(i * n1, (i + 1) * n1)
            a_expected = np.kron(A1[i], eye) + np.kron(eye[i], A1)
            if np.max(np.abs(A[rows] - a_expected)) > 1e-13 * scale:
                return False
            if np.max(np.abs(P[rows] - np.kron(P1[i], P1))) > 1e-15:
                return False
        return True

    def _oracle_radius(self, J, triple) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(oracles.error_operator(J, triple, dim=2)))))

    def check(self, records) -> list[str]:
        bad = []
        radii = {}
        for record in records:
            J = record["J"]
            coarse_dim = (2 * (J // 2)) ** 2
            if not record["operators_ok"]:
                bad.append("build_two_level's A or P differs from the Kronecker oracle")
            if "count" not in record or "opt_rho" not in record:
                continue  # a failed operation, counted in `failed`
            if record["count"] != (2 * J) ** 2 or record["max_imag"] > 1e-10:
                bad.append(f"{record['count']} eigenvalues, max |Im| {record['max_imag']:.1e}")
            if record["zeros"] != coarse_dim:
                bad.append(f"{record['zeros']} eigenvalues at zero, expected {coarse_dim}")
            if not record["radius"] < 1.0:
                bad.append(f"radius {record['radius']} not below 1")
            if not record["clusters"] > 3:
                bad.append(f"only {record['clusters']} clusters at {self.CLUSTER_TOL:g}")
            for triple in (self.start, record["opt_triple"]):
                if triple not in radii:
                    radii[triple] = self._oracle_radius(self.J_OPTIMIZE, triple)
            rho, oracle, start = record["opt_rho"], radii[record["opt_triple"]], radii[self.start]
            if abs(rho - oracle) > 1e-8:
                bad.append(f"optimize_2d radius {rho} != oracle {oracle} at its triple")
            if not rho <= start + 1e-12:
                bad.append(f"optimize_2d radius {rho} above its starting radius {start}")
        for triple in (self.start, self.random_triple):
            cfg = self._config(self.J_ORACLE, triple[1])
            mine = np.sort(spectrum.two_level_error_eigenvalues(cfg, _params(triple)).real)
            ref = np.linalg.eigvals(oracles.error_operator(self.J_ORACLE, triple, dim=2))
            dev = max(float(np.max(np.abs(mine - np.sort(ref.real)))), float(np.max(np.abs(ref.imag))))
            if dev > 1e-10:
                bad.append(f"J={self.J_ORACLE} eigenvalues off the oracle by {dev:.1e} at {triple}")
        return bad


class Lfa1D(Workload):
    """The four CLI commands at their defaults, the 1D optimizers and the
    J=4096 symbol spectra."""

    TABLES = {"optimize": "params", "spectrum1d": "spectrum", "gmres-sweep": "gmres", "lfa-verify": "verify"}
    COMMANDS = tuple(TABLES)
    J_SYMBOLS = 4096
    J_ORACLE = 16

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.oracle_triple = oracles.clustering_triple()
        self.oracle_rho = oracles.radius_without_kernel(
            oracles.error_operator(8, self.oracle_triple, periodic=True)
        )
        # a seeded admissible triple for the untimed symbol-vs-dense check
        self.random_triple = (rng.uniform(0.3, 1.0), rng.uniform(1.2, 3.0), rng.uniform(0.2, 0.8))
        self.presets = {"classical": CLASSICAL, "clustering": _triple(optimize.clustering_parameters().params)}

    @staticmethod
    def _clear_presets():
        fn = cli.preset_params
        while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
        fn.cache_clear()

    def _resolve_presets(self):
        self._clear_presets()
        return {name: _triple(cli.preset_params(name)) for name in cli.PRESETS_1D}

    def _command(self, name: str) -> tuple[int, str]:
        self._clear_presets()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([name, "--out", str(self.outdir / name)])
        return code, err.getvalue()

    def run_pass(self, phases: Phases, tally: Tally, tracer=None) -> dict:
        record = {}
        for old in self.outdir.glob("*"):
            old.unlink()
        with phases.time("setup"):
            record["presets"] = tally.attempt(self._resolve_presets)
        codes = {}
        with phases.time("cli"):
            for name in self.COMMANDS:
                with tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext():
                    codes[name] = tally.attempt(self._command, name)
        for name, result in codes.items():
            if result is not None and result[0] != 0:
                tally.failed += 1
                tally.errors.append(f"dgml {name} exited {result[0]}: {result[1].strip()}")
        record["exited_0"] = [name for name, result in codes.items() if result and result[0] == 0]
        record["csv"] = self._read_outputs()
        with phases.time("lfa_optimize"):
            record["alpha_delta"] = tally.attempt(optimize.optimize_1d_alpha_delta, 0.5)
            record["alpha"] = tally.attempt(optimize.optimize_1d_alpha, 2.0, 0.5)
        symbols = {}
        with phases.time("symbols"):
            for name, triple in self.presets.items():
                symbols[name] = tally.attempt(lfa.error_spectrum_symbols, self.J_SYMBOLS, _params(triple))
        record["symbols"] = {
            name: None if eigs is None else self._symbol_digest(eigs) for name, eigs in symbols.items()
        }
        return record

    def _read_outputs(self) -> dict:
        def rows(suffix):
            path = self.outdir / suffix
            if not path.is_file():
                return None
            with open(path, newline="") as fh:
                return list(csv.DictReader(fh))

        return {name: rows(f"{name}_{table}.csv") for name, table in self.TABLES.items()}

    def _symbol_digest(self, eigs) -> dict:
        """Moduli of the k >= 1 blocks (the first four values are k = 0)."""
        mods = np.abs(np.asarray(eigs)[4:])
        return {
            "count": len(eigs),
            "max_modulus": float(mods.max()),
            "off_two_points": float(np.max(np.minimum(mods, np.abs(mods - self.oracle_rho)))),
        }

    def check(self, records) -> list[str]:
        bad = []
        rho = self.oracle_rho
        if abs(rho - CLUSTERING_RADIUS) > 1e-5:
            bad.append(f"oracle radius {rho} is not the paper's {CLUSTERING_RADIUS}")
        for record in records:
            bad += self._check_presets(record["presets"])
            bad += [f"dgml {name} exited 0 without its CSV" for name in record["exited_0"]
                    if record["csv"][name] is None]
            bad += self._check_csv(record["csv"])
            ad, a = record["alpha_delta"], record["alpha"]
            if a is not None and abs(a[0] - 8.0 / 9.0) > 1e-3:
                bad.append(f"optimize_1d_alpha(2, 1/2) gave alpha {a[0]}, not 8/9")
            if ad is not None and abs(ad[2] - 0.2) > 1e-3:
                bad.append(f"optimize_1d_alpha_delta(1/2) gave radius {ad[2]}, not 0.2")
            sym = record["symbols"]
            if sym["clustering"] is not None:
                d = sym["clustering"]
                if d["count"] != 2 * self.J_SYMBOLS or d["off_two_points"] > 1e-8:
                    bad.append(f"clustering symbol moduli off {{0, {rho:.8f}}} by {d['off_two_points']:.1e}")
            if sym["classical"] is not None and sym["classical"]["max_modulus"] > 1.0 / 3.0 + 1e-12:
                bad.append(f"classical symbol radius {sym['classical']['max_modulus']} above 1/3")
        triple = self.random_triple
        mine = lfa.error_spectrum_symbols(self.J_ORACLE, _params(triple))
        ref = np.linalg.eigvals(oracles.error_operator(self.J_ORACLE, triple, periodic=True))
        dev = _multiset_distance(mine, ref)
        if dev > 1e-8:
            bad.append(f"J={self.J_ORACLE} symbols off the dense oracle by {dev:.1e} at {triple}")
        return bad

    def _check_presets(self, presets) -> list[str]:
        if presets is None:
            return []
        bad = []
        if np.max(np.abs(np.subtract(presets["classical"], CLASSICAL))) > 1e-15:
            bad.append(f"classical preset is {presets['classical']}")
        if np.max(np.abs(np.subtract(presets["clustering"], self.oracle_triple))) > 1e-12:
            bad.append(f"clustering preset {presets['clustering']} is not the quartic roots")
        return bad

    def _check_csv(self, out) -> list[str]:
        bad = []
        if out["optimize"] is not None:
            values = {row["name"]: float(row["value"]) for row in out["optimize"]}
            got = tuple(values.get(k, np.nan) for k in ("alpha", "delta0", "c"))
            if not np.max(np.abs(np.subtract(got, self.oracle_triple))) <= 1e-12:
                bad.append(f"optimize CSV triple {got} is not the quartic roots {self.oracle_triple}")
            if not abs(values.get("rho", np.nan) - CLUSTERING_RADIUS) <= 1e-5:
                bad.append(f"optimize CSV rho {values.get('rho')} is not {CLUSTERING_RADIUS}")
        if out["spectrum1d"] is not None:
            radius = defaultdict(float)
            for row in out["spectrum1d"]:
                radius[row["preset"]] = max(radius[row["preset"]], abs(complex(float(row["re"]), float(row["im"]))))
            if not abs(radius["clustering"] - CLUSTERING_RADIUS) <= 1e-5:
                bad.append(f"spectrum1d clustering radius {radius['clustering']}")
            if not abs(radius["alpha-delta"] - 0.2) <= 1e-3:
                bad.append(f"spectrum1d alpha-delta radius {radius['alpha-delta']}")
            if not 0.0 < radius["classical"] <= 1.0 / 3.0 + 1e-12:
                bad.append(f"spectrum1d classical radius {radius['classical']}")
        if out["gmres-sweep"] is not None:
            iters = defaultdict(dict)
            for row in out["gmres-sweep"]:
                iters[row["preset"]][int(row["J"])] = int(row["iterations"])
            clus, clas = iters["clustering"], iters["classical"]
            if len(set(clus.values())) != 1:
                bad.append(f"gmres-sweep clustering counts vary over J: {clus}")
            if not clus or set(clus) != set(clas) or any(clas[J] <= clus[J] for J in clus):
                bad.append(f"gmres-sweep classical {clas} not above clustering {clus}")
        if out["lfa-verify"] is not None:
            worst = max((float(row["max_deviation"]) for row in out["lfa-verify"]), default=np.inf)
            if not worst < 1e-8:
                bad.append(f"lfa-verify worst deviation {worst:.1e}")
        return bad


def _multiset_distance(a, b) -> float:
    """Greedy nearest-neighbour matching distance of two equal multisets."""
    rest = list(np.asarray(b, dtype=complex))
    if len(rest) != len(a):
        return np.inf
    worst = 0.0
    for x in np.asarray(a, dtype=complex):
        d = np.abs(np.array(rest) - x)
        j = int(np.argmin(d))
        worst = max(worst, float(d[j]))
        rest.pop(j)
    return worst


WORKLOADS = {"solve-1d": Solve1D, "spectrum-2d": Spectrum2D, "lfa-1d": Lfa1D}
