import argparse
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from helpers import cell_fourier_basis, projected_block

from dgml import cli, lfa
from dgml.solver import gmres
from dgml.twolevel import SingularCoarseError, build_two_level, error_matrix


def run(tmp_path, *argv):
    return cli.main([*argv, "--out", str(tmp_path / "run")])


def read(tmp_path, suffix):
    return (tmp_path / f"run{suffix}").read_text()


def test_optimize_outputs(tmp_path, clustering_triple):
    assert run(tmp_path, "optimize") == 0
    lines = read(tmp_path, "_params.csv").strip().splitlines()
    assert lines[0] == "name,value"
    values = dict(line.split(",") for line in lines[1:])
    assert abs(float(values["alpha"]) - clustering_triple.alpha) < 1e-9
    assert abs(float(values["delta0"]) - clustering_triple.penalty) < 1e-9
    assert abs(float(values["c"]) - clustering_triple.discontinuity) < 1e-9
    assert abs(float(values["rho"]) - 0.19732) < 1e-4
    for key in ("quartic_residual_c", "quartic_residual_delta0", "quartic_residual_alpha"):
        assert abs(float(values[key])) < 1e-12 * 352
    meta = read(tmp_path, "_meta.txt")
    assert "command=optimize" in meta and "version=" in meta


def test_spectrum1d_row_counts_and_clusters(tmp_path):
    assert run(tmp_path, "spectrum1d", "--format", "both") == 0
    lines = read(tmp_path, "_spectrum.csv").strip().splitlines()
    assert lines[0] == "re,im,preset"
    rows = [line.split(",") for line in lines[1:]]
    for preset in ("classical", "alpha-delta", "clustering"):
        sub = [r for r in rows if r[2] == preset]
        assert len(sub) == 64  # 2J eigenvalues at J=32
        assert all(abs(float(r[1])) < 1e-8 for r in sub)  # real spectra
        assert max(abs(float(r[0])) for r in sub) < 1.0
    cluster_rows = [float(r[0]) for r in rows if r[2] == "clustering"]
    near = [v for v in cluster_rows if abs(abs(v) - 0.19732) < 1e-3]
    assert len(near) >= 29
    ET.parse(tmp_path / "run_spectrum.svg")  # well-formed, self-contained


def test_spectrum1d_deterministic(tmp_path):
    run(tmp_path, "spectrum1d", "--preset", "classical")
    first = read(tmp_path, "_spectrum.csv")
    run(tmp_path, "spectrum1d", "--preset", "classical")
    assert read(tmp_path, "_spectrum.csv") == first


def test_spectrum1d_custom_override(tmp_path):
    assert run(tmp_path, "spectrum1d", "--cells", "8", "--alpha", "0.8",
               "--delta0", "2.2", "--c", "0.5") == 0
    lines = read(tmp_path, "_spectrum.csv").strip().splitlines()
    assert len(lines) == 17  # header + 2J rows for one custom triple
    assert all(line.endswith("custom") for line in lines[1:])


def test_spectrum2d_row_counts(tmp_path):
    assert run(tmp_path, "spectrum2d", "--cells", "4", "--max-evals", "5") == 0
    lines = read(tmp_path, "_spectrum.csv").strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for preset in ("classical-1d", "alpha-delta-1d", "clustering-1d", "numeric-2d"):
        assert sum(r[2] == preset for r in rows) == 64  # (2J)^2 at J=4
    meta = read(tmp_path, "_meta.txt")
    assert "params_numeric-2d=" in meta


def test_spectrum2d_periodic_deflates_constant_mode(tmp_path):
    # the constant mode (eigenvalue 1) is dropped, so every preset contracts
    assert run(tmp_path, "spectrum2d", "--bc", "periodic", "--cells", "4", "--max-evals", "5") == 0
    rows = [line.split(",") for line in read(tmp_path, "_spectrum.csv").strip().splitlines()[1:]]
    for preset in cli.PRESETS_2D:
        radius = max(abs(complex(float(r[0]), float(r[1]))) for r in rows if r[2] == preset)
        assert radius < 0.9


def test_gmres_sweep(tmp_path):
    assert run(tmp_path, "gmres-sweep", "--cells-list", "16,32", "--format", "both") == 0
    lines = read(tmp_path, "_gmres.csv").strip().splitlines()
    assert lines[0] == "J,preset,iterations,final_relres"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert all(re.fullmatch(r"\d\.\d{3}e[+-]\d{2}", r[3]) for r in rows)  # as on stdout
    iters = {(r[1], r[0]): int(r[2]) for r in rows}
    assert iters[("clustering", "16")] == iters[("clustering", "32")]
    for J in ("16", "32"):
        assert iters[("classical", J)] > iters[("clustering", J)]
        assert iters[("clustering", J)] <= 8
    ET.parse(tmp_path / "run_gmres.svg")


def test_gmres_sweep_loose_tolerance(tmp_path):
    assert run(tmp_path, "gmres-sweep", "--cells-list", "16", "--preset", "clustering",
               "--tol", "0.5") == 0
    lines = read(tmp_path, "_gmres.csv").strip().splitlines()
    assert int(lines[1].split(",")[2]) <= 2


def test_gmres_sweep_periodic_solves_consistent_system(tmp_path, monkeypatch):
    # the periodic operator annihilates constants: every solve the sweep
    # makes must meet the tolerance in the true residual too
    solves = []

    def recording(apply_A, apply_M, b, **kwargs):
        report = gmres(apply_A, apply_M, b, **kwargs)
        solves.append((report, np.linalg.norm(b)))
        return report

    monkeypatch.setattr(cli, "gmres", recording)
    assert run(tmp_path, "gmres-sweep", "--bc", "periodic", "--cells-list", "16,32,64") == 0
    assert len(solves) == 6
    for report, bnorm in solves:
        assert report.converged
        assert report.true_residual < 1e-8 * bnorm


def test_gmres_sweep_unconverged_is_numerical_failure(tmp_path, capsys):
    assert run(tmp_path, "gmres-sweep", "--cells-list", "16", "--tol", "1e-30") == 3
    assert "J=16 classical" in capsys.readouterr().err


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, SingularCoarseError, ArithmeticError])
def test_numerical_errors_are_numerical_failure(tmp_path, capsys, monkeypatch, error):
    def fail(*args):
        raise error("injected")

    monkeypatch.setattr(cli, "build_two_level", fail)
    assert run(tmp_path, "gmres-sweep", "--cells-list", "16") == 3
    assert capsys.readouterr().err == "dgml: numerical failure: injected\n"


def test_gmres_sweep_unknown_preset_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "gmres-sweep", "--cells-list", "16", "--preset", "nope") == 1
    assert "usage error" in capsys.readouterr().err


def test_gmres_sweep_rejects_2d_preset(tmp_path, capsys):
    assert run(tmp_path, "gmres-sweep", "--cells-list", "16", "--preset", "clustering-1d") == 1
    assert "usage error" in capsys.readouterr().err


def test_gmres_sweep_custom_override(tmp_path):
    assert run(tmp_path, "gmres-sweep", "--cells-list", "16", "--preset", "clustering",
               "--alpha", "0.5") == 0
    lines = read(tmp_path, "_gmres.csv").strip().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[1] == "custom"
    meta = read(tmp_path, "_meta.txt")
    assert "presets=custom" in meta
    assert "params_custom=alpha=5.000000000000e-01," in meta


def test_lfa_verify_passes(tmp_path):
    assert run(tmp_path, "lfa-verify", "--cells-list", "4,8") == 0
    lines = read(tmp_path, "_verify.csv").strip().splitlines()
    assert lines[0] == "J,params,max_deviation"
    assert all(float(line.split(",")[2]) < 1e-8 for line in lines[1:])


@pytest.mark.parametrize("J", ["4", "8", "16", "32"])
def test_lfa_verify_detects_injected_fault(tmp_path, J):
    assert run(tmp_path, "lfa-verify", "--cells-list", J, "--inject-error") == 2
    rows = read(tmp_path, "_verify.csv").strip().splitlines()[1:]
    assert min(float(row.split(",")[2]) for row in rows) > 1e-4  # every case, not just the worst


@pytest.mark.parametrize("J", [2, 4, 6])
def test_lfa_verify_deviation_is_the_projected_block_defect(tmp_path, monkeypatch, J):
    # max over (k, k') of |V_k^H E V_k' - delta_kk' symbol_error(k)| from the
    # explicit Fourier bases, which pins the FFT's sign and scale
    built = []

    def recording_build(cfg, params):
        built.append((cfg, params))
        return build_two_level(cfg, params)

    monkeypatch.setattr(cli, "build_two_level", recording_build)
    assert run(tmp_path, "lfa-verify", "--cells-list", str(J)) == 0
    rows = read(tmp_path, "_verify.csv").strip().splitlines()[1:]
    assert len(rows) == len(built) == 5
    bases = [cell_fourier_basis(J, k, 4) for k in range(J // 2)]
    for row, (cfg, params) in zip(rows, built):
        E = error_matrix(build_two_level(cfg, params))
        expected = max(
            np.abs(projected_block(E, bases[k], bases[kk]) - (k == kk) * lfa.symbol_error(k, J, params)).max()
            for k in range(J // 2) for kk in range(J // 2)
        )
        assert abs(float(row.split(",")[2]) - expected) < 1e-14


def test_lfa_verify_runs_no_eigensolver(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lfa-verify called an eigensolver")

    for name in ("eigvals", "eig", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert run(tmp_path, "lfa-verify") == 0


def test_usage_errors(tmp_path):
    assert cli.main(["no-such-command"]) == 1
    assert run(tmp_path, "spectrum1d", "--cells", "7") == 1
    assert run(tmp_path, "spectrum1d", "--delta0", "0.5") == 1


@pytest.mark.parametrize("command,flag,value", [
    *[("gmres-sweep", "--tol", v) for v in ("0", "-1", "nan", "inf")],
    *[("spectrum1d", "--cluster-tol", v) for v in ("0", "nan")],
    *[("spectrum2d", "--max-evals", v) for v in ("0", "-3")],
])
def test_non_positive_number_is_usage_error(tmp_path, capsys, command, flag, value):
    assert run(tmp_path, command, flag, value) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {flag}: expected a positive finite" in err
    assert not list(tmp_path.iterdir())  # rejected before anything ran


@pytest.mark.parametrize("argv", [("spectrum1d",), ("gmres-sweep", "--cells-list", "16")])
def test_non_finite_penalty_is_usage_error(tmp_path, capsys, argv):
    assert run(tmp_path, *argv, "--delta0", "inf") == 1
    assert "usage error: penalty must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # rejected before anything was written


@pytest.mark.parametrize("argv", [("optimize",), ("spectrum1d", "--cells", "4", "--format", "svg")])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    assert cli.main([*argv, "--out", str(tmp_path / "missing" / "x")]) == 1
    assert f"cannot write {tmp_path / 'missing' / 'x'}_" in capsys.readouterr().err


# a value each flag accepts, and the (command, flag) pairs whose command
# does not read that flag
FLAG_VALUES = {"--cells": "8", "--bc": "periodic", "--preset": "classical", "--alpha": "0.5",
               "--delta0": "2.0", "--c": "0.5", "--tol": "1e-30", "--format": "svg",
               "--cluster-tol": "1e-3"}
REMOVED_FLAGS = [
    ("spectrum1d", "--tol"),
    ("spectrum2d", "--tol"),
    ("gmres-sweep", "--cells"),
    ("gmres-sweep", "--cluster-tol"),
    *[(command, flag) for command in ("optimize", "lfa-verify") for flag in FLAG_VALUES],
]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_flag_a_command_does_not_read_is_usage_error(tmp_path, capsys, command, flag):
    assert run(tmp_path, command, flag, FLAG_VALUES[flag]) == 1
    assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # rejected before anything ran


@pytest.mark.parametrize("argv", [
    ("gmres-sweep", "--cells", "8"),  # not --cells-list
    ("lfa-verify", "--cells", "8"),
    ("spectrum2d", "--max", "5"),  # not --max-evals
    ("spectrum1d", "--cluster", "1e-3"),
])
def test_flags_are_not_abbreviated(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,keys", [
    (("spectrum1d", "--cells", "8"), {"format", "cluster_tol"}),
    (("spectrum2d", "--cells", "4", "--max-evals", "3"), {"format", "cluster_tol"}),
    (("gmres-sweep", "--cells-list", "16"), {"format", "tol"}),
    (("optimize",), set()),
    (("lfa-verify", "--cells-list", "4"), set()),
])
def test_meta_records_only_the_commands_flags(tmp_path, argv, keys):
    assert run(tmp_path, *argv) == 0
    written = {line.split("=", 1)[0] for line in read(tmp_path, "_meta.txt").splitlines()}
    assert written & {"format", "tol", "cluster_tol"} == keys


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = dict(re.findall(r"^\| `([\w-]+)` \| `(--[^`]*)` \|$", readme, flags=re.M))
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert {name: set(text.split()) for name, text in table.items()} == flags


def test_dense_cap_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("DGML_DENSE_CAP", "16")
    assert run(tmp_path, "spectrum2d", "--cells", "4", "--max-evals", "3") == 1


def test_gmres_sweep_beyond_dense_cap_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DGML_DENSE_CAP", "16")
    assert run(tmp_path, "gmres-sweep", "--cells-list", "8,16") == 1
    assert "usage error" in capsys.readouterr().err


def test_preset_resolution(clustering_triple):
    classical = cli.preset_params("classical")
    assert classical.as_tuple() == (8.0 / 9.0, 2.0, 0.5)
    ad = cli.preset_params("alpha-delta")
    assert abs(ad.alpha - 0.9) < 5e-3 and abs(ad.penalty - 1.5) < 5e-3
    assert ad.discontinuity == 0.5
    cl = cli.preset_params("clustering")
    np.testing.assert_allclose(cl.as_tuple(), clustering_triple.as_tuple(), atol=1e-8)
    with pytest.raises(KeyError):
        cli.preset_params("nope")


def test_importing_dgml_loads_no_scipy():
    # scipy costs about 28 MB of resident memory at import; the runtime is
    # numpy only, and an optional scipy path must import it lazily
    code = "import sys, dgml, dgml.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}  # the dgml under test
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_package_root_holds_only_the_version():
    # every name is imported from its module, so one module loads alone
    code = (
        "import sys, dgml; print(dgml.__version__, sorted(n for n in vars(dgml) if not n.startswith('_'))); "
        "import dgml.solver; print(sorted(m for m in sys.modules if m.split('.')[0] == 'dgml'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}  # the dgml under test
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines() == [f"{cli.__version__} []", "['dgml', 'dgml.solver']"]
