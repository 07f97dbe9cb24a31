"""Config handling, task selection, artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nspshock
import nspshock.dispersion as dispersion_module
import nspshock.eigensystem as eigensystem_module
import nspshock.pipeline as pipeline_module
import nspshock.profile as profile_module
import nspshock.transversality as transversality_module
from nspshock.cli import main
from nspshock.evans import ATOL, PROBE_ORDER, RTOL
from nspshock.modes import default_disk_radius
from nspshock.params import PlasmaParams, solve_rankine_hugoniot
from nspshock.pipeline import ConfigError, load_config
from nspshock.poisson import (discretize_profile, richardson,
                              solve_linearized_poisson)
from nspshock.profile import DEFAULT_NODES, ProfileGrid, default_half_length

REF_PARAMS = {"T": 1.0, "nu": 1.0, "eps": 1.0, "v_minus": 1.0,
              "u_minus": 0.0, "v_plus": 1.1}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"params": dict(REF_PARAMS), "out": str(tmp_path / "out")}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_lax_violation_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, params={**REF_PARAMS, "v_plus": 0.9})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "Lax" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_missing_params_block_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out": "o"}))
    assert main(["run", "--config", str(path)]) == 2


def test_unknown_task_rejected(tmp_path):
    cfg = write_config(tmp_path, tasks=["profile", "spectres"])
    with pytest.raises(ConfigError, match="spectres"):
        load_config(cfg)


def test_negative_numeric_rejected(tmp_path):
    cfg = write_config(tmp_path, numerics={"n": -5})
    with pytest.raises(ConfigError, match="positive"):
        load_config(cfg)


def test_unknown_numerics_key_rejected(tmp_path):
    cfg = write_config(tmp_path, numerics={"step": 0.1})
    with pytest.raises(ConfigError, match="step"):
        load_config(cfg)


def test_dispersion_only_writes_only_spectrum(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--tasks", "dispersion"]) == 0
    out = tmp_path / "out"
    assert (out / "spectrum.csv").exists()
    assert (out / "report.json").exists()
    assert not (out / "profile.csv").exists()
    assert not (out / "evans.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert list(report["tasks"]) == ["dispersion"]


@pytest.mark.parametrize("numerics, key", [
    ({"X": "a"}, "numerics.X"),
    # X and n set the one grid every task reads; the keys of the former
    # Evans grid are unknown keys now, whatever their value
    ({"evans_X": 630.0}, "numerics.evans_X"),
    ({"rho": float("inf")}, "numerics.rho"),
    ({"n": True}, "numerics.n"),
    ({"n": 4000}, "numerics.n"),
    ({"evans_n": 5601}, "numerics.evans_n"),
    ({"n_circle": 2.5}, "numerics.n_circle"),
    ([32], "numerics"),
    # below three nodes there is no grid
    ({"n": 1}, "numerics.n"),
])
def test_bad_numeric_exits_2(tmp_path, capsys, numerics, key):
    cfg = write_config(tmp_path, numerics=numerics)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_uncreatable_out_exits_2(tmp_path, capsys):
    # an out directory below a regular file cannot be created: a config
    # error that names out, raised before any task runs
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_config(tmp_path, out=str(blocker / "sub"))
    with pytest.raises(ConfigError, match=r"^out: .*file/sub"):
        pipeline_module.run(load_config(cfg))
    assert main(["run", "--config", str(cfg), "--tasks", "dispersion"]) == 2
    assert "config error: out:" in capsys.readouterr().err


def test_rho_outside_the_disk_exits_2(tmp_path, capsys):
    # rho must lie inside the Evans disk; the check runs before any task
    # and only when Evans is selected
    cfg = write_config(tmp_path, numerics={"rho": 1.0})
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "numerics.rho = 1.0" in err
    params = PlasmaParams(**REF_PARAMS)
    radius = default_disk_radius(params, solve_rankine_hugoniot(params))
    assert f"disk radius {radius!r}" in err
    assert not (tmp_path / "out").exists()
    cfg = write_config(tmp_path, numerics={"rho": 1.0}, tasks=["dispersion"])
    assert main(["run", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("overrides, key, valid", [
    # a misspelt block would otherwise run silently on the defaults
    ({"numeric": {"n": 2001}}, "numeric", "params, tasks, numerics, out"),
    # and a misspelt parameter beside the real one would be ignored
    ({"params": {**REF_PARAMS, "vplus": 1.2}}, "params.vplus",
     "T, nu, eps, v_minus, u_minus, v_plus"),
    # the output directory is a path, not str() of any JSON value
    ({"out": None}, "out must be a string, got None", None),
    ({"out": 7}, "out must be a string, got 7", None),
], ids=["numeric", "vplus", "out-null", "out-number"])
def test_config_typos_exit_2(tmp_path, monkeypatch, capsys, overrides, key,
                             valid):
    cfg = write_config(tmp_path, tasks=["dispersion"], **overrides)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    if valid is not None:
        assert f"valid: {valid}" in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("key, value", [("T", True), ("T", "1"),
                                        ("u_minus", float("nan"))])
def test_bad_param_exits_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, params={**REF_PARAMS, key: value},
                       tasks=["dispersion"])
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"params.{key}" in err


@pytest.mark.parametrize("overrides, flags", [({}, ["--tasks", ""]),
                                              ({"tasks": []}, [])])
def test_empty_task_list_exits_2(tmp_path, capsys, overrides, flags):
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg)] + flags) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "tasks" in err
    assert not (tmp_path / "out").exists()


def test_transversality_builds_no_evans_closure(tmp_path, monkeypatch):
    # the reduced matrix is the profile Jacobian in V, so a transversality
    # run never assembles the 5x5 closure of the Evans system
    def closure(*args, **kwargs):
        raise AssertionError("the transversality task built the closure")

    for module in (eigensystem_module, transversality_module):
        for name in ("interior_coefficients", "interior_matrix_coeffs"):
            monkeypatch.setattr(module, name, closure)
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg),
                 "--tasks", "profile,transversality"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tasks"]["transversality"]["passed"] is True


def test_dispersion_makes_no_lapack_call(tmp_path, monkeypatch):
    # the run's oracle solves each assembled 2x2 symbol in closed form;
    # np.linalg.eigvals checks it in the tests, never in the run
    def eigvals(*args, **kwargs):
        raise AssertionError("the dispersion task called np.linalg.eigvals")

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--tasks", "dispersion"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    task = report["tasks"]["dispersion"]
    assert task["passed"] is True
    params = PlasmaParams(**REF_PARAMS)
    end = solve_rankine_hugoniot(params)
    xi = dispersion_module.default_xi_grid()
    expected = 0.0
    for side in ("minus", "plus"):
        lam1, lam2 = dispersion_module.essential_eigenvalues(params, end,
                                                             side, xi)
        expected = max(expected, pipeline_module._eigensolve_distance(
            params, end, side, xi, lam1, lam2))
    assert task["checks"]["closed_form_vs_eigensolve"]["value"] == expected


def test_transversality_alone_solves_no_profile_task(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--tasks", "transversality"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert list(report["tasks"]) == ["transversality"]
    assert not (tmp_path / "out" / "profile.csv").exists()
    metrics = report["tasks"]["transversality"]["metrics"]
    assert metrics["work"] == {"transports": 2, "cells": DEFAULT_NODES - 1,
                               "substeps": 4}
    assert 0.0 < metrics["transport_error"] <= 1e-8


def test_poisson_alone_solves_no_profile_task(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--tasks", "poisson"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert list(report["tasks"]) == ["poisson"]
    assert report["tasks"]["poisson"]["passed"] is True
    assert not (tmp_path / "out" / "profile.csv").exists()


def test_evans_alone_solves_no_profile_task(tmp_path):
    cfg = write_config(tmp_path, numerics={"n_circle": 16})
    assert main(["run", "--config", str(cfg), "--tasks", "evans"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert list(report["tasks"]) == ["evans"]
    assert report["tasks"]["evans"]["passed"] is True
    assert (tmp_path / "out" / "evans.csv").exists()
    assert not (tmp_path / "out" / "profile.csv").exists()


def test_out_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["run", "--config", str(cfg), "--tasks", "dispersion",
                 "--out", str(other)]) == 0
    assert (other / "report.json").exists()
    assert not (tmp_path / "out").exists()


def test_checks_carry_value_and_threshold(tmp_path):
    cfg = write_config(tmp_path, tasks=["profile", "dispersion", "poisson"])
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    for entry in report["tasks"].values():
        assert entry["passed"] is True
        for check in entry["checks"].values():
            assert set(check) == {"value", "threshold", "pass"}


def test_report_deterministic_modulo_timings(tmp_path):
    cfg = write_config(tmp_path, tasks=["profile", "dispersion"])
    texts = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        del report["timings"]
        texts.append(json.dumps(report, sort_keys=True))
    assert texts[0] == texts[1]


def test_transversality_reports_gamma_consistency(tmp_path):
    cfg = write_config(
        tmp_path, tasks=["evans", "transversality", "poisson"],
        numerics={"n_circle": 16})
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    checks = report["tasks"]["transversality"]["checks"]
    assert checks["gamma_consistency"]["pass"] is True
    assert checks["gamma_consistency"]["value"] > 0.0
    # transversality and Poisson read the grid Evans solved
    poisson = report["tasks"]["poisson"]
    assert poisson["passed"] is True
    assert poisson["metrics"]["consistency_n"] == DEFAULT_NODES
    newton = report["tasks"]["evans"]["metrics"]["newton"]
    assert poisson["metrics"]["newton"] == newton
    assert report["tasks"]["transversality"]["metrics"]["newton"] == newton
    assert report["tasks"]["evans"]["metrics"]["n"] == DEFAULT_NODES


@pytest.fixture(scope="module")
def reference_report(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("reference")
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    return json.loads((tmp_path / "out" / "report.json").read_text())


def test_reference_run_reports_closure_residual(reference_report):
    check = reference_report["tasks"]["evans"]["checks"]["closure_residual"]
    assert check["pass"] is True and check["threshold"] == 1e-6
    assert check["value"] < 1e-10


def test_reference_run_reports_its_table(reference_report):
    evans = reference_report["tasks"]["evans"]
    check = evans["checks"]["table_error"]
    assert check["pass"] is True and check["threshold"] == 1e-8
    assert 0.0 < check["value"] < 1e-10
    # the table keeps every 2nd node of the 2049-node grid (step 0.28);
    # metrics.n stays the grid's node count
    metrics = evans["metrics"]
    table = metrics["table"]
    assert table["stride"] == 2
    assert table["nodes"] == (metrics["n"] - 1) // 2 + 1 == 1025
    assert table["step"] == pytest.approx(
        2.0 * metrics["X"] / (table["nodes"] - 1), rel=1e-14)
    # and the DOP853 tolerances its transport ran at
    assert metrics["tolerance"] == {"rtol": RTOL, "atol": ATOL}


def test_reference_run_reports_newton_work(reference_report):
    tasks = reference_report["tasks"]
    newton = {name: tasks[name]["metrics"]["newton"]
              for name in ("profile", "evans", "transversality", "poisson")}
    for entry in newton.values():
        assert isinstance(entry["iterations"], int)
        assert entry["iterations"] > 0
        assert 0.0 <= entry["defect"] <= 1e-12
    # one grid, which every task reads
    for name in ("evans", "transversality", "poisson"):
        assert newton[name] == newton["profile"]
    profile = tasks["profile"]["metrics"]
    assert tasks["poisson"]["metrics"]["consistency_n"] == profile["n"]
    evans = tasks["evans"]["metrics"]
    assert (evans["n"], evans["X"]) == (profile["n"], profile["X"])


def test_newton_failure_is_the_task_error(tmp_path, monkeypatch):
    monkeypatch.setattr(profile_module, "rhs_jacobian",
                        lambda y, params, end: np.full(y.shape + (3,), np.nan))
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--tasks", "profile"]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    error = report["tasks"]["profile"]["error"]
    assert error.startswith("RuntimeError: profile Newton: step 1 failed "
                            f"on n={DEFAULT_NODES}, X=")
    assert "defect" in error


def test_dissipation_violation_is_a_failed_check(tmp_path, monkeypatch):
    # a decay constant far above the reference one breaks the bound away
    # from xi = 0; the report's check is the verdict, not an exception
    monkeypatch.setattr(dispersion_module, "decay_constant", lambda p: 10.0)
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--tasks", "dispersion"]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    entry = report["tasks"]["dispersion"]
    assert "error" not in entry and entry["passed"] is False
    params = load_config(cfg).params
    end = solve_rankine_hugoniot(params)
    xi = dispersion_module.default_xi_grid()
    worst = min(np.min(dispersion_module.dispersion_curve(
        params, end, side, xi).margin) for side in ("minus", "plus"))
    assert entry["checks"]["dissipation_margin"] == {
        "value": worst, "threshold": -1e-12, "pass": False}
    assert worst < -1.0


def test_each_grid_computes_its_jets_once(tmp_path, monkeypatch):
    # all five tasks share one grid: one solve and one order-3 jet
    # derivation on its nodes; the Evans build makes one more pass at the
    # nodes its table keeps and one at the cell midpoints it carries the
    # profile to, and no other
    calls, solves = [], []
    original = ProfileGrid.state_jets
    original_solve = pipeline_module.solve_profile

    def counting(self, order=5, nodes=slice(None)):
        jets = original(self, order, nodes)
        calls.append((order, jets[0].value.size))
        return jets

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return original_solve(*args, **kwargs)

    monkeypatch.setattr(ProfileGrid, "state_jets", counting)
    monkeypatch.setattr(pipeline_module, "solve_profile", counting_solve)
    cfg = write_config(tmp_path, numerics={"n_circle": 16})
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert sorted(report["tasks"]) == sorted(pipeline_module.TASKS)
    assert len(solves) == 1
    assert [nodes for order, nodes in calls if order == 3] == [DEFAULT_NODES]
    kept = report["tasks"]["evans"]["metrics"]["table"]["nodes"]
    assert [(order, nodes) for order, nodes in calls if order != 3] == [
        (PROBE_ORDER, kept), (2, kept - 1)]


def test_failed_grid_is_solved_once(tmp_path, monkeypatch):
    # nine nodes give a non-monotone profile; the four tasks that read the
    # grid all report the one failed solve
    solves = []
    original_solve = pipeline_module.solve_profile

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return original_solve(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "solve_profile", counting_solve)
    cfg = write_config(tmp_path, numerics={"n": 9, "n_circle": 16})
    assert main(["run", "--config", str(cfg)]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(solves) == 1
    errors = {name: entry.get("error")
              for name, entry in report["tasks"].items()}
    assert errors.pop("dispersion") is None
    assert set(errors.values()) == {
        "RuntimeError: converged profile is not monotone on n = 9 nodes "
        "with step h = 35.97; raise numerics.n, increase X or reduce the "
        "amplitude"}


@pytest.mark.parametrize("n, task, text", [
    (9, "profile", "converged profile is not monotone"),
    (5, "evans", "coefficients at the cut ends miss their limits"),
], ids=["profile", "evans"])
def test_coarse_grid_errors_name_the_node_count(tmp_path, n, task, text):
    # on a grid too coarse for the shock the error states the node count
    # and the step, and names numerics.n as a knob to raise
    cfg = write_config(tmp_path, numerics={"n": n, "n_circle": 16},
                       tasks=[task])
    assert main(["run", "--config", str(cfg)]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    error = report["tasks"][task]["error"]
    assert error.startswith("RuntimeError: " + text)
    params = load_config(cfg).params
    X = default_half_length(params, solve_rankine_hugoniot(params))
    assert f"on n = {n} nodes with step h = {2.0 * X / (n - 1):.4g}" in error
    assert "numerics.n" in error


@pytest.mark.parametrize("v_plus", [1.02, 1.19])
def test_poisson_consistency_on_the_profile_grid(tmp_path, v_plus):
    # the default 18-e-fold grid meets the 1e-6 limit at both ends of the
    # amplitude range (clamping v at the ends read 3.2e-6 at v+ = 1.02)
    cfg = write_config(tmp_path, params={**REF_PARAMS, "v_plus": v_plus},
                       tasks=["profile", "poisson"])
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    check = report["tasks"]["poisson"]["checks"]["wave_consistency"]
    assert check["pass"] is True and check["threshold"] == 1e-6
    assert check["value"] <= 1e-6
    assert report["tasks"]["poisson"]["metrics"]["consistency_n"] == \
        report["tasks"]["profile"]["metrics"]["n"]


def test_poisson_consistency_reads_the_extrapolated_solve(tmp_path):
    # at v+ = 1.19 the second-order solve on the default grid misses the
    # 1e-6 limit (1.17e-6); the check reads the Richardson value at the
    # shared nodes (4.7e-8), whose error is the truncation at +-X
    params_dict = {**REF_PARAMS, "v_plus": 1.19}
    params = PlasmaParams(**params_dict)
    grid = profile_module.solve_profile(params, solve_rankine_hugoniot(params))
    disc = discretize_profile(grid)
    vj, _, sj = grid.jets
    scale = np.max(np.abs(sj.value))
    plain = solve_linearized_poisson(disc, vj.derivative(1), vj.derivative(2))
    assert np.max(np.abs(plain - sj.value)) > 1e-6 * scale
    extrapolated = richardson(solve_linearized_poisson, disc,
                              vj.derivative(1), vj.derivative(2))
    cfg = write_config(tmp_path, params=params_dict, tasks=["poisson"])
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    check = report["tasks"]["poisson"]["checks"]["wave_consistency"]
    assert check["value"] == np.max(np.abs(extrapolated - sj.value[::2])) / scale
    assert check["pass"] is True and check["value"] <= 1e-6


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_report_is_strict_json(tmp_path):
    # on this domain the tail fit of the decay exponent is undefined
    cfg = write_config(tmp_path, numerics={"X": 600, "n": 12001})
    main(["run", "--config", str(cfg), "--tasks", "profile"])
    text = (tmp_path / "out" / "report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["tasks"]["profile"]["metrics"]["decay_exponent"] is None


@pytest.mark.parametrize("v_plus, status", [(1.19, 0), (1.2, 2)])
def test_regime_guard_at_fast_root_boundary(tmp_path, capsys, v_plus, status):
    # the fast rates turn complex at delta ~ 0.1969; delta = 0.2 evaluates
    # to 0.19999999999999996, below the amplitude warning
    cfg = write_config(tmp_path, params={**REF_PARAMS, "v_plus": v_plus})
    assert main(["run", "--config", str(cfg), "--tasks", "dispersion"]) == status
    assert ("config error" in capsys.readouterr().err) == (status == 2)


def test_thread_env_var_seeds_blas_caps():
    # NSPSHOCK_THREADS sets all four BLAS variables, also over values
    # already in the environment
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
    code = ("import os; os.environ['NSPSHOCK_THREADS']='3'; "
            f"import nspshock; print([os.environ[k] for k in {names}])")
    # the child imports the same nspshock, installed or not
    src = os.path.dirname(os.path.dirname(nspshock.__file__))
    for ambient in ({}, {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "4"}):
        env = {k: v for k, v in os.environ.items() if "THREAD" not in k}
        env.update(ambient)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == str(["3"] * 4), ambient


def test_package_imports_no_scipy_solver_modules():
    # numpy is the whole runtime stack: neither the pipeline nor the
    # command line loads scipy or any of its modules
    code = ("import sys; import nspshock.pipeline, nspshock.cli; "
            "print([m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')])")
    src = os.path.dirname(os.path.dirname(nspshock.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_import_builds_no_csv_power_table():
    # the CSV writer builds its table of powers of ten on first use, from
    # Python integers; importing the pipeline neither builds it nor loads
    # fractions or decimal
    code = ("import sys; import nspshock.pipeline, nspshock.csvout; "
            "print([m for m in ('fractions', 'decimal') if m in sys.modules],"
            " nspshock.csvout._powers.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(nspshock.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] 0"
