"""What the package loads at start-up, its constants and its error classes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants

import scaperture
import scaperture.solver
import scaperture.solver.system
from scaperture import constants, geometry
from scaperture.cli import EXIT_SOLVER, main


def test_constants_equal_scipy_codata():
    assert constants.MU0 == scipy.constants.mu_0
    assert constants.PLANCK == scipy.constants.h
    assert constants.BOHR_MAGNETON == scipy.constants.physical_constants["Bohr magneton"][0]
    assert constants.ELECTRON_G == abs(scipy.constants.physical_constants["electron g factor"][0])


def test_package_root_names_its_library_classes():
    from scaperture import Circle, ConfigurationError

    assert Circle is geometry.Circle
    assert ConfigurationError is geometry.ConfigurationError
    for name in scaperture.__all__:
        assert getattr(scaperture, name) is not None
    with pytest.raises(AttributeError):
        scaperture.point_in_aperture


def _modules_after(tmp_path, commands, package):
    # the modules of `package` that a fresh process holds after running commands
    script = (
        "import json, sys\n"
        "from scaperture.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    assert main(args + ['--out', sys.argv[2] + args[2]]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == sys.argv[3])))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(scaperture.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script, json.dumps(commands), str(tmp_path / "out-"),
                          package],
                         capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_closed_form_commands_load_no_numeric_scipy(tmp_path):
    # the constants are literals and the manifest records no scipy version
    commands = [["analytic", "--preset", preset] for preset in ("fig4", "fig3")]
    assert _modules_after(tmp_path, commands, "scipy") == []


def test_numeric_commands_load_no_scipy_linalg_or_sparse(tmp_path):
    # the London operator is plain numpy and the solver's LAPACK is numpy's
    # own OpenBLAS, so not even the bare scipy package is loaded
    commands = [["sweep", "--preset", "fig5c", "--grid", "20"],
                ["solve", "--preset", "fig7a", "--grid", "20"]]
    assert _modules_after(tmp_path, commands, "scipy") == []


def test_each_command_loads_only_the_library_modules_it_calls(tmp_path):
    # the analytic and experiments packages re-export nothing and the package
    # root names no grid or solver class, so a command loads the modules it
    # imports from and no sibling: the closed forms load no grid or solver
    analytic = _modules_after(tmp_path, [["analytic", "--preset", preset]
                                         for preset in ("fig4", "fig3")], "scaperture")
    assert "scaperture.analytic.centered" in analytic
    assert [m for m in analytic if m in ("scaperture.analytic.shifted", "scaperture.grid")
            or m.startswith(("scaperture.solver", "scaperture.experiments"))] == []
    sweep = _modules_after(tmp_path, [["sweep", "--preset", "fig5c", "--grid", "20"]], "scaperture")
    assert "scaperture.experiments.sweeps" in sweep
    assert {"scaperture.experiments.compare", "scaperture.experiments.coupling"} & set(sweep) == set()


def test_solver_error_is_one_class_and_exits_3(tmp_path, monkeypatch):
    assert scaperture.solver.SolverError is scaperture.solver.system.SolverError
    assert scaperture.solver.system.SolverError is geometry.SolverError

    class Failing:
        def __init__(self, *args, **kwargs):
            raise scaperture.solver.system.SolverError("singular")

    monkeypatch.setattr(scaperture.solver.system, "BrandtSystem", Failing)
    code = main(["solve", "--preset", "fig7a", "--grid", "20", "--out", str(tmp_path)])
    assert code == EXIT_SOLVER

