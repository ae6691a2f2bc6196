import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import scaperture
from scaperture import openblas
from scaperture.analytic.centered import field_centered
from scaperture.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from scaperture.constants import EVAL_Y
from scaperture.experiments.compare import compare_engines
from scaperture.experiments.coupling import numeric_coupling
from scaperture.experiments.grids import place, solve_scenario
from scaperture.geometry import Circle, ConfigurationError, Ellipse, FilmSpec
from scaperture.io.config import PRESETS, load_config, parse_config, preset_config


def test_presets_cover_paper_parameters():
    for name in ("fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig5d",
                 "fig6a", "fig6b", "fig7a", "fig7b"):
        assert name in PRESETS
    cfg = preset_config("fig5c", "sweep")
    assert isinstance(cfg.geometry, Circle)
    assert cfg.geometry.radius == pytest.approx(1000e-9)
    assert cfg.film.pearl_length == pytest.approx(50e-9**2 / 80e-9)
    assert cfg.film.half_extents(cfg.geometry) == pytest.approx((90e-6, 100e-6))
    assert cfg.sweep_d == pytest.approx(100e-9)
    e = preset_config("fig6b", "sweep")
    assert isinstance(e.geometry, Ellipse)
    assert e.geometry.a == pytest.approx(1000e-9)
    assert e.geometry.b == pytest.approx(100e-9)


@pytest.mark.parametrize("name, command", [
    ("fig3", "analytic"), ("fig4", "analytic"), ("fig5a", "compare"), ("fig5b", "compare"),
    ("fig5c", "sweep"), ("fig5d", "sweep"), ("fig6a", "solve"), ("fig6b", "sweep"),
    ("fig7a", "solve"), ("fig7b", "solve"), ("coupling300", "coupling"),
])
def test_default_film_is_every_presets_film(name, command):
    # one default, to the bit: the library's film is the config's 31.25 nm
    assert FilmSpec() == preset_config(name, command).film


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        parse_config({"dipole": {"moment": -1.0}}, "solve")
    with pytest.raises(ConfigurationError):
        parse_config({"geometry": {"kind": "hexagon"}}, "solve")


@pytest.mark.parametrize("command", ["solve", "sweep", "compare"])
def test_cli_ellipse_scenario_is_config_error(tmp_path, capsys, command):
    # a scenario only places the dipole; the aperture's shape is the geometry's
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": {"n": 24}, "scenario": "ellipse", "sweep": _RADII}))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert "scenario must be centered or shifted, not 'ellipse'" in capsys.readouterr().err
    assert not any(out.glob("*"))


def test_load_config_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(ConfigurationError, match=r"bad.json:2"):
        load_config(bad, "solve")


def test_empty_config_rejected(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ConfigurationError, match="non-empty"):
        load_config(empty, "solve")


def test_cli_usage_and_config_exit_codes(tmp_path, capsys):
    assert main(["sweep"]) == EXIT_CONFIG  # no preset/config
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["sweep", "--preset", "fig5c", "--config", str(empty)]) == EXIT_CONFIG
    code = main(["sweep", "--config", str(empty), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_cli_integer_over_the_digit_limit_is_config_error(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal longer than Python's 4,300-digit conversion limit
    path = tmp_path / "huge.json"
    path.write_text('{"dipole": {"moment": 1' + "0" * 5000 + "}}")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err


def test_cli_sweep_with_too_few_radii_is_config_error(tmp_path, capsys):
    # the power-law fit needs five radii that differ; fewer used to end in an
    # AttributeError, and five equal ones in a LinAlgError after the sweep
    for radii in ([500, 1000, 2000], [1000] * 5):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"engine": "analytic",
                                    "sweep": {"d_nm": 100, "radii_nm": radii}}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "at least 5 radii that differ" in capsys.readouterr().err
        assert not any(out.glob("*"))


@pytest.mark.parametrize("window", [0, 1, 2, 7])
def test_cli_sweep_with_bad_smooth_window_is_config_error(tmp_path, capsys, window):
    # sweeps are not smoothed: the removed key is an unknown key, whatever
    # its value, and not silently ignored
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps({"engine": "analytic", "sweep": {
        "d_nm": 100, "radii_nm": [500, 1000, 2000, 4000, 8000], "smooth_window": window}}))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "smooth_window" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


_RADII = {"d_nm": 100, "radii_nm": [500, 1000, 2000, 4000, 8000]}


@pytest.mark.parametrize("command, doc, message", [
    # each ended in a TypeError traceback (exit 1) or ran truncated (exit 0)
    *[(command, {"dipole": {"moment": "1e-23"}, "sweep": _RADII}, "config field error")
      for command in ("analytic", "solve", "sweep", "compare", "coupling")],
    ("sweep", {"scenario": ["x"], "sweep": _RADII}, "scenario must be centered or shifted"),
    ("solve", {"grid": {"n": 24.7}}, "grid.n must be an integer"),
    ("solve", {"grid": {"n": 24.0}}, "grid.n must be an integer"),
    ("solve", {"grid": {"n": True}}, "grid.n must be an integer"),
    ("analytic", {"analytic": {"samples": 20.5}}, "analytic.samples must be an integer"),
    ("solve", {"film": []}, "film must be an object"),
    ("solve", {"geometry": "circle"}, "geometry must be an object"),
    # true read as 1 and an infinity as a length: each exited 0, ended in a
    # traceback (exit 1) or in an error that did not name the key
    ("coupling", {"dipole": {"moment": True}}, "dipole.moment must be a finite real number"),
    ("sweep", {"sweep": {"d_nm": True, "radii_nm": _RADII["radii_nm"]}},
     "sweep.d_nm must be a finite real number"),
    ("solve", {"geometry": {"kind": "circle", "radius_nm": True}, "sweep": {"d_nm": 0.5}},
     "geometry.radius_nm must be a finite real number"),
    ("sweep", {"sweep": {"d_nm": 100, "radii_nm": [500, 1000, 2000, 4000, math.inf]}},
     "sweep.radii_nm.4 must be a finite real number"),
    ("solve", {"film": {"pearl_length_nm": math.inf}}, "film.pearl_length_nm must be a finite"),
    ("solve", {"film": {"pearl_length_nm": True}},
     "film.pearl_length_nm must be a finite real number"),
    ("coupling", {"geometry": {"kind": "ellipse", "a_nm": 250, "b_nm": math.inf}},
     "geometry.b_nm must be a finite real number"),
    ("compare", {"dipole": {"moment": math.nan}}, "dipole.moment must be a finite real number"),
    ("solve", {"sweep": {"d_nm": 10**400}}, "sweep.d_nm must be a finite real number"),
])
def test_cli_mistyped_config_value_is_config_error(tmp_path, capsys, command, doc, message):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("doc, key", [
    ({"film": {"london_depth": 80}}, "'london_depth'"),  # a misspelt key ran at the default
    ({"db_convention": "amplitude20"}, "'db_convention'"),
    ({"grid": {"nx": 40}}, "'nx'"),
    ({"geometry": {"kind": "circle", "radius_nm": 1000, "a_nm": 500}}, "'a_nm'"),
    ({"dipole": {"moment": 1e-23, "z_nm": 10}}, "'z_nm'"),
    ({"engines": "numeric"}, "'engines'"),
    # the grading ratio is the scenario grid's own; the key used to be read
    ({"grid": {"n": 24, "ratio": 125.0}}, "'ratio'"),
    # every numeric command places its dipole by `place` and reads the
    # line y = EVAL_Y; these keys used to be read
    ({"dipole": {"x_nm": -900.0}}, "'x_nm'"),
    ({"dipole": {"y_nm": 0.0}}, "'y_nm'"),
    ({"y_offset_nm": 5.0}, "'y_offset_nm'"),
    # the film is its Pearl length alone; these keys used to be read
    ({"film": {"london_depth_nm": 50}}, "'london_depth_nm'"),
    ({"film": {"thickness_nm": 80}}, "'thickness_nm'"),
])
def test_cli_unknown_config_key_is_config_error(tmp_path, capsys, doc, key):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert f"unknown key {key}" in capsys.readouterr().err
    assert not (out / "hz.csv").exists()


@pytest.mark.parametrize("case", ["missing", "directory", "latin-1"])
def test_cli_unreadable_config_is_config_error(tmp_path, capsys, case):
    # each ended in a FileNotFoundError, IsADirectoryError or
    # UnicodeDecodeError traceback, exit code 1
    path = tmp_path / "cfg.json"
    if case == "directory":
        path.mkdir()
    elif case == "latin-1":
        path.write_bytes('{"scenario": "centr\xe9"}'.encode("latin-1"))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert f"configuration error: {path}: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_that_is_a_file_is_config_error(tmp_path, capsys):
    # out.mkdir raised FileExistsError, a traceback with exit code 1
    out = tmp_path / "o"
    out.write_text("kept")
    assert main(["analytic", "--preset", "fig4", "--out", str(out)]) == EXIT_CONFIG
    assert f"configuration error: {out}: cannot create" in capsys.readouterr().err
    assert out.read_text() == "kept"


@pytest.mark.parametrize("preset, name", [("fig3", "map.csv"), ("fig4", "manifest.json")])
def test_cli_failed_write_is_config_error(tmp_path, capsys, preset, name):
    # a target that is a directory made os.replace raise: a traceback with
    # exit code 1 that left the temp file behind
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    assert main(["analytic", "--preset", preset, "--out", str(out)]) == EXIT_CONFIG
    assert f"output error: {out / name}: cannot write" in capsys.readouterr().err
    assert not list(out.glob(".*.tmp*"))
    assert (out / name).is_dir()


@pytest.mark.parametrize("fields", [[1.0, 2.0, -3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
                                    [-1.0, -2.0, 0.0, -4.0, -5.0, -6.0, -7.0, -8.0]])
def test_cli_sweep_of_mixed_sign_is_solver_failure(tmp_path, capsys, monkeypatch, fields):
    # fit_power_law's ValueError was a traceback with exit code 1
    values = iter(fields)
    monkeypatch.setattr("scaperture.experiments.sweeps.solve_scenario",
                        lambda *args, **kwargs: SimpleNamespace(b_probe=next(values)))
    out = tmp_path / "o"
    assert main(["sweep", "--preset", "fig5c", "--out", str(out)]) == EXIT_SOLVER
    radius = preset_config("fig5c", "sweep").sweep_radii[2]
    assert f"of the other sign at radius {radius:.6g} m" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


@pytest.mark.parametrize("command", ["solve", "coupling"])
def test_cli_numeric_commands_do_not_read_engine(tmp_path, command):
    # solve and coupling run the numeric engine whatever "engine" says; the
    # analytic engine's circle rule used to reject this ellipse (exit code 2)
    doc = json.loads(json.dumps(PRESETS["coupling300"]))
    doc["engine"] = "analytic"
    doc["grid"]["n"] = 24
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_cli_numeric_sweep_metadata_records_n_only(tmp_path):
    # the grid's grading ratio is fixed by the scenario grid, so it is no
    # longer a setting the sweep reports
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "grid": {"n": 24},
        "sweep": {"d_nm": 100, "radii_nm": [1000, 1400, 2000, 2800, 4000]},
    }))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["metadata"] == {"engine": "numeric", "n": 24}
    assert payload["y_offset_m"] == EVAL_Y


def _csv(path):
    """Header comments and named columns of a CLI CSV."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return comments, {name: data[:, i] for i, name in enumerate(rows[0])}


def test_cli_solve_writes_db_of_the_field_in_gauss(tmp_path):
    # value_db was 20 log10(|H_z| / 1e-4) with H_z in A/m, labelled re 1
    # gauss, and g.csv gave a level in dB for a current
    from scaperture.constants import GAUSS, MU0

    out = tmp_path / "o"
    assert main(["solve", "--preset", "fig7a", "--grid", "24", "--out", str(out)]) == EXIT_OK
    comments, hz = _csv(out / "hz.csv")
    assert any("H_z = B_z / mu0" in c for c in comments)
    assert any("value_db: 20 log10(|B_z| / 1 gauss)" in c for c in comments)
    with np.errstate(divide="ignore"):
        want = 20.0 * np.log10(MU0 * np.abs(hz["value"]) / GAUSS)
    assert np.array_equal(hz["value_db"], want)
    # 1 uT in a 1 um aperture is tens of dB below a gauss; 1 A/m read as
    # tesla would be 80 dB above one
    probe = np.argmin(np.hypot(hz["x_m"] - 0.9e-6, hz["y_m"] - 5e-9))
    assert -140.0 < hz["value_db"][probe] < -40.0
    comments, g = _csv(out / "g.csv")
    assert list(g) == ["x_m", "y_m", "value"]
    assert not any("value_db" in c for c in comments)


@pytest.mark.parametrize("scenario", ["centered", "shifted"])
def test_cli_solve_places_its_dipole_by_scenario(tmp_path, scenario):
    # solve read its dipole from dipole.x_nm; it now places it by `place`,
    # like the other numeric commands: at the centre, or d inside the left edge
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": {"n": 24}, "scenario": scenario,
                                   "sweep": {"d_nm": 100}}))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
    cfg = load_config(cfgfile, "solve")
    dipole_x, probe_x = place(scenario, cfg.geometry, cfg.sweep_d)
    assert dipole_x == pytest.approx({"centered": 0.0, "shifted": -900e-9}[scenario], abs=1e-18)
    solved = solve_scenario(cfg.geometry, cfg.film, cfg.n, dipole_x=dipole_x,
                            moment=cfg.moment, probe_x=probe_x)
    _, hz = _csv(out / "hz.csv")
    assert np.array_equal(hz["value"], solved.solution.h_z.values)


def test_cli_outputs_carry_one_convention(tmp_path):
    # the -2x source field, the power10 dB scale and the smoothing window
    # are gone, and so are the keys that reported them
    sweep_out, compare_out = tmp_path / "s", tmp_path / "c"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"engine": "analytic", "sweep": _RADII}))
    assert main(["sweep", "--config", str(cfgfile), "--out", str(sweep_out)]) == EXIT_OK
    payload = json.loads((sweep_out / "sweep.json").read_text())
    assert "db_convention" not in payload
    assert set(payload["metadata"]) == {"engine"}
    assert payload["y_offset_m"] == EVAL_Y
    assert all(set(point) == {"L_m", "B_T"} for point in payload["points"])
    assert main(["compare", "--preset", "fig5a", "--grid", "40",
                 "--out", str(compare_out)]) == EXIT_OK
    assert "convention_offset_db" not in json.loads((compare_out / "compare.json").read_text())
    comments, columns = _csv(compare_out / "compare.csv")
    assert comments == []
    assert list(columns) == ["x_m", "bz_numeric_t", "bz_analytic_t", "delta_db"]


def test_cli_analytic_fig4_curve(tmp_path):
    out = tmp_path / "fig4"
    code = main(["analytic", "--preset", "fig4", "--out", str(out)])
    assert code == EXIT_OK
    rows = [
        line for line in (out / "curve.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    names = rows[0].split(",")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    x = data[:, names.index("x_m")]
    bz = data[:, names.index("value")]
    # zero outside the aperture, free-dipole limit near the center
    outside = x > 1000e-9
    assert outside.any() and np.all(bz[outside] == 0.0)
    from scaperture.constants import DEFAULT_MOMENT, MU0

    inner = np.argmin(x)
    assert bz[inner] == pytest.approx(
        -MU0 * DEFAULT_MOMENT / (4 * np.pi * x[inner] ** 3), rel=2e-3
    )


@pytest.mark.parametrize("samples", [150, 299, 597])
def test_cli_analytic_curve_leaves_out_the_edge(tmp_path, samples):
    # at these counts one sample of the 1 um circle's curve lands on x = R,
    # where B_z diverges: it was written as -inf (value_db inf) with exit 0
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"engine": "analytic",
                                   "analytic": {"kind": "curve", "samples": samples}}))
    out = tmp_path / "o"
    assert main(["analytic", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
    _, columns = _csv(out / "curve.csv")
    assert len(columns["value"]) == samples - 1
    assert np.all(np.isfinite(columns["value"]))
    assert np.all(columns["value_db"] < np.inf)  # -inf is the film's zero field


def test_cli_csv_roundtrip_lossless(tmp_path):
    out = tmp_path / "fig4"
    main(["analytic", "--preset", "fig4", "--out", str(out)])
    text = (out / "curve.csv").read_text().splitlines()
    rows = [line for line in text if not line.startswith("#")]
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    # 17 significant digits reproduce the doubles exactly: reformatting the
    # parsed values gives identical text
    from scaperture.io.writers import FLOAT_FMT

    for line in rows[1:]:
        for cell in line.split(","):
            assert FLOAT_FMT % float(cell) == cell
    # and recomputing with the same parameters the run used is bit-identical
    from scaperture.analytic.inplane import field_inplane
    from scaperture.constants import DEFAULT_MOMENT

    want = field_inplane(DEFAULT_MOMENT, data[:, 0], 1000 * 1e-9)
    assert np.array_equal(data[:, 1], want)


def test_cli_solve_and_manifest_determinism(tmp_path):
    cfgdoc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "grid": {"n": 24},
        "sweep": {"d_nm": 100},
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfgdoc))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out1)]) == EXIT_OK
    assert main(["solve", "--config", str(cfgfile), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    assert (out1 / "hz.csv").read_bytes() == (out2 / "hz.csv").read_bytes()
    assert (out1 / "g.csv").read_bytes() == (out2 / "g.csv").read_bytes()
    # round trip: the manifest's resolved config reruns to the same manifest
    manifest = json.loads((out1 / "manifest.json").read_text())
    cfgfile2 = tmp_path / "cfg2.json"
    cfgfile2.write_text(json.dumps(manifest["config"]))
    out3 = tmp_path / "c"
    assert main(["solve", "--config", str(cfgfile2), "--out", str(out3)]) == EXIT_OK
    assert (out3 / "manifest.json").read_bytes() == (out1 / "manifest.json").read_bytes()


def test_cli_solve_summary_identical_across_processes(tmp_path):
    # each run is a fresh process, as a rerun by hand would be
    env = dict(os.environ, PYTHONPATH=str(Path(scaperture.__file__).resolve().parents[1]))
    summaries = []
    for run in ("a", "b"):
        out = tmp_path / run
        subprocess.run([sys.executable, "-m", "scaperture.cli", "solve", "--preset", "fig7a",
                        "--grid", "24", "--threads", "1", "--out", str(out)],
                       env=env, capture_output=True, timeout=120, check=True)
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]


def test_cli_probe_on_mirror_axis_is_config_error(tmp_path, capsys):
    # d equal to the x semi-axis puts the probe anchor at x = 0
    cfgdoc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "grid": {"n": 24},
        "sweep": {"d_nm": 1000},
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfgdoc))
    for command in ("solve", "coupling"):
        code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / command)])
        assert code == EXIT_CONFIG
        assert "strictly between 0 and the x semi-axis" in capsys.readouterr().err


def test_cli_coupling_with_crossed_sites_is_config_error(tmp_path, capsys):
    # d = 300 nm beyond the 250 nm semi-axis put the dipole right of the
    # probe; the run used to exit 0 with a separation of -100 nm
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "geometry": {"kind": "ellipse", "a_nm": 250, "b_nm": 100},
        "grid": {"n": 40},
        "sweep": {"d_nm": 300},
    }))
    out = tmp_path / "o"
    assert main(["coupling", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert "semi-axis" in capsys.readouterr().err
    assert not (out / "coupling.json").exists()
    with pytest.raises(ConfigurationError):
        numeric_coupling(Ellipse(a=250e-9, b=100e-9), 250e-9, n=40)


def test_cli_compare_with_crossed_sites_is_config_error(tmp_path, capsys):
    # d = 1500 nm beyond the 1 um radius put the shifted dipole at +500 nm,
    # right of the centre; the run used to exit 0 with a median of 1.841 dB
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "grid": {"n": 40},
        "scenario": "shifted",
        "sweep": {"d_nm": 1500},
    }))
    out = tmp_path / "o"
    assert main(["compare", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert "radius" in capsys.readouterr().err
    assert not (out / "compare.json").exists()
    for scenario, d in (("centered", 1e-6), ("shifted", 0.0)):
        with pytest.raises(ConfigurationError):
            compare_engines(scenario, Circle(1e-6), d, n=40)


@pytest.mark.parametrize("d_nm", [1500, -200])
def test_cli_solve_with_crossed_sites_is_config_error(tmp_path, capsys, d_nm):
    # solve anchored its probe at R - d without the d rule of the other
    # numeric commands: both runs exited 0
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": {"n": 24}, "sweep": {"d_nm": d_nm}}))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert "radius" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("doc, message", [
    # the circle check keyed on engine, which the analytic command never
    # reads: an AttributeError on Ellipse.radius
    ({"geometry": {"kind": "ellipse", "a_nm": 1000, "b_nm": 300}}, "circular"),
    ({"analytic": {"kind": "cruve"}}, "analytic.kind"),  # silently wrote map.csv
    ({"analytic": {"samples": -1}}, "analytic.samples"),  # a ValueError traceback
    ({"analytic": {"kind": "map", "samples": 1}}, "analytic.samples"),
    # numpy's "Maximum allowed size exceeded", a traceback (exit code 1)
    ({"analytic": {"samples": 10**20}}, "analytic.samples needs an array of 8e+20 bytes"),
    ({"analytic": {"kind": "map", "samples": 10**20}},
     "analytic.samples needs an array of 2.4e+41 bytes"),
])
def test_cli_analytic_validates_its_inputs(tmp_path, capsys, doc, message):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["analytic", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


def test_cli_sweep_with_the_probe_100_nm_from_a_centred_dipole(tmp_path):
    # d = 400 nm in the 500 nm circle puts the probe 100 nm from the centred
    # dipole, a few cells away at n = 24; the probe reads the dipole's point
    # field + K g, so the sweep runs on any grid
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "grid": {"n": 24},
        "scenario": "centered",
        "sweep": {"d_nm": 400, "radii_nm": [500, 700, 1000, 1400, 2000]},
    }))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "sweep.json").read_text())
    assert all(point["B_T"] < 0 for point in doc["points"])
    assert doc["fit"]["slope"] == pytest.approx(-2.791, abs=5e-4)


def test_cli_compare_fig5a_on_a_coarse_grid(tmp_path):
    # at n = 28 fig5a's band, 0.1 to 0.8 R on the line, holds two grid points
    out = tmp_path / "o"
    assert main(["compare", "--preset", "fig5a", "--grid", "28", "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "compare.json").read_text())
    assert doc["n_points"] == 2
    assert doc["median_abs_db"] == pytest.approx(0.133, abs=5e-4)


def test_cli_compare_with_an_empty_band_is_config_error(tmp_path, capsys, monkeypatch):
    # np.quantile of an empty band used to raise IndexError; no preset's band
    # is empty, so the command runs with a band between two grid points
    with pytest.raises(ConfigurationError, match="holds no grid points"):
        compare_engines("centered", Circle(1e-6), 100e-9, n=28, band=(0.5, 0.5))
    import scaperture.experiments.compare as compare_module

    def empty_band(*args, **kwargs):
        return compare_engines(*args, **kwargs, band=(0.5, 0.5))

    monkeypatch.setattr(compare_module, "compare_engines", empty_band)
    out = tmp_path / "o"
    assert main(["compare", "--preset", "fig5a", "--grid", "28", "--out", str(out)]) == EXIT_CONFIG
    assert "refine the grid" in capsys.readouterr().err
    assert not (out / "compare.json").exists()


@pytest.mark.parametrize("command", ["solve", "sweep", "compare", "coupling"])
@pytest.mark.parametrize("key", ["film_factor", "grid_factor"])
def test_cli_film_extents_are_not_settings(tmp_path, capsys, command, key):
    # the film and grid extents are FilmSpec's defaults for every command;
    # the keys used to be read, and have no alias
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"film": {key: 90}, "grid": {"n": 24}, "sweep": _RADII}))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert f"film: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_grid_override(tmp_path):
    cfgdoc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "grid": {"n": 24},
        "sweep": {"d_nm": 100},
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfgdoc))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfgfile), "--grid", "20",
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grid"] == {"n": 20}
    assert len((out / "hz.csv").read_text().splitlines()) == 2 + 1 + 20 * 20


def test_cli_sweep_analytic_json(tmp_path):
    cfgdoc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "engine": "analytic",
        "scenario": "centered",
        "sweep": {"d_nm": 1.0, "radii_nm": list(np.geomspace(1e4, 1e6, 8))},
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfgdoc))
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["fit"]["slope"] == pytest.approx(-2.5, abs=0.02)
    assert len(payload["points"]) == 8


def test_cli_dogbone_wider_channel_is_config_error(tmp_path, capsys):
    # a channel wider than the discs exited 0, with aperture points at
    # y = 900 nm beyond the film's 2 x 250 nm half-extent
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "geometry": {"kind": "dogbone", "end_radius_nm": 100, "center_distance_nm": 300,
                     "channel_half_width_nm": 1000},
        "grid": {"n": 24},
    }))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert "channel_half_width <= end_radius" in capsys.readouterr().err
    assert not (out / "hz.csv").exists()


@pytest.mark.parametrize("geometry, scenario", [
    ({"kind": "dogbone", "end_radius_nm": 300, "center_distance_nm": 1500,
      "channel_half_width_nm": 50}, "centered"),
    ({"kind": "ellipse", "a_nm": 1000, "b_nm": 300}, "centered"),
    ({"kind": "circle", "radius_nm": 1000}, "ellipse"),
    ({"kind": "circle", "radius_nm": 1000}, "sideways"),
])
def test_cli_sweep_scenario_must_match_geometry(tmp_path, capsys, geometry, scenario):
    # the sweep varies the configured aperture and the scenario only places
    # the dipole. A dog-bone cannot be swept and "ellipse" or "sideways" is no
    # placement: exit code 2 (they used to sweep circles or 100 nm ellipses
    # and exit 0). A centred ellipse sweep scales a at the configured b (it
    # used to be rejected, as the scenario alone chose the swept shape)
    error = {"dogbone": "cannot sweep a DogBone", "ellipse": None}.get(geometry["kind"],
                                                                      "centered or shifted")
    radii = [500, 700, 1000, 1400, 2000]
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "geometry": geometry,
        "grid": {"n": 40},
        "scenario": scenario,
        "sweep": {"d_nm": 100, "radii_nm": radii},
    }))
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
    if error is not None:
        assert code == EXIT_CONFIG
        assert error in capsys.readouterr().err
        assert not (out / "sweep.json").exists()
        return
    assert code == EXIT_OK
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["scenario"] == "centered"
    assert payload["metadata"] == {"engine": "numeric", "n": 40, "b": 300 * 1e-9}
    lengths = [point["L_m"] for point in payload["points"]]
    assert lengths == pytest.approx([r * 1e-9 - 100e-9 for r in radii])


@pytest.mark.parametrize("key", ["n_x", "n_y"])
def test_grid_takes_one_point_count(key):
    # every grid is square: its one point count is n, and the former
    # per-axis spellings are unknown keys, with no alias
    assert parse_config({"grid": {"n": 40}}, "solve").n == 40
    assert parse_config({}, "solve").n == 60
    with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
        parse_config({"grid": {key: 40}}, "solve")


def test_cli_non_square_grid_is_config_error(tmp_path, capsys):
    # --grid takes one count: an NxM spelling, square or not, is a usage
    # error, and so is a config that spells the counts per axis
    for spec in ("24x24", "24x32"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--preset", "fig7a", "--grid", spec, "--out", str(tmp_path / spec)])
        assert exc.value.code == EXIT_CONFIG
        assert "--grid: invalid int value" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": {"n_x": 24, "n_y": 32}, "sweep": {"d_nm": 100}}))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert "unknown key 'n_x'" in capsys.readouterr().err
    assert not any(out.glob("*"))


def _map_loop(moment, radius, samples):
    """Per-point reference for the analytic map: rows (x, z, bx, bz)."""
    span = np.linspace(-2.0 * radius, 2.0 * radius, samples)
    rows = []
    for zv in span:
        for xv in span:
            if np.hypot(xv, zv) < 0.05 * radius:
                continue
            if zv == 0.0 and abs(xv) >= radius:
                bx = bz = 0.0
            else:
                b = field_centered([0, 0, moment], [xv, 0.0, zv], radius)
                bx, bz = b[0], b[2]
            rows.append((xv, zv, bx, bz))
    return np.array(rows)


def test_cli_analytic_map_matches_pointwise_loop(tmp_path):
    cfgdoc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "engine": "analytic",
        "analytic": {"kind": "map", "samples": 21},
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfgdoc))
    out = tmp_path / "map"
    assert main(["analytic", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
    lines = [line for line in (out / "map.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert lines[0] == "x_m,z_m,bx_t,bz_t"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    from scaperture.constants import DEFAULT_MOMENT

    radius = 1000 * 1e-9  # as the config converts nanometers
    assert np.array_equal(data, _map_loop(DEFAULT_MOMENT, radius, 21))
    # the origin is the one point in the excluded core; the film points
    # outside the aperture carry zeros
    assert len(data) == 21 * 21 - 1
    on_film = (data[:, 1] == 0.0) & (np.abs(data[:, 0]) >= radius)
    assert on_film.sum() == 12 and np.all(data[on_film, 2:] == 0.0)


def test_cli_bad_thread_and_grid_input_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "o")
    # a count that is not an integer is an argparse usage error, exit code 2
    for option in ("--grid", "--threads"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--preset", "fig7a", option, "abc", "--out", out])
        assert exc.value.code == EXIT_CONFIG
        assert f"{option}: invalid int value" in capsys.readouterr().err
    # --grid 0 is a count, so it reaches the grid's own check
    assert main(["solve", "--preset", "fig7a", "--grid", "0", "--out", out]) == EXIT_CONFIG
    assert "at least 16 points" in capsys.readouterr().err
    # a count whose kernel block cannot be allocated is refused before any
    # output; numpy raised "Maximum allowed size exceeded" (exit code 1)
    huge = tmp_path / "huge"
    assert main(["solve", "--preset", "fig7a", "--grid", str(10**20),
                 "--out", str(huge)]) == EXIT_CONFIG
    assert "grid.n needs an array of 5e+79 bytes" in capsys.readouterr().err
    assert not huge.exists()
    # a rejected count must not reach the thread pool either
    pool = openblas._lib.scipy_openblas_get_num_threads64_
    threads = pool()
    assert main(["solve", "--preset", "fig7a", "--threads", "-3", "--out", out]) == EXIT_CONFIG
    assert pool() == threads
    assert "configuration error" in capsys.readouterr().err
    # a count that wraps as a C int: 2**31 read as -2**31 left the pool as it
    # was, 2**32 + 1 set it to 1, and each run wrote its outputs and exited 0
    for count in (2**31, 2**32 + 1):
        wrapped = tmp_path / str(count)
        assert main(["analytic", "--preset", "fig4", "--threads", str(count),
                     "--out", str(wrapped)]) == EXIT_CONFIG
        assert pool() == threads
        assert f"thread count {count} is out of range" in capsys.readouterr().err
        assert not wrapped.exists()


def test_cli_aperture_without_a_grid_point_is_config_error(tmp_path, capsys):
    # at n = 60 the +-5 nm anchor pair is the innermost y pair, so a 4 nm slot
    # holds no grid point: the system had an empty row, a solver failure (exit 3)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"geometry": {"kind": "ellipse", "a_nm": 250, "b_nm": 4},
                                   "sweep": {"d_nm": 100}}))
    out = tmp_path / "o"
    assert main(["coupling", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert "no grid point lies inside the aperture" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
