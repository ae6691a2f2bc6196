import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scaperture
from scaperture.analytic.centered import field_centered
from scaperture.cli import EXIT_CONFIG, EXIT_OK, main
from scaperture.experiments.compare import compare_engines
from scaperture.experiments.coupling import numeric_coupling
from scaperture.geometry import Circle, ConfigurationError, Ellipse
from scaperture.io.config import PRESETS, load_config, parse_config, preset_config


def test_presets_cover_paper_parameters():
    for name in ("fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig5d",
                 "fig6a", "fig6b", "fig7a", "fig7b", "fig7c"):
        assert name in PRESETS
    cfg = preset_config("fig5c", "sweep")
    assert isinstance(cfg.geometry, Circle)
    assert cfg.geometry.radius == pytest.approx(1000e-9)
    assert cfg.film.london_depth == pytest.approx(50e-9)
    assert cfg.film.thickness == pytest.approx(80e-9)
    assert cfg.film.film_half_extent == pytest.approx(90e-6)
    assert cfg.film.grid_half_extent == pytest.approx(100e-6)
    assert cfg.sweep_d == pytest.approx(100e-9)
    e = preset_config("fig6b", "sweep")
    assert isinstance(e.geometry, Ellipse)
    assert e.geometry.a == pytest.approx(1000e-9)
    assert e.geometry.b == pytest.approx(100e-9)


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        parse_config({"engine": "analytic",
                      "geometry": {"kind": "ellipse", "a_nm": 10, "b_nm": 5}}, "solve")
    with pytest.raises(ConfigurationError):
        parse_config({"dipole": {"moment": -1.0}}, "solve")
    with pytest.raises(ConfigurationError):
        parse_config({"geometry": {"kind": "hexagon"}}, "solve")
    with pytest.raises(ConfigurationError):
        parse_config({"sweep": {"radii_nm": [1000]}}, "sweep")


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


def test_cli_sweep_with_too_few_radii_is_config_error(tmp_path, capsys):
    # the power-law fit needs five radii; fewer used to end in an AttributeError
    path = tmp_path / "short.json"
    path.write_text(json.dumps(
        {"engine": "analytic", "sweep": {"d_nm": 100, "radii_nm": [500, 1000, 2000]}}
    ))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "radii" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


@pytest.mark.parametrize("window", [0, 2, 7])
def test_cli_sweep_with_bad_smooth_window_is_config_error(tmp_path, capsys, window):
    # window 2 and a window wider than the five radii used to end in a
    # ValueError traceback from the smoother
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps({"engine": "analytic", "sweep": {
        "d_nm": 100, "radii_nm": [500, 1000, 2000, 4000, 8000], "smooth_window": window}}))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "smooth_window" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


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

    want = field_inplane("z", DEFAULT_MOMENT, data[:, 0], 1000 * 1e-9)[:, 2]
    assert np.array_equal(data[:, 1], want)


def test_cli_solve_and_manifest_determinism(tmp_path):
    cfgdoc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "grid": {"n_x": 24, "n_y": 24, "ratio": 30.0},
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


def test_cli_probe_on_mirror_axis_is_config_error(tmp_path):
    # d equal to the x semi-axis puts the probe anchor at x = 0
    cfgdoc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "grid": {"n_x": 24, "n_y": 24, "ratio": 30.0},
        "sweep": {"d_nm": 1000},
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfgdoc))
    for command in ("solve", "coupling"):
        code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / command)])
        assert code == EXIT_CONFIG


def test_cli_coupling_with_crossed_sites_is_config_error(tmp_path, capsys):
    # d = 300 nm beyond the 250 nm semi-axis put the dipole right of the
    # probe; the run used to exit 0 with a separation of -100 nm
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "geometry": {"kind": "ellipse", "a_nm": 250, "b_nm": 100},
        "grid": {"n_x": 40, "n_y": 40},
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
        "grid": {"n_x": 40, "n_y": 40},
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


def test_cli_unused_far_dipole_is_accepted(tmp_path):
    # compare and coupling place their dipole from scenario and sweep.d_nm,
    # so a dipole block outside the aperture is not read; solve reads it
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "grid": {"n_x": 40, "n_y": 40},
        "dipole": {"x_nm": 5000},
    }))
    for command, code in (("compare", EXIT_OK), ("coupling", EXIT_OK), ("solve", EXIT_CONFIG)):
        assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / command)]) == code


def test_cli_probe_inside_return_flux_core_is_config_error(tmp_path):
    # at n = 24 and ratio 30 the aperture has grid points at |x| = 268 and
    # 900 nm only, so a centred dipole's core (1,181 nm along x) holds the
    # probe 100 nm inside the edge, and the sweep would fit the core's bump
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "grid": {"n_x": 24, "n_y": 24, "ratio": 30.0},
        "scenario": "centered",
        "sweep": {"d_nm": 100, "radii_nm": [500, 700, 1000, 1400, 2000]},
    }))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "sweep.json").exists()


def test_cli_compare_with_an_empty_band_is_config_error(tmp_path, capsys):
    # at n = 28 no grid point of the line lies between 0.1 and 0.8 R clear
    # of the core; np.quantile of the empty band used to raise IndexError
    out = tmp_path / "o"
    assert main(["compare", "--preset", "fig5a", "--grid", "28", "--out", str(out)]) == EXIT_CONFIG
    assert "refine the grid" in capsys.readouterr().err
    assert not (out / "compare.json").exists()


@pytest.mark.parametrize("command", ["solve", "sweep", "compare", "coupling"])
def test_cli_film_reaching_the_grid_edge(tmp_path, command):
    # film_factor = grid_factor leaves no exterior ring; the scenario grid
    # graded with spacing 0 there and its anchors collided
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "film": {"film_factor": 100, "grid_factor": 100},
        "grid": {"n_x": 60, "n_y": 60},
        "sweep": {"d_nm": 100, "radii_nm": [500, 1000, 2000, 4000, 8000]},
    }))
    assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_cli_grid_override(tmp_path):
    cfgdoc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "grid": {"n_x": 24, "n_y": 24, "ratio": 30.0},
        "sweep": {"d_nm": 100},
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfgdoc))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfgfile), "--grid", "20x20",
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grid"]["n_x"] == 20


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


def test_cli_non_square_grid_is_config_error(tmp_path):
    # every engine builds its grid from n_x, so n_y != n_x would be recorded
    # in the manifest but never used
    cfgdoc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "grid": {"n_x": 24, "n_y": 24, "ratio": 30.0},
        "sweep": {"d_nm": 100},
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfgdoc))
    assert main(["solve", "--config", str(cfgfile), "--grid", "24x32",
                 "--out", str(tmp_path / "bad")]) == EXIT_CONFIG
    with pytest.raises(ConfigurationError, match="n_y"):
        parse_config(dict(cfgdoc, grid={"n_x": 24, "n_y": 32}), "sweep")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfgfile), "--grid", "20",
                 "--out", str(out)]) == EXIT_OK
    grid = json.loads((out / "manifest.json").read_text())["config"]["grid"]
    assert grid["n_x"] == grid["n_y"] == 20
    assert len((out / "hz.csv").read_text().splitlines()) == 2 + 1 + 20 * 20


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


def test_cli_bad_thread_and_grid_input_is_config_error(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "o")
    assert main(["solve", "--preset", "fig7a", "--grid", "abc", "--out", out]) == EXIT_CONFIG
    # a rejected count must not reach the backend's environment either
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert main(["solve", "--preset", "fig7a", "--threads", "-3", "--out", out]) == EXIT_CONFIG
    assert os.environ["OMP_NUM_THREADS"] == "1"
    monkeypatch.setenv("SCAPERTURE_THREADS", "x")
    assert main(["solve", "--preset", "fig7a", "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("configuration error") == 3


def test_cli_numeric_commands_honour_film_factors(tmp_path):
    # a smaller film and grid around the same aperture move the partner field
    for command, output in (("coupling", "coupling.json"), ("sweep", "sweep.json")):
        results = []
        for film_factor, grid_factor in ((90, 100), (40, 50)):
            doc = json.loads(json.dumps(PRESETS["coupling300"]))
            doc["film"].update(film_factor=film_factor, grid_factor=grid_factor)
            doc["grid"]["n_x"] = doc["grid"]["n_y"] = 24
            doc["sweep"]["radii_nm"] = [300, 400, 500, 600, 700]
            cfgfile = tmp_path / f"{command}{film_factor}.json"
            cfgfile.write_text(json.dumps(doc))
            out = tmp_path / f"{command}{film_factor}"
            assert main([command, "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
            results.append((out / output).read_bytes())
        assert results[0] != results[1], command
