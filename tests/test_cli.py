import dataclasses
import json
import os
import subprocess
import sys

import pytest

import optobec
from optobec import derive_quantities, solve_mean_field
from optobec.cli import _as_dict, main
from optobec.presets import MIRROR_FREQ


BASE_CONFIG = {
    "units": "si",
    "cavity": {"length": 1e-3, "wavelength": 1.064e-6, "finesse": 3e4,
               "detuning": 125576771.15392354},
    "mirror": {"mass": 5e-11, "frequency": MIRROR_FREQ, "quality": 1e5,
               "temperature": 0.4},
    "bec": {"present": True, "coupling": 324.3561130594751,
            "sw_frequency": 0.0, "recoil": 0.1 * MIRROR_FREQ,
            "damping": 31394.192788480885, "temperature": 1e-7},
    "drive": {"power": 0.05},
}


def write_config(tmp_path, extra=None, **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(overrides)
    if extra:
        for key, value in extra.items():
            doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_point_report(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["point", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"params", "derived_quantities", "branches"}
    assert doc["derived_quantities"]["kappa"] == pytest.approx(31394192.788, rel=1e-9)
    for branch in doc["branches"]:
        assert branch["stability"] in ("stable", "unstable", "marginal")
        if branch["stability"] == "stable":
            assert set(branch["measures"]) == {
                "delta_n_m", "delta_n_c", "e_n_mirror_field",
                "e_n_atom_field", "e_n_mirror_atom"}


def test_point_report_to_file(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "report.json"
    assert main(["point", "--config", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "branches" in doc


def test_sweep_to_file(tmp_path):
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "power", "lo": 0.0, "hi": 0.3, "points": 20,
        "mode": "mean_field", "bec": "present"}})
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("config,value,branch")
    assert len(lines) >= 21


def test_sweep_json_stdout(tmp_path, capsys):
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "delta_c", "lo": 0.0, "hi": 1e8, "points": 3,
        "mode": "mean_field", "bec": "both"}})
    assert main(["sweep", "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"rows", "spec", "derived_quantities"} == set(doc)
    assert {"base/bec", "base/no_bec"} == set(doc["derived_quantities"])


def test_sweep_requires_sweep_section(tmp_path):
    path = write_config(tmp_path)
    assert main(["sweep", "--config", path]) == 1


def test_figure_writes_named_csv(tmp_path, capsys):
    assert main(["figure", "fig3", "--out", str(tmp_path / "figs")]) == 0
    emitted = capsys.readouterr().out.strip()
    assert emitted.endswith("fig3.csv")
    header = (tmp_path / "figs" / "fig3.csv").read_text().splitlines()[0]
    assert header.startswith("config,value")


def test_threshold_prints_window_mw(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["threshold", "--config", path]) == 0
    lo, hi = map(float, capsys.readouterr().out.split())
    assert lo == pytest.approx(61.78, rel=1e-3)
    assert hi == pytest.approx(170.8, rel=1e-3)


def test_threshold_reports_missing_window(tmp_path, capsys):
    cavity = dict(BASE_CONFIG["cavity"], detuning=1e7)
    path = write_config(tmp_path, cavity=cavity)
    assert main(["threshold", "--config", path]) == 0
    assert "no bistability window" in capsys.readouterr().out


def test_invalid_config_exit_code(tmp_path, capsys):
    cavity = dict(BASE_CONFIG["cavity"], finesse=-5.0)
    path = write_config(tmp_path, cavity=cavity)
    assert main(["point", "--config", path]) == 1
    assert "cavity.finesse" in capsys.readouterr().err


def test_unknown_key_exit_code(tmp_path, capsys):
    cavity = dict(BASE_CONFIG["cavity"], finess=3e4)
    path = write_config(tmp_path, cavity=cavity)
    assert main(["point", "--config", path]) == 1
    assert "finess" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["point", "--config", str(tmp_path / "missing.json")]) == 1


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["figure", "fig99"]) == 1


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    import optobec.cli as cli
    from optobec import NumericalError

    def boom(spec):
        raise NumericalError("singular covariance system")

    monkeypatch.setattr(cli, "run_sweep", boom)
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "power", "lo": 0.0, "hi": 0.1, "points": 2,
        "mode": "mean_field", "bec": "present"}})
    assert main(["sweep", "--config", path]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_normalized_units_roundtrip(tmp_path, capsys):
    doc = {
        "units": "normalized",
        "cavity": {"length": 1e-3, "wavelength": 1.064e-6, "finesse": 3e4,
                   "detuning": 4.0},
        "mirror": {"mass": 5e-11, "frequency": MIRROR_FREQ, "quality": 1e5,
                   "temperature": 0.4},
        "bec": {"present": True, "coupling": 324.3561130594751 / MIRROR_FREQ,
                "sw_frequency": 1.0, "recoil": 0.1,
                "damping": 31394.192788480885 / MIRROR_FREQ,
                "temperature": 1e-7},
        "drive": {"power": 0.05},
    }
    path = tmp_path / "norm.json"
    path.write_text(json.dumps(doc))
    assert main(["point", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    derived = report["derived_quantities"]
    assert derived["zeta"] == pytest.approx(324.3561130594751, rel=1e-12)
    assert derived["omega_sw"] == pytest.approx(MIRROR_FREQ, rel=1e-12)
    # detuning entered as 4 kappa
    assert report["params"]["cavity"]["detuning"] == pytest.approx(
        4 * derived["kappa"], rel=1e-12)


def test_non_finite_sweep_bound_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "delta_c", "lo": float("-inf"), "hi": 1e8, "points": 3}})
    assert "-Infinity" in open(path).read()
    assert main(["sweep", "--config", path]) == 1
    assert "sweep.lo" in capsys.readouterr().err
    path = write_config(tmp_path, xi_override=float("nan"))
    assert main(["point", "--config", path]) == 1
    assert "xi_override: must be finite" in capsys.readouterr().err


def test_negative_power_sweep_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "power", "lo": -0.1, "hi": 0.1, "points": 3}})
    assert main(["sweep", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "drive.power" in err
    assert "Traceback" not in err


def test_lyapunov_failure_names_point(tmp_path, capsys, monkeypatch):
    import optobec.sweep as sweep
    from optobec import NumericalError

    def boom(a, d):
        raise NumericalError("singular covariance system")

    monkeypatch.setattr(sweep, "solve_lyapunov", boom)
    lo = BASE_CONFIG["cavity"]["detuning"]
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "delta_c", "lo": lo, "hi": 1.5 * lo, "points": 3,
        "mode": "full"}})
    assert main(["sweep", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: base: ")
    assert f"delta_c={lo:.12g}" in err
    assert main(["point", "--config", path]) == 2
    assert "singular covariance system" in capsys.readouterr().err


def test_point_agrees_with_first_sweep_row(tmp_path, capsys):
    lo = BASE_CONFIG["cavity"]["detuning"]
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "delta_c", "lo": lo, "hi": 1.5 * lo, "points": 3,
        "mode": "full"}})
    assert main(["point", "--config", path]) == 0
    branch = json.loads(capsys.readouterr().out)["branches"][0]
    assert main(["sweep", "--config", path, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["value"] == lo
    assert branch["stability"] == row["stability"] == "stable"
    assert branch["measures"] == {key: row[key] for key in branch["measures"]}
    assert len(branch["measures"]) == 5


def test_reused_parser_matches_fresh_processes(tmp_path, capsys):
    """main() builds its parser once; later calls behave as in a new process."""
    path = write_config(tmp_path)
    out = str(tmp_path / "figures")
    requests = [["point", "--config", path], ["frobnicate"],
                ["figure", "fig2a", "--out", out], ["point", "--config", path]]
    src = os.path.dirname(os.path.dirname(optobec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    fresh = {}
    for argv in requests[:3]:
        proc = subprocess.run([sys.executable, "-m", "optobec.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    csv = (tmp_path / "figures" / "fig2a.csv").read_bytes()
    assert [fresh[tuple(argv)][0] for argv in requests[:3]] == [0, 1, 0]

    for argv in requests:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh[tuple(argv)]
    assert (tmp_path / "figures" / "fig2a.csv").read_bytes() == csv


def test_point_derives_once_per_request(tmp_path, capsys, derive_calls):
    path = write_config(tmp_path)
    assert main(["point", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["branches"]
    assert len(derive_calls) == 1


def test_field_map_equals_asdict(reference):
    d = derive_quantities(reference)
    objects = [reference, dataclasses.replace(reference, xi_override=0.5 * d.xi), d,
               *solve_mean_field(reference, delta_c=4.0 * d.kappa, power=0.3)]
    for obj in objects:
        assert _as_dict(obj) == dataclasses.asdict(obj)
