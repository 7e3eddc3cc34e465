import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optobec
from optobec import DriveParams, derive_quantities, figure_preset
from optobec.cli import _parse, _point_report, main
from optobec.config import ConfigError
from optobec.presets import MIRROR_FREQ, baseline_params, reference_kappa
from optobec.sweep import to_json

from oracles import _build_parser

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import point_config  # noqa: E402


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


DATA = os.path.join(os.path.dirname(__file__), "data")

# First 16 hex digits of the sha256 of the `point` report of a config file
# in DATA, or of BASE_CONFIG with these changes, and the label, stability
# and measured flag of each branch.  The CI workflow checks the reports of
# point_bistable.json (BASE_CONFIG at 0.1 W) and point_zero_drive.json
# from the installed script against the same digests.
POINT_LOCK = [
    ("point_bistable.json", "e6beec1e81347ea4",
     [("lower", "stable", True), ("middle", "unstable", False),
      ("upper", "unstable", False)]),
    ({"bec": dict(BASE_CONFIG["bec"], present=False)}, "9926c474f2061f50",
     [("unique", "stable", True)]),
    ({}, "9b05eb6fc00d7a18", [("unique", "stable", True)]),
    ("point_zero_drive.json", "ce73b9e7893e8e93", [("unique", "stable", True)]),
]


@pytest.mark.parametrize("config, digest, branches", POINT_LOCK,
                         ids=["bistable", "no_bec", "stable", "zero_drive"])
def test_point_report_lock(config, digest, branches, tmp_path, capsys):
    path = (os.path.join(DATA, config) if isinstance(config, str)
            else write_config(tmp_path, **config))
    assert main(["point", "--config", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
    report = json.loads(out)["branches"]
    assert [(b["label"], b["stability"], b["measures"] is not None)
            for b in report] == branches
    if isinstance(config, dict) and "bec" in config:
        # no condensate: its displacement is zero
        assert all(b["Q_s"] == b["P_s"] == 0.0 for b in report)


def test_drawn_point_reports_lock(tmp_path, capsys):
    """The `point` reports of 40 configs drawn over the benchmark's `point`
    box, concatenated, keep their bytes."""
    rng = random.Random(1)
    reports = []
    for i in range(40):
        path = tmp_path / f"point_{i:02d}.json"
        path.write_text(json.dumps(point_config(rng)))
        assert main(["point", "--config", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(reports).encode()).hexdigest()
    assert digest[:16] == "ff382d10d263a8f6"


def test_benchmark_point_reports_lock(tmp_path):
    """The reports of the benchmark's 400 seed-1 `point` requests, written
    as the benchmark writes them and concatenated, keep their bytes."""
    rng = random.Random(1)
    digest = hashlib.sha256()
    for i in range(400):
        config, out = tmp_path / f"point_{i:04d}.json", tmp_path / f"report_{i:04d}.json"
        config.write_text(json.dumps(point_config(rng), indent=1) + "\n")
        assert main(["point", "--config", str(config), "--out", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest()[:16] == "34c2607c2caa4790"


def test_report_params_are_a_config(tmp_path, capsys):
    """The ``params`` of a `point` report, written as a config file, give the
    same report: a config section takes exactly the fields a report writes,
    in SI units.  The drawn configs are in normalized units."""
    rng = random.Random(3)
    paths = [os.path.join(DATA, "point_bistable.json"),
             os.path.join(DATA, "point_zero_drive.json")]
    for i in range(40):
        paths.append(tmp_path / f"drawn_{i:02d}.json")
        paths[-1].write_text(json.dumps(point_config(rng)))
    params = tmp_path / "params.json"
    for path in paths:
        assert main(["point", "--config", str(path)]) == 0
        report = capsys.readouterr().out
        params.write_text(json.dumps(json.loads(report)["params"]))
        assert main(["point", "--config", str(params)]) == 0
        assert capsys.readouterr().out == report


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


def test_reports_to_a_text_only_stdout(tmp_path):
    """Without --out, point and sweep write their report as text to a
    sys.stdout that has no byte stream (an io.StringIO), with the bytes they
    write to a file."""
    point, text = os.path.join(DATA, "point_bistable.json"), io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["point", "--config", point]) == 0
    assert hashlib.sha256(text.getvalue().encode()).hexdigest()[:16] == "e6beec1e81347ea4"
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "power", "lo": 0.0, "hi": 0.1, "points": 4, "bec": "both"}})
    for fmt in ("csv", "json"):
        out, text = tmp_path / f"sweep.{fmt}", io.StringIO()
        assert main(["sweep", "--config", path, "--format", fmt, "--out", str(out)]) == 0
        with contextlib.redirect_stdout(text):
            assert main(["sweep", "--config", path, "--format", fmt]) == 0
        assert text.getvalue().encode() == out.read_bytes()


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


def _with(section, **changes):
    """BASE_CONFIG's ``section`` with ``changes``; a change to None drops the key."""
    merged = dict(BASE_CONFIG[section], **changes)
    return {key: value for key, value in merged.items() if value is not None}


SWEEP = {"variable": "power", "lo": 0.0, "hi": 0.1, "points": 2}


@pytest.mark.parametrize("command, doc, message", [
    ("point", {key: value for key, value in BASE_CONFIG.items() if key != "cavity"},
     "cavity: section is required"),
    ("point", dict(BASE_CONFIG, mirror=5), "mirror: must be an object"),
    ("point", dict(BASE_CONFIG, cavity=_with("cavity", length=None)),
     "cavity.length: value is required"),
    ("point", dict(BASE_CONFIG, cavity=_with("cavity", length="1e-3")),
     "cavity.length: must be a number"),
    ("point", dict(BASE_CONFIG, cavity=_with("cavity", length=True)),
     "cavity.length: must be a number"),
    ("point", dict(BASE_CONFIG, units="metric"),
     "units: 'metric' is not one of ('si', 'normalized')"),
    ("point", dict(BASE_CONFIG, bec=_with("bec", present="yes")),
     "bec.present: must be a boolean"),
    ("sweep", dict(BASE_CONFIG, sweep=dict(SWEEP, variable=None)),
     "sweep.variable: value is required"),
    ("sweep", dict(BASE_CONFIG, sweep=dict(SWEEP, points=2.5)),
     "sweep.points: must be an integer"),
    ("sweep", dict(BASE_CONFIG, sweep=dict(SWEEP, points=True)),
     "sweep.points: must be an integer"),
    ("point", [], "config: top-level document must be an object"),
], ids=["no_cavity", "mirror_not_object", "no_length", "length_string",
        "length_bool", "units_metric", "present_string", "no_variable",
        "points_float", "points_bool", "top_level_list"])
def test_config_rejection_message(command, doc, message, tmp_path, capsys):
    """Each malformed config is rejected with exit 1 and exactly its message."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("name, content", [
    ("missing.json", None),
    ("directory", "dir"),
    ("invalid.json", b'{"units": "si",}'),
    ("latin1.json", b'{"\xff": 1}'),
    ("deep.json", b"[" * 100_000 + b"]" * 100_000),
    ("long_int.json", b"1" * 5000),
], ids=["missing", "directory", "invalid_json", "invalid_utf8", "too_deep", "long_int"])
def test_missing_file_exit_code(name, content, tmp_path, capsys):
    """A config file that cannot be read or decoded is an error, exit 1."""
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert main(["point", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config: ")
    assert captured.out == ""


# Each command line with one usage fault and the message it gets (the
# wording of argparse on Python 3.11, which parsed the command line before)
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
                     "(choose from 'point', 'sweep', 'figure', 'threshold')"),
    (["point"], "the following arguments are required: --config"),
    (["point", "--config"], "argument --config: expected one argument"),
    (["point", "--config", "x", "--bogus"], "unrecognized arguments: --bogus"),
    (["threshold", "--config", "a", "--out", "b"], "unrecognized arguments: --out b"),
    (["sweep", "--config", "x", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    (["figure"], "the following arguments are required: ID"),
    (["figure", "fig99"],
     "argument ID: invalid choice: 'fig99' (choose from 'fig2a', 'fig2b', "
     "'fig2c', 'fig2d', 'fig3', 'fig4', 'fig5a', 'fig5b', 'fig5c', 'fig6a', "
     "'fig6b', 'fig6c', 'fig7')"),
]
# Two faults: a missing value or an invalid choice is named where it
# occurs, then a missing required argument, then unrecognized arguments
USAGE_ORDER = [
    (["point", "--bogus"], "the following arguments are required: --config"),
    (["sweep", "--bogus", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
]


def test_usage_error_exit_code(capsys):
    """A command line with a usage fault exits 1 with exactly its message."""
    for argv, message in USAGE_ERRORS + USAGE_ORDER:
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: usage: {message}\n"), argv


# Command-line tokens: the command names and one that is not, flags in
# full, by a prefix and unknown, alone or with =VALUE, and the values.
# -h is left out (it exits) and so is "--": argparse 3.11 drops it before a
# positional and after a figure ID and rejects it elsewhere, while _parse
# takes it as an unrecognized argument wherever it stands.
COMMANDS = ["point", "sweep", "figure", "threshold"]
FLAGS = ["--config", "--out", "--format", "--con", "--o", "--f", "--form", "--bogus"]
VALUES = ["cfg.json", "csv", "json", "xml", "fig2a", "fig99", "-"]
ARGV_TOKENS = st.one_of(
    st.sampled_from(COMMANDS + ["frobnicate"]), st.sampled_from(FLAGS),
    st.sampled_from(VALUES), st.builds("{}={}".format, st.sampled_from(FLAGS),
                                       st.sampled_from(VALUES)))


@st.composite
def command_lines(draw):
    """Up to 6 of ARGV_TOKENS.  Half are drawn token by token; the others
    are a command and its required argument, in any order with up to two
    more flags and their values, so that some lines are accepted."""
    if draw(st.booleans()):
        return draw(st.lists(ARGV_TOKENS, max_size=6))
    command = draw(st.sampled_from(COMMANDS))
    items = [["fig2a"] if command == "figure" else ["--config", draw(st.sampled_from(VALUES))]]
    items += draw(st.lists(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES))
                           .map(list), max_size=2))
    return [command, *sum(draw(st.permutations(items)), [])][:6]


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(command_lines())
def test_parse_accepts_what_argparse_accepts(argv):
    """_parse accepts exactly the command lines that the argparse parser
    it replaced accepts, with the same values, and rejects the others with
    a usage ConfigError."""
    try:
        expected = vars(_build_parser().parse_args(argv))
    except ConfigError:
        with pytest.raises(ConfigError, match="^usage: "):
            _parse(argv)
    else:
        assert _parse(argv) == expected


@pytest.mark.parametrize("argv, canonical", [
    (["threshold", "--config={cfg}"], ["threshold", "--config", "{cfg}"]),
    (["threshold", "--con", "{cfg}"], ["threshold", "--config", "{cfg}"]),
    (["threshold", "--c={cfg}"], ["threshold", "--config", "{cfg}"]),
    (["threshold", "--config", "missing.json", "--config", "{cfg}"],
     ["threshold", "--config", "{cfg}"]),
    (["sweep", "--format", "json", "--config", "{cfg}"],
     ["sweep", "--config", "{cfg}", "--format", "json"]),
    (["sweep", "--fo=json", "--o", "{out}", "--con={cfg}"],
     ["sweep", "--config", "{cfg}", "--out", "{out}", "--format", "json"]),
    (["sweep", "--config", "{cfg}", "--format", "json", "--format", "csv"],
     ["sweep", "--config", "{cfg}"]),
    (["point", "--out", "{out}", "--config", "{cfg}"],
     ["point", "--config", "{cfg}", "--out", "{out}"]),
    (["figure", "--out", "{out}", "fig2a"], ["figure", "fig2a", "--out", "{out}"]),
], ids=["equals", "prefix", "prefix_equals", "repeated_config", "format_first",
        "prefixes_any_order", "repeated_format", "out_first", "figure_out_first"])
def test_accepted_option_forms(argv, canonical, tmp_path, capsys):
    """Each accepted spelling of a command line does what its canonical
    form does: the same exit status, standard streams and written files."""
    path = write_config(tmp_path, extra={"sweep": SWEEP})
    out = tmp_path / "out"

    def run(args):
        code = main([arg.format(cfg=path, out=out) for arg in args])
        files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else [out]
        written = {str(p): p.read_bytes() for p in files if p.exists()}
        for p in written:
            os.remove(p)
        return code, capsys.readouterr(), written

    result = run(canonical)
    assert result[0] == 0
    assert run(argv) == result


@pytest.mark.parametrize("argv, named", [
    (["-h"], ["point", "sweep", "figure", "threshold"]),
    (["--help"], ["point", "sweep", "figure", "threshold"]),
    (["point", "-h"], ["--config", "--out"]),
    (["sweep", "--help"], ["--config", "--out", "--format", "csv", "json"]),
    (["figure", "-h"], ["ID", "--out", "fig2a", "fig7"]),
    (["threshold", "-h"], ["--config"]),
], ids=["top", "top_long", "point", "sweep", "figure", "threshold"])
def test_help_exits_zero(argv, named, capsys):
    """-h prints the usage and each argument to stdout and exits 0."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: optobec")
    assert captured.err == ""
    for word in named:
        assert word in captured.out


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [
        "optobec", "threshold", "--config", os.path.join(DATA, "point_bistable.json")])
    assert main() == 0
    assert capsys.readouterr().out == "61.7818 170.796\n"


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
    # an integer too large for a float
    path = write_config(tmp_path, cavity=dict(BASE_CONFIG["cavity"], finesse=10 ** 400))
    for command in ("point", "threshold"):
        assert main([command, "--config", path]) == 1
        assert "cavity.finesse: must be finite" in capsys.readouterr().err


def test_negative_power_sweep_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "power", "lo": -0.1, "hi": 0.1, "points": 3}})
    assert main(["sweep", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "drive.power" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("points", [10 ** 400, 10 ** 30, 2 ** 63],
                         ids=["10**400", "10**30", "2**63"])
def test_huge_sweep_points_exit_code(points, tmp_path, capsys):
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "delta_c", "lo": 0.0, "hi": 1e8, "points": points}})
    assert main(["sweep", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep.points: must be at most ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, sweep, cavity, field", [
    ("sweep", {"variable": "delta_c", "lo": -1e155, "hi": 1e155}, {}, "sweep.lo"),
    ("sweep", {"variable": "Delta_effective", "lo": -1e155, "hi": 1e155}, {},
     "sweep.lo"),
    ("sweep", {"variable": "delta_c", "lo": -1e308, "hi": 1e308}, {}, "sweep.hi"),
    ("point", None, {"detuning": 1e160}, "cavity.detuning"),
    ("threshold", None, {"detuning": 1e160}, "cavity.detuning"),
], ids=["delta_c_1e155", "Delta_effective_1e155", "delta_c_1e308",
        "point_detuning_1e160", "threshold_detuning_1e160"])
def test_huge_detuning_exit_code(command, sweep, cavity, field, tmp_path, capsys):
    """A detuning whose square overflows is rejected where it enters."""
    extra = sweep and {"sweep": dict(sweep, points=3, mode="full")}
    path = write_config(tmp_path, extra=extra,
                        cavity=dict(BASE_CONFIG["cavity"], **cavity))
    assert main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err


NO_BEC_NORMALIZED = {
    "units": "normalized",
    "cavity": {"length": 1e-3, "wavelength": 1.064e-6, "finesse": 3e4,
               "detuning": 1.0},
    "mirror": {"mass": 5e-11, "frequency": MIRROR_FREQ, "quality": 1e5,
               "temperature": 0.4},
    "drive": {"power": 0.05},
}


# a decoupled condensate section whose damping does not scale with kappa
DECOUPLED_BEC = {"bec": {"present": False, "recoil": 0.1, "damping": 5e-4}}


@pytest.mark.parametrize("command, changes, code, named", [
    ("point", {"xi_override": 1e-100}, 1, "error: xi_override/bec.coupling: "),
    ("point", {"xi_override": 1e-150}, 1, "error: xi_override/bec.coupling: "),
    ("point", {"drive": {"power": 1e285}}, 1, "error: drive.power: "),
    ("sweep", {"sweep": {"variable": "power", "lo": 0.0, "hi": 1e300, "points": 5}},
     1, "error: base: power=2.5e+299: drive.power: "),
    ("point", {"cavity": {"detuning": 1e100}}, 2,
     "numerical failure: mean-field cubic leaves the float range"),
    ("sweep", {"sweep": {"variable": "delta_c", "lo": -1e60, "hi": 1e60,
                         "points": 5}},
     2, "numerical failure: base: delta_c=-3.13941927885e+67: mean-field cubic"),
    ("point", {"xi_override": 1e200}, 1, "error: xi_override: "),
    ("point", {"bec": {"present": True, "coupling": 1e160, "recoil": 0.1,
                       "damping": 5e-4}}, 1, "error: bec.coupling: "),
    ("point", {"xi_override": 1e100}, 1, "error: xi_override/bec.coupling: "),
    ("point", {"bec": {"present": True, "coupling": 1e100, "recoil": 0.1,
                       "damping": 5e-4}}, 1, "error: xi_override/bec.coupling: "),
    ("sweep", {"sweep": {"variable": "xi", "lo": 0.0, "hi": 1e160, "points": 5}},
     1, "error: base: xi=1.57079632679e+167: xi_override: "),
    ("sweep", {"sweep": {"variable": "xi", "lo": 1e60, "hi": 1e100, "points": 5}},
     1, "error: base: xi=1.57079632679e+107: xi_override/bec.coupling: "),
    ("point", {"bec": {"present": True, "coupling": 5.16e-6, "recoil": 0.1,
                       "damping": 1e200}}, 1, "error: bec.damping: "),
    ("point", {"xi_override": 5.16e-21}, 2,
     "numerical failure: mean-field branch n = 0.000000e+00 is off the field "
     "fixed point: |n (Delta^2 + kappa^2) - eta^2| = 1.682e+25 exceeds"),
    ("point", {"xi_override": 5.16e-18}, 2,
     "numerical failure: mean-field branch n = 8.530248e+09 is off the field "
     "fixed point: |n (Delta^2 + kappa^2) - eta^2| = 9.268e+20 exceeds"),
    ("sweep", {"sweep": {"variable": "xi", "lo": 0.0, "hi": 1e-20, "points": 5}},
     2, "numerical failure: base: xi=1.57079632679e-13: mean-field branch n = "
        "0.000000e+00 is off the field fixed point"),
    ("point", {"cavity": {"finesse": 1e-160, "detuning": 0.0},
                **DECOUPLED_BEC}, 1,
     "error: cavity.length/cavity.finesse: "),
    ("threshold", {"cavity": {"finesse": 1e-160, "detuning": 0.0},
                **DECOUPLED_BEC}, 1,
     "error: cavity.length/cavity.finesse: "),
    ("point", {"cavity": {"length": 1e-170, "detuning": 0.0},
                **DECOUPLED_BEC}, 1,
     "error: cavity.length/cavity.finesse: "),
    ("point", {"cavity": {"length": 1e305}}, 1,
     "error: cavity.length/cavity.finesse: "),
    ("threshold", {"cavity": {"length": 1e305}}, 1,
     "error: cavity.length/cavity.finesse: "),
    ("point", {"mirror": {"mass": 1e-320}}, 1,
     "error: cavity.length/mirror.mass/mirror.frequency: "),
    ("threshold", {"mirror": {"mass": 1e-320}}, 1,
     "error: cavity.length/mirror.mass/mirror.frequency: "),
    ("point", {"mirror": {"frequency": 1e-320}}, 1,
     "error: cavity.length/mirror.mass/mirror.frequency: "),
    ("point", {"mirror": {"frequency": 1e300}}, 1, "error: mirror.frequency: "),
    ("threshold", {"mirror": {"frequency": 1e300}}, 1, "error: mirror.frequency: "),
    ("point", {"cavity": {"wavelength": 1e300}}, 1, "error: cavity.wavelength: "),
    ("point", {"mirror": {"temperature": 1e-320}}, 0, ""),
    ("point", {"bec": {"present": True, "coupling": 5.16e-6, "recoil": 0.1,
                       "damping": 5e-4, "temperature": 1e-320}}, 0, ""),
    ("point", {"mirror": {"temperature": 1e300}}, 2,
     "numerical failure: covariance leaves the float range: "),
    ("point", {"mirror": {"frequency": 1e-320}, "xi_override": 1e-3}, 1,
     "error: mirror.frequency/mirror.temperature: "),
    ("sweep", {"mirror": {"frequency": 1e-320},
               "sweep": {"variable": "xi", "lo": 0.0, "hi": 600.0, "points": 5}},
     1, "error: base: xi=0: mirror.frequency/mirror.temperature: "),
    ("point", {"bec": {"present": True, "coupling": 5.16e-6, "recoil": 1e-100,
                       "damping": 5e-4, "temperature": 1e300}}, 1,
     "error: bec.recoil/bec.sw_frequency/bec.temperature: "),
    ("point", {"bec": {"present": True, "coupling": 5.16e-6, "recoil": 1e-320,
                       "damping": 5e-4}}, 1, "error: bec.recoil/bec.damping: "),
    ("point", {"bec": {"present": True, "coupling": 5.16e-6, "recoil": 1e-160,
                       "damping": 1e90}}, 1, "error: bec.recoil/bec.damping: "),
], ids=["xi_1e-100", "xi_1e-150", "power_1e285", "power_sweep_1e300",
        "detuning_1e100", "delta_c_sweep_1e60", "xi_1e200", "coupling_1e160",
        "xi_1e100", "coupling_1e100", "xi_sweep_1e160", "xi_sweep_1e100",
        "damping_1e200", "weak_pull_5.16e-21", "weak_pull_5.16e-18",
        "weak_pull_xi_sweep_1e-20", "finesse_1e-160", "threshold_finesse_1e-160",
        "length_1e-170", "length_1e305", "threshold_length_1e305",
        "mass_1e-320", "threshold_mass_1e-320",
        "mirror_frequency_1e-320", "mirror_frequency_1e300",
        "threshold_mirror_frequency_1e300", "wavelength_1e300",
        "mirror_temperature_1e-320", "bec_temperature_1e-320",
        "mirror_temperature_1e300", "xi_at_mirror_frequency_1e-320",
        "xi_sweep_at_mirror_frequency_1e-320", "bec_temperature_1e300_recoil_1e-100",
        "recoil_1e-320", "recoil_1e-160_damping_1e90"])
def test_out_of_range_pull_drive_and_detuning(command, changes, code, named,
                                              tmp_path, capsys):
    """A pull whose square, or whose beta^2, underflows or overflows, an
    overflowing drive, and a kappa, xi, omega_m or photon energy that the
    solvers cannot square or divide by, or a kappa of 0 from an L F that
    overflows, are rejected where they enter (a
    sweep names its first failing value); a cubic that overflows, a weak
    pull whose root the closed form loses (a branch off the field fixed
    point), or a covariance whose determinants leave the float range is a
    numerical failure naming its value.  A bath so cold that k_B T
    underflows has no thermal occupation, and the point is reported; a mode
    whose hbar omega/(k_B T) is too small for a finite occupation, or a
    condensate whose Omega_c is too small to divide gamma_c or gamma_c^2
    by, is rejected with the fields that set it."""
    doc = json.loads(json.dumps(NO_BEC_NORMALIZED))
    for key, value in changes.items():
        if key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(named)
    assert "Traceback" not in captured.err
    assert (captured.out == "") == (code != 0)


def test_cubic_overflow_file_is_the_1e60_sweep(tmp_path, capsys):
    """sweep_cubic_overflow.json, which CI runs through the installed
    script, is the delta_c_sweep_1e60 case above and fails as it does."""
    path = os.path.join(DATA, "sweep_cubic_overflow.json")
    with open(path) as handle:
        assert json.load(handle) == dict(NO_BEC_NORMALIZED, sweep={
            "variable": "delta_c", "lo": -1e60, "hi": 1e60, "points": 5})
    assert main(["sweep", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(
        "numerical failure: base: delta_c=-3.13941927885e+67: mean-field cubic")


def test_weak_pull_file_is_the_xi_5e_21_point(tmp_path, capsys):
    """point_weak_pull.json, which CI runs through the installed script, is
    the weak_pull_5.16e-21 case above and fails as it does."""
    path = os.path.join(DATA, "point_weak_pull.json")
    with open(path) as handle:
        assert json.load(handle) == dict(NO_BEC_NORMALIZED, xi_override=5.16e-21)
    assert main(["point", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(
        "numerical failure: mean-field branch n = 0.000000e+00 is off the field "
        "fixed point")


@pytest.mark.parametrize("name, changes, named", [
    ("point_tiny_frequency_xi.json",
     {"mirror": {"frequency": 1e-320}, "xi_override": 1e-3},
     "error: mirror.frequency/mirror.temperature: "),
    ("point_tiny_recoil.json", {"bec": {"recoil": 1e-320}},
     "error: bec.recoil/bec.damping: "),
])
def test_underflowing_rate_files(name, changes, named, capsys):
    """The files CI runs through the installed script: point_bistable.json
    with a mirror frequency of 1e-320 rad/s under an explicit xi, whose
    thermal occupation is not finite, and with a condensate recoil of
    1e-320 rad/s, whose Omega_c gamma_c cannot be divided by; both exit 1
    with the fields named."""
    with open(os.path.join(DATA, "point_bistable.json")) as handle:
        expected = json.load(handle)
    for key, value in changes.items():
        if isinstance(value, dict):
            expected[key] = dict(expected[key], **value)
        else:
            expected[key] = value
    path = os.path.join(DATA, name)
    with open(path) as handle:
        assert json.load(handle) == expected
    assert main(["point", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(named) and captured.out == ""


@pytest.mark.parametrize("command", ["point", "threshold"])
def test_overflowing_cavity_file(command, capsys):
    """point_overflowing_cavity.json, which CI runs through the installed
    script, is point_bistable.json with a cavity length of 1e305 m: L F
    overflows, which would make kappa = pi c / (L F) = 0, so both commands
    exit 1 with the fields named."""
    with open(os.path.join(DATA, "point_bistable.json")) as handle:
        expected = json.load(handle)
    expected["cavity"]["length"] = 1e305
    path = os.path.join(DATA, "point_overflowing_cavity.json")
    with open(path) as handle:
        assert json.load(handle) == expected
    assert main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cavity.length/cavity.finesse: ")
    assert captured.out == ""


def test_tiny_mirror_frequency_file_is_its_row(tmp_path, capsys):
    """point_tiny_mirror_frequency.json, which CI runs through the installed
    script, is the mirror_frequency_1e-320 case above and fails as it does."""
    path = os.path.join(DATA, "point_tiny_mirror_frequency.json")
    with open(path) as handle:
        assert json.load(handle) == dict(NO_BEC_NORMALIZED, mirror=dict(
            NO_BEC_NORMALIZED["mirror"], frequency=1e-320))
    assert main(["point", "--config", path]) == 1
    assert capsys.readouterr().err.startswith(
        "error: cavity.length/mirror.mass/mirror.frequency: ")


@pytest.mark.parametrize("command, sweep", [
    ("point", None),
    ("sweep", {"variable": "delta_c", "lo": 0.0, "hi": 1e9, "points": 3}),
], ids=["point_1e9_kappa", "delta_c_sweep_1e9_kappa"])
def test_undriven_cavity_has_one_empty_branch(command, sweep, tmp_path, capsys):
    """Without drive n = 0 is the one mean-field branch, far off resonance
    too.  point_zero_drive.json, which CI runs through the installed
    script, is the no-condensate config undriven at 1e9 kappa; a delta_c
    sweep up to it gives one unique n = 0 branch at each of its points."""
    path = os.path.join(DATA, "point_zero_drive.json")
    with open(path) as handle:
        doc = json.load(handle)
    assert doc == dict(NO_BEC_NORMALIZED, drive={"power": 0.0}, cavity=dict(
        NO_BEC_NORMALIZED["cavity"], detuning=1e9))
    if sweep is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(doc, sweep=sweep)))
    format_ = ["--format", "json"] if sweep else []
    assert main([command, "--config", str(path), *format_]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    if sweep is None:
        branches, points = [(b["label"], b["n"]) for b in report["branches"]], 1
    else:
        branches = [(row["branch"], row["n"]) for row in report["rows"]]
        points = sweep["points"]
    assert branches == [("unique", 0.0)] * points


@pytest.mark.parametrize("command, sweep, named", [
    ("point", None,
     "numerical failure: characteristic polynomial leaves the float range"),
    ("sweep", {"variable": "omega_sw", "lo": 0.0, "hi": 1e290, "points": 5,
               "mode": "full"},
     "numerical failure: base: omega_sw=1.57079632679e+297, branch unique: "
     "characteristic polynomial leaves the float range"),
], ids=["point_sw_1e290", "omega_sw_sweep_1e290"])
def test_overflowing_characteristic_polynomial_exit_code(command, sweep, named,
                                                         tmp_path, capsys):
    """A collisional frequency whose characteristic polynomial leaves the
    float range is a numerical failure, not an `unstable` verdict; a sweep
    names its first failing value and branch."""
    doc = dict(NO_BEC_NORMALIZED, bec={
        "present": True, "coupling": 5.16e-6, "recoil": 0.1, "damping": 5e-4,
        "sw_frequency": 1e290})
    if sweep is not None:
        doc["sweep"] = sweep
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == named + "\n"
    assert captured.out == ""


def test_decoupled_huge_sw_frequency_file(capsys):
    """point_decoupled_huge_sw.json, which CI runs through the installed
    script, is point_bistable.json with a decoupled condensate whose
    collisional frequency is 1e290 rad/s.  The condensate factor of the
    characteristic polynomial leaves the float range, although zeta = 0
    decouples it, so the point exits 2 with the whole verdict lost; a
    verdict that factors out the decoupled condensate would report it."""
    with open(os.path.join(DATA, "point_bistable.json")) as handle:
        expected = json.load(handle)
    expected["bec"] = {"present": False, "sw_frequency": 1e290}
    path = os.path.join(DATA, "point_decoupled_huge_sw.json")
    with open(path) as handle:
        assert json.load(handle) == expected
    assert main(["point", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: characteristic polynomial "
                            "leaves the float range\n")
    assert captured.out == ""


@pytest.mark.parametrize("units", ["normalized", "si"])
def test_decoupled_bec_section_equals_omitted_section(units, tmp_path, capsys):
    """A ``bec`` section with ``present: false`` that leaves out recoil and
    damping gives the report of the same config without the section."""
    if units == "normalized":
        doc = dict(NO_BEC_NORMALIZED,
                   cavity=dict(NO_BEC_NORMALIZED["cavity"], detuning=4.0))
    else:
        doc = {key: value for key, value in BASE_CONFIG.items() if key != "bec"}
    reports = []
    for section in ({}, {"bec": {"present": False}}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(doc, **section)))
        assert main(["point", "--config", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert [branch["stability"] for branch in json.loads(reports[0])["branches"]
            ] == ["stable"]


def _singular_covariance(a, d):
    raise optobec.NumericalError("singular covariance system")


def _zero_covariance(a, d):
    return np.zeros_like(a)


@pytest.mark.parametrize("fake, message", [
    (_singular_covariance, "singular covariance system"),
    (_zero_covariance, "covariance is not physical"),
], ids=["raising", "zero_covariance"])
def test_lyapunov_failure_names_point(fake, message, tmp_path, capsys, monkeypatch):
    import optobec.sweep as sweep

    monkeypatch.setattr(sweep, "solve_lyapunov", fake)
    lo = BASE_CONFIG["cavity"]["detuning"]
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "delta_c", "lo": lo, "hi": 1.5 * lo, "points": 3,
        "mode": "full"}})
    assert main(["sweep", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: base: ")
    assert f"delta_c={lo:.12g}" in err
    assert message in err
    assert main(["point", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert message in err


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
    """main() keeps no state between calls: each behaves as in a new process."""
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


@pytest.mark.parametrize("command", ["point", "threshold"])
def test_point_derives_once_per_request(command, tmp_path, capsys, derive_calls):
    path = write_config(tmp_path)
    assert main([command, "--config", path]) == 0
    out = capsys.readouterr().out
    if command == "point":
        assert json.loads(out)["branches"]
    else:
        assert len(out.split()) == 2   # the two knee powers
    assert len(derive_calls) == 1


def test_field_map_equals_asdict(reference):
    """to_json writes a dataclass instance as the dict of its fields; a
    dataclass class is not a value it encodes."""
    d = derive_quantities(reference)
    # a tuple of nested dataclasses, as in a sweep description, becomes a list
    spec = figure_preset("fig2a")
    assert len(spec.variants) == 4
    for obj in (reference, dataclasses.replace(reference, xi_override=0.5 * d.xi), d,
                spec):
        assert to_json(obj) == to_json(dataclasses.asdict(obj))
    with pytest.raises(TypeError):
        to_json({"params": optobec.SystemParams})


def test_point_displacements_follow_photon_number():
    """The mirror and condensate displacements of every branch of a point
    report follow from its photon number; p_s is 0, and so are Q_s and P_s
    without a condensate."""
    rng = np.random.default_rng(7)
    for present in (True, False):
        params = baseline_params(sw_frequency=0.5 * MIRROR_FREQ, bec_present=present)
        for _ in range(40):
            detuning = rng.uniform(-2, 8) * reference_kappa()
            params = dataclasses.replace(
                params, drive=DriveParams(power=rng.uniform(1e-4, 0.5)),
                cavity=dataclasses.replace(params.cavity, detuning=detuning))
            d = derive_quantities(params)
            for b in _point_report(params)["branches"]:
                assert b["q_s"] == pytest.approx((d.xi / d.omega_m) * b["n"], rel=1e-14)
                assert b["p_s"] == 0.0
                if present:
                    expected_qc = -d.zeta * b["n"] / (d.Omega_c + d.omega_sw
                                                      + d.gamma_c ** 2 / d.Omega_c)
                    assert b["Q_s"] == pytest.approx(expected_qc, rel=1e-14)
                    assert b["P_s"] == pytest.approx(
                        (d.gamma_c / d.Omega_c) * b["Q_s"], rel=1e-14)
                else:
                    assert b["Q_s"] == b["P_s"] == 0.0
    decoupled = dataclasses.replace(baseline_params(power=0.02, bec_present=False),
                                    xi_override=0.0)
    (branch,) = _point_report(decoupled)["branches"]
    assert branch["q_s"] == branch["p_s"] == branch["Q_s"] == branch["P_s"] == 0.0


@pytest.mark.parametrize("command, out", [
    ("figure", ""),
    ("point", "missing/report.json"),
    ("sweep", "missing/rows.csv"),
], ids=["figure_empty", "point_missing_dir", "sweep_missing_dir"])
def test_unwritable_output_exit_code(command, out, tmp_path, capsys):
    """An output path that cannot be made or written is an error, exit 1."""
    path = write_config(tmp_path, extra={"sweep": {
        "variable": "power", "lo": 0.0, "hi": 0.1, "points": 3}})
    argv = ["fig3"] if command == "figure" else ["--config", path]
    assert main([command, *argv, "--out", out and str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: output: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
