"""Robustness grid of ``optobec point``: every numeric config field, and
``xi_override``, over the whole float range, on two base configs.

Each run goes through ``cli.main`` in-process with every warning an error.
The contract, for every run:

* the exit status is 0, 1 or 2, and no exception leaves ``main``;
* exit 1 names a config field;
* exit 0 writes only finite numbers, with kappa > 0, and every stable branch
  has E_N >= 0 in all three splits;
* every set of branches ``main`` evaluates gets from the Python-float lane
  of ``evaluate_branches`` the verdicts, measure bits or error that the
  numpy columns give it.

Runs that hit a known defect are strict ``xfail`` rows naming it, so they
flip when it is mended.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import warnings

import pytest

import optobec.cli
from optobec.model import BecParams, CavityParams, DriveParams, MirrorParams
from optobec.sweep import evaluate_branches

from test_properties import _evaluated

DATA = os.path.join(os.path.dirname(__file__), "data")

VALUES = (0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e-200, 1e-150, 1e-100, 1e-30, 1e-10,
          1e-3, 1.0, 1e3, 1e10, 1e30, 1e100, 1e150, 1e200, 1e300, 1.7e308)

with open(os.path.join(DATA, "point_bistable.json")) as handle:
    SI = json.load(handle)
# the `normalized` example of the README, without its sweep section
NORMALIZED = {
    "units": "normalized",
    "cavity": {"length": 1e-3, "wavelength": 1.064e-6, "finesse": 3e4, "detuning": 4.0},
    "mirror": {"mass": 5e-11, "frequency": 6.2832e7, "quality": 1e5, "temperature": 0.4},
    "bec": {"present": True, "coupling": 5.16e-6, "sw_frequency": 1.0,
            "recoil": 0.1, "damping": 5e-4, "temperature": 1e-7},
    "drive": {"power": 0.05},
}
BASES = {"si": SI, "normalized": NORMALIZED}

FIELDS = [f"{section}.{field.name}" for section, params in (
    ("cavity", CavityParams), ("mirror", MirrorParams), ("bec", BecParams),
    ("drive", DriveParams)) for field in dataclasses.fields(params)
    if field.type == "float"] + ["xi_override"]

# exit 1 names the fields that set the rejected value
NAMED_FIELD = re.compile(r"error: (xi_override|[a-z]+\.[a-z_]+)(/(xi_override|[a-z]+\.[a-z_]+))*: ")

# Runs that exit 2 because the closed-form mean-field cubic loses the small
# root of a weak pull, far off resonance or at a tiny drive (ROADMAP item 3):
# its branch fails the field fixed-point check.  Mended, they report it.
LOST_ROOT = [("si", "drive.power", v) for v in VALUES[2:9]] + [
    ("normalized", "drive.power", v) for v in VALUES[2:9]] + [
    ("normalized", "cavity.finesse", 1e-30), ("normalized", "cavity.finesse", 1e-10),
    ("normalized", "cavity.detuning", 1e10), ("normalized", "cavity.detuning", 1e30)]


def _config(base, field, value):
    doc = copy.deepcopy(BASES[base])
    section, _, key = field.rpartition(".")
    (doc[section] if section else doc)[key] = value
    return doc


def _run_point(doc, tmp_path, monkeypatch):
    """``(exit status, stdout, stderr)`` of ``optobec point`` on ``doc``,
    with every warning an error and both lanes compared on every set of
    branches it evaluates."""
    def both_lanes(branches, d, full=False):
        assert _evaluated(branches, d) == _evaluated(branches, [d])
        return evaluate_branches(branches, d, full)

    monkeypatch.setattr(optobec.cli, "evaluate_branches", both_lanes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = optobec.cli.main(["point", "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def _numbers(x):
    if isinstance(x, dict):
        for value in x.values():
            yield from _numbers(value)
    elif isinstance(x, list):
        for value in x:
            yield from _numbers(value)
    elif isinstance(x, float):
        yield x


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("field", FIELDS)
def test_point_contract_over_the_float_range(base, field, tmp_path, monkeypatch):
    for value in VALUES:
        code, out, err = _run_point(_config(base, field, value), tmp_path, monkeypatch)
        assert code in (0, 1, 2), value
        assert (out == "") == (code != 0), value
        if code == 1:
            assert NAMED_FIELD.match(err), (value, err)
        if code == 0:
            assert err == ""
            report = json.loads(out, parse_constant=float)   # NaN, Infinity
            assert all(math.isfinite(x) for x in _numbers(report)), value
            assert report["derived_quantities"]["kappa"] > 0.0
            for branch in report["branches"]:
                if branch["stability"] == "stable":
                    assert min(v for k, v in branch["measures"].items()
                               if k.startswith("e_n_")) >= 0.0, value


@pytest.mark.parametrize("base, field, value", [
    pytest.param(*row, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 3: the cubic loses a weak pull's small root"))
    for row in LOST_ROOT])
def test_point_reports_known_defect_rows(base, field, value, tmp_path, monkeypatch):
    code, _, err = _run_point(_config(base, field, value), tmp_path, monkeypatch)
    assert code == 0, err
