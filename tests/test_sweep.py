import ast
import collections
import dataclasses
import hashlib
import itertools
import io
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

from optobec import (ParameterError, SweepSpec, SweepTable, Variant,
                     bistability_window, derive_quantities, emit,
                     evaluate_branches, figure_preset, run_sweep,
                     solve_mean_field)
from optobec.cli import main
from optobec.presets import (FIGURE_IDS, MIRROR_FREQ, baseline_params,
                             reference_kappa, reference_xi)
from optobec.sweep import (CSV_COLUMNS, _expand_configs, _point_params,
                           _sweep_branches, report_dict, rows_to_csv, to_json)

import oracles

# First 16 hex digits of the sha256 of each distinct preset's CSV; any
# change to these bytes must be deliberate.
PRESET_LOCK = {
    "fig2a": "5838edcb40d8d03f",
    "fig2b": "dfc5087081784c6f",
    "fig2c": "416b7a96fbfcd419",
    "fig2d": "ae5f9a7afc55cf93",
    "fig3": "8ce409c1a4a99f15",
    "fig4": "7df545e1f8d21458",
    "fig5a": "da6fcac3358e18b9",
    "fig5b": "db8c194af27cddf7",
    "fig5c": "169eca570d3fcb9e",
    "fig7": "86d4a0b346f1af62",
}


def lorentzian_params():
    params = baseline_params(power=0.01, bec_present=False)
    return dataclasses.replace(params, xi_override=0.0)


def test_trivial_two_point_sweep():
    params = lorentzian_params()
    d = derive_quantities(params)
    spec = SweepSpec(variable="delta_c", lo=0.0, hi=d.kappa, points=2,
                     params=params)
    rows = run_sweep(spec)
    assert len(rows) == 2
    assert rows.branch == ["unique", "unique"]
    for n, delta_c in zip(rows.n, (0.0, d.kappa)):
        assert n == pytest.approx(d.eta ** 2 / (delta_c ** 2 + d.kappa ** 2),
                                  rel=1e-12)
    assert rows.measures == [None, None]  # mean-field mode carries no measures


def test_spec_validation_names_fields():
    params = lorentzian_params()
    with pytest.raises(ParameterError, match="sweep.points"):
        SweepSpec(variable="power", lo=0.0, hi=1.0, points=1, params=params)
    with pytest.raises(ParameterError, match="sweep.lo"):
        SweepSpec(variable="power", lo=1.0, hi=0.0, points=5, params=params)
    with pytest.raises(ParameterError, match="sweep.variable"):
        SweepSpec(variable="voltage", lo=0.0, hi=1.0, points=5, params=params)
    with pytest.raises(ParameterError, match="sweep.mode"):
        SweepSpec(variable="power", lo=0.0, hi=1.0, points=5, params=params,
                  mode="quick")
    with pytest.raises(ParameterError, match="sweep.bec"):
        SweepSpec(variable="power", lo=0.0, hi=1.0, points=5, params=params,
                  bec="maybe")


def test_branch_count_transitions_per_configuration(preset_rows):
    """Every fig2d configuration turns three-valued exactly inside its own window."""
    from optobec import bistability_window

    spec = figure_preset("fig2d")
    rows = preset_rows("fig2d")
    kappa = reference_kappa()
    for variant in spec.variants:
        counts = collections.Counter(
            value for config, value in zip(rows.config, rows.value)
            if config == variant.label)
        values = sorted(counts)
        window = bistability_window(variant.params, 4.0 * kappa)
        spacing = values[1] - values[0]
        saw_three = False
        for v in values:
            # knife-edge grid points may legitimately sit on a knee
            if min(abs(v - window.power_low), abs(v - window.power_high)) < 2 * spacing:
                continue
            expected = 3 if window.power_low < v < window.power_high else 1
            assert counts[v] == expected, (variant.label, v, window)
            saw_three = saw_three or expected == 3
        assert saw_three, f"{variant.label}: sweep range misses the window"


def test_fig2d_threshold_ordering():
    """Onsets: no condensate highest, collisions raise it back toward that."""
    kappa = reference_kappa()
    spec = figure_preset("fig2d")
    by_label = {v.label: v.params for v in spec.variants}
    onset = {label: bistability_window(p, 4.0 * kappa).power_low
             for label, p in by_label.items()}
    assert onset["sw_0.0"] < onset["sw_0.5"] < onset["sw_1.0"] < onset["no_bec"]


def test_delta_effective_sweep_bypasses_cubic():
    params = baseline_params(power=0.05, sw_frequency=2.0 * MIRROR_FREQ)
    d = derive_quantities(params)
    spec = SweepSpec(variable="Delta_effective", lo=0.0, hi=3.0 * d.omega_m,
                     points=7, params=params, mode="full")
    rows = run_sweep(spec)
    assert len(rows) == 7
    assert rows.branch == ["unique"] * 7
    assert rows.Delta == rows.value
    for value, n, stability, measure in zip(rows.value, rows.n, rows.stability,
                                            rows.measures):
        assert n == pytest.approx(d.eta ** 2 / (value ** 2 + d.kappa ** 2), rel=1e-12)
        if stability == "stable":
            assert measure is not None


def test_unstable_rows_carry_flag_and_empty_measures(cooling_runs):
    rows = cooling_runs["fig5c"]
    stable = [stability == "stable" for stability in rows.stability]
    assert not all(stable), "fig5c is expected to contain an unstable detuning range"
    for name in ("delta_n_m", "e_n_mirror_field"):
        assert [x is not None for x in oracles.column(rows, name)] == stable


def test_measure_continuity_along_stable_runs(cooling_runs):
    """No measure jumps between adjacent stable grid points."""
    rows = cooling_runs["fig5a"]
    series = np.array([x for config, stability, x in zip(
        rows.config, rows.stability, oracles.column(rows, "delta_n_m"))
        if config == "base/bec" and stability == "stable"])
    jumps = np.abs(np.diff(series))
    floor = 1e-9 * np.abs(series).max()
    for i in range(1, len(jumps) - 1):
        local = max(jumps[i - 1], jumps[i + 1], floor)
        assert jumps[i] <= 10.0 * local


def test_sweep_variables_omega_sw_and_xi():
    params = baseline_params(power=0.02, detuning=0.5 * reference_kappa())
    spec = SweepSpec(variable="omega_sw", lo=0.0, hi=2.0 * MIRROR_FREQ,
                     points=5, params=params)
    rows = run_sweep(spec)
    assert len(rows) == 5
    assert len(set(rows.n)) == 5  # collisions shift the pull, photon number responds

    spec = SweepSpec(variable="xi", lo=0.0, hi=2 * reference_xi(),
                     points=5, params=params.without_bec())
    rows = run_sweep(spec)
    assert rows.n[0] > 0.0
    assert len(rows) == 5


def test_emit_csv_deterministic(tmp_path):
    spec = dataclasses.replace(figure_preset("fig2d"), points=25)
    rows = run_sweep(spec)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    n1 = emit(rows, "csv", first, spec=spec)
    n2 = emit(run_sweep(spec), "csv", second, spec=spec)
    assert n1 == n2
    assert first.read_bytes() == second.read_bytes()


def test_emit_csv_format():
    text = rows_to_csv(oracles.sweep_table([]))
    assert text == ("config,value,branch,n,alpha,Delta,stability,degenerate,"
                    "delta_n_m,delta_n_c,e_n_mirror_field,e_n_atom_field,"
                    "e_n_mirror_atom\n")
    spec = SweepSpec(variable="delta_c", lo=0.0, hi=1e6, points=2,
                     params=lorentzian_params())
    text = rows_to_csv(run_sweep(spec))
    lines = text.split("\n")
    assert lines[-1] == ""
    assert "\r" not in text
    payload = lines[1].split(",")
    n_field = payload[3]
    assert len(n_field.replace(".", "").replace("e", "").replace("-", "").replace("+", "")) <= 13


def test_emit_json_report_schema(tmp_path):
    params = baseline_params(power=0.05, sw_frequency=2.0 * MIRROR_FREQ)
    spec = SweepSpec(variable="Delta_effective", lo=MIRROR_FREQ,
                     hi=1.2 * MIRROR_FREQ, points=2, params=params, mode="full")
    rows = run_sweep(spec)
    buffer = io.BytesIO()
    emit(rows, "json", buffer, spec=spec)
    doc = json.loads(buffer.getvalue())
    assert set(doc) == {"rows", "spec", "derived_quantities"}
    assert doc["spec"]["variable"] == "Delta_effective"
    row = doc["rows"][0]
    for key in ("delta_n_m", "delta_n_c", "e_n_mirror_field",
                "e_n_atom_field", "e_n_mirror_atom"):
        assert key in row and row[key] is not None


def test_emit_rejects_unknown_format():
    with pytest.raises(ParameterError, match="format"):
        emit([], "xml", io.BytesIO())


def test_bec_both_expansion():
    spec = figure_preset("fig5a")
    rows = run_sweep(dataclasses.replace(spec, points=3))
    assert set(rows.config) == {"base/bec", "base/no_bec"}


@pytest.mark.parametrize("fig_id", sorted(PRESET_LOCK))
def test_preset_csv_lock(fig_id, preset_rows):
    digest = hashlib.sha256(rows_to_csv(preset_rows(fig_id)).encode()).hexdigest()[:16]
    assert digest == PRESET_LOCK[fig_id]


def test_fig6_presets_are_fig5_sweeps():
    for part in "abc":
        assert figure_preset(f"fig6{part}") == figure_preset(f"fig5{part}")


# First 16 hex digits of the sha256 of each preset's SweepSpec written by
# to_json: every field of the spec, its variants and their parameters, with
# no sweep run.  fig6a-c are the fig5a-c sweeps.
PRESET_SPEC_LOCK = {
    "fig2a": "62f30c013d693763",
    "fig2b": "ecb90d6988b741f1",
    "fig2c": "18c8368293bd1bd7",
    "fig2d": "e3e83e519c4429cd",
    "fig3": "151c67d78ded36b7",
    "fig4": "4b30db452ec97df6",
    "fig5a": "6901defd0751a02e",
    "fig5b": "e6d25d7be00daed7",
    "fig5c": "c49fffac98fb8bbd",
    "fig6a": "6901defd0751a02e",
    "fig6b": "e6d25d7be00daed7",
    "fig6c": "c49fffac98fb8bbd",
    "fig7": "04719b26dd7e19b0",
}


def test_preset_spec_lock():
    assert sorted(PRESET_SPEC_LOCK) == sorted(FIGURE_IDS)
    for fig_id, digest in PRESET_SPEC_LOCK.items():
        text = to_json(figure_preset(fig_id))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, fig_id


def test_failing_point_is_named(monkeypatch):
    import optobec.sweep as sweep
    from optobec import NumericalError

    def boom(a, d):
        raise NumericalError("singular covariance system")

    monkeypatch.setattr(sweep, "solve_lyapunov", boom)
    params = baseline_params(power=0.05, sw_frequency=2.0 * MIRROR_FREQ)
    spec = SweepSpec(variable="Delta_effective", lo=MIRROR_FREQ,
                     hi=1.2 * MIRROR_FREQ, points=2, params=params, mode="full")
    with pytest.raises(NumericalError,
                       match=f"base: Delta_effective={MIRROR_FREQ:.12g}, "
                             "branch unique: singular covariance system"):
        run_sweep(spec)

    spec = SweepSpec(variable="power", lo=-0.1, hi=0.1, points=3,
                     params=baseline_params(), bec="absent")
    with pytest.raises(ParameterError, match=r"^base: power=-0\.1: drive\.power"):
        run_sweep(spec)


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_presets_well_formed(fig_id):
    spec = figure_preset(fig_id)
    assert spec.points >= 2
    assert spec.lo < spec.hi


def test_preset_catalogue_details():
    with pytest.raises(ParameterError, match="unknown preset"):
        figure_preset("fig99")

    fig4 = figure_preset("fig4")
    assert fig4.variable == "power"
    assert [v.params.xi_override for v in fig4.variants] == [0.0, 330.0, 660.0]
    assert all(v.params.bec.coupling == 330.0 for v in fig4.variants)
    assert fig4.params.cavity.detuning == pytest.approx(5 * reference_kappa())

    fig5b = figure_preset("fig5b")
    assert fig5b.bec == "both"
    assert fig5b.mode == "full"
    assert fig5b.params.bec.sw_frequency == pytest.approx(MIRROR_FREQ)

    fig2a = figure_preset("fig2a")
    assert fig2a.variable == "delta_c"
    assert fig2a.params.drive.power == pytest.approx(0.010)
    labels = [v.label for v in fig2a.variants]
    assert labels == ["no_bec", "sw_0.0", "sw_0.5", "sw_1.0"]

    fig3 = figure_preset("fig3")
    assert fig3.params.cavity.detuning == pytest.approx(3 * reference_kappa())
    assert [v.params.bec.sw_frequency for v in fig3.variants] == \
        pytest.approx([0.01 * MIRROR_FREQ, MIRROR_FREQ])


def bistable_full_sweep():
    """Full-mode delta_c sweep across the three-branch window of 50 mW, with
    and without the condensate."""
    kappa = reference_kappa()
    return SweepSpec(variable="delta_c", lo=-2.0 * kappa, hi=8.0 * kappa,
                     points=150, params=baseline_params(power=0.05), mode="full",
                     bec="both")


def assert_same_float(x, y):
    assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y), (x, y)


@pytest.mark.parametrize("spec", [figure_preset("fig7"), bistable_full_sweep()],
                         ids=["fig7", "bistable_delta_c"])
def test_batch_equals_single_rows(spec):
    """Every row of a sweep's stacked evaluation, all configurations in one
    stack, is bit-equal to the row on its own with its configuration's d."""
    values = [float(v) for v in np.linspace(spec.lo, spec.hi, spec.points)]
    ds, branches = _sweep_branches(spec.variable, values, _expand_configs(spec))
    assert len(set(branches.group.tolist())) == len(ds) > 1
    verdicts, measures = evaluate_branches(branches, ds, full=True)
    assert len(verdicts) == len(measures) == len(branches)
    for i, (verdict, measure) in enumerate(zip(verdicts, measures)):
        d = ds[branches.group[i]]
        alone_columns = dataclasses.replace(branches[i:i + 1], group=np.zeros(1, int))
        (alone_verdict,), (alone,) = evaluate_branches(alone_columns, d, full=True)
        assert verdict == alone_verdict
        assert (measure is None) == (alone is None)
        for x, y in zip(measure or (), alone or ()):
            assert_same_float(x, y)
    if spec.variable == "delta_c":
        assert 3 in np.bincount(branches.index), "the sweep misses the window"


def test_failure_inside_batch_names_its_point(monkeypatch):
    import optobec.sweep as sweep
    from optobec import NumericalError

    solve = sweep.solve_lyapunov
    params = baseline_params(power=0.05, sw_frequency=2.0 * MIRROR_FREQ)
    spec = SweepSpec(variable="Delta_effective", lo=MIRROR_FREQ,
                     hi=1.2 * MIRROR_FREQ, points=5, params=params, mode="full")
    second = float(np.linspace(spec.lo, spec.hi, spec.points)[1])

    def boom(a, d):
        # a[..., 0, 1] is the effective detuning of each drift matrix
        if np.any(a[..., 0, 1] == second):
            raise NumericalError("singular covariance system")
        return solve(a, d)

    monkeypatch.setattr(sweep, "solve_lyapunov", boom)
    with pytest.raises(NumericalError,
                       match=f"^base: Delta_effective={second:.12g}, "
                             "branch unique: singular covariance system$"):
        run_sweep(spec)


@pytest.mark.parametrize("spec, derives", [
    (figure_preset("fig2a"), 4),   # one per configuration
    (SweepSpec(variable="omega_sw", lo=0.0, hi=2.0 * MIRROR_FREQ, points=5,
               params=baseline_params(power=0.05)), 5),   # one per grid point
    (SweepSpec(variable="xi", lo=100.0, hi=600.0, points=5,
               params=baseline_params(power=0.05)), 5),
    (figure_preset("fig5a"), 2),   # Delta_effective, bec and no_bec
], ids=["fig2a", "omega_sw", "xi", "fig5a"])
def test_sweep_derives_once_per_configuration(spec, derives, derive_calls):
    run_sweep(spec)
    assert len(derive_calls) == derives


def test_caller_derived_quantities_give_the_same_branches():
    params = baseline_params(power=0.3)
    d = derive_quantities(params)
    rows = oracles.branch_rows
    for delta_c in np.linspace(-2.0, 6.0, 9) * d.kappa:
        assert (rows(solve_mean_field(params, delta_c=delta_c, d=d))
                == rows(solve_mean_field(params, delta_c=delta_c)))
    for power in (0.0, 0.1, 0.5):
        assert (rows(solve_mean_field(params, delta_c=4.0 * d.kappa, power=power, d=d))
                == rows(solve_mean_field(params, delta_c=4.0 * d.kappa, power=power)))


def _bistable_spec(variable, lo, hi):
    """A ``bec: both`` sweep of ``variable`` at 100 mW and 4 kappa, inside
    the bistability window of the condensate configuration."""
    params = baseline_params(power=0.1, detuning=4.0 * reference_kappa())
    return SweepSpec(variable, lo, hi, 41, params, bec="both")


@pytest.mark.parametrize("spec, labels", [
    (figure_preset("fig2a"), {"unique"}),   # 10 mW stays below every window
    (figure_preset("fig2d"), {"unique", "lower", "middle", "upper"}),
    (_bistable_spec("omega_sw", 0.0, 2.0 * MIRROR_FREQ),
     {"unique", "lower", "middle", "upper"}),
    (_bistable_spec("xi", 0.0, 900.0), {"unique", "lower", "middle", "upper"}),
], ids=["fig2a", "fig2d", "omega_sw", "xi"])
def test_grid_rows_equal_scalar_solve(spec, labels):
    """Every branch of a sweep's stacked cubic is bit-equal to the scalar
    solve_mean_field at its grid value."""
    values = [float(v) for v in np.linspace(spec.lo, spec.hi, spec.points)]
    _, branches = _sweep_branches(spec.variable, values, _expand_configs(spec))
    expected, index = [], []
    for p, ((_, params), value) in enumerate(
            itertools.product(_expand_configs(spec), values)):
        if spec.variable in ("omega_sw", "xi"):
            point = solve_mean_field(_point_params(spec.variable, value, params))
        else:
            point = solve_mean_field(params, **{spec.variable: value})
        expected += oracles.branch_rows(point)
        index += [p] * len(point)
    assert oracles.branch_rows(branches) == expected
    assert branches.index.tolist() == index
    assert set(branches.label.tolist()) == labels


INF, NAN = float("inf"), float("nan")
EDGE_ROWS = [
    ("edge", -0.0, "unique", 1e-300, INF, NAN, "marginal", True),
    ("edge", 1e-300, "lower", -0.0, 0.0, -INF, "unstable", False),
    ("edge/bec", 2.5, "upper", 1e300, 1.0 / 3.0, -1e-7, "stable", False,
     -0.0, 1e-300, INF, NAN, 0.0),
    ("edge/bec", 123456789012345.0, "middle", 0.1, 2.0, 3.0, "stable", True,
     1.0, 2.0 ** 60, -1e-15, 5e-324, 1.0),
]
# the edge tables: EDGE_ROWS, and a measured first row followed by runs of
# 1, 2 and 1 rows, so each kind of run meets each boundary
EDGE_RUNS = {"edge": EDGE_ROWS, "edge_runs": [
    ("edge", 5e-324, "lower", -0.0, INF, -INF, "stable", True,
     NAN, -0.0, 5e-324, INF, -INF),
    ("edge", 1.0, "middle", NAN, 5e-324, -0.0, "unstable", False),
    ("edge/bec", -0.0, "upper", -INF, NAN, 5e-324, "stable", False,
     INF, 5e-324, -0.0, NAN, 0.0),
    ("edge/bec", INF, "unique", 5e-324, -0.0, NAN, "stable", True,
     -INF, NAN, INF, -0.0, 5e-324),
    ("edge/bec", NAN, "unique", INF, -INF, 5e-324, "marginal", False),
]}


@pytest.mark.parametrize("rows", [*sorted(PRESET_LOCK), *EDGE_RUNS])
def test_csv_writer_matches_per_field_writer(rows, preset_rows):
    table = (oracles.sweep_table(EDGE_RUNS[rows]) if rows in EDGE_RUNS
             else preset_rows(rows))
    assert rows_to_csv(table) == oracles.rows_to_csv(table)


# First 16 hex digits of the sha256 of emit(rows, "json", ..., spec=spec).
JSON_LOCK = [
    (dataclasses.replace(figure_preset("fig2a"), points=7), "ec1222fda5fc7075"),
    (dataclasses.replace(figure_preset("fig7"), points=7), "c224754648e46d0a"),
    (SweepSpec("omega_sw", 0.0, 2.0 * MIRROR_FREQ, 7,
               baseline_params(detuning=MIRROR_FREQ), mode="full", bec="both"),
     "a77f559f314e41b8"),
]


@pytest.mark.parametrize("spec, digest", JSON_LOCK, ids=["fig2a", "fig7", "omega_sw"])
def test_json_report_lock(spec, digest):
    buffer = io.BytesIO()
    emit(run_sweep(spec), "json", buffer, spec=spec)
    assert hashlib.sha256(buffer.getvalue()).hexdigest()[:16] == digest


@pytest.mark.parametrize("fig_id", ["fig2d", "fig7"])
def test_json_rows_hold_plain_values(fig_id, preset_rows):
    """Every value of a JSON report row is a Python float, bool, str or
    None, never a numpy scalar."""
    table = preset_rows(fig_id)
    assert isinstance(table, SweepTable)
    rows = report_dict(table)["rows"]
    assert len(rows) == len(table)
    assert all(list(row) == list(CSV_COLUMNS) for row in rows)
    kinds = {type(value) for row in rows for value in row.values()}
    assert kinds <= {float, bool, str, type(None)}
    assert float in kinds and bool in kinds and str in kinds


def test_lock_copies_agree():
    """The benchmark pins the preset CSVs to the same hashes as PRESET_LOCK."""
    source = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    locks = [ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
             if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["LOCK_HASHES"]]
    assert locks == [PRESET_LOCK]


MEAN_FIELD_PRESETS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4")
ROOT = pathlib.Path(__file__).resolve().parents[1]
# The `threshold` text of tests/data/point_bistable.json.
THRESHOLD_TEXT = "61.7818 170.796\n"

# One child: the CSV hashes of the presets named after the config path, and
# the `threshold` text of that config, as JSON.
_LOCK_CHILD = """\
import contextlib, hashlib, io, json, sys
from optobec.cli import main
from optobec.presets import figure_preset
from optobec.sweep import rows_to_csv, run_sweep
lock = {fig: hashlib.sha256(rows_to_csv(run_sweep(figure_preset(fig))).encode())
        .hexdigest()[:16] for fig in sys.argv[2:]}
text = io.StringIO()
with contextlib.redirect_stdout(text):
    assert main(["threshold", "--config", sys.argv[1]]) == 0
print(json.dumps(dict(lock, threshold=text.getvalue())))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_mean_field_lock_under_other_blas_kernels(capsys):
    """The mean-field preset hashes and the `threshold` text hold under the
    OpenBLAS kernels of an AVX2 (Haswell) and an AVX (Sandybridge) x86-64
    CPU, each chosen in the environment of its own child process."""
    config = str(ROOT / "tests" / "data" / "point_bistable.json")
    assert main(["threshold", "--config", config]) == 0
    assert capsys.readouterr().out == THRESHOLD_TEXT
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    children = [subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _LOCK_CHILD, config,
         *MEAN_FIELD_PRESETS], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=core))
        for core in ("Haswell", "Sandybridge")]
    for child in children:
        out, _ = child.communicate(timeout=60)
        assert child.returncode == 0
        assert json.loads(out) == dict({fig: PRESET_LOCK[fig] for fig in MEAN_FIELD_PRESETS},
                                       threshold=THRESHOLD_TEXT)


def _two_variant_spec(variable, mode):
    """A ``bec: both`` sweep of two variants over a window of ``variable``
    that holds stable and unstable rows and, for delta_c and power,
    three-branch points."""
    kappa = reference_kappa()
    base = baseline_params(power=0.05, detuning=4.0 * kappa)
    strong = dataclasses.replace(
        base, drive=dataclasses.replace(base.drive, power=0.1),
        bec=dataclasses.replace(base.bec, sw_frequency=MIRROR_FREQ))
    lo, hi = {"delta_c": (-2.0 * kappa, 8.0 * kappa), "power": (0.0, 0.3),
              "Delta_effective": (-MIRROR_FREQ, 3.0 * MIRROR_FREQ),
              "omega_sw": (0.0, 2.0 * MIRROR_FREQ), "xi": (100.0, 600.0)}[variable]
    return SweepSpec(variable, lo, hi, 31, base, mode=mode, bec="both",
                     variants=(Variant("weak", base), Variant("strong", strong)))


TWO_VARIANT_SPECS = [_two_variant_spec(variable, mode)
                     for variable in ("delta_c", "power", "Delta_effective",
                                      "omega_sw", "xi")
                     for mode in ("mean_field", "full")]
TWO_VARIANT_IDS = [f"{spec.variable}-{spec.mode}" for spec in TWO_VARIANT_SPECS]


@pytest.mark.parametrize("spec", TWO_VARIANT_SPECS, ids=TWO_VARIANT_IDS)
def test_stacked_sweep_equals_separate_sweeps(spec):
    """The CSV of a sweep over four configurations, evaluated as one stack,
    is the concatenation of the sweeps of each configuration alone."""
    configs = _expand_configs(spec)
    assert len(configs) == 4
    separate = [rows_to_csv(run_sweep(dataclasses.replace(
        spec, bec="present", variants=(Variant(label, params),)))).split("\n", 1)
        for label, params in configs]
    stacked = rows_to_csv(run_sweep(spec))
    assert stacked == separate[0][0] + "\n" + "".join(rows for _, rows in separate)
    stability = {line.split(",")[6] for line in stacked.splitlines()[1:]}
    assert stability == {"stable", "unstable"}
    if spec.variable in ("delta_c", "power"):
        assert ",middle," in stacked


@pytest.mark.parametrize("spec", TWO_VARIANT_SPECS, ids=TWO_VARIANT_IDS)
def test_one_stack_per_sweep(spec, monkeypatch):
    """One run_sweep is one stability stack and, for every variable but
    Delta_effective, one stacked cubic, whatever the number of
    configurations; in full mode these sweeps, smaller than
    MEASURE_STACK_ROWS, are one Lyapunov call."""
    import optobec.steady_state as steady_state
    import optobec.sweep as sweep

    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(sweep, "is_stable")
    counted(sweep, "solve_lyapunov")
    counted(steady_state, "_stacked_cubic_roots")
    run_sweep(spec)
    assert calls.count("is_stable") == 1
    assert calls.count("solve_lyapunov") == (spec.mode == "full")
    assert (calls.count("_stacked_cubic_roots")
            == (spec.variable != "Delta_effective"))


@pytest.mark.parametrize("variable", ["Delta_effective", "omega_sw"])
def test_measure_pieces_equal_one_piece(variable, monkeypatch):
    """Full-mode rows evaluated in pieces of 7 stable rows have the bits of
    one piece.  The pieces may be solved on worker threads in any order, so
    their sizes are compared as a sorted list."""
    import optobec.sweep as sweep

    spec = _two_variant_spec(variable, "full")
    whole = run_sweep(spec)
    calls = []
    solve = sweep.solve_lyapunov
    monkeypatch.setattr(sweep, "MEASURE_STACK_ROWS", 7)
    monkeypatch.setattr(sweep, "solve_lyapunov",
                        lambda a, d: calls.append(len(a)) or solve(a, d))
    pieces = run_sweep(spec)
    stable = whole.stability.count("stable")
    assert sorted(calls) == sorted([7] * (stable // 7) + [stable % 7] * (stable % 7 > 0))
    assert whole.measures == pieces.measures and whole.stability == pieces.stability


@pytest.mark.parametrize("variable", ["Delta_effective", "omega_sw"])
def test_measure_pieces_equal_on_any_worker_count(variable, monkeypatch):
    """Pieces of 7 stable rows give the same measures and verdicts on 1, 2
    and 3 CPUs.  Piece k runs in share k mod W: the pieces of share 0 on the
    calling thread, the others on at most W - 1 pool threads."""
    import optobec.sweep as sweep

    spec = _two_variant_spec(variable, "full")
    caller = threading.get_ident()
    threads = {}   # first stable row of a piece: its thread
    measure = sweep._piece_measures

    def piece_measures(branches, d, rows):
        threads[rows[0]] = threading.get_ident()
        return measure(branches, d, rows)

    monkeypatch.setattr(sweep, "MEASURE_STACK_ROWS", 7)
    monkeypatch.setattr(sweep, "_piece_measures", piece_measures)
    tables = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(sweep, "_available_cpus", lambda: workers)
        threads.clear()
        tables.append(run_sweep(spec))
        assert len(threads) > 3
        in_order = [threads[first] for first in sorted(threads)]
        assert [t == caller for t in in_order] == [k % workers == 0
                                                   for k in range(len(in_order))]
        assert len(set(in_order) - {caller}) <= workers - 1
    serial, two, three = tables
    assert serial.measures == two.measures == three.measures
    assert serial.stability == two.stability == three.stability


def test_pieces_run_under_the_callers_error_state(monkeypatch):
    """Every piece, on the calling thread or a pool thread, runs under the
    numpy error state of the caller of evaluate_branches."""
    import optobec.sweep as sweep

    spec = _two_variant_spec("Delta_effective", "full")
    grid = np.linspace(spec.lo, spec.hi, spec.points).tolist()
    ds, branches = _sweep_branches(spec.variable, grid, _expand_configs(spec))
    states = []
    measure = sweep._piece_measures

    def piece_measures(branches, d, rows):
        states.append(np.geterr())
        return measure(branches, d, rows)

    monkeypatch.setattr(sweep, "MEASURE_STACK_ROWS", 7)
    monkeypatch.setattr(sweep, "_piece_measures", piece_measures)
    monkeypatch.setattr(sweep, "_available_cpus", lambda: 3)
    for over in ("raise", "ignore"):
        states.clear()
        with np.errstate(over=over):
            caller = np.geterr()
            evaluate_branches(branches, ds, full=True)
        assert len(states) > 3 and all(state == caller for state in states)
        assert caller["over"] == over


def _failing_variants(*labels):
    """Full-mode Delta_effective sweep over named variants of the reference:
    ``ok`` as it is, ``undamped*`` with an undamped condensate (a singular
    Lyapunov system at Delta = 0), ``strong`` with a pull whose beta^2
    overflows (fails to derive)."""
    base = baseline_params()
    undamped = dataclasses.replace(base, bec=dataclasses.replace(base.bec, damping=0.0))
    params = {"ok": base, "undamped": undamped,
              "undamped_sw": dataclasses.replace(undamped, bec=dataclasses.replace(
                  undamped.bec, sw_frequency=MIRROR_FREQ)),
              "strong": dataclasses.replace(base, xi_override=1e100)}
    return SweepSpec("Delta_effective", 0.0, 3.0 * MIRROR_FREQ, 20, base, mode="full",
                     variants=tuple(Variant(label, params[label]) for label in labels))


@pytest.mark.parametrize("labels, error, message", [
    (("ok", "undamped"), "NumericalError",
     "undamped: Delta_effective=0, branch unique: Lyapunov system is singular"),
    (("ok", "undamped_sw", "undamped"), "NumericalError",
     "undamped_sw: Delta_effective=0, branch unique: Lyapunov system is singular"),
    (("undamped", "strong"), "NumericalError",
     "undamped: Delta_effective=0, branch unique: Lyapunov system is singular"),
    (("ok", "strong", "undamped"), "ParameterError",
     "strong: Delta_effective=0: xi_override/bec.coupling: "),
], ids=["second", "earlier_of_two", "evaluated_before_derive", "derive"])
def test_failure_names_its_configuration(labels, error, message):
    """The first failing row in sweep order is named by configuration, value
    and branch; a configuration that fails to derive is raised only after
    the configurations before it are evaluated."""
    import optobec

    with pytest.raises(getattr(optobec, error)) as info:
        run_sweep(_failing_variants(*labels))
    assert str(info.value).startswith(message)


def test_earlier_failing_piece_is_raised(monkeypatch):
    """With two failing measure pieces, evaluate_branches raises the earlier
    piece's error, the one a serial loop raises, whichever share holds
    either piece: on 2, 4 and 5 CPUs the later piece fails first on
    another thread, and on 3 both are in one share, which stops at the
    earlier.  run_sweep names the same row as with one piece."""
    import optobec.sweep as sweep
    from optobec import NumericalError

    spec = _failing_variants("ok", "undamped_sw", "undamped")
    grid = np.linspace(spec.lo, spec.hi, spec.points).tolist()
    ds, branches = _sweep_branches(spec.variable, grid, _expand_configs(spec))
    # the failing rows are Delta_effective = 0 of undamped_sw and undamped
    verdicts = sweep.is_stable(sweep.characteristic_polynomial(branches, ds))
    stable = branches.index[[v == "stable" for v in verdicts]].tolist()
    earlier, later = (stable.index(point) // 7 for point in (spec.points, 2 * spec.points))
    measure = sweep._piece_measures
    later_failed = threading.Event()
    waits, failures = [], []   # failures: (from the later piece, error)

    def piece_measures(branches, d, rows):
        points = branches.index[rows].tolist()
        if spec.points in points and apart:
            waits.append(later_failed.wait(timeout=10))
        try:
            return measure(branches, d, rows)
        except NumericalError as exc:
            failures.append((2 * spec.points in points, exc))
            if 2 * spec.points in points:
                later_failed.set()
            raise

    monkeypatch.setattr(sweep, "MEASURE_STACK_ROWS", 7)
    monkeypatch.setattr(sweep, "_piece_measures", piece_measures)
    placements = set()   # (share of the earlier piece, of the later) on > 1 CPU
    for workers in (1, 2, 3, 4, 5):
        monkeypatch.setattr(sweep, "_available_cpus", lambda: workers)
        apart = earlier % workers != later % workers
        if workers > 1:
            placements.add((min(earlier % workers, 1), min(later % workers, 1), apart))
        later_failed.clear()
        waits.clear()
        failures.clear()
        with pytest.raises(NumericalError) as info:
            evaluate_branches(branches, ds, full=True)
        assert [later for later, _ in failures] == ([True, False] if apart else [False])
        assert info.value is failures[-1][1]
        assert waits == [True] * apart
    # the earlier piece on the calling thread and the later on the pool,
    # both on the pool in two shares or in one, and the reverse of the first
    assert placements == {(0, 1, True), (1, 1, True), (1, 1, False), (1, 0, True)}
    monkeypatch.setattr(sweep, "_piece_measures", measure)
    monkeypatch.setattr(sweep, "_available_cpus", lambda: 2)
    with pytest.raises(NumericalError, match="^undamped_sw: Delta_effective=0, "
                                             "branch unique: Lyapunov system is singular"):
        run_sweep(spec)


def test_failures_across_stages_come_out_in_sweep_order(monkeypatch):
    """An evaluation failure at the first point is reported before the
    overflowing cubic of the later points, as in a point-by-point run."""
    import optobec.sweep as sweep
    from optobec import NumericalError

    def boom(a, d):
        raise NumericalError("singular covariance system")

    monkeypatch.setattr(sweep, "solve_lyapunov", boom)
    kappa = reference_kappa()
    spec = SweepSpec("delta_c", 4.0 * kappa, 1e60 * kappa, 5,
                     baseline_params(power=0.05), mode="full", bec="both")
    with pytest.raises(NumericalError,
                       match=r"^base/bec: delta_c=125576771\.154, branch unique: "
                             "singular covariance system$"):
        run_sweep(spec)


def test_stack_only_failure_is_raised_unnamed(monkeypatch):
    """A failure that no single point repeats is raised as it is."""
    import optobec.sweep as sweep
    from optobec import NumericalError

    verdicts = sweep.is_stable

    def stack_only(coefficients):
        if len(coefficients) > 1:
            raise NumericalError("stack-only failure")
        return verdicts(coefficients)

    monkeypatch.setattr(sweep, "is_stable", stack_only)
    spec = SweepSpec("Delta_effective", MIRROR_FREQ, 1.2 * MIRROR_FREQ, 5,
                     baseline_params(power=0.05), mode="full")
    with pytest.raises(NumericalError, match="^stack-only failure$"):
        run_sweep(spec)
