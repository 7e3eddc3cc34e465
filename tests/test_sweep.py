import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest

from optobec import (ParameterError, SweepSpec, derive_quantities,
                     diffusion_matrix, emit, evaluate_branches, figure_preset,
                     run_sweep, solve_mean_field, threshold_power)
from optobec.presets import (FIGURE_IDS, MIRROR_FREQ, baseline_params,
                             reference_kappa, reference_xi)
from optobec.sweep import _branches_at, _expand_configs, rows_to_csv

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
    for row, delta_c in zip(rows, (0.0, d.kappa)):
        assert row.branch == "unique"
        assert row.n == pytest.approx(d.eta ** 2 / (delta_c ** 2 + d.kappa ** 2),
                                      rel=1e-12)
        assert row.delta_n_m is None  # mean-field mode carries no measures


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
        counts = {}
        for row in rows:
            if row.config == variant.label:
                counts[row.value] = counts.get(row.value, 0) + 1
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
    onset = {label: threshold_power(p, 4.0 * kappa)
             for label, p in by_label.items()}
    assert onset["sw_0.0"] < onset["sw_0.5"] < onset["sw_1.0"] < onset["no_bec"]


def test_delta_effective_sweep_bypasses_cubic():
    params = baseline_params(power=0.05, sw_frequency=2.0 * MIRROR_FREQ)
    d = derive_quantities(params)
    spec = SweepSpec(variable="Delta_effective", lo=0.0, hi=3.0 * d.omega_m,
                     points=7, params=params, mode="full")
    rows = run_sweep(spec)
    assert len(rows) == 7
    for row in rows:
        assert row.branch == "unique"
        assert row.n == pytest.approx(
            d.eta ** 2 / (row.value ** 2 + d.kappa ** 2), rel=1e-12)
        assert row.Delta == row.value
        if row.stability == "stable":
            assert row.delta_n_m is not None
            assert row.e_n_mirror_atom is not None


def test_unstable_rows_carry_flag_and_empty_measures(cooling_runs):
    rows = cooling_runs["fig5c"]
    unstable = [r for r in rows if r.stability != "stable"]
    assert unstable, "fig5c is expected to contain an unstable detuning range"
    for row in unstable:
        assert row.delta_n_m is None
        assert row.e_n_mirror_field is None
    stable = [r for r in rows if r.stability == "stable"]
    assert all(r.delta_n_m is not None for r in stable)


def test_measure_continuity_along_stable_runs(cooling_runs):
    """No measure jumps between adjacent stable grid points."""
    rows = [r for r in cooling_runs["fig5a"]
            if r.config == "base/bec" and r.stability == "stable"]
    series = np.array([r.delta_n_m for r in rows])
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
    ns = [r.n for r in rows]
    assert len(set(ns)) == 5  # collisions shift the pull, photon number responds

    spec = SweepSpec(variable="xi", lo=0.0, hi=2 * reference_xi(),
                     points=5, params=params.without_bec())
    rows = run_sweep(spec)
    assert rows[0].n > 0.0
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
    text = rows_to_csv([])
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
    configs = {r.config for r in rows}
    assert configs == {"base/bec", "base/no_bec"}


@pytest.mark.parametrize("fig_id", sorted(PRESET_LOCK))
def test_preset_csv_lock(fig_id, preset_rows):
    digest = hashlib.sha256(rows_to_csv(preset_rows(fig_id)).encode()).hexdigest()[:16]
    assert digest == PRESET_LOCK[fig_id]


def test_fig6_presets_are_fig5_sweeps():
    for part in "abc":
        assert figure_preset(f"fig6{part}") == figure_preset(f"fig5{part}")


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
    """Full-mode delta_c sweep across the three-branch window of 50 mW."""
    kappa = reference_kappa()
    return SweepSpec(variable="delta_c", lo=-2.0 * kappa, hi=8.0 * kappa,
                     points=150, params=baseline_params(power=0.05), mode="full")


def assert_same_float(x, y):
    assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y), (x, y)


@pytest.mark.parametrize("spec", [figure_preset("fig7"), bistable_full_sweep()],
                         ids=["fig7", "bistable_delta_c"])
def test_batch_equals_single_rows(spec):
    """Every row of a stacked evaluation is bit-equal to the row on its own."""
    values = [float(v) for v in np.linspace(spec.lo, spec.hi, spec.points)]
    counts = set()
    for _, params in _expand_configs(spec):
        d = derive_quantities(params)
        diffusion = diffusion_matrix(d)
        per_point = [_branches_at(spec.variable, v, params, d) for v in values]
        counts.update(len(branches) for branches in per_point)
        branches = [b for point in per_point for b in point]
        verdicts, measures = evaluate_branches(branches, d, diffusion)
        assert len(verdicts) == len(measures) == len(branches)
        for branch, verdict, measure in zip(branches, verdicts, measures):
            (alone_verdict,), (alone,) = evaluate_branches([branch], d, diffusion)
            assert verdict == alone_verdict
            assert (measure is None) == (alone is None)
            for key in alone or {}:
                assert_same_float(measure[key], alone[key])
    if spec.variable == "delta_c":
        assert 3 in counts, "the sweep misses the bistability window"


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
], ids=["fig2a", "omega_sw"])
def test_sweep_derives_once_per_configuration(spec, derives, derive_calls):
    run_sweep(spec)
    assert len(derive_calls) == derives


def test_caller_derived_quantities_give_the_same_branches():
    params = baseline_params(power=0.3)
    d = derive_quantities(params)
    for delta_c in np.linspace(-2.0, 6.0, 9) * d.kappa:
        assert (solve_mean_field(params, delta_c=delta_c, d=d)
                == solve_mean_field(params, delta_c=delta_c))
    for power in (0.0, 0.1, 0.5):
        assert (solve_mean_field(params, delta_c=4.0 * d.kappa, power=power, d=d)
                == solve_mean_field(params, delta_c=4.0 * d.kappa, power=power))
