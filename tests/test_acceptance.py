"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS or FAIL line (visible with ``pytest -s``).
Full suite target: under a minute on a laptop.
"""

import functools
import time

import numpy as np
import pytest

from optobec import (bistability_window, characteristic_polynomial,
                     derive_quantities, is_stable, log_negativity, run_sweep,
                     solve_lyapunov, solve_mean_field)
from optobec.model import drive_rate
from optobec.presets import (MIRROR_FREQ, baseline_params, figure_preset,
                             reference_kappa)
from optobec.sweep import SweepSpec

from conftest import random_stable_matrix
from oracles import column, matrix_charpoly, stability_oracle
from test_gaussian_measures import tmsv_cm
from test_steady_state import brute_force_window


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")
        return run
    return wrap


def _config_series(rows, config, field):
    pairs = [(value, x) for name, value, stability, x in zip(
        rows.config, rows.value, rows.stability, column(rows, field))
        if name == config and stability == "stable"]
    values = np.array([p[0] for p in pairs])
    series = np.array([p[1] for p in pairs])
    return values, series


@criterion(1, "derived constants: kappa/omega_m, xi, gamma_m/kappa")
def test_criterion_1_derived_constants(reference):
    d = derive_quantities(reference)
    assert abs(d.kappa / d.omega_m - 0.500) <= 0.005 * 0.500
    assert abs(d.xi - 330.0) <= 0.03 * 330.0
    assert abs(d.gamma_m / d.kappa - 2.0e-5) <= 0.01 * 2.0e-5


@criterion(2, "mode frequency gaps for the three collision strengths")
def test_criterion_2_frequency_gaps():
    quoted = {2.0: 1.18, 1.0: 0.31, 0.5: -0.135}
    for sw_ratio, gap in quoted.items():
        params = baseline_params(sw_frequency=sw_ratio * MIRROR_FREQ)
        d = derive_quantities(params)
        assert abs(d.delta_omega / d.omega_m - gap) <= 0.01, sw_ratio


@criterion(3, "bistability onset powers at delta_c = 4 kappa")
def test_criterion_3_threshold_powers():
    delta_c = 4.0 * reference_kappa()
    cases = [
        (baseline_params(bec_present=False), 0.200),
        (baseline_params(sw_frequency=0.0), 0.060),
        (baseline_params(sw_frequency=0.5 * MIRROR_FREQ), 0.110),
        (baseline_params(sw_frequency=1.0 * MIRROR_FREQ), 0.140),
    ]
    for params, quoted in cases:
        onset = bistability_window(params, delta_c).power_low
        scan_low, _ = brute_force_window(params, delta_c)
        assert abs(onset - scan_low) <= 1e-3 * scan_low, quoted
        assert abs(onset - quoted) <= 0.15 * quoted, (onset, quoted)


@criterion(4, "bistability window control by the collision strength")
def test_criterion_4_window_switching():
    delta_c = 3.0 * reference_kappa()
    weak = baseline_params(sw_frequency=0.01 * MIRROR_FREQ)
    window = bistability_window(weak, delta_c)
    scan_low, scan_high = brute_force_window(weak, delta_c)
    assert abs(window.power_low - scan_low) <= 0.10 * scan_low
    assert abs(window.power_high - scan_high) <= 0.10 * scan_high
    # frozen scan-oracle values (mW), matching the quoted 45-80 mW span
    assert scan_low * 1e3 == pytest.approx(46.92, rel=1e-3)
    assert scan_high * 1e3 == pytest.approx(82.00, rel=1e-3)

    strong = baseline_params(sw_frequency=1.0 * MIRROR_FREQ)
    assert bistability_window(strong, delta_c).power_low > 0.080


@criterion(5, "cooling structure of the detuning sweeps")
def test_criterion_5_cooling_structure(cooling_runs):
    kappa = reference_kappa()

    # the phonon minimum sits inside the cooling window around omega_m
    for fig in ("fig5a", "fig5b", "fig5c"):
        values, dnm = _config_series(cooling_runs[fig], "base/bec", "delta_n_m")
        argmin = values[np.argmin(dnm)]
        assert MIRROR_FREQ - kappa <= argmin <= MIRROR_FREQ + kappa, fig

    # at the optimum the mirror reaches its ground state, condensate or not
    for config in ("base/bec", "base/no_bec"):
        _, dnm = _config_series(cooling_runs["fig5a"], config, "delta_n_m")
        assert dnm.min() < 1.0

    # widely split modes: condensate presence leaves the phonon curve
    # unchanged (<= 5% relative deviation across the cooling window)
    values_p, dnm_p = _config_series(cooling_runs["fig5a"], "base/bec", "delta_n_m")
    values_a, dnm_a = _config_series(cooling_runs["fig5a"], "base/no_bec", "delta_n_m")
    np.testing.assert_array_equal(values_p, values_a)
    window = (values_p >= 0.5 * MIRROR_FREQ) & (values_p <= 1.5 * MIRROR_FREQ)
    deviation = np.linalg.norm(dnm_p[window] - dnm_a[window]) \
        / np.linalg.norm(dnm_a[window])
    assert deviation <= 0.05

    # condensate-mode minimum at its own resonance
    d = derive_quantities(figure_preset("fig5a").params)
    values, dnc = _config_series(cooling_runs["fig5a"], "base/bec", "delta_n_c")
    argmin = values[np.argmin(dnc)]
    assert abs(argmin - d.omega_B) <= kappa
    assert abs(d.omega_B / d.omega_m - 2.18) < 0.01


@criterion(6, "entanglement structure of the detuning sweeps")
def test_criterion_6_entanglement_structure(cooling_runs):
    kappa = reference_kappa()
    d = derive_quantities(figure_preset("fig6a").params)
    values, en_af = _config_series(cooling_runs["fig5a"], "base/bec", "e_n_atom_field")
    peak = values[np.argmax(en_af)]
    assert en_af.max() > 0.0
    assert abs(peak - d.omega_B) <= kappa

    # the mirror-atom bipartition stays separable at every stable point
    for fig in ("fig5a", "fig5b", "fig5c"):
        rows = cooling_runs[fig]
        for stability, e_n in zip(rows.stability, column(rows, "e_n_mirror_atom")):
            if stability == "stable":
                assert e_n == 0.0


@criterion(7, "property suites: solver residuals, oracles, closed forms")
def test_criterion_7_property_suites(reference):
    rng = np.random.default_rng(20240601)

    # Lyapunov residual on 1000 random stable systems
    for _ in range(1000):
        a = random_stable_matrix(rng)
        dm = np.diag(rng.uniform(0.0, 2.0, size=6))
        v = solve_lyapunov(a, dm)
        assert np.abs(a @ v + v @ a.T + dm).max() <= 1e-8 * np.abs(dm).max()

    # decoupled analytic covariances to 1e-9
    kappa, delta = 1.9, 0.8
    v = solve_lyapunov(np.array([[-kappa, delta], [-delta, -kappa]]),
                       np.diag([kappa, kappa]))
    assert np.abs(v - 0.5 * np.eye(2)).max() <= 1e-9

    d_ref = derive_quantities(reference)
    v = solve_lyapunov(
        np.array([[0.0, d_ref.omega_m], [-d_ref.omega_m, -d_ref.gamma_m]]),
        np.diag([0.0, d_ref.gamma_m * (2 * d_ref.nbar + 1)]))
    expected = (d_ref.nbar + 0.5) * np.eye(2)
    assert np.abs(v / expected[0, 0] - np.eye(2)).max() <= 1e-9

    d_sw = derive_quantities(baseline_params(sw_frequency=MIRROR_FREQ))
    block = solve_lyapunov(
        np.array([[-d_sw.gamma_c, d_sw.Omega_c],
                  [-(d_sw.Omega_c + d_sw.omega_sw), -d_sw.gamma_c]]),
        np.diag([d_sw.gamma_c, d_sw.gamma_c]))
    occupancy = 0.5 * (block[0, 0] + block[1, 1] - 1.0)
    closed = d_sw.omega_sw ** 2 / (
        8.0 * (d_sw.gamma_c ** 2 + d_sw.Omega_c * (d_sw.Omega_c + d_sw.omega_sw)))
    assert abs(occupancy - closed) <= 1e-9 * closed

    # two-mode squeezed benchmark to 1e-9 across r in [0, 5]
    for r in np.linspace(0.0, 5.0, 26):
        measured = log_negativity(tmsv_cm(r, dtype=np.longdouble))
        assert abs(measured - 2.0 * r) <= max(1e-9, 1e-9 * 2.0 * r)

    # algebraic stability agrees with the time-domain decay oracle
    checked = 0
    while checked < 1000:
        a = rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-2, 3)
        scale = np.abs(a).max()
        if abs(np.linalg.eigvals(a).real.max()) < 1e-3 * scale:
            continue
        verdict = is_stable(matrix_charpoly(a))
        assert (verdict == "stable") == (stability_oracle(a, rng=rng) < 0.0)
        checked += 1

    # mean-field substitution residual on a 10^4-point (delta_c, power) grid
    params = baseline_params(sw_frequency=0.5 * MIRROR_FREQ)
    d = derive_quantities(params)
    deltas = np.linspace(-2.0, 8.0, 100) * d.kappa
    powers = np.linspace(1e-3, 0.6, 100)
    for delta_c in deltas:
        for power in powers:
            eta_sq = drive_rate(power, d.kappa, d.omega_cav) ** 2
            b = solve_mean_field(params, delta_c=delta_c, power=power)
            residual = np.abs(b.n * (b.Delta ** 2 + d.kappa ** 2) - eta_sq)
            assert (residual <= 1e-10 * eta_sq).all()

    # the middle branch is a saddle at every sampled bistable point
    params = baseline_params(bec_present=False)
    d = derive_quantities(params)
    delta_c = 4.0 * reference_kappa()
    window = bistability_window(params, delta_c)
    for power in np.linspace(1.02 * window.power_low, 0.98 * window.power_high, 100):
        branches = solve_mean_field(params, delta_c=delta_c, power=power)
        assert len(branches) == 3
        verdicts = is_stable(characteristic_polynomial(branches, d))
        assert verdicts[1] == "unstable"


@criterion(8, "600-point full-mode sweep completes in under a second")
def test_criterion_8_sweep_performance():
    params = baseline_params(sw_frequency=2.0 * MIRROR_FREQ)
    spec = SweepSpec(variable="Delta_effective", lo=0.0, hi=3.0 * MIRROR_FREQ,
                     points=600, params=params, mode="full", bec="present")
    start = time.perf_counter()
    rows = run_sweep(spec)
    elapsed = time.perf_counter() - start
    assert len(rows) == 600
    assert all(measure is not None for stability, measure
               in zip(rows.stability, rows.measures) if stability == "stable")
    assert elapsed < 1.0, f"sweep took {elapsed:.3f} s"


@criterion(9, "collisional control of the Bogoliubov-mode features (fig5a-c)")
def test_criterion_9_collisional_control(cooling_runs):
    """The s-wave scattering sets omega_B = sqrt(Omega_c (Omega_c + omega_sw)),
    and with it where the condensate cools and where it entangles with the
    field: on each of fig5a-c the delta_n_c minimum and the atom-field E_N
    peak lie within kappa of that preset's omega_B, and both follow omega_sw
    in order, while the mirror's delta_n_m minimum stays within kappa of
    omega_m."""
    kappa = reference_kappa()
    quoted = {"fig5a": 2.182, "fig5b": 1.308, "fig5c": 0.865}   # omega_B / omega_m
    sw, minima, peaks = [], [], []
    for fig, ratio in quoted.items():
        params = figure_preset(fig).params
        omega_b = derive_quantities(params).omega_B
        assert abs(omega_b / MIRROR_FREQ - ratio) <= 5e-4, fig
        values, dnc = _config_series(cooling_runs[fig], "base/bec", "delta_n_c")
        _, en_af = _config_series(cooling_runs[fig], "base/bec", "e_n_atom_field")
        _, dnm = _config_series(cooling_runs[fig], "base/bec", "delta_n_m")
        sw.append(params.bec.sw_frequency)
        minima.append(values[np.argmin(dnc)])
        peaks.append(values[np.argmax(en_af)])
        assert abs(minima[-1] - omega_b) <= kappa, fig
        assert abs(peaks[-1] - omega_b) <= kappa, fig
        assert abs(values[np.argmin(dnm)] - MIRROR_FREQ) <= kappa, fig
    order = np.argsort(sw)
    assert len(set(sw)) == 3
    assert np.all(np.diff(np.array(minima)[order]) > 0.0)
    assert np.all(np.diff(np.array(peaks)[order]) > 0.0)
