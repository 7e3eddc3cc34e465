import dataclasses
import math

import numpy as np
import pytest

from optobec import (HBAR, bistability_window, derive_quantities, drive_rate,
                     solve_mean_field)
from optobec.presets import MIRROR_FREQ, baseline_params, reference_kappa
from optobec.steady_state import solve_mean_field_grid

from oracles import power_at_photon_number


def brute_force_window(params, delta_c, n_points=10 ** 6):
    """Independent knee oracle: scan the drive power over a photon-number
    grid, locate the interior extrema and refine each with a parabola fit."""
    d = derive_quantities(params)
    n_max = 1.5 * (2 * delta_c + math.sqrt(delta_c ** 2 - 3 * d.kappa ** 2)) / (3 * d.beta)
    grid = np.linspace(n_max / n_points, n_max, n_points)
    power = grid * ((delta_c - d.beta * grid) ** 2 + d.kappa ** 2)
    power *= HBAR * d.omega_cav / (2 * d.kappa)

    extrema = []
    sign = np.sign(np.diff(power))
    turns = np.nonzero(sign[1:] != sign[:-1])[0] + 1
    for i in turns:
        x0, x1, x2 = grid[i - 1: i + 2]
        y0, y1, y2 = power[i - 1: i + 2]
        denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
        a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
        b = (x2 ** 2 * (y0 - y1) + x1 ** 2 * (y2 - y0) + x0 ** 2 * (y1 - y2)) / denom
        x_star = -b / (2 * a)
        extrema.append(a * x_star ** 2 + b * x_star + (
            y0 - a * x0 ** 2 - b * x0))
    if len(extrema) != 2:
        return None
    return min(extrema), max(extrema)


def count_roots(params, delta_c, power):
    return len(solve_mean_field(params, delta_c=delta_c, power=power))


def bisect_threshold(params, delta_c, lo, hi, rel=1e-7):
    """Smallest power with three coexisting roots, by bisection on the count."""
    assert count_roots(params, delta_c, lo) == 1
    assert count_roots(params, delta_c, hi) >= 3
    while (hi - lo) > rel * hi:
        mid = 0.5 * (lo + hi)
        if count_roots(params, delta_c, mid) >= 3:
            hi = mid
        else:
            lo = mid
    return hi


def test_cubic_coefficients_empty_cavity():
    params = baseline_params(power=0.01, bec_present=False)
    params = dataclasses.replace(params, xi_override=0.0)
    d = derive_quantities(params)
    assert d.beta == 0.0
    # Lorentzian root for arbitrary detuning
    delta_c = 2.3 * d.kappa
    branches = solve_mean_field(params, delta_c=delta_c)
    assert len(branches) == 1
    assert branches[0].n == pytest.approx(
        d.eta ** 2 / (delta_c ** 2 + d.kappa ** 2), rel=1e-12)


def test_detuning_pull_coefficient_no_bec():
    d = derive_quantities(baseline_params(bec_present=False))
    assert d.beta == pytest.approx(d.xi ** 2 / d.omega_m, rel=1e-15)
    assert d.beta == pytest.approx(1.674419628509676e-3, rel=1e-12)


def test_decoupled_cavity_branch():
    params = dataclasses.replace(baseline_params(power=0.02, bec_present=False),
                                 xi_override=0.0)
    d = derive_quantities(params)
    branches = solve_mean_field(params, delta_c=0.0)
    assert len(branches) == 1
    b = branches[0]
    assert b.label == "unique"
    assert b.n == pytest.approx(d.eta ** 2 / d.kappa ** 2, rel=1e-12)
    assert b.q_s == 0.0 and b.Q_s == 0.0 and b.p_s == 0.0


def test_underflowing_pull_keeps_the_physical_root():
    """A pull whose square underflows leaves a quadratic: the scalar and the
    grid solve agree and give its small root eta^2 / (delta_c^2 + kappa^2)."""
    params = dataclasses.replace(baseline_params(power=0.05, bec_present=False),
                                 xi_override=1e-100)
    d = derive_quantities(params)
    assert d.beta > 0.0 and d.beta ** 2 == 0.0
    delta_c = d.kappa
    branches = solve_mean_field(params, delta_c=delta_c, d=d)
    grid = solve_mean_field_grid(d, [delta_c], d.eta)
    assert grid.n.tolist() == [b.n for b in branches]
    assert grid.label == [b.label for b in branches]
    assert branches[0].n == pytest.approx(
        d.eta ** 2 / (delta_c ** 2 + d.kappa ** 2), rel=1e-12)


def test_zero_power_single_dark_branch(reference):
    branches = solve_mean_field(reference, delta_c=4 * reference_kappa(), power=0.0)
    assert len(branches) == 1
    assert branches[0].n == 0.0
    assert branches[0].alpha == 0.0


def test_branch_count_below_and_inside_window():
    params = baseline_params(bec_present=False)
    delta_c = 4 * reference_kappa()
    assert count_roots(params, delta_c, 0.100) == 1
    assert count_roots(params, delta_c, 0.250) == 3


def test_branch_labels_and_order():
    params = baseline_params(bec_present=False)
    delta_c = 4 * reference_kappa()
    branches = solve_mean_field(params, delta_c=delta_c, power=0.250)
    assert [b.label for b in branches] == ["lower", "middle", "upper"]
    ns = [b.n for b in branches]
    assert ns == sorted(ns)


def test_branch_residuals_and_consistency():
    params = baseline_params(sw_frequency=0.5 * MIRROR_FREQ)
    d = derive_quantities(params)
    rng = np.random.default_rng(7)
    for _ in range(200):
        delta_c = rng.uniform(-2, 8) * d.kappa
        power = rng.uniform(1e-4, 0.5)
        eta = drive_rate(power, d.kappa, d.omega_cav)
        for b in solve_mean_field(params, delta_c=delta_c, power=power):
            residual = abs(b.n * (b.Delta ** 2 + d.kappa ** 2) - eta ** 2)
            assert residual <= 1e-10 * eta ** 2
            assert b.Delta == pytest.approx(delta_c - d.beta * b.n, rel=1e-12, abs=1e-9)
            assert b.alpha == math.sqrt(b.n)
            assert b.q_s == pytest.approx((d.xi / d.omega_m) * b.n, rel=1e-14)
            expected_qc = -d.zeta * b.n / (d.Omega_c + d.omega_sw
                                           + d.gamma_c ** 2 / d.Omega_c)
            assert b.Q_s == pytest.approx(expected_qc, rel=1e-14)
            assert b.P_s == pytest.approx((d.gamma_c / d.Omega_c) * b.Q_s, rel=1e-14)


def test_no_window_below_critical_detuning(reference):
    kappa = reference_kappa()
    assert bistability_window(reference, kappa) is None
    assert bistability_window(reference, 1.7 * kappa) is None  # sqrt(3) ~ 1.732


def test_no_window_without_pull():
    params = dataclasses.replace(baseline_params(bec_present=False), xi_override=0.0)
    assert bistability_window(params, 10 * reference_kappa()) is None


def test_window_matches_brute_force_no_bec():
    params = baseline_params(bec_present=False)
    delta_c = 4 * reference_kappa()
    window = bistability_window(params, delta_c)
    lo, hi = brute_force_window(params, delta_c)
    assert window.power_low == pytest.approx(lo, rel=1e-3)
    assert window.power_high == pytest.approx(hi, rel=1e-3)
    assert window.power_low < window.power_high
    assert window.n_knee_low > window.n_knee_high
    # frozen scan-oracle values, mW
    assert window.power_low * 1e3 == pytest.approx(216.236, rel=1e-3)
    assert window.power_high * 1e3 == pytest.approx(597.785, rel=1e-3)


def test_window_matches_brute_force_weak_collisions():
    params = baseline_params(sw_frequency=0.01 * MIRROR_FREQ)
    delta_c = 3 * reference_kappa()
    window = bistability_window(params, delta_c)
    lo, hi = brute_force_window(params, delta_c)
    assert window.power_low == pytest.approx(lo, rel=1e-3)
    assert window.power_high == pytest.approx(hi, rel=1e-3)
    # frozen oracle values, mW
    assert window.power_low * 1e3 == pytest.approx(46.916, rel=1e-3)
    assert window.power_high * 1e3 == pytest.approx(82.004, rel=1e-3)


def test_threshold_agrees_with_bisection():
    delta_c = 4 * reference_kappa()
    for params in (baseline_params(bec_present=False),
                   baseline_params(sw_frequency=MIRROR_FREQ)):
        expected = bistability_window(params, delta_c).power_low
        measured = bisect_threshold(params, delta_c, 0.5 * expected, 1.5 * expected)
        assert measured == pytest.approx(expected, rel=1e-6)


def test_threshold_decreases_with_pull():
    # more detuning pull (larger coupling) moves the onset down
    delta_c = 4 * reference_kappa()
    thresholds = []
    for zeta in (0.0, 200.0, 400.0):
        params = baseline_params(zeta=zeta, bec_present=zeta > 0)
        thresholds.append(bistability_window(params, delta_c).power_low)
    assert thresholds[0] > thresholds[1] > thresholds[2]

    # collisions push it back up at fixed coupling
    t_weak = bistability_window(baseline_params(sw_frequency=0.0), delta_c).power_low
    t_strong = bistability_window(baseline_params(sw_frequency=MIRROR_FREQ),
                                  delta_c).power_low
    assert t_weak < t_strong


def test_root_count_transitions_exactly_at_knees():
    params = baseline_params(bec_present=False)
    delta_c = 4 * reference_kappa()
    window = bistability_window(params, delta_c)
    for knee in (window.power_low, window.power_high):
        assert count_roots(params, delta_c, knee * (1 - 1e-6)) != \
               count_roots(params, delta_c, knee * (1 + 1e-6))
    inside = 0.5 * (window.power_low + window.power_high)
    assert count_roots(params, delta_c, window.power_low * 0.99) == 1
    assert count_roots(params, delta_c, inside) == 3
    assert count_roots(params, delta_c, window.power_high * 1.01) == 1


def test_degenerate_knee_reported_not_dropped():
    params = baseline_params(bec_present=False)
    delta_c = 4 * reference_kappa()
    window = bistability_window(params, delta_c)
    branches = solve_mean_field(params, delta_c=delta_c, power=window.power_low)
    assert len(branches) == 2
    assert any(b.degenerate for b in branches)
    assert [b.label for b in branches] == ["lower", "upper"]
    flagged = [b for b in branches if b.degenerate][0]
    assert flagged.n == pytest.approx(window.n_knee_low, rel=1e-5)


def test_power_photon_number_roundtrip():
    params = baseline_params(sw_frequency=0.3 * MIRROR_FREQ)
    delta_c = 2.4 * reference_kappa()
    for power in (0.01, 0.17):
        for b in solve_mean_field(params, delta_c=delta_c, power=power):
            assert power_at_photon_number(params, delta_c, b.n) == \
                   pytest.approx(power, rel=1e-10)
