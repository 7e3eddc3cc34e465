import dataclasses
import math
import sys

import numpy as np
import pytest

from optobec import (HBAR, NumericalError, ParameterError, bistability_window,
                     derive_quantities, drive_rate, solve_mean_field)
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
    assert branches.n[0] == pytest.approx(
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
    assert branches.label.tolist() == ["unique"]
    assert branches.n[0] == pytest.approx(d.eta ** 2 / d.kappa ** 2, rel=1e-12)
    assert branches.index.tolist() == branches.group.tolist() == [0]


def test_underflowing_pull_is_rejected():
    """A pull whose square underflows would leave a quadratic with a root the
    cubic does not have: it is rejected where it is derived.  A pull with a
    normal square whose cubic overflows is a numerical failure, in the
    scalar and the grid solve alike."""
    base = baseline_params(power=0.05, bec_present=False)
    for xi in (1e-100, 1e-155):   # beta^2 == 0; beta itself subnormal
        params = dataclasses.replace(base, xi_override=xi)
        with pytest.raises(ParameterError,
                           match=r"^xi_override/bec\.coupling: .*beta\^2 underflows"):
            derive_quantities(params)
    params = dataclasses.replace(base, xi_override=1e-70)
    d = derive_quantities(params)
    assert d.beta * d.beta >= sys.float_info.min
    with pytest.raises(NumericalError, match="mean-field cubic leaves the float range"):
        solve_mean_field(params, delta_c=d.kappa, d=d)
    with pytest.raises(NumericalError, match="mean-field cubic leaves the float range"):
        solve_mean_field_grid([d], [d.kappa], d.eta)


def test_branch_off_the_fixed_point_is_a_numerical_failure():
    """A weak pull whose root the closed form loses to cancellation (n = 0,
    or n a few digits off) is a numerical failure, not a branch: the scalar
    and the grid solve reject the same pulls, and agree bit for bit on the
    others."""
    base = baseline_params(power=0.05, bec_present=False)
    failed = []
    for xi in MIRROR_FREQ * np.logspace(-23.0, -8.0, 61):
        params = dataclasses.replace(base, xi_override=xi)
        d = derive_quantities(params)
        try:
            scalar = solve_mean_field(params, delta_c=d.kappa, d=d)
        except NumericalError as exc:
            assert str(exc).startswith("mean-field branch n = ")
            assert "is off the field fixed point" in str(exc)
            with pytest.raises(NumericalError, match="off the field fixed point"):
                solve_mean_field_grid([d], [d.kappa], d.eta)
            failed.append(xi)
            continue
        grid = solve_mean_field_grid([d], [d.kappa], d.eta)
        assert grid.n.tobytes() == scalar.n.tobytes()
        assert abs(scalar.n[0] * ((d.kappa - d.beta * scalar.n[0]) ** 2 + d.kappa ** 2)
                   - d.eta ** 2) <= 1e-8 * d.eta ** 2
    # the lost roots are the weakest pulls, and the strongest here are kept
    assert failed and failed == [xi for xi in MIRROR_FREQ * np.logspace(-23.0, -8.0, 61)
                                 if xi <= failed[-1]]
    assert failed[-1] < MIRROR_FREQ * 1e-10


def test_strong_pull_root_survives_underflow():
    """At a pull so strong that p and q of the depressed cubic underflow,
    the one root n = (eta / beta)^(2/3) comes from the cubic solved for
    n / 2^k, in the scalar and the grid solve alike."""
    params = dataclasses.replace(baseline_params(power=0.05, bec_present=False),
                                 xi_override=1e60 * MIRROR_FREQ)
    d = derive_quantities(params)
    scalar = solve_mean_field(params, delta_c=d.kappa, d=d)
    grid = solve_mean_field_grid([d], [d.kappa], d.eta)
    assert scalar.label.tolist() == ["unique"]
    assert not scalar.degenerate[0]
    assert scalar.n[0] == pytest.approx((d.eta / d.beta) ** (2.0 / 3.0), rel=1e-12)
    assert grid.n.tobytes() == scalar.n.tobytes()


def test_zero_power_single_dark_branch(reference):
    branches = solve_mean_field(reference, delta_c=4 * reference_kappa(), power=0.0)
    assert len(branches) == 1
    assert branches.n[0] == 0.0
    assert branches.alpha[0] == 0.0


def test_branch_count_below_and_inside_window():
    params = baseline_params(bec_present=False)
    delta_c = 4 * reference_kappa()
    assert count_roots(params, delta_c, 0.100) == 1
    assert count_roots(params, delta_c, 0.250) == 3


def test_branch_labels_and_order():
    params = baseline_params(bec_present=False)
    delta_c = 4 * reference_kappa()
    branches = solve_mean_field(params, delta_c=delta_c, power=0.250)
    assert branches.label.tolist() == ["lower", "middle", "upper"]
    assert branches.index.tolist() == branches.group.tolist() == [0, 0, 0]
    ns = branches.n.tolist()
    assert ns == sorted(ns)


def test_branch_residuals_and_consistency():
    params = baseline_params(sw_frequency=0.5 * MIRROR_FREQ)
    d = derive_quantities(params)
    rng = np.random.default_rng(7)
    for _ in range(200):
        delta_c = rng.uniform(-2, 8) * d.kappa
        power = rng.uniform(1e-4, 0.5)
        eta = drive_rate(power, d.kappa, d.omega_cav)
        branches = solve_mean_field(params, delta_c=delta_c, power=power)
        for n, alpha, Delta in zip(*(x.tolist() for x in
                                     (branches.n, branches.alpha, branches.Delta))):
            residual = abs(n * (Delta ** 2 + d.kappa ** 2) - eta ** 2)
            assert residual <= 1e-10 * eta ** 2
            assert Delta == pytest.approx(delta_c - d.beta * n, rel=1e-12, abs=1e-9)
            assert alpha == math.sqrt(n)


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
    assert branches.degenerate.any()
    assert branches.label.tolist() == ["lower", "upper"]
    flagged = branches.n[branches.degenerate][0]
    assert flagged == pytest.approx(window.n_knee_low, rel=1e-5)


def test_power_photon_number_roundtrip():
    params = baseline_params(sw_frequency=0.3 * MIRROR_FREQ)
    delta_c = 2.4 * reference_kappa()
    for power in (0.01, 0.17):
        for n in solve_mean_field(params, delta_c=delta_c, power=power).n.tolist():
            assert power_at_photon_number(params, delta_c, n) == \
                   pytest.approx(power, rel=1e-10)
