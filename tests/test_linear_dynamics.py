import itertools
import math
from collections import Counter

import numpy as np
import pytest

import optobec.sweep
from optobec import (NumericalError, characteristic_polynomial,
                     derive_quantities, diffusion_matrix, drift_matrix,
                     figure_preset, is_stable, run_sweep, solve_lyapunov,
                     solve_mean_field)
from optobec.linear_dynamics import point_verdict
from optobec.presets import MIRROR_FREQ, baseline_params, reference_kappa
from optobec.steady_state import BranchColumns
from optobec.sweep import _expand_configs, _sweep_branches

from conftest import random_stable_matrix
from oracles import (eigenbasis_lyapunov, hurwitz_verdict, matrix_charpoly,
                     stability_oracle)
from test_sweep import PRESET_LOCK


def _branches(*pairs):
    """Columns of ``unique`` branches, group 0, at (n, Delta) pairs."""
    n, delta = np.array(pairs, dtype=float).reshape(-1, 2).T
    zero = np.zeros(len(n), dtype=int)
    return BranchColumns(index=zero, group=zero, n=n, alpha=np.sqrt(n), Delta=delta,
                         label=np.full(len(n), "unique", dtype=object),
                         degenerate=np.zeros(len(n), dtype=bool))


# ---------------------------------------------------------------- drift


def test_drift_sparsity_and_signs():
    params = baseline_params(sw_frequency=0.5 * MIRROR_FREQ)
    d = derive_quantities(params)
    alpha = 3.0e4
    a, = drift_matrix(_branches((alpha ** 2, 1.3 * d.omega_m)), d)

    g_m = math.sqrt(2) * d.xi * alpha
    g_c = math.sqrt(2) * d.zeta * alpha
    expected = np.zeros((6, 6))
    expected[0, 0] = expected[1, 1] = -d.kappa
    expected[0, 1] = 1.3 * d.omega_m
    expected[1, 0] = -1.3 * d.omega_m
    expected[1, 2] = g_m
    expected[1, 4] = -g_c
    expected[2, 3] = d.omega_m
    expected[3, 0] = g_m
    expected[3, 2] = -d.omega_m
    expected[3, 3] = -d.gamma_m
    expected[4, 4] = expected[5, 5] = -d.gamma_c
    expected[4, 5] = d.Omega_c
    expected[5, 0] = -g_c
    expected[5, 4] = -(d.Omega_c + d.omega_sw)
    np.testing.assert_allclose(a, expected, rtol=1e-15)


def test_drift_dark_cavity_block_diagonal():
    params = baseline_params(sw_frequency=MIRROR_FREQ)
    d = derive_quantities(params)
    a, = drift_matrix(_branches((0.0, 0.7 * d.kappa)), d)
    # no field, no couplings: three independent 2x2 blocks
    assert a[1, 2] == 0.0 and a[1, 4] == 0.0
    assert a[3, 0] == 0.0 and a[5, 0] == 0.0
    np.testing.assert_allclose(a[:2, :2], [[-d.kappa, 0.7 * d.kappa],
                                           [-0.7 * d.kappa, -d.kappa]])
    np.testing.assert_allclose(a[2:4, 2:4], [[0.0, d.omega_m],
                                             [-d.omega_m, -d.gamma_m]])
    np.testing.assert_allclose(a[4:, 4:], [[-d.gamma_c, d.Omega_c],
                                           [-(d.Omega_c + d.omega_sw), -d.gamma_c]])


def test_drift_absent_condensate_decouples():
    params = baseline_params(sw_frequency=MIRROR_FREQ).without_bec()
    d = derive_quantities(params)
    a, = drift_matrix(_branches((1e9, d.omega_m)), d)
    assert np.all(a[:4, 4:] == 0.0)
    assert np.all(a[4:, :4] == 0.0)


def test_drift_cooling_point_coupling_rate():
    # field amplitude from the fixed point at Delta = omega_m, 50 mW
    params = baseline_params(sw_frequency=2.0 * MIRROR_FREQ)
    d = derive_quantities(params)
    n = d.eta ** 2 / (d.omega_m ** 2 + d.kappa ** 2)
    a, = drift_matrix(_branches((n, d.omega_m)), d)
    assert a[1, 2] == pytest.approx(math.sqrt(2) * d.xi * math.sqrt(n), rel=1e-14)
    assert a[1, 2] == pytest.approx(26780544.07, rel=1e-9)
    assert a[1, 2] / d.omega_m == pytest.approx(0.4262, rel=1e-3)


# ------------------------------------------------------------ diffusion


def test_diffusion_zero_temperature():
    params = baseline_params(temperature=0.0)
    d = derive_quantities(params)
    dm = diffusion_matrix(d)
    assert dm[3, 3] == d.gamma_m


def test_diffusion_reference_bath():
    d = derive_quantities(baseline_params())
    dm = diffusion_matrix(d)
    assert dm[0, 0] == d.kappa and dm[1, 1] == d.kappa
    assert dm[2, 2] == 0.0
    assert dm[3, 3] == pytest.approx(d.gamma_m * 1666.9297308560222, rel=1e-12)
    assert dm[4, 4] == d.gamma_c and dm[5, 5] == d.gamma_c
    assert np.count_nonzero(dm - np.diag(np.diag(dm))) == 0


def test_diffusion_condensate_thermal_flag():
    d = derive_quantities(baseline_params(sw_frequency=MIRROR_FREQ))
    cold = diffusion_matrix(d)
    assert cold[4, 4] == d.gamma_c
    # at 0.1 uK the mode is far above the bath scale, so a thermal factor
    # 2 nbar_bec + 1 on the condensate entries would be 1
    assert d.nbar_bec == 0.0


# ------------------------------------- characteristic polynomial


def test_charpoly_known_spectra():
    a = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
    np.testing.assert_allclose(
        matrix_charpoly(a),
        [720.0, 1764.0, 1624.0, 735.0, 175.0, 21.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(
        matrix_charpoly(np.zeros((6, 6))),
        [0, 0, 0, 0, 0, 0, 1], atol=1e-30)
    np.testing.assert_allclose(
        matrix_charpoly(-np.eye(6)),
        [1, 6, 15, 20, 15, 6, 1], rtol=1e-12)


def test_charpoly_interpolation_oracle():
    """Coefficients must match a Vandermonde fit of det(s I - A) samples."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-2, 3)
        coeffs = matrix_charpoly(a)
        scale = max(1.0, np.abs(a).max()) * 2.0
        nodes = scale * np.cos((2 * np.arange(7) + 1) / 14.0 * np.pi)
        samples = [np.linalg.det(s * np.eye(6) - a) for s in nodes]
        fitted = np.linalg.solve(np.vander(nodes, 7, increasing=True), samples)
        for k in range(7):
            bound = 1e-9 * max(abs(fitted[k]), math.comb(6, k) * scale ** (6 - k))
            assert abs(coeffs[k] - fitted[k]) <= bound


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError):
        matrix_charpoly(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_charpoly(np.zeros((4, 2, 3)))


def test_charpoly_stack_equals_each_matrix():
    rng = np.random.default_rng(5)
    stack = np.stack([rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-3, 8)
                      for _ in range(40)] + [np.zeros((6, 6)), -np.eye(6)])
    coeffs = matrix_charpoly(stack)
    assert coeffs.shape == (42, 7)
    for a, row in zip(stack, coeffs):
        assert row.tobytes() == matrix_charpoly(a).tobytes()
    nested = matrix_charpoly(stack[:40].reshape(5, 8, 6, 6))
    assert nested.tobytes() == coeffs[:40].tobytes()


def test_closed_form_dark_cavity_factorizes():
    """With no field the drift is three 2x2 blocks, so det(lambda I - A) is
    the product of the field, mirror and condensate quadratics."""
    d = derive_quantities(baseline_params(sw_frequency=MIRROR_FREQ))
    delta = 0.7 * d.kappa
    roots = [-d.kappa + 1j * delta, -d.kappa - 1j * delta,
             *np.roots([1.0, d.gamma_m, d.omega_m ** 2]),
             -d.gamma_c + 1j * d.omega_B, -d.gamma_c - 1j * d.omega_B]
    coeffs = characteristic_polynomial(_branches((0.0, delta)), d)
    assert coeffs.shape == (1, 7) and coeffs[0, 6] == 1.0
    coeffs = coeffs[0]
    np.testing.assert_allclose(coeffs, np.poly(roots)[::-1].real, rtol=1e-12)


def test_closed_form_verdicts_on_every_preset_row(monkeypatch):
    """Every row of the ten presets gets the verdict of the recurrence on its
    drift, and the worst coefficient error against the extended-precision
    recurrence is no larger than that of the float64 recurrence."""
    calls = []

    def recorded(branches, d):
        calls.append((branches, d))
        return characteristic_polynomial(branches, d)

    monkeypatch.setattr(optobec.sweep, "characteristic_polynomial", recorded)
    for fig in sorted(PRESET_LOCK):
        run_sweep(figure_preset(fig))
    rows, worst_closed, worst_oracle = 0, 0.0, 0.0
    for branches, d in calls:
        closed = characteristic_polynomial(branches, d)
        a = drift_matrix(branches, d)
        oracle, exact = matrix_charpoly(a), matrix_charpoly(a.astype(np.longdouble))
        assert is_stable(closed) == is_stable(oracle)
        worst_closed = max(worst_closed, (np.abs(closed - exact) / np.abs(exact)).max())
        worst_oracle = max(worst_oracle, (np.abs(oracle - exact) / np.abs(exact)).max())
        rows += len(closed)
    assert rows == 24816
    assert worst_closed <= worst_oracle


# ------------------------------------------------- Hurwitz stability


def test_stability_known_cases():
    assert is_stable([720.0, 1764.0, 1624.0, 735.0, 175.0, 21.0, 1.0]) == "stable"
    assert is_stable([-2.0, 1.0, 1.0]) == "unstable"  # root at +1
    assert is_stable([2.0, 3.0, 1.0]) == "stable"     # roots -1, -2
    assert is_stable([1.0, 1.0, 1.0, 1.0]) == "marginal"  # roots -1, +-i


def test_stability_epsilon_pivot():
    # (s^2+s+1)(s^2+1) = s^4+s^3+2s^2+s+1: Delta_3 == 0, roots on the axis
    assert is_stable([1.0, 1.0, 2.0, 1.0, 1.0]) == "marginal"


def test_stability_rejects_degenerate():
    with pytest.raises(ValueError):
        is_stable([1.0])
    with pytest.raises(ValueError):
        is_stable([1.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        is_stable([1.0, 2.0, -1.0])
    with pytest.raises(ValueError):
        is_stable([1.0] * 8)             # degree 7
    with pytest.raises(ValueError):
        is_stable(np.ones((1, 1, 3)))


def test_stability_scaled_input():
    # positive scaling of a monic polynomial must not change the verdict
    assert is_stable([4.0, 6.0, 2.0]) == "stable"


def test_stability_at_any_root_scale():
    """(s + sigma)^6 is Hurwitz and (s^2 + sigma^2)(s + sigma)^4 has one
    simple pair of roots on the axis at any scale sigma of the roots, in
    both lanes: the determinants are taken after an exact power-of-two
    rescaling of s, so Delta_5, of degree 15 in sigma, neither overflows
    nor underflows."""
    sigmas = [2.0 ** -100, 1e-30, 1e45, 2.0 ** 150]
    hurwitz = np.array([np.poly(np.full(6, -s))[::-1] for s in sigmas])
    assert is_stable(hurwitz) == [is_stable(row) for row in hurwitz] \
        == [point_verdict(row) for row in hurwitz.tolist()] == ["stable"] * 4
    axis = np.array([np.polymul([1.0, 0.0, s * s], np.poly(np.full(4, -s)))[::-1]
                     for s in (2.0 ** -150, 2.0 ** 150) * 2])
    assert is_stable(axis) == [is_stable(row) for row in axis] \
        == [point_verdict(row) for row in axis.tolist()] == ["marginal"] * 4


def test_small_integer_verdicts_follow_the_roots():
    """All 7,996 monic polynomials of degree 2-6 with coefficients 1-5 (1-4
    at degree 6) are exact in float64: a verdict is stable iff every root
    (eigenvalue of the companion matrix) has Re < 0 and unstable if one has
    Re > 0.  The 87 with roots on the imaginary axis get the exact Hurwitz
    verdict: marginal for one simple pair, unstable for two pairs (distinct
    or double)."""
    axis = Counter()
    for n in range(2, 7):
        rows = np.array([[*c, 1.0] for c in
                         itertools.product(range(1, 5 if n == 6 else 6), repeat=n)])
        companion = np.zeros((len(rows), n, n))
        companion[:, 1:, :-1] = np.eye(n - 1)
        companion[:, :, -1] = -rows[:, :-1]
        growth = np.linalg.eigvals(companion).real.max(axis=1)
        for row, verdict, rate in zip(rows.tolist(), is_stable(rows), growth.tolist()):
            if abs(rate) <= 1e-6:
                assert verdict == hurwitz_verdict(row), row
                axis[verdict] += 1
            else:
                assert verdict == ("stable" if rate < 0.0 else "unstable"), row
    assert axis == {"marginal": 71, "unstable": 16}


def test_middle_branch_always_unstable():
    params = baseline_params(bec_present=False)
    d = derive_quantities(params)
    delta_c = 4 * reference_kappa()
    for power in np.linspace(0.220, 0.590, 100):
        branches = solve_mean_field(params, delta_c=delta_c, power=power)
        assert len(branches) == 3
        verdicts = is_stable(characteristic_polynomial(branches, d))
        assert verdicts[1] == "unstable"


def test_verdicts_match_decay_oracle():
    """1000 random matrices outside the marginal band, 100% agreement."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        a = rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-2, 3)
        a -= rng.uniform(-1.0, 1.0) * np.abs(a).max() * np.eye(6) * 0.3
        scale = np.abs(a).max()
        spectral = np.linalg.eigvals(a).real.max()
        if abs(spectral) < 1e-3 * scale:
            continue  # marginal band, excluded
        verdict = is_stable(matrix_charpoly(a))
        rate = stability_oracle(a, rng=rng)
        assert verdict in ("stable", "unstable")
        assert (verdict == "stable") == (rate < 0.0), \
            f"disagreement at spectral abscissa {spectral:.3e}"
        checked += 1


def test_oracle_known_rates():
    assert stability_oracle(-np.eye(6)) == pytest.approx(-1.0, rel=1e-6)
    rate = stability_oracle(np.diag([1.0, -1.0, -2.0, -3.0, -4.0, -5.0]))
    assert rate == pytest.approx(1.0, rel=1e-6)
    assert stability_oracle(np.zeros((6, 6))) == 0.0


# -------------------------------------------------------- Lyapunov


def test_lyapunov_decoupled_optical_block():
    kappa, delta = 2.7, 1.1
    a = np.array([[-kappa, delta], [-delta, -kappa]])
    v = solve_lyapunov(a, np.diag([kappa, kappa]))
    np.testing.assert_allclose(v, 0.5 * np.eye(2), rtol=0, atol=1e-9)


def test_lyapunov_decoupled_mirror_block():
    omega, gamma, nbar = 5.0, 1e-4, 832.9648654280111
    a = np.array([[0.0, omega], [-omega, -gamma]])
    d = np.diag([0.0, gamma * (2 * nbar + 1)])
    v = solve_lyapunov(a, d)
    np.testing.assert_allclose(v, (nbar + 0.5) * np.eye(2), rtol=1e-9)


def test_lyapunov_decoupled_condensate_block():
    params = baseline_params(sw_frequency=MIRROR_FREQ)
    d = derive_quantities(params)
    a = np.array([[-d.gamma_c, d.Omega_c],
                  [-(d.Omega_c + d.omega_sw), -d.gamma_c]])
    v = solve_lyapunov(a, np.diag([d.gamma_c, d.gamma_c]))
    denom = 4.0 * (d.gamma_c ** 2 + d.Omega_c * (d.Omega_c + d.omega_sw))
    expected_qp = -d.omega_sw * d.gamma_c / denom
    assert v[0, 1] == pytest.approx(expected_qp, rel=1e-9)
    assert v[1, 0] == v[0, 1]
    # closed-form diagonal via the pivot relations
    assert v[0, 0] == pytest.approx(0.5 + d.Omega_c / d.gamma_c * v[0, 1], rel=1e-9)
    assert v[1, 1] == pytest.approx(
        0.5 - (d.Omega_c + d.omega_sw) / d.gamma_c * v[0, 1], rel=1e-9)


def test_lyapunov_residual_random_campaign():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = random_stable_matrix(rng)
        d = np.diag(rng.uniform(0.0, 2.0, size=6))
        v = solve_lyapunov(a, d)
        np.testing.assert_allclose(v, v.T, atol=1e-12)
        residual = np.abs(a @ v + v @ a.T + d).max()
        assert residual <= 1e-8 * np.abs(d).max()


def test_lyapunov_decoupling_equivalence():
    """With the condensate decoupled, the field-mirror block of the 6x6
    solution equals the standalone 4x4 solution."""
    params = baseline_params(sw_frequency=MIRROR_FREQ).without_bec()
    d = derive_quantities(params)
    branches = solve_mean_field(params, delta_c=1.2 * d.omega_m, power=0.05)
    a6 = drift_matrix(branches, d)[0]
    v6 = solve_lyapunov(a6, diffusion_matrix(d))
    a4 = a6[:4, :4]
    d4 = diffusion_matrix(d)[:4, :4]
    v4 = solve_lyapunov(a4, d4)
    scale = np.abs(v4).max()
    np.testing.assert_allclose(v6[:4, :4], v4, atol=1e-10 * scale)
    # no cross correlations with the decoupled mode
    np.testing.assert_allclose(v6[:4, 4:], 0.0, atol=1e-12 * scale)


def test_lyapunov_stack_equals_each_matrix():
    rng = np.random.default_rng(8)
    for n in (2, 6):
        stack = np.stack([random_stable_matrix(rng, n=n) for _ in range(30)])
        diffusion = np.diag(rng.uniform(0.1, 2.0, n))
        v = solve_lyapunov(stack, diffusion)
        assert v.shape == (30, n, n)
        for a, row in zip(stack, v):
            assert row.tobytes() == solve_lyapunov(a, diffusion).tobytes()


@pytest.mark.parametrize("fig_id", ["fig5a", "fig7"])
def test_lyapunov_matches_eigenbasis_oracle(fig_id):
    """The stable rows of every configuration of a full-mode preset, in one
    stack with per-row diffusion, agree with the eigenbasis solution to
    1e-12 relative wherever the eigenbasis is well conditioned."""
    spec = figure_preset(fig_id)
    values = np.linspace(spec.lo, spec.hi, spec.points).tolist()
    ds, branches = _sweep_branches(spec.variable, values, _expand_configs(spec))
    verdicts = is_stable(characteristic_polynomial(branches, ds))
    stable = [i for i, verdict in enumerate(verdicts) if verdict == "stable"]
    a = drift_matrix(branches, ds)[stable]
    d = np.array([diffusion_matrix(x) for x in ds])[branches.group[stable]]
    v = solve_lyapunov(a, d)
    reference, cond = eigenbasis_lyapunov(a, d)
    conditioned = cond < 1e6
    # at most the one near-defective row of each configuration is skipped
    assert len(stable) - conditioned.sum() <= len(ds)
    error = (np.abs(v - reference).max(axis=(1, 2))
             / np.abs(reference).max(axis=(1, 2)))
    assert error[conditioned].max() <= 1e-12


def test_lyapunov_pieces_equal_one_stack(monkeypatch):
    """Ragged pieces, the default bound and a reshaped stack give the same bits."""
    import optobec.linear_dynamics as ld

    rng = np.random.default_rng(10)
    stack = np.stack([random_stable_matrix(rng) for _ in range(300)])
    diffusion = np.diag(rng.uniform(0.1, 2.0, 6))
    assert ld.LYAPUNOV_STACK_ROWS < 300
    whole = solve_lyapunov(stack, diffusion)
    reshaped = solve_lyapunov(stack.reshape(2, 150, 6, 6), diffusion)
    monkeypatch.setattr(ld, "LYAPUNOV_STACK_ROWS", 7)
    ragged = solve_lyapunov(stack, diffusion)
    assert whole.shape == ragged.shape == (300, 6, 6)
    assert reshaped.shape == (2, 150, 6, 6)
    assert ragged.tobytes() == whole.tobytes() == reshaped.tobytes()


def test_lyapunov_residual_failure_names_its_row(monkeypatch):
    import optobec.linear_dynamics as ld

    rng = np.random.default_rng(11)
    stack = np.stack([random_stable_matrix(rng) for _ in range(30)])
    # a near-defective drift: stable, but the solve misses the residual bound
    stack[16] = -np.eye(6)
    stack[16, :2, :2] = [[-1e-6, 1e6], [0.0, -1e-6]]
    diffusion = np.eye(6)
    for rows in (7, ld.LYAPUNOV_STACK_ROWS):   # row 16 in the third piece, in the first
        monkeypatch.setattr(ld, "LYAPUNOV_STACK_ROWS", rows)
        with pytest.raises(NumericalError,
                           match=r"^Lyapunov residual .* at stack row 16; "):
            solve_lyapunov(stack, diffusion)


def test_drift_stack_equals_each_branch():
    d = derive_quantities(baseline_params(power=0.05, sw_frequency=MIRROR_FREQ))
    branches = _branches((1e3, -1e7), (2.5e5, 0.0), (4e6, 6.3e7), (0.0, 1.2e8))
    stack = drift_matrix(branches, d)
    assert stack.shape == (4, 6, 6)
    for i, a in enumerate(stack):
        assert a.tobytes() == drift_matrix(branches[i:i + 1], d).tobytes()


def test_lyapunov_marginal_raises():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NumericalError):
        solve_lyapunov(rotation, np.eye(2))


def test_covariance_uncertainty_bound():
    """Physical steady states respect det(single-mode block) >= 1/4."""
    params = baseline_params(sw_frequency=2.0 * MIRROR_FREQ)
    d = derive_quantities(params)
    diffusion = diffusion_matrix(d)
    for ratio in (0.3, 0.8, 1.0, 1.5, 2.2, 2.9):
        delta = ratio * d.omega_m
        n = d.eta ** 2 / (delta ** 2 + d.kappa ** 2)
        branch = _branches((n, delta))
        if is_stable(characteristic_polynomial(branch, d)) != ["stable"]:
            continue
        v = solve_lyapunov(drift_matrix(branch, d)[0], diffusion)
        for k in range(3):
            block = v[2 * k: 2 * k + 2, 2 * k: 2 * k + 2]
            assert np.linalg.det(block) >= 0.25 - 1e-9
