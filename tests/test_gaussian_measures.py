import math
from dataclasses import replace

import numpy as np
import pytest

from optobec import (ATOM_FIELD, MIRROR_ATOM, MIRROR_FIELD,
                     bogoliubov_excitations, derive_quantities,
                     log_negativity, mirror_phonons, reduce_bipartition)
from optobec.presets import MIRROR_FREQ, baseline_params
from optobec.steady_state import imposed_detuning_branches
from optobec.sweep import evaluate_branches

from conftest import random_physical_cm, rotation_2mode, two_mode_squeezer
from oracles import log_negativity_oracle, sideband_occupation, symplectic_eta_minus


def tmsv_cm(r, dtype=float):
    """Two-mode squeezed vacuum covariance in the block form [[B, C], [C^T, B]]."""
    r = dtype(r)
    c2, s2 = np.cosh(2 * r), np.sinh(2 * r)
    v = np.zeros((4, 4), dtype=dtype)
    v[:2, :2] = v[2:, 2:] = 0.5 * c2 * np.eye(2, dtype=dtype)
    v[:2, 2:] = v[2:, :2] = 0.5 * s2 * np.diag(np.array([1.0, -1.0], dtype=dtype))
    return v


def test_occupations_vacuum():
    v = 0.5 * np.eye(6)
    assert mirror_phonons(v) == 0.0
    assert bogoliubov_excitations(v) == 0.0


def test_occupations_thermal_block():
    nbar = 832.9648654280111
    v = 0.5 * np.eye(6)
    v[2, 2] = v[3, 3] = nbar + 0.5
    assert mirror_phonons(v) == pytest.approx(nbar, rel=1e-12)
    assert bogoliubov_excitations(v) == 0.0


def test_condensate_occupation_closed_form():
    # decoupled condensate block at sw = omega_m: sw^2/(8(gc^2 + Oc(Oc+sw)))
    d = derive_quantities(baseline_params(sw_frequency=MIRROR_FREQ))
    expected = d.omega_sw ** 2 / (
        8.0 * (d.gamma_c ** 2 + d.Omega_c * (d.Omega_c + d.omega_sw)))
    assert expected == pytest.approx(0.07309940453241254, rel=1e-12)
    from optobec import solve_lyapunov
    a = np.array([[-d.gamma_c, d.Omega_c],
                  [-(d.Omega_c + d.omega_sw), -d.gamma_c]])
    block = solve_lyapunov(a, np.diag([d.gamma_c, d.gamma_c]))
    v = 0.5 * np.eye(6)
    v[4:, 4:] = block
    assert bogoliubov_excitations(v) == pytest.approx(expected, rel=1e-9)


def test_condensate_occupation_vanishes_without_collisions():
    # sw = 0, dark cavity: the vacuum solves the decoupled block exactly
    d = derive_quantities(baseline_params(sw_frequency=0.0))
    a = np.array([[-d.gamma_c, d.Omega_c], [-d.Omega_c, -d.gamma_c]])
    residual = a @ (0.5 * np.eye(2)) + (0.5 * np.eye(2)) @ a.T \
        + np.diag([d.gamma_c, d.gamma_c])
    assert np.abs(residual).max() == 0.0


def test_reduction_index_bookkeeping():
    v = np.arange(36, dtype=float).reshape(6, 6)
    v = 0.5 * (v + v.T)
    reduced = reduce_bipartition(v, MIRROR_FIELD)
    # mirror quadratures first (rows/cols 3,4 in 1-based counting), then field
    expected = v[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])]
    np.testing.assert_array_equal(reduced, expected)
    np.testing.assert_array_equal(
        reduce_bipartition(v, ATOM_FIELD), v[np.ix_([4, 5, 0, 1], [4, 5, 0, 1])])
    np.testing.assert_array_equal(
        reduce_bipartition(v, MIRROR_ATOM), v[np.ix_([2, 3, 4, 5], [2, 3, 4, 5])])
    # a sequence of splits gathers each of them, in order
    splits = (MIRROR_FIELD, ATOM_FIELD, MIRROR_ATOM)
    np.testing.assert_array_equal(reduce_bipartition(v, splits),
                                  [reduce_bipartition(v, bp) for bp in splits])


def test_reduction_of_vacuum():
    v = 0.5 * np.eye(6)
    reduced = reduce_bipartition(v, MIRROR_FIELD)
    np.testing.assert_array_equal(reduced, 0.5 * np.eye(4))
    assert np.all(reduced[:2, 2:] == 0.0)


def test_uncorrelated_vacua_are_separable():
    v = 0.5 * np.eye(4)
    assert symplectic_eta_minus(v) == pytest.approx(0.5, rel=1e-12)
    assert log_negativity_oracle(v) == 0.0
    assert log_negativity(v) == 0.0


def test_thermal_product_states_are_separable():
    for n1, n2 in ((0.0, 3.0), (11.2, 0.4), (832.9, 832.9)):
        v = np.diag([n1 + 0.5, n1 + 0.5, n2 + 0.5, n2 + 0.5])
        assert log_negativity(v) == 0.0


def test_two_mode_squeezed_entanglement_exact():
    # extended-precision covariance entries: the double-rounded matrix itself
    # carries an intrinsic cond(V) ~ e^{4r} sensitivity at large squeezing;
    # the float64 eigensolver of the oracle reads E_N to about 3e-8 at r = 5
    for r in np.linspace(0.0, 5.0, 51):
        v = tmsv_cm(r, dtype=np.longdouble)
        e_n = log_negativity(v)
        assert e_n == pytest.approx(2 * r, rel=1e-9, abs=1e-9)
        assert e_n == pytest.approx(log_negativity_oracle(v), abs=1e-7)


def test_two_mode_squeezed_entanglement_double_inputs():
    # plain double covariances stay accurate to the conditioning limit
    for r in np.linspace(0.0, 3.0, 31):
        assert log_negativity(tmsv_cm(r)) == pytest.approx(2 * r, abs=2e-7)


def test_entanglement_positive_iff_eta_below_half():
    # against the eigensolver oracle: E_N agrees with -ln 2 eta_minus, and
    # is positive exactly where eta_minus < 1/2 (away from roundoff of 1/2)
    rng = np.random.default_rng(3)
    entangled = 0
    for _ in range(200):
        v = random_physical_cm(rng)
        e_n, eta_minus = log_negativity(v), symplectic_eta_minus(v)
        assert e_n >= 0.0
        assert e_n == pytest.approx(log_negativity_oracle(v), abs=1e-9)
        if abs(eta_minus - 0.5) > 1e-9:
            assert (e_n > 0.0) == (eta_minus < 0.5)
        entangled += bool(e_n > 0.0)
    assert 0 < entangled < 200


def test_uncorrelated_modes_never_entangled():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = np.zeros((4, 4))
        v[:2, :2] = random_physical_cm(rng)[:2, :2]
        v[2:, 2:] = random_physical_cm(rng)[2:, 2:]
        assert log_negativity(v) == 0.0


def test_local_rotation_invariance():
    rng = np.random.default_rng(17)
    v = random_physical_cm(rng)
    base = log_negativity(v)
    for _ in range(100):
        s = rotation_2mode(*rng.uniform(0, 2 * math.pi, 2))
        rotated = log_negativity(s @ v @ s.T)
        assert rotated == pytest.approx(base, abs=1e-9)


def test_squeezing_then_measuring_roundtrip():
    # entanglement of S(r) vacuum S(r)^T must be 2r whatever local frame
    rng = np.random.default_rng(23)
    for r in (0.2, 0.9, 1.7):
        s = rotation_2mode(*rng.uniform(0, 2 * math.pi, 2)) @ two_mode_squeezer(r)
        v = s @ (0.5 * np.eye(4)) @ s.T
        assert log_negativity(v) == pytest.approx(2 * r, rel=1e-9)


def test_rejects_nonphysical_covariance():
    v = np.array([[0.5, 0.0, 2.0, 0.0],
                  [0.0, 0.5, 0.0, 2.0],
                  [2.0, 0.0, 2.0, 0.0],
                  [0.0, 2.0, 0.0, 2.0]])
    with pytest.raises(ValueError, match="not physical"):
        log_negativity(v)
    # an integer covariance fails as its float copy does
    v = np.array([[2, 0, 2, 0], [0, 2, 0, -2], [2, 0, 2, 0], [0, -2, 0, 2]])
    with pytest.raises(ValueError) as as_float:
        log_negativity(v.astype(float))
    with pytest.raises(ValueError) as as_int:
        log_negativity(v)
    assert str(as_int.value) == str(as_float.value) == (
        "covariance is not physical: eta_minus^2 = 0.000e+00 <= 0")


def test_rejects_covariance_beyond_float_range():
    """Determinants that overflow (a bath near 1e300 K gives such a
    covariance) are an error, not E_N = 0, and warn nothing."""
    hot = np.diag([1e160] * 4)
    with pytest.raises(ValueError, match="covariance leaves the float range"):
        log_negativity(np.stack([0.5 * np.eye(4), hot]))


def test_rejects_wrong_shape():
    with pytest.raises(ValueError, match="4x4"):
        log_negativity(np.eye(6))
    with pytest.raises(ValueError, match="4x4"):
        log_negativity(np.zeros(4))


def test_stacked_log_negativity_equals_each_covariance():
    rng = np.random.default_rng(29)
    stack = np.stack([random_physical_cm(rng) for _ in range(50)]
                     + [0.5 * np.eye(4), np.diag([3.5, 3.5, 0.5, 0.5])])
    result = log_negativity(stack)
    assert result.shape == (52,) and result.dtype == float
    assert (result > 0.0).any()
    for i, v in enumerate(stack):
        alone = log_negativity(v)
        assert alone.shape == ()
        assert result[i] == alone and math.copysign(1.0, result[i]) == math.copysign(1.0, alone)
    nested = log_negativity(stack.reshape(2, 26, 4, 4))
    assert nested.tobytes() == result.tobytes()
    # an integer stack gives the E_N of its float copy, in float64
    ints = np.stack([np.array([[1, 0, 1, 0], [0, 1, 0, -1], [1, 0, 2, 0], [0, -1, 0, 2]]),
                     np.eye(4, dtype=int), 3 * np.eye(4, dtype=int)])
    assert ints.dtype == np.int64
    result = log_negativity(ints)
    assert result.dtype == np.float64 and result[0] > 0.0
    assert result.tobytes() == log_negativity(ints.astype(float)).tobytes()


def test_stacked_log_negativity_keeps_extended_precision():
    from optobec.gaussian_measures import _eta_terms

    def det_v(stack):
        # the numpy-column lane, which every longdouble input takes
        return _eta_terms(stack.reshape(-1, 16).T, np.where, np.maximum, np.sqrt)[2]

    stack = np.stack([tmsv_cm(r, dtype=np.longdouble) for r in np.linspace(0.0, 5.0, 11)])
    assert stack.dtype == np.longdouble
    dets = det_v(stack)
    assert dets.dtype == np.longdouble
    result = log_negativity(stack)
    for i, v in enumerate(stack):
        assert dets[i] == det_v(v)[0]
        assert result[i] == log_negativity(v)


def test_stacked_reduction_and_occupations():
    rng = np.random.default_rng(31)
    stack = np.stack([np.kron(np.eye(3), random_physical_cm(rng)[:2, :2])
                      for _ in range(5)])
    for bp in (MIRROR_FIELD, ATOM_FIELD, MIRROR_ATOM):
        reduced = reduce_bipartition(stack, bp)
        assert reduced.shape == (5, 4, 4)
        for v, r in zip(stack, reduced):
            assert np.array_equal(r, reduce_bipartition(v, bp))
    full = rng.normal(size=(5, 6, 6))
    gathered = reduce_bipartition(full, (MIRROR_FIELD, ATOM_FIELD, MIRROR_ATOM))
    assert gathered.shape == (5, 3, 4, 4)
    for k, bp in enumerate((MIRROR_FIELD, ATOM_FIELD, MIRROR_ATOM)):
        assert np.array_equal(gathered[:, k], reduce_bipartition(full, bp))
    assert np.array_equal(mirror_phonons(stack), [mirror_phonons(v) for v in stack])
    assert np.array_equal(bogoliubov_excitations(stack),
                          [bogoliubov_excitations(v) for v in stack])


def _stable_measures(d, Delta):
    """Photon numbers and measures of the branches at the imposed effective
    detunings ``Delta``, each of which must be stable."""
    branches = imposed_detuning_branches([d], Delta, np.zeros(len(Delta), dtype=np.intp))
    verdicts, measures = evaluate_branches(branches, [d], full=True)
    assert verdicts == ["stable"] * len(Delta)
    return branches.n, measures


@pytest.mark.parametrize("power", [0.5e-3, 2e-3, 5e-3])
def test_mirror_occupation_matches_sideband_cooling(power):
    """Without a condensate the mirror occupation is the weak-coupling
    sideband-cooling limit, up to a correction of order (g/kappa)^2."""
    d = derive_quantities(baseline_params(power=power, bec_present=False))
    Delta = np.array([0.5, 1.0, 1.5, 2.0]) * d.omega_m
    for Delta_i, n, measures in zip(Delta, *_stable_measures(d, Delta)):
        g = d.xi * math.sqrt(n / 2.0)
        n_f = sideband_occupation(d.gamma_m, d.nbar, g, d.kappa, Delta_i, d.omega_m)
        assert abs(measures[0] / n_f - 1.0) <= 2.0 * (g / d.kappa) ** 2


@pytest.mark.parametrize("power", [0.5e-3, 2e-3, 5e-3])
def test_condensate_occupation_matches_sideband_cooling(power):
    """With the mirror decoupled and no collisions (omega_sw = 0) the
    Bogoliubov occupation is the same limit for a mode at omega_B with
    energy damping 2 gamma_c and a bath at zero temperature.  The formula
    does not hold at omega_sw != 0, where the condensate drift block is not
    symmetric."""
    d = derive_quantities(replace(baseline_params(power=power, sw_frequency=0.0),
                                  xi_override=0.0))
    Delta = np.array([0.5, 1.0, 1.5]) * d.omega_B
    for Delta_i, n, measures in zip(Delta, *_stable_measures(d, Delta)):
        g = d.zeta * math.sqrt(n / 2.0)
        n_f = sideband_occupation(2.0 * d.gamma_c, 0.0, g, d.kappa, Delta_i, d.omega_B)
        assert abs(measures[1] / n_f - 1.0) <= 4.0 * (g / d.kappa) ** 2
