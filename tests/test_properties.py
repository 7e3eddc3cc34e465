"""Property tests over the physical parameter box of the benchmark's
``point`` configurations (perfbench/workloads.py, ``point_config``).

Hypothesis runs derandomized with a bounded number of examples, so every
run checks the same configurations.
"""

import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optobec import (characteristic_polynomial, derive_quantities,
                     diffusion_matrix, drift_matrix, evaluate_branches,
                     is_stable, solve_lyapunov, solve_mean_field)
from optobec.config import params_from_dict
from optobec.linear_dynamics import _routh_table_verdict
from optobec.model import drive_rate
from optobec.steady_state import (BranchColumns, _real_cubic_roots,
                                  _stacked_cubic_roots, build_branch,
                                  solve_mean_field_grid)

from oracles import matrix_charpoly

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import point_config  # noqa: E402

PROPERTY = dict(derandomize=True, database=None, deadline=None)

# symplectic form of the three modes, quadratures ordered (x, p) per mode
OMEGA = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])


class DrawnRandom:
    """Stand-in for ``random.Random`` whose draws come from Hypothesis, so the
    examples span exactly the box ``point_config`` samples and shrink inside it."""

    def __init__(self, data):
        self._data = data

    def uniform(self, lo, hi):
        return self._data.draw(st.floats(lo, hi))

    def random(self):
        return self._data.draw(st.floats(0.0, 1.0, exclude_max=True))


def drawn_params(data):
    return params_from_dict(point_config(DrawnRandom(data)))


@settings(max_examples=250, **PROPERTY)
@given(st.data())
def test_routh_verdict_matches_eigenvalue_sign(data):
    params = drawn_params(data)
    d = derive_quantities(params)
    branches = BranchColumns.of(solve_mean_field(params))
    for matrix, coeffs in zip(drift_matrix(branches, d),
                              characteristic_polynomial(branches, d)):
        growth = np.linalg.eigvals(matrix).real.max()
        if abs(growth) <= 1e-9 * np.abs(matrix).max():
            continue   # inside the roundoff band of the eigenvalues
        assert is_stable(coeffs) == ("stable" if growth < 0.0 else "unstable")


@settings(max_examples=100, **PROPERTY)
@given(st.data())
def test_branches_solve_the_cubic(data):
    params = drawn_params(data)
    d = derive_quantities(params)
    delta_c = params.cavity.detuning
    branches = solve_mean_field(params, d=d)
    assert branches
    for b in branches:
        residual = b.n * ((delta_c - d.beta * b.n) ** 2 + d.kappa ** 2) - d.eta ** 2
        assert abs(residual) <= 1e-10 * d.eta ** 2


@settings(max_examples=100, **PROPERTY)
@given(st.data())
def test_stable_covariances_are_physical(data):
    """V + i Omega / 2 >= 0 (Simon, PRL 84, 2726 (2000)) at every stable branch."""
    params = drawn_params(data)
    d = derive_quantities(params)
    branches = BranchColumns.of(solve_mean_field(params, d=d))
    stable = [i for i, v in enumerate(is_stable(characteristic_polynomial(branches, d)))
              if v == "stable"]
    if not stable:
        return
    for v in solve_lyapunov(drift_matrix(branches, d)[stable], diffusion_matrix(d)):
        assert np.linalg.eigvalsh(v + 0.5j * OMEGA).min() >= -1e-9 * np.abs(v).max()


def drawn_branches(params, d, detunings):
    """The cubic's branches plus fixed-point branches at imposed detunings,
    given as multiples of the mirror frequency."""
    return solve_mean_field(params, d=d) + [
        build_branch(d.eta ** 2 / ((x * d.omega_m) ** 2 + d.kappa ** 2),
                     x * d.omega_m, d, "unique") for x in detunings]


DETUNINGS = st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=8)


@settings(max_examples=100, **PROPERTY)
@given(st.data(), DETUNINGS)
def test_closed_form_charpoly_matches_recurrence(data, detunings):
    """The closed-form coefficients agree with the recurrence on the drift,
    run in float64 and in extended precision, to 1e-10 relative; a stack
    gives every branch the bits it gets on its own."""
    params = drawn_params(data)
    d = derive_quantities(params)
    branches = drawn_branches(params, d, detunings)
    columns = BranchColumns.of(branches)
    coeffs = characteristic_polynomial(columns, d)
    a = drift_matrix(columns, d)
    for reference in (matrix_charpoly(a), matrix_charpoly(a.astype(np.longdouble))):
        assert np.all(np.abs(coeffs - reference) <= 1e-10 * np.abs(reference))
    assert coeffs.shape == (len(branches), 7)
    for branch, row in zip(branches, coeffs):
        assert characteristic_polynomial(branch, d).tobytes() == row.tobytes()


@settings(max_examples=80, **PROPERTY)
@given(st.data(), DETUNINGS)
def test_stacked_evaluation_equals_single_rows(data, detunings):
    params = drawn_params(data)
    d = derive_quantities(params)
    branches = BranchColumns.of(drawn_branches(params, d, detunings))
    diffusion = diffusion_matrix(d)
    verdicts, measures = evaluate_branches(branches, d, diffusion)
    for i, (verdict, measure) in enumerate(zip(verdicts, measures)):
        (alone_verdict,), (alone,) = evaluate_branches(branches[i:i + 1], d, diffusion)
        assert verdict == alone_verdict
        assert (measure is None) == (alone is None)
        for key in alone or {}:
            assert measure[key] == alone[key]
            assert math.copysign(1.0, measure[key]) == math.copysign(1.0, alone[key])


# Ascending coefficients of polynomials with roots on the imaginary axis.
# The first of each degree meets an exact-zero first-column entry and is
# marginal: (s+1)(s^2+1), (s^2+s+1)(s^2+1), (s^2+1)(s+1)^2(s^2+s+1).  The
# table of (s^2+1)(s+1)^4 loses its zero row to roundoff (16/5 is inexact),
# so it reads stable on both paths.
AXIS_ROOTS = {3: [[1.0, 1.0, 1.0, 1.0]],
              4: [[1.0, 1.0, 2.0, 1.0, 1.0]],
              6: [[1.0, 3.0, 5.0, 6.0, 5.0, 3.0, 1.0],
                  [1.0, 4.0, 7.0, 8.0, 7.0, 4.0, 1.0]]}


@st.composite
def coefficient_stacks(draw):
    """Stacks of one degree mixing Hurwitz polynomials, arbitrary ones with
    non-positive coefficients (small integers often hit a zero pivot) and
    polynomials with imaginary-axis roots of that degree."""
    degree = draw(st.sampled_from(sorted(AXIS_ROOTS)))
    lead = st.sampled_from([1.0, 0.5, 4.0])
    hurwitz = st.builds(
        lambda roots, c: list(np.poly(-np.array(roots))[::-1] * c),
        st.lists(st.floats(0.01, 100.0), min_size=degree, max_size=degree), lead)
    coefficient = st.one_of(st.integers(-1, 3).map(float), st.floats(-1.0, 50.0))
    arbitrary = st.builds(lambda c, top: c + [top],
                          st.lists(coefficient, min_size=degree, max_size=degree), lead)
    rows = st.one_of(hurwitz, arbitrary, st.sampled_from(AXIS_ROOTS[degree]))
    return np.array(draw(st.lists(rows, min_size=1, max_size=12)))


@settings(max_examples=200, **PROPERTY)
@given(coefficient_stacks())
def test_stacked_verdicts_equal_routh_table(stack):
    assert is_stable(stack) == [_routh_table_verdict(row) for row in stack.tolist()]


def test_stacked_verdicts_fall_back_on_zero_pivots():
    # (s+1)(s+2)(s+3) is Hurwitz; s^3 + s^2 - s + 1 has a negative coefficient
    assert is_stable([AXIS_ROOTS[3][0], [6.0, 11.0, 6.0, 1.0], [1.0, -1.0, 1.0, 1.0]]) \
        == ["marginal", "stable", "unstable"]
    # (s+1)^6 next to the degree-6 axis-root polynomials
    stack = np.array([[1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0], *AXIS_ROOTS[6]])
    assert is_stable(stack) == ["stable", "marginal", "stable"]
    assert is_stable(stack[None]) == [["stable", "marginal", "stable"]]
    assert is_stable(stack[:0]) == []
    with pytest.raises(ValueError):
        is_stable([[2.0, 3.0, 1.0], [1.0, 2.0, 0.0]])


def _knee_row(r, s, scale, nudge):
    """Cubic scale (x - r)^2 (x - s), its constant term nudged by a relative
    ``nudge``: a double root, or a pair just off one."""
    a3, a2, a1, a0 = (float(c) for c in scale * np.poly([r, r, s]))
    return (a3, a2, a1, a0 * (1.0 + nudge))


_COEFFICIENT = st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0))
_LEAD = st.one_of(st.just(0.0), st.integers(-3, 3).map(float),
                  st.floats(0.01, 100.0), st.floats(-100.0, -0.01))
# arbitrary, a0 == 0 and at or near a knee; never an all-zero leading part,
# which the scalar kernel rejects
_CUBIC_ROWS = st.one_of(
    st.tuples(_LEAD, _COEFFICIENT, _COEFFICIENT, _COEFFICIENT),
    st.tuples(_LEAD, _COEFFICIENT, _COEFFICIENT, st.just(0.0)),
    st.builds(_knee_row, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
              st.floats(0.1, 10.0),
              st.sampled_from([0.0, 1e-13, -1e-11, 1e-9, -1e-8, 1e-6])),
).filter(lambda c: any(c[:3]))


@st.composite
def cubic_stacks(draw):
    """Stacks of cubics mixing arbitrary coefficients (small integers hit the
    exact special cases), ``a3 == 0`` and ``a0 == 0`` rows, rows at or near a
    knee and dense random rows."""
    drawn = np.array(draw(st.lists(_CUBIC_ROWS, min_size=1, max_size=16)))
    # dense random rows, uniform and of the mean-field shape
    # beta^2 n^3 - 2 delta_c beta n^2 + (delta_c^2 + kappa^2) n - eta^2,
    # where a last-bit slip of a power or acos shows in a root now and then
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    beta = 10.0 ** rng.uniform(-4.0, 0.0, 64)
    delta_c = rng.uniform(-2.0, 8.0, 64) * 1e7
    eta = 10.0 ** rng.uniform(6.0, 11.0, 64)
    mean_field = np.stack([beta * beta, -2.0 * delta_c * beta,
                           delta_c * delta_c + 1e14, -eta * eta], axis=1)
    return np.concatenate([drawn, rng.uniform(-100.0, 100.0, (64, 4)), mean_field])


def _signed(roots):
    return [(x, math.copysign(1.0, x), flag) for x, flag in roots]


@settings(max_examples=150, **PROPERTY)
@given(cubic_stacks())
def test_stacked_cubic_equals_scalar_kernel(stack):
    assert_rows_equal_scalar_kernel(stack)


def assert_rows_equal_scalar_kernel(stack):
    row, root, flag = _stacked_cubic_roots(*stack.T)
    assert np.all(np.diff(row) >= 0)
    bounds = np.searchsorted(row, np.arange(1, len(stack)))
    for coeffs, roots, flags in zip(stack.tolist(), np.split(root, bounds),
                                    np.split(flag, bounds)):
        assert _signed(zip(roots.tolist(), flags.tolist())) == \
            _signed(_real_cubic_roots(*coeffs))
    return row, flag


def test_stacked_cubic_special_rows():
    stack = np.array([[1.0, -3.0, 3.0, -1.0],    # (x - 1)^3, triple root
                      [1.0, -4.0, 5.0, -2.0],    # (x - 1)^2 (x - 2), knee
                      [0.0, 1.0, -3.0, 2.0],     # quadratic
                      [2.0, 0.0, -2.0, 0.0],     # zero root
                      [1.0, -6.0, 11.0, -6.0],   # three real roots
                      [1.0, 0.0, 1.0, 1.0]])     # one real root
    row, flag = assert_rows_equal_scalar_kernel(stack)
    assert row.tolist() == [0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 5]
    assert flag.tolist()[:3] == [True, True, False]


@settings(max_examples=100, **PROPERTY)
@given(st.data())
def test_grid_solve_equals_scalar_solve(data):
    """A random detuning grid and a random power grid, each solved as one
    stack, give the branches of solve_mean_field at every value, bit for bit."""
    params = drawn_params(data)
    d = derive_quantities(params)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    delta_c = (rng.uniform(-2.0, 8.0, 64) * d.kappa).tolist()
    power = rng.uniform(0.0, 0.3, 64).tolist()
    eta = [drive_rate(p, d.kappa, d.omega_cav) for p in power]
    for grid, per_point in (
            (solve_mean_field_grid(d, delta_c, d.eta),
             [solve_mean_field(params, delta_c=x, d=d) for x in delta_c]),
            (solve_mean_field_grid(d, params.cavity.detuning, eta),
             [solve_mean_field(params, power=p, d=d) for p in power])):
        expected = [(i, b) for i, branches in enumerate(per_point) for b in branches]
        assert grid.index.tolist() == [i for i, _ in expected]
        assert grid.label == [b.label for _, b in expected]
        assert grid.degenerate.tolist() == [b.degenerate for _, b in expected]
        for name in ("n", "alpha", "Delta"):
            assert _signed(zip(getattr(grid, name).tolist(), grid.degenerate.tolist())) \
                == _signed((getattr(b, name), b.degenerate) for _, b in expected)
