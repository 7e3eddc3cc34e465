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
                     is_stable, solve_mean_field)
from optobec.config import params_from_dict
from optobec.linear_dynamics import _routh_table_verdict
from optobec.steady_state import build_branch

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import point_config  # noqa: E402

PROPERTY = dict(derandomize=True, database=None, deadline=None)


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
    a = drift_matrix(solve_mean_field(params), d)
    for matrix, coeffs in zip(a, characteristic_polynomial(a)):
        growth = np.linalg.eigvals(matrix).real.max()
        if abs(growth) <= 1e-9 * np.abs(matrix).max():
            continue   # inside the roundoff band of the eigenvalues
        assert is_stable(coeffs) == ("stable" if growth < 0.0 else "unstable")


@settings(max_examples=80, **PROPERTY)
@given(st.data(), st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=8))
def test_stacked_evaluation_equals_single_rows(data, detunings):
    params = drawn_params(data)
    d = derive_quantities(params)
    # the cubic's branches plus fixed-point branches at imposed detunings
    branches = solve_mean_field(params) + [
        build_branch(d.eta ** 2 / ((x * d.omega_m) ** 2 + d.kappa ** 2),
                     x * d.omega_m, d, "unique") for x in detunings]
    diffusion = diffusion_matrix(d)
    verdicts, measures = evaluate_branches(branches, d, diffusion)
    for branch, verdict, measure in zip(branches, verdicts, measures):
        (alone_verdict,), (alone,) = evaluate_branches([branch], d, diffusion)
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
