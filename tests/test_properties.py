"""Property tests over the physical parameter box of the benchmark's
``point`` configurations (perfbench/workloads.py, ``point_config``).

Hypothesis runs derandomized with a bounded number of examples, so every
run checks the same configurations.
"""

import math
import pathlib
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from optobec import (characteristic_polynomial, derive_quantities,
                     diffusion_matrix, drift_matrix, evaluate_branches,
                     is_stable, solve_mean_field)
from optobec.config import params_from_dict
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
