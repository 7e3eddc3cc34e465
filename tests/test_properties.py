"""Property tests over the physical parameter box of the benchmark's
``point`` configurations (perfbench/workloads.py, ``point_config``).

Hypothesis runs derandomized with a bounded number of examples, so every
run checks the same configurations.
"""

import json
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optobec import (bistability_window, characteristic_polynomial,
                     derive_quantities, diffusion_matrix, drift_matrix,
                     evaluate_branches, is_stable, log_negativity,
                     solve_lyapunov, solve_mean_field)
from optobec.config import params_from_dict
from optobec.gaussian_measures import point_log_negativity
from optobec.linear_dynamics import (_charpoly_terms, point_charpoly, point_drift,
                                     point_verdict)
from optobec.model import drive_rate
from optobec.presets import baseline_params, reference_kappa
from optobec.steady_state import (BranchColumns, _cubic_constants,
                                  _mean_field_cubic, _real_cubic_roots,
                                  _stacked_cubic_roots,
                                  imposed_detuning_branches,
                                  solve_mean_field_grid)
from optobec.sweep import SMALL_STACK_ROWS, to_json

from conftest import rotation_2mode, two_mode_squeezer
from oracles import (branch_rows, hurwitz_determinants, hurwitz_term_scales,
                     hurwitz_verdict, matrix_charpoly)

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
    branches = solve_mean_field(params)
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
    assert len(branches)
    for n in branches.n.tolist():
        residual = n * ((delta_c - d.beta * n) ** 2 + d.kappa ** 2) - d.eta ** 2
        assert abs(residual) <= 1e-10 * d.eta ** 2


@settings(max_examples=100, **PROPERTY)
@given(st.data())
def test_stable_covariances_are_physical(data):
    """V + i Omega / 2 >= 0 (Simon, PRL 84, 2726 (2000)) at every stable branch."""
    params = drawn_params(data)
    d = derive_quantities(params)
    branches = solve_mean_field(params, d=d)
    stable = [i for i, v in enumerate(is_stable(characteristic_polynomial(branches, d)))
              if v == "stable"]
    if not stable:
        return
    for v in solve_lyapunov(drift_matrix(branches, d)[stable], diffusion_matrix(d)):
        assert np.linalg.eigvalsh(v + 0.5j * OMEGA).min() >= -1e-9 * np.abs(v).max()


def drawn_branches(params, d, detunings):
    """The cubic's branches plus fixed-point branches at imposed detunings,
    given as multiples of the mirror frequency, as one set of columns."""
    imposed = imposed_detuning_branches([d], np.array(detunings) * d.omega_m,
                                        np.zeros(len(detunings), dtype=int))
    cubic = solve_mean_field(params, d=d)
    return BranchColumns(*(np.concatenate([getattr(x, name) for x in (cubic, imposed)])
                           for name in BranchColumns.__dataclass_fields__))


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
    coeffs = characteristic_polynomial(branches, d)
    a = drift_matrix(branches, d)
    for reference in (matrix_charpoly(a), matrix_charpoly(a.astype(np.longdouble))):
        assert np.all(np.abs(coeffs - reference) <= 1e-10 * np.abs(reference))
    assert coeffs.shape == (len(branches), 7)
    for i, row in enumerate(coeffs):
        assert (characteristic_polynomial(branches[i:i + 1], d).tobytes()
                == row.tobytes())
    # the Python-float step of a point's verdicts, row by row, against the
    # numpy columns of a list of derived quantities
    rows = list(zip(branches.alpha.tolist(), branches.Delta.tolist()))
    assert (np.array(point_charpoly(d, rows)).tobytes()
            == characteristic_polynomial(branches, [d]).tobytes())


@settings(max_examples=100, **PROPERTY)
@given(st.data(), DETUNINGS, st.booleans())
def test_small_drift_stacks_equal_numpy_lane(data, detunings, decoupled):
    """The Python-float step of a point's drift matrices, on the first
    1, 2, ... rows, gives the drift of the numpy columns bit for bit, signed
    zeros too: a decoupled condensate has -g_c = -0.0."""
    params = drawn_params(data)
    if decoupled:
        params = params.without_bec()
    d = derive_quantities(params)
    branches = drawn_branches(params, d, detunings)
    rows = list(zip(branches.alpha.tolist(), branches.Delta.tolist()))
    for size in range(1, len(rows) + 1):
        assert (point_drift(d, rows[:size]).tobytes()
                == drift_matrix(branches[:size], [d]).tobytes())
    if decoupled:
        assert math.copysign(1.0, point_drift(d, rows[:1])[0, 1, 4]) == -1.0


@settings(max_examples=100, **PROPERTY)
@given(st.data(), st.booleans())
def test_charpoly_terms_match_longdouble_convolution(data, decoupled):
    """The Python-float products of _charpoly_terms are within a few ulps of
    np.convolve over the same float64 inputs in extended precision."""
    params = drawn_params(data)
    d = derive_quantities(params.without_bec() if decoupled else params)
    terms = np.array(_charpoly_terms(d))
    wide = np.longdouble
    mirror = np.array([d.omega_m ** 2, d.gamma_m, 1.0], dtype=wide)
    condensate = np.array([d.gamma_c ** 2 + d.Omega_c * (d.Omega_c + d.omega_sw),
                           2.0 * d.gamma_c, 1.0], dtype=wide)
    for got, want in ((terms[1, :5], np.convolve(mirror, condensate)),
                      (terms[2], np.convolve(np.array([0.0, 2.0 * d.kappa, 1.0], dtype=wide),
                                             terms[1, :5].astype(wide)))):
        error = np.abs(got.astype(wide) - want)
        assert np.all(error <= 4 * np.spacing(np.abs(want).astype(float)))


@settings(max_examples=80, **PROPERTY)
@given(st.data(), DETUNINGS)
def test_stacked_evaluation_equals_single_rows(data, detunings):
    params = drawn_params(data)
    d = derive_quantities(params)
    branches = drawn_branches(params, d, detunings)
    verdicts, measures = evaluate_branches(branches, d, full=True)
    for i, (verdict, measure) in enumerate(zip(verdicts, measures)):
        (alone_verdict,), (alone,) = evaluate_branches(branches[i:i + 1], d, full=True)
        assert verdict == alone_verdict
        assert (measure is None) == (alone is None)
        for x, y in zip(measure or (), alone or ()):
            assert x == y
            assert math.copysign(1.0, x) == math.copysign(1.0, y)


def _evaluated(branches, d):
    """The verdicts of ``evaluate_branches(branches, d, True)`` and the bytes
    of its measures, or the type and text of the exception it raises."""
    try:
        verdicts, measures = evaluate_branches(branches, d, True)
    except Exception as exc:
        return type(exc), str(exc)
    return verdicts, [None if m is None else np.array(m).tobytes() for m in measures]


@settings(max_examples=150, **PROPERTY)
@given(st.data(), DETUNINGS, st.booleans())
def test_point_lane_equals_numpy_lane(data, detunings, decoupled):
    """Every run of at most SMALL_STACK_ROWS branches of one configuration,
    the cubic's and those at imposed detunings, gets from the Python-float
    lane (``d`` itself) the verdicts and the measure bits, signed zeros
    too, or the exception type and text, that the numpy columns of
    ``[d]`` give it."""
    params = drawn_params(data)
    if decoupled:
        params = params.without_bec()
    d = derive_quantities(params)
    branches = drawn_branches(params, d, detunings)
    for start in range(len(branches)):
        part = branches[start:start + SMALL_STACK_ROWS]
        assert _evaluated(part, d) == _evaluated(part, [d])


# Ascending coefficients of polynomials with roots on the imaginary axis, each
# with Delta_(n-1) == 0 and so marginal: (s+1)(s^2+1), (s^2+s+1)(s^2+1),
# (s^2+1)(s+1)^2(s^2+s+1) and (s^2+1)(s+1)^4.
AXIS_ROOTS = {3: [[1.0, 1.0, 1.0, 1.0]],
              4: [[1.0, 1.0, 2.0, 1.0, 1.0]],
              6: [[1.0, 3.0, 5.0, 6.0, 5.0, 3.0, 1.0],
                  [1.0, 4.0, 7.0, 8.0, 7.0, 4.0, 1.0]]}
# Polynomials with positive coefficients and Delta_2 == 0 whose roots are the
# fifth or seventh roots of unity but 1, some in the right half-plane.
ZERO_MINORS = {3: [], 4: [[1.0, 1.0, 1.0, 1.0, 1.0]], 6: [[1.0] * 7]}
LEADS = [1.0, 0.5, 4.0]


@st.composite
def coefficient_stacks(draw):
    """Stacks of one degree mixing Hurwitz polynomials, arbitrary ones with
    non-positive coefficients (small integers often give a zero Hurwitz
    determinant) and polynomials with a zero Hurwitz determinant of that
    degree."""
    degree = draw(st.sampled_from(sorted(AXIS_ROOTS)))
    lead = st.sampled_from(LEADS)
    hurwitz = st.builds(
        lambda roots, c: list(np.poly(-np.array(roots))[::-1] * c),
        st.lists(st.floats(0.01, 100.0), min_size=degree, max_size=degree), lead)
    coefficient = st.one_of(st.integers(-1, 3).map(float), st.floats(-1.0, 50.0))
    arbitrary = st.builds(lambda c, top: c + [top],
                          st.lists(coefficient, min_size=degree, max_size=degree), lead)
    zero_minor = st.sampled_from(AXIS_ROOTS[degree] + ZERO_MINORS[degree])
    rows = st.one_of(hurwitz, arbitrary, zero_minor)
    # more rows than a point has branches, and at least one zero Hurwitz
    # determinant among them
    stack = draw(st.lists(rows, min_size=SMALL_STACK_ROWS, max_size=12))
    stack.insert(draw(st.integers(0, len(stack))), draw(zero_minor))
    return np.array(stack)


@st.composite
def integer_stacks(draw):
    """Stacks of 1-8 rows of one degree from 1 to 6, with small-integer
    coefficients over a power-of-two leading one: exact in float64 all the
    way through the Hurwitz determinants."""
    degree = draw(st.integers(1, 6))
    coefficient = st.one_of(st.integers(1, 5), st.integers(-1, 5)).map(float)
    row = st.builds(lambda c, top: c + [top],
                    st.lists(coefficient, min_size=degree, max_size=degree),
                    st.sampled_from(LEADS))
    return np.array(draw(st.lists(row, min_size=1, max_size=8)))


def _float_verdict_is_decided(row):
    """Whether float64 must reproduce the exact verdict of ``row``: its
    coefficients are small integers, one is not positive, or each exact
    Delta_k the verdict reads is beyond 1e-12 of the sum of its terms'
    magnitudes."""
    if all(x.is_integer() and abs(x) <= 100.0 for x in row[:-1]) or min(row) <= 0.0:
        return True
    deltas, scales = hurwitz_determinants(row), hurwitz_term_scales(row)
    return all(abs(x) > 1e-12 * scale for x, scale in zip(deltas[:-1], scales))


def _rescaled(stack, shift):
    """``stack`` with s -> 2^shift s: a coefficient of weight k (the power of
    s it lacks) times 2^(k shift), which is exact while every nonzero
    coefficient stays a normal float, so ``shift`` is clamped to keep them
    so."""
    weights = np.arange(stack.shape[1] - 1, -1, -1)
    used = (stack != 0.0) & (weights > 0)
    exponents = np.frexp(stack)[1][used]
    k = np.broadcast_to(weights, stack.shape)[used]
    low = (-((1000 + exponents) // k)).max(initial=-150)
    high = ((1000 - exponents) // k).min(initial=150)
    return np.ldexp(stack, weights * int(np.clip(shift, low, high)))


@settings(max_examples=200, **PROPERTY)
@given(st.one_of(coefficient_stacks(), integer_stacks()), st.integers(-150, 150))
def test_verdicts_equal_exact_hurwitz_oracle(stack, shift):
    """Every row of a stack, in either lane, gets the verdict of its exact
    rational Hurwitz determinants wherever float64 can decide it, and the
    same verdict with its roots scaled by up to 2^(+-150), which leaves the
    exact verdict as it is."""
    verdicts = is_stable(stack)
    assert is_stable(_rescaled(stack, shift)) == verdicts
    for row, verdict in zip(stack.tolist(), verdicts):
        if _float_verdict_is_decided(row):
            assert verdict == hurwitz_verdict(row), row


@settings(max_examples=50, **PROPERTY)
@given(coefficient_stacks())
def test_small_stacks_agree_with_whole_stack(stack):
    """Every row, evaluated in Python floats by the verdict step of a point,
    gets its verdict in the whole stack, which is evaluated on numpy
    columns, and so does every slice of 1-3 rows."""
    whole = is_stable(stack)
    assert [point_verdict(row) for row in stack.tolist()] == whole
    for size in range(1, SMALL_STACK_ROWS + 1):
        for start in range(len(stack) - size + 1):
            assert is_stable(stack[start:start + size]) == whole[start:start + size]


def test_axis_roots_read_marginal_in_both_lanes():
    # the numpy columns of is_stable, on three rows and on two copies of them
    # (six rows), and the Python-float verdict step of a point, row by row
    for copies in (1, 2):
        # (s+1)(s+2)(s+3) is Hurwitz; s^3 + s^2 - s + 1 has a negative
        # coefficient
        cubics = [AXIS_ROOTS[3][0], [6.0, 11.0, 6.0, 1.0], [1.0, -1.0, 1.0, 1.0]] * copies
        assert is_stable(cubics) == [point_verdict(row) for row in cubics] \
            == ["marginal", "stable", "unstable"] * copies
        # (s+1)^6 next to the degree-6 axis-root polynomials
        stack = np.array([[1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0],
                          *AXIS_ROOTS[6]] * copies)
        assert is_stable(stack) == [point_verdict(row) for row in stack.tolist()] \
            == ["stable", "marginal", "marginal"] * copies
        assert is_stable(stack[:0]) == []
        with pytest.raises(ValueError):
            is_stable(stack[None])
        with pytest.raises(ValueError):
            is_stable([[2.0, 3.0, 1.0], [1.0, 2.0, 0.0]] * copies)


ANGLES = st.floats(0.0, 2.0 * math.pi)


@st.composite
def bipartite_covariances(draw):
    """A 4x4: a physical two-mode covariance S diag(nu1, nu1, nu2, nu2) S^T,
    that times 2^k for |k| <= 500, a rank-deficient one, one with a zero
    row and column (a zero pivot), one of thirds k/3 for |k| <= 3 (ties
    for the pivot, inexact quotients and negative discriminants), or one
    with an entry that is not finite, in a physical one or in a zero
    column."""
    s = (rotation_2mode(draw(ANGLES), draw(ANGLES))
         @ two_mode_squeezer(draw(st.floats(0.0, 3.0)))
         @ rotation_2mode(draw(ANGLES), draw(ANGLES)))
    nu1, nu2 = draw(st.floats(0.5, 50.0)), draw(st.floats(0.5, 50.0))
    v = s @ np.diag([nu1, nu1, nu2, nu2]) @ s.T
    # physical three times in four, so that slices of several covariances
    # still give values
    kind = draw(st.sampled_from(("physical",) * 15 + (
        "scaled", "rank", "zero_pivot", "thirds", "not_finite")))
    if kind == "scaled":
        v = np.ldexp(v, draw(st.integers(-500, 500)))
    elif kind == "rank":
        u = v[:, :draw(st.integers(1, 3))]
        v = u @ u.T
    elif kind == "zero_pivot":
        i = draw(st.integers(0, 3))
        v[i, :] = v[:, i] = 0.0
    elif kind == "thirds":
        v = np.array(draw(st.lists(st.integers(-3, 3), min_size=16, max_size=16)),
                     dtype=float).reshape(4, 4) / 3.0
    elif kind == "not_finite":
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        if draw(st.booleans()):   # alone in a zero column: a NaN wins the pivot
            v[j, :] = v[:, j] = 0.0
        v[i, j] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    return v


def _outcome(v4, part=slice(None)):
    """E_N bytes of ``log_negativity(v4)[part]``, or the text of its error."""
    try:
        return log_negativity(v4)[part].tobytes()
    except ValueError as exc:
        return str(exc)


def _point_outcome(v4):
    """E_N bytes of the Python-float step of a point's log-negativities on
    the covariances of ``v4``, in its shape, or the text of its error."""
    try:
        e_n = point_log_negativity(v4.reshape(-1, 16).tolist())
    except ValueError as exc:
        return str(exc)
    return np.array(e_n).reshape(v4.shape[:-2]).tobytes()


@settings(max_examples=100, **PROPERTY)
@given(st.lists(st.lists(bipartite_covariances(), min_size=3, max_size=3),
                min_size=SMALL_STACK_ROWS + 1, max_size=8).map(np.array))
def test_small_covariance_stacks_agree_with_whole_stack(stack):
    """Every slice of 1-3 branches of three splits each (3-9 covariances),
    evaluated in Python floats by the log-negativity step of a point, gets
    the E_N bytes, or the ValueError text, that its covariances get in
    place in the whole stack (more than nine, evaluated on numpy columns),
    where every covariance outside the slice is the vacuum, so that an
    error can name only one of the slice."""
    for size in range(1, SMALL_STACK_ROWS + 1):
        for start in range(len(stack) - size + 1):
            part = slice(start, start + size)
            whole = np.broadcast_to(0.5 * np.eye(4), stack.shape).copy()
            whole[part] = stack[part]
            assert _point_outcome(stack[part]) == _outcome(whole, part)


def _knee_row(r, s, scale, nudge):
    """Cubic scale (x - r)^2 (x - s), its constant term nudged by a relative
    ``nudge``: a double root, or a pair just off one."""
    a3, a2, a1, a0 = (float(c) for c in scale * np.poly([r, r, s]))
    return (a3, a2, a1, a0 * (1.0 + nudge))


_COEFFICIENT = st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0))
_LEAD = st.one_of(st.integers(-3, 3).filter(bool).map(float),
                  st.floats(0.01, 100.0), st.floats(-100.0, -0.01))
_POSITIVE = st.one_of(st.integers(1, 3).map(float), st.floats(0.01, 100.0))
# the kernels solve only the mean-field cubic, whose a1 is positive:
# arbitrary rows and rows at or near a knee with a3 != 0 and a0 != 0, and
# its two special shapes, no pull (a3 = a2 = 0) and no drive (a0 = 0, with
# a quadratic left that has no real root)
_CUBIC_ROWS = st.one_of(
    st.tuples(_LEAD, _COEFFICIENT, _COEFFICIENT, _COEFFICIENT).filter(
        lambda c: c[3] != 0.0),
    st.builds(_knee_row, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
              st.floats(0.1, 10.0),
              st.sampled_from([0.0, 1e-13, -1e-11, 1e-9, -1e-8, 1e-6])).filter(
        lambda c: c[3] != 0.0),
    st.tuples(st.just(0.0), st.just(0.0), _POSITIVE, _COEFFICIENT),
    st.tuples(_POSITIVE, _COEFFICIENT, _POSITIVE, st.just(0.0)).filter(
        lambda c: c[1] * c[1] < 4.0 * c[0] * c[2]),
)


@st.composite
def cubic_stacks(draw):
    """Stacks of cubics mixing arbitrary coefficients (small integers hit the
    exact special cases), no-pull and no-drive rows, rows at or near a knee
    and dense random rows."""
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
                      [0.0, 0.0, 2.0, -3.0],     # no pull, beta = 0
                      [1.0, -2.0, 2.0, 0.0],     # no drive, eta = 0
                      [1.0, -6.0, 11.0, -6.0],   # three real roots
                      [1.0, 0.0, 1.0, 1.0]])     # one real root
    row, flag = assert_rows_equal_scalar_kernel(stack)
    assert row.tolist() == [0, 1, 1, 2, 3, 4, 4, 4, 5]
    assert flag.tolist()[:3] == [True, True, False]
    assert _real_cubic_roots(*stack[2]) == [(1.5, False)]
    assert _signed(_real_cubic_roots(*stack[3])) == [(0.0, 1.0, False)]


def _power_cubic(d, delta_c, power):
    return _mean_field_cubic(*_cubic_constants(d), delta_c, delta_c ** 2,
                             drive_rate(power, d.kappa, d.omega_cav))


def _on_knee(d, delta_c, power):
    return any(flag for _, flag in _real_cubic_roots(*_power_cubic(d, delta_c, power)))


def test_stacked_cubic_across_the_knee_band():
    """Power-sweep cubics around the edge of the knee test, where the stacked
    kernel's products leave the decision to libm's powers, plus rows whose
    products underflow or overflow.

    For 50 detunings, each knee of ``bistability_window`` and each side of
    it, the power is bisected for the edge of the scalar kernel's test
    |disc| <= 1e-9 disc_scale.  The stack holds the powers 8 ulps either
    side of that edge, which put some rows where p*p*p and libm's p**3 fall
    on opposite sides of it, and the powers whose distance to the knee is
    the edge's times 1 +- 1e-5 ... 1e-3, which put |disc| / disc_scale from
    inside the band (1.1e-13 either side of 1e-9) to 1e-12 past it on both
    sides.  Roots and knee flags must equal the scalar kernel's, bit for
    bit, and an overflowing product must raise libm's ``OverflowError`` in
    both kernels.
    """
    params = baseline_params(bec_present=False)
    d = derive_quantities(params)
    rows = []
    for delta_c in np.linspace(2.0, 8.0, 50) * reference_kappa():
        window = bistability_window(params, delta_c)
        for knee in (window.power_low, window.power_high):
            for side in (1.0, -1.0):
                on, off = knee, knee * (1.0 + side * 1e-8)
                assert _on_knee(d, delta_c, on) and not _on_knee(d, delta_c, off)
                while 0.5 * (on + off) not in (on, off):
                    mid = 0.5 * (on + off)
                    on, off = (mid, off) if _on_knee(d, delta_c, mid) else (on, mid)
                powers = [off + j * math.ulp(off) for j in range(-8, 9)]
                powers += [knee + (off - knee) * (1.0 + sign * f) for sign in (1.0, -1.0)
                           for f in (1e-5, 3e-5, 1e-4, 3e-4, 1e-3)]
                rows += [_power_cubic(d, delta_c, power) for power in powers]
    underflow = [(1.0, 0.0, 1e-110, -1.0),    # p*p*p underflows to 0
                 (1.0, 0.0, 1e-105, -1.0),    # p*p*p is subnormal
                 (1.0, 0.0, -3.0, 1e-170),    # q*q underflows to 0
                 # a knee by libm's disc, whose disc_scale 6.3e-311 is
                 # subnormal: p*p*p is 2^-1074 off libm's p**3, past the band
                 (1.0, 0.0, -3.972984343613674e-104, 3.0480591738398715e-156)]
    stack = np.array(rows + underflow)
    row, flag = assert_rows_equal_scalar_kernel(stack)
    assert 0 < flag.sum() < len(stack)
    for overflow in [(1.0, 0.0, 1e110, -1.0),     # p*p*p overflows
                     (1.0, 0.0, 1.0, -1e160)]:    # q*q and disc_scale overflow
        with pytest.raises(OverflowError) as scalar:
            _real_cubic_roots(*overflow)
        with pytest.raises(OverflowError) as stacked:
            _stacked_cubic_roots(*np.array(rows[:8] + [overflow]).T)
        assert str(stacked.value) == str(scalar.value)


_DECADES = st.floats(-60.0, 60.0).map(lambda e: 10.0 ** e)


@settings(max_examples=200, **PROPERTY)
@given(st.just(0.0) | st.floats(-120.0, 120.0).map(lambda e: 10.0 ** e),
       st.just(0.0) | _DECADES | _DECADES.map(lambda x: -x), _DECADES)
def test_no_drive_has_the_one_root_zero(beta, delta_c, kappa):
    """eta = 0 leaves n = 0 as the one root of the mean-field cubic, exactly
    and from both kernels, over many decades of beta, delta_c and kappa: the
    quadratic left has no real root, although its discriminant
    -4 beta^2 kappa^2 is lost to roundoff once kappa << |delta_c|."""
    coeffs = _mean_field_cubic(beta, beta * beta, kappa * kappa, delta_c,
                               delta_c * delta_c, 0.0)
    assert _signed(_real_cubic_roots(*coeffs)) == [(0.0, 1.0, False)]
    row, root, flag = _stacked_cubic_roots(*([c] for c in coeffs))
    assert row.tolist() == [0]
    assert _signed(zip(root.tolist(), flag.tolist())) == [(0.0, 1.0, False)]


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
            (solve_mean_field_grid([d], delta_c, d.eta),
             [solve_mean_field(params, delta_c=x, d=d) for x in delta_c]),
            (solve_mean_field_grid([d], params.cavity.detuning, eta),
             [solve_mean_field(params, power=p, d=d) for p in power])):
        assert grid.index.tolist() == [i for i, branches in enumerate(per_point)
                                       for _ in range(len(branches))]
        assert branch_rows(grid) == [row for branches in per_point
                                     for row in branch_rows(branches)]


# ASCII, quotes, a backslash, control characters and non-ASCII text: Latin-1,
# two- and three-byte characters, a line separator, a lone surrogate and an
# astral-plane character
_JSON_TEXT = st.text(st.sampled_from(
    '"\\/ aZ09\x00\x01\x08\x0c\x1f\x7f\t\n\r\xe9\xffĀ€\u2028\ud800\uffff\U0001f600'))
# numpy's float64 is a float subclass, which json writes as a float
_JSON_FLOATS = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-308, 1e16, 1e-7, math.nan,
                     math.inf, -math.inf]))
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), _JSON_FLOATS, _JSON_TEXT, st.integers(),
    st.integers(2 ** 63, 2 ** 200).flatmap(lambda n: st.sampled_from([n, -n])))
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=5)),
    max_leaves=30)


@settings(max_examples=150, **PROPERTY)
@given(_JSON_DOCS)
def test_to_json_equals_json_dumps(doc):
    assert to_json(doc) == json.dumps(doc, sort_keys=True) + "\n"


@pytest.mark.parametrize("key, text", [(1, '"1"'), (2.5, '"2.5"'), (True, '"true"'),
                                       (None, '"null"')],
                         ids=["int", "float", "bool", "None"])
def test_to_json_writes_keys_as_json_does(key, text):
    """A key that is not a str is written as json writes it, as a string."""
    assert to_json({key: 0}) == "{" + text + ": 0}\n"
    with pytest.raises(TypeError):   # keys of kinds that do not sort together
        to_json({key: 0, "a": 1})


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", 1j, np.float32(1.0),
                                   np.int64(1), np.bool_(True)],
                         ids=["set", "bytes", "complex", "float32", "int64", "bool_"])
def test_to_json_rejects_what_json_rejects(value):
    doc = {"rows": [{"value": value}]}
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True)
    with pytest.raises(TypeError):
        to_json(doc)
