"""Linearized fluctuation dynamics: drift and diffusion matrices, algebraic
stability, and the stationary covariance.

The fluctuation state vector is ordered [dX, dY, dq, dp, dQ, dP] (cavity
quadratures, mirror quadratures, condensate-mode quadratures), with vacuum
variance 1/2.  Stability is decided purely algebraically, by the signs of
closed-form Hurwitz determinants of the characteristic polynomial, which
the drift's coupling pattern gives in closed form straight from a branch's
alpha and Delta, with no matrix built.  A verdict is ``stable``,
``marginal`` (one simple pair of roots on the imaginary axis, read from an
exact zero determinant) or ``unstable`` (:func:`is_stable`).  A stack of
branches may span configurations: each row gathers the constants of its own
derived quantities (:func:`per_row`).  The public functions run on numpy
columns.  The drift entries (:func:`_drift_entries`), the polynomial's
per-configuration terms (:func:`_charpoly_terms`) and the verdict
(:func:`_verdict_codes`) are each written once, for numpy columns and
Python floats alike; :func:`point_charpoly`, :func:`point_verdict` and
:func:`point_drift` are their Python-float steps, which
:func:`optobec.sweep.evaluate_branches` takes for the few branches of one
configuration, with the same operations in the same order, so a row has
the same bits either way.  The stationary covariance V solves
A V + V A^T = -D by direct Kronecker vectorization; at fixed size 6 the
36-unknown dense solve costs microseconds and stays free of any eigen/Schur
machinery.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from typing import List, Sequence, Tuple, Union

import numpy as np

from .model import DerivedQuantities

_SQRT2 = math.sqrt(2.0)

#: accepted Lyapunov residual, relative to the diffusion scale
LYAPUNOV_RESIDUAL_RTOL = 1e-8

#: Most rows of one stacked solve in :func:`solve_lyapunov`.  Its
#: ``(rows, n^2, n^2)`` coefficient is the only buffer of the pipeline that
#: grows like n^4 (1.3 MB per 128 rows at n = 6); the stack is solved in
#: pieces of this many rows, so that buffer stays bounded however many rows
#: come in.  Peak RSS of the full-mode benchmark, whole configurations in one
#: call (perfbench full_presets, 2-core VM): 41.6 MB at 64 rows, 42.0-42.2
#: MB at 128 and 43.6-43.7 MB at 256, with rows/s within run-to-run noise
#: of each other.
LYAPUNOV_STACK_ROWS = 128

# verdicts by the codes of _verdict_codes
_VERDICTS = ("unstable", "stable", "marginal")

_OUT_OF_RANGE = "characteristic polynomial leaves the float range"


class NumericalError(RuntimeError):
    """A linear solve hit a singular or marginal system."""


def per_row(d, group, fn):
    """``fn`` of the derived quantities of the rows of a stack.

    ``d`` is one :class:`DerivedQuantities` shared by every row, which gives
    ``fn(d)`` itself (``group`` is not read), or a list of them that the
    int array ``group`` indexes, which gives an array with one entry per
    entry of ``group``.  ``fn`` runs once per configuration, in Python
    floats, so a power it takes is libm's, as on a single configuration;
    the rows only gather its results.  Only the span of configurations the
    rows use is visited (the last one when there are no rows, for the
    shape), so pieces of a long stack cost no more than the whole.
    """
    if isinstance(d, DerivedQuantities):
        return fn(d)
    lo = group.min(initial=len(d) - 1)
    hi = group.max(initial=lo) + 1
    return np.array([fn(x) for x in d[lo:hi]])[group - lo]


def drift_matrix(branches, d) -> np.ndarray:
    """Drift matrices of the linearized dynamics around mean-field branches.

    The :class:`~optobec.steady_state.BranchColumns` of N branches give an
    ``(N, 6, 6)`` stack; only their ``alpha``, ``Delta`` and group enter,
    with ``d`` as in :func:`per_row`.  A condensate-absent configuration has
    zeta = 0, which decouples the last two rows and columns; they are kept
    so the state dimension never changes.  The nonzero entries are
    :func:`_drift_entries` on numpy columns.
    """
    if not isinstance(d, DerivedQuantities):   # each field as a column of rows
        d = DerivedQuantities(*per_row(d, branches.group,
                                       lambda x: [*vars(x).values()]).T)
    entries = _drift_entries(d, branches.alpha, branches.Delta)
    return _drift_stack(np.stack(np.broadcast_arrays(*entries), -1))


def point_drift(d: DerivedQuantities, rows: Sequence[Tuple[float, float]]) -> np.ndarray:
    """:func:`drift_matrix` of the ``(alpha, Delta)`` rows of one
    configuration, given as Python floats: the entries are taken row by row
    in Python floats and scattered once, with the bits of the numpy
    columns, signed zeros too."""
    return _drift_stack([_drift_entries(d, alpha, delta) for alpha, delta in rows])


#: Positions of the entries of :func:`_drift_entries` in a drift matrix.
_DRIFT_ROWS = (0, 0, 1, 1, 1, 1, 2, 3, 3, 3, 4, 4, 5, 5, 5)
_DRIFT_COLUMNS = (0, 1, 0, 1, 2, 4, 3, 0, 2, 3, 4, 5, 0, 4, 5)


def _drift_stack(entries) -> np.ndarray:
    """``(N, 6, 6)`` drift matrices from N rows of :func:`_drift_entries`."""
    a = np.zeros((len(entries), 6, 6))
    a[:, _DRIFT_ROWS, _DRIFT_COLUMNS] = entries
    return a


def _drift_entries(d: DerivedQuantities, alpha, delta) -> tuple:
    """The nonzero entries of a drift matrix, row by row, of Python floats
    or numpy columns alike."""
    g_m = _SQRT2 * d.xi * alpha
    g_c = _SQRT2 * d.zeta * alpha
    return (-d.kappa, delta, -delta, -d.kappa, g_m, -g_c, d.omega_m, g_m,
            -d.omega_m, -d.gamma_m, -d.gamma_c, d.Omega_c, -g_c,
            -(d.Omega_c + d.omega_sw), -d.gamma_c)


def diffusion_matrix(d: DerivedQuantities) -> np.ndarray:
    """Diagonal noise-covariance matrix feeding the Lyapunov equation.

    diag[kappa, kappa, 0, gamma_m (2 nbar + 1), gamma_c, gamma_c]: the
    condensate entries carry the bare damping, the convention for an
    isolated condensate.
    """
    return np.diag([d.kappa, d.kappa, 0.0,
                    d.gamma_m * (2.0 * d.nbar + 1.0), d.gamma_c, d.gamma_c])


def characteristic_polynomial(branches, d) -> np.ndarray:
    """Coefficients of det(lambda I - A) of the drift, ascending order, leading 1.

    Takes the inputs of :func:`drift_matrix` and builds no matrix.  The
    field quadrature X drives the mirror and condensate momenta and their
    positions feed back into Y, so with the mirror and condensate factors
    M = lambda^2 + gamma_m lambda + omega_m^2 and
    B = (lambda + gamma_c)^2 + Omega_c (Omega_c + omega_sw) and the couplings
    G_m = sqrt(2) xi alpha, G_c = sqrt(2) zeta alpha,

        det(lambda I - A) = [(lambda + kappa)^2 + Delta^2] M B
                            - Delta (G_m^2 omega_m B + G_c^2 Omega_c M).

    M B and the coupling polynomial per alpha^2 are fixed by a row's
    configuration (``d`` as in :func:`per_row`), so a row costs two
    products and two sums of 7-vectors: (kappa^2 + Delta^2) and
    Delta alpha^2 are the only per-branch inputs.  N branches give
    ``(N, 7)`` on numpy columns, each row with the operations it gets on
    its own.  A coefficient that leaves the float range raises
    :class:`NumericalError`, so no stability test sees it.
    """
    alpha, delta = branches.alpha, branches.Delta
    with np.errstate(over="ignore", invalid="ignore"):
        kappa_sq, both, fixed, coupling = np.asarray(per_row(
            d, branches.group, _charpoly_terms)).swapaxes(-2, 0)
        coeffs = ((delta * delta + kappa_sq[..., 0])[:, None] * both + fixed
                  - (delta * (alpha * alpha))[:, None] * coupling)
    if not np.isfinite(coeffs).all():
        raise NumericalError(_OUT_OF_RANGE)
    return coeffs


def point_charpoly(d: DerivedQuantities,
                   rows: Sequence[Tuple[float, float]]) -> List[List[float]]:
    """:func:`characteristic_polynomial` of the ``(alpha, Delta)`` rows of
    one configuration, given as Python floats: one 7-list of Python floats
    per row, with the operations and order of the numpy columns, and the
    same :class:`NumericalError` when a coefficient leaves the float
    range."""
    kappa_sq, both, fixed, coupling = _charpoly_terms(d)
    coeffs = [[(y * y + kappa_sq[0]) * b + f - y * (x * x) * c
               for b, f, c in zip(both, fixed, coupling)] for x, y in rows]
    if not all(map(math.isfinite, chain.from_iterable(coeffs))):
        raise NumericalError(_OUT_OF_RANGE)
    return coeffs


def _charpoly_terms(d: DerivedQuantities) -> List[List[float]]:
    """Four 7-lists of Python floats for one configuration: kappa^2 (in
    every entry), M B, [(lambda + kappa)^2 + Delta^2] M B without its
    Delta^2 + kappa^2 term, and the coupling polynomial per alpha^2.  A
    stack gathers the four rows at once."""
    mirror = [d.omega_m ** 2, d.gamma_m, 1.0]
    condensate = [d.gamma_c ** 2 + d.Omega_c * (d.Omega_c + d.omega_sw),
                  2.0 * d.gamma_c, 1.0]
    both = _poly_product(mirror, condensate)
    return [[d.kappa ** 2] * 7, both + [0.0, 0.0],
            _poly_product(both, [0.0, 2.0 * d.kappa, 1.0]),
            [2.0 * d.xi ** 2 * d.omega_m * c + 2.0 * d.zeta ** 2 * d.Omega_c * m
             for c, m in zip(condensate, mirror)] + [0.0] * 4]


def _poly_product(x: List[float], y: List[float]) -> List[float]:
    """Ascending coefficients of the product of two polynomials, in Python
    floats: each a sum from 0.0 over ``x``'s index, ascending."""
    out = [0.0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def _hurwitz_determinants(a1, a2, a3, a4, a5, a6):
    """Hurwitz determinants Delta_1 ... Delta_5 of
    s^6 + a1 s^5 + ... + a6, of Python floats or numpy columns alike.

    The leading minors of the Hurwitz matrix (Gantmacher, *The Theory of
    Matrices* II, ch. XV), expanded with no division.  A polynomial of
    degree n < 6 padded with zero coefficients gets its own Delta_1 ...
    Delta_n.  Every term of Delta_k has weight k(k + 1)/2 in the a_j (a_j
    has weight j), so scaling a_j by 2^(-jE) scales each term, and Delta_k,
    by 2^(-E k(k + 1)/2), exactly while nothing underflows.
    """
    d2 = a1 * a2 - a3
    d3 = a3 * d2 - a1 * (a1 * a4 - a5)
    d4 = (a4 * d3 + a1 * a1 * a2 * a6 - a1 * a2 * a2 * a5 - a1 * a3 * a6
          + a1 * a4 * a5 + a2 * a3 * a5 - a5 * a5)
    d5 = a5 * d4 - a6 * (a1 * a1 * a1 * a6 - a1 * a1 * a2 * a5
                         - a1 * a1 * a3 * a4 + a1 * a2 * a3 * a3
                         + 2.0 * a1 * a3 * a5 - a3 * a3 * a3)
    return a1, d2, d3, d4, d5


def _verdict_codes(a, frexp, ldexp, maximum):
    """Verdict codes of s^n + a_1 s^(n-1) + ... + a_n, from
    ``a = [a_1, ..., a_n]``: 0 ``unstable``, 1 ``stable``, 2 ``marginal``
    (see :func:`is_stable`).  ``a`` holds Python floats, with
    ``math.frexp``, ``math.ldexp`` and ``max``, or numpy columns, with
    ``np.frexp``, ``np.ldexp`` and ``np.maximum.reduce``: the same
    operations in the same order either way."""
    n = len(a)
    power = maximum([-(-frexp(x)[1] // k) for k, x in enumerate(a, 1)])
    deltas = (1.0,) + _hurwitz_determinants(
        *[ldexp(x, -k * power) for k, x in enumerate(a, 1)], *(0.0,) * (6 - n))
    head = True
    for x in [*a, *deltas[1:n - 1]]:
        head = head & (x > 0.0)
    return (head & (deltas[n - 1] > 0.0)) + 2 * (head & (deltas[n - 1] == 0.0))


def is_stable(coeffs) -> Union[str, List[str]]:
    """Hurwitz verdicts of polynomials, ascending coefficients.

    One polynomial ``(n + 1,)`` gives one verdict and a stack ``(N, n + 1)``
    a list of them, for degrees 1 <= n <= 6; any other shape, or a leading
    coefficient that is not positive, raises ``ValueError``.  Each row is
    divided by its leading coefficient, giving
    p(s) = s^n + a_1 s^(n-1) + ... + a_n with Hurwitz determinants
    Delta_1 ... Delta_n (Hurwitz 1895).  The verdict is

    * ``stable`` (every root in the open left half-plane) iff every a_k > 0
      and Delta_1, ..., Delta_(n-1) > 0;
    * ``marginal`` iff every a_k > 0, Delta_1, ..., Delta_(n-2) > 0 and
      Delta_(n-1) == 0: exactly one simple pair of roots on the imaginary
      axis and every other root in the open left half-plane, a Hopf point
      (W. M. Liu, J. Math. Anal. Appl. 182, 250 (1994));
    * ``unstable`` otherwise: any a_k <= 0 or NaN, a root in the open
      right half-plane, or, by this definition, more than one pair of roots
      on the imaginary axis.

    ``marginal`` compares with an exact zero, with no tolerance, so it needs
    a Delta_(n-1) that comes out as exactly 0.0, as it does for
    small-integer coefficients; roundoff can read a drift with roots on the
    axis as ``stable`` or ``unstable``.

    The determinants are taken of p(2^E s) / 2^(nE), whose coefficients are
    a_k 2^(-kE) (``ldexp``, exact), with E = max_k ceil(e_k / k) and e_k
    the ``frexp`` exponent of a_k.  Every scaled |a_k| <= 1, so no
    determinant (Delta_5 has degree 15 in the scale of the roots) overflows,
    and the scaling changes no sign.  The rows are evaluated on numpy
    columns, each with the operations it gets on its own, so a row gets the
    same verdict in a stack of any size, and from :func:`point_verdict`.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim not in (1, 2) or not 2 <= c.shape[-1] <= 7:
        raise ValueError("expected (n + 1,) or (N, n + 1) coefficients, 1 <= n <= 6")
    stack = c.reshape(-1, c.shape[-1])
    if not (stack[:, -1] > 0.0).all():
        raise ValueError("polynomial must be monic (positive leading coefficient)")
    with np.errstate(over="ignore", invalid="ignore"):
        codes = _verdict_codes([x / stack[:, -1] for x in stack[:, -2::-1].T],
                               np.frexp, np.ldexp, np.maximum.reduce)
    verdicts = np.array(_VERDICTS, dtype=object)[codes].tolist()
    return verdicts[0] if c.ndim == 1 else verdicts


def point_verdict(coeffs: List[float]) -> str:
    """The verdict :func:`is_stable` gives one polynomial with a positive
    leading coefficient, given as a list of its ascending coefficients in
    Python floats: the same operations in the same order, row by row."""
    return _VERDICTS[_verdict_codes([x / coeffs[-1] for x in coeffs[-2::-1]],
                                    math.frexp, math.ldexp, max)]


@functools.lru_cache(maxsize=None)
def _kron_positions(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat positions in an ``(n^2, n^2)`` Kronecker coefficient of the
    entries of kron(I, A) and of kron(A, I): row k of each holds, for the
    k-th entry of the identity, the positions of A's n^2 entries, row by
    row.  Built on first use of each n, so importing costs nothing."""
    k, i, j = np.ogrid[:n, :n, :n]
    return ((((k * n + i) * n + k) * n + j).reshape(n, -1),   # ((k, i), (k, j))
            (((i * n + k) * n + j) * n + k).reshape(n, -1))   # ((i, k), (j, k))


def _solve_lyapunov_rows(a: np.ndarray, d: np.ndarray, first: int) -> np.ndarray:
    """:func:`solve_lyapunov` of an ``(N, n, n)`` piece of a stack whose row
    ``first`` is the piece's row 0, with ``d`` of the same shape or one
    ``(1, n, n)`` matrix for every row."""
    count, n = a.shape[0], a.shape[-1]
    # kron(I, A) + kron(A, I): entry ((i, j), (k, l)) is
    # delta_ik A_jl + A_ik delta_jl, the first addend written, the second
    # added; the rows run along the last axis, so each position is one
    # contiguous run (np.linalg.solve copies each matrix out anyway)
    kron_ia, kron_ai = _kron_positions(n)
    entries = a.reshape(count, n * n).T
    coefficient = np.zeros((n ** 4, count))
    coefficient[kron_ia] = entries
    coefficient[kron_ai] += entries
    coefficient = coefficient.reshape(n * n, n * n, count).transpose(2, 0, 1)
    try:
        vec = np.linalg.solve(coefficient, (-d).reshape(-1, n * n, 1))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Lyapunov system is singular: {exc}") from exc
    v = vec.reshape(count, n, n)
    v = 0.5 * (v + np.swapaxes(v, -1, -2))
    scale = np.abs(d).max(axis=(-2, -1))
    residual = np.abs(a @ v + v @ np.swapaxes(a, -1, -2) + d).max(axis=(-2, -1))
    bad = ~np.isfinite(residual) | (residual > LYAPUNOV_RESIDUAL_RTOL * scale)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        scale = np.broadcast_to(scale, bad.shape)
        raise NumericalError(
            f"Lyapunov residual {residual[i]:.3e} exceeds "
            f"{LYAPUNOV_RESIDUAL_RTOL:.0e} * {scale[i]:.3e} at stack row "
            f"{first + i}; drift is marginal or ill-conditioned")
    return v


def solve_lyapunov(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Stationary covariance V solving A V + V A^T = -D.

    Vectorizes to (I (x) A + A (x) I) vec(V) = -vec(D) and solves the dense
    n^2 x n^2 system by LU with partial pivoting, then symmetrizes.  The
    residual is checked against ``LYAPUNOV_RESIDUAL_RTOL`` times the largest
    diffusion entry; a singular or marginal drift raises
    :class:`NumericalError` instead of returning garbage, a residual failure
    naming the first bad row of the flattened stack.  The caller is
    expected to have verified stability first.

    ``a`` may be a ``(..., n, n)`` stack, with ``d`` one ``(n, n)`` matrix
    or a stack of the same shape.  The stack is flattened and solved in
    pieces of at most ``LYAPUNOV_STACK_ROWS`` rows, every row with the same
    arithmetic and the same residual check as on its own.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    n = a.shape[-1]
    batch = a.shape[:-2]
    a_rows = a.reshape(-1, n, n)
    if len(a_rows) <= LYAPUNOV_STACK_ROWS:   # one piece, an empty stack too
        return _solve_lyapunov_rows(a_rows, d.reshape(-1, n, n), 0).reshape(batch + (n, n))
    d_rows = np.broadcast_to(d, batch + (n, n)).reshape(-1, n, n)
    pieces = [_solve_lyapunov_rows(a_rows[start:start + LYAPUNOV_STACK_ROWS],
                                   d_rows[start:start + LYAPUNOV_STACK_ROWS], start)
              for start in range(0, len(a_rows), LYAPUNOV_STACK_ROWS)]
    return np.concatenate(pieces).reshape(batch + (n, n))
