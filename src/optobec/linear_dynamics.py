"""Linearized fluctuation dynamics: drift and diffusion matrices, algebraic
stability, and the stationary covariance.

The fluctuation state vector is ordered [dX, dY, dq, dp, dQ, dP] (cavity
quadratures, mirror quadratures, condensate-mode quadratures), with vacuum
variance 1/2.  Stability is decided purely algebraically (Routh-Hurwitz)
from the characteristic polynomial, which the drift's coupling pattern gives
in closed form straight from a branch's alpha and Delta, with no matrix
built.  A stack of branches may span configurations: each row gathers the
constants of its own derived quantities (:func:`per_row`).  The stationary
covariance V solves A V + V A^T = -D by direct Kronecker vectorization; at
fixed size 6 the 36-unknown dense solve costs microseconds and stays free
of any eigen/Schur machinery.
"""

from __future__ import annotations

import math
from typing import List, Union

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

#: Most rows of a stack that :func:`is_stable` takes row by row through the
#: list-based Routh table: a cubic has at most three real roots, so a single
#: configuration has at most three branches, and on so few rows the table in
#: Python floats costs less than the stacked recurrence's numpy calls.
ROUTH_TABLE_ROWS = 3


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
    so the state dimension never changes.
    """
    alpha, delta = branches.alpha, branches.Delta
    if not isinstance(d, DerivedQuantities):   # each field as a column of rows
        d = DerivedQuantities(*per_row(d, branches.group,
                                       lambda x: [*vars(x).values()]).T)
    g_m = _SQRT2 * d.xi * alpha
    g_c = _SQRT2 * d.zeta * alpha
    a = np.zeros((len(alpha), 6, 6))
    a[:, 0, 0] = -d.kappa
    a[:, 0, 1] = delta
    a[:, 1, 0] = -delta
    a[:, 1, 1] = -d.kappa
    a[:, 1, 2] = g_m
    a[:, 1, 4] = -g_c
    a[:, 2, 3] = d.omega_m
    a[:, 3, 0] = g_m
    a[:, 3, 2] = -d.omega_m
    a[:, 3, 3] = -d.gamma_m
    a[:, 4, 4] = -d.gamma_c
    a[:, 4, 5] = d.Omega_c
    a[:, 5, 0] = -g_c
    a[:, 5, 4] = -(d.Omega_c + d.omega_sw)
    a[:, 5, 5] = -d.gamma_c
    return a


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
    ``(N, 7)``, each row with the operations it gets on its own.  A
    coefficient that leaves the float range raises :class:`NumericalError`,
    so no Routh test sees it.
    """
    alpha, delta = branches.alpha, branches.Delta
    with np.errstate(over="ignore", invalid="ignore"):
        kappa_sq, both, fixed, coupling = per_row(
            d, branches.group, _charpoly_terms).swapaxes(-2, 0)
        coeffs = ((delta * delta + kappa_sq[..., 0])[:, None] * both + fixed
                  - (delta * (alpha * alpha))[:, None] * coupling)
    if not np.isfinite(coeffs).all():
        raise NumericalError("characteristic polynomial leaves the float range")
    return coeffs


def _charpoly_terms(d: DerivedQuantities) -> np.ndarray:
    """The rows of a ``(4, 7)`` array for one configuration: kappa^2 (in
    every entry), M B, [(lambda + kappa)^2 + Delta^2] M B without its
    Delta^2 + kappa^2 term, and the coupling polynomial per alpha^2.  A
    stack gathers the four rows at once."""
    mirror = np.array([d.omega_m ** 2, d.gamma_m, 1.0])
    condensate = np.array([d.gamma_c ** 2 + d.Omega_c * (d.Omega_c + d.omega_sw),
                           2.0 * d.gamma_c, 1.0])
    terms = np.zeros((4, 7))
    terms[0] = d.kappa ** 2
    terms[1, :5] = np.convolve(mirror, condensate)
    terms[2] = np.convolve([0.0, 2.0 * d.kappa, 1.0], terms[1, :5])
    terms[3, :3] = (2.0 * d.xi ** 2 * d.omega_m * condensate
                    + 2.0 * d.zeta ** 2 * d.Omega_c * mirror)
    return terms


def _routh_first_column(coeffs_desc: List[float], eps_sign: float):
    """First Routh column for a monic polynomial (descending coefficients).

    Zero pivots in an otherwise nonzero row are replaced by
    eps_sign * 1e-30 * (row scale); an all-zero row is replaced by the
    derivative of the auxiliary polynomial built from the row above.
    Returns (first_column, used_eps, used_aux).
    """
    n = len(coeffs_desc) - 1
    width = n // 2 + 1
    rows = [
        [coeffs_desc[i] if i <= n else 0.0 for i in range(0, n + 1, 2)],
        [coeffs_desc[i] if i <= n else 0.0 for i in range(1, n + 1, 2)],
    ]
    for row in rows:
        row.extend([0.0] * (width - len(row)))
    used_eps = used_aux = False

    for j in range(1, n + 1):
        if j >= 2:
            prev, prev2 = rows[j - 1], rows[j - 2]
            pivot = prev[0]
            new = [(pivot * prev2[i + 1] - prev2[0] * prev[i + 1]) / pivot
                   for i in range(width - 1)] + [0.0]
            rows.append(new)
        row = rows[j]
        if all(x == 0.0 for x in row):
            # auxiliary polynomial of the row above has only even powers;
            # replace the zero row by its derivative
            used_aux = True
            degree = n - (j - 1)
            row = [rows[j - 1][i] * (degree - 2 * i) for i in range(width)]
            rows[j] = row
        if row[0] == 0.0:
            used_eps = True
            scale = max(abs(x) for x in row)
            rows[j] = [eps_sign * 1e-30 * scale] + row[1:]
    return [rows[j][0] for j in range(n + 1)], used_eps, used_aux


def _sign_changes(column) -> int:
    changes = 0
    prev = column[0]
    for x in column[1:]:
        if x == 0.0:
            continue
        if (x > 0.0) != (prev > 0.0):
            changes += 1
        prev = x
    return changes


def _routh_table_verdict(coeffs: List[float]) -> str:
    """Verdict of one polynomial from the list-based Routh table.

    Every row of a small stack goes through it, and the rows of a large one
    that the stacked recurrence leaves out: an exact-zero first-column
    entry (epsilon or auxiliary row) and a non-positive leading coefficient
    (``ValueError``).
    """
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    lead = coeffs[-1]
    if not lead > 0.0:
        raise ValueError("polynomial must be monic (positive leading coefficient)")
    if lead != 1.0:
        coeffs = [c / lead for c in coeffs]
    if any(c <= 0.0 for c in coeffs):
        return "unstable"

    desc = coeffs[::-1]
    col_p, eps_p, aux_p = _routh_first_column(desc, +1.0)
    changes_p = _sign_changes(col_p)
    if not eps_p and not aux_p:
        return "stable" if changes_p == 0 else "unstable"

    changes_m = _sign_changes(_routh_first_column(desc, -1.0)[0])
    return "marginal" if changes_p == 0 or changes_p != changes_m else "unstable"


def _routh_columns(monic: np.ndarray) -> np.ndarray:
    """First Routh columns of an ``(N, n + 1)`` stack (ascending), as ``(n + 1, N)``.

    The plain recurrence of :func:`_routh_first_column`, without epsilon or
    auxiliary rows, in the same operations and order, so a polynomial whose
    column has no exact zero gets the bits of the list-based table.
    """
    count, n = monic.shape[0], monic.shape[1] - 1
    table = np.zeros((n + 1, n // 2 + 1, count))
    table[0, :(n + 2) // 2] = monic[:, n::-2].T
    table[1, :(n + 1) // 2] = monic[:, n - 1::-2].T
    heads, tails = list(table[:, 0]), list(table[:, 1:])
    for j in range(2, n + 1):
        pivot = heads[j - 1]
        np.divide(pivot * tails[j - 2] - heads[j - 2] * tails[j - 1], pivot,
                  out=table[j, :-1])
    return table[:, 0]


def _stacked_verdicts(stack: np.ndarray) -> List[str]:
    """Verdicts of an ``(N, n + 1)`` stack through :func:`_routh_columns`."""
    lead = stack[:, -1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = stack / lead[:, None]
        column = _routh_columns(monic)
    # min() keeps a NaN, which then fails the comparison
    stable = np.minimum(monic.min(axis=1), column.min(axis=0)) > 0.0
    verdicts = ["stable" if s else "unstable" for s in stable.tolist()]
    plain = column.all(axis=0) & (lead > 0.0)
    if not plain.all():
        for i in np.flatnonzero(~plain):
            verdicts[i] = _routh_table_verdict(stack[i].tolist())
    return verdicts


def is_stable(coeffs) -> Union[str, List]:
    """Routh-Hurwitz verdict for monic polynomials, ascending coefficients.

    One polynomial ``(n + 1,)`` gives one verdict; a stack ``(..., n + 1)``
    gives a (nested) list of verdicts.  A verdict is ``stable``,
    ``unstable`` or ``marginal``.  Any non-positive coefficient
    short-circuits to ``unstable`` (the positivity of every coefficient is
    necessary for strict stability; an exact zero always signals at least
    loss of strict stability).  ``marginal`` is returned when the sign
    decision depends on the epsilon perturbation of a zero pivot, or when an
    auxiliary-row replacement reveals imaginary-axis roots without any
    right-half-plane ones.

    A stack of at most ``ROUTH_TABLE_ROWS`` rows goes row by row through
    the list-based table, which adds the epsilon and auxiliary rows (or
    raises ``ValueError``).  A larger stack runs through one Routh
    recurrence: a row is ``stable`` iff every coefficient and every
    first-column entry is positive.  Only a row with an exact-zero
    first-column entry or a non-positive leading coefficient goes through
    the list-based table.  Both take the same operations in the same order,
    so a row gets the same verdict in a stack of any size.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim == 0 or c.shape[-1] < 2:
        raise ValueError("polynomial must have degree >= 1")
    stack = c.reshape(-1, c.shape[-1])
    if len(stack) <= ROUTH_TABLE_ROWS:
        verdicts = [_routh_table_verdict(row) for row in stack.tolist()]
    else:
        verdicts = _stacked_verdicts(stack)
    if c.ndim == 1:
        return verdicts[0]
    if c.ndim == 2:
        return verdicts
    return np.array(verdicts, dtype=object).reshape(c.shape[:-1]).tolist()


def _solve_lyapunov_rows(a: np.ndarray, d: np.ndarray, first: int) -> np.ndarray:
    """:func:`solve_lyapunov` of an ``(N, n, n)`` piece of a stack whose row
    ``first`` is the piece's row 0."""
    count, n = a.shape[0], a.shape[-1]
    # kron(I, A) + kron(A, I), scattered into its nonzero blocks: entry
    # ((i, j), (k, l)) is delta_ik A_jl + A_ik delta_jl
    coefficient = np.zeros((count, n, n, n, n))
    for i in range(n):
        coefficient[:, i, :, i, :] = a
    for k in range(n):
        coefficient[:, :, k, :, k] += a
    coefficient = coefficient.reshape(count, n * n, n * n)
    rhs = (-d).reshape(count, n * n)
    try:
        vec = np.linalg.solve(coefficient, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Lyapunov system is singular: {exc}") from exc
    v = vec.reshape(count, n, n)
    v = 0.5 * (v + np.swapaxes(v, -1, -2))
    scale = np.abs(d).max(axis=(-2, -1))
    residual = np.abs(a @ v + v @ np.swapaxes(a, -1, -2) + d).max(axis=(-2, -1))
    bad = ~np.isfinite(residual) | (residual > LYAPUNOV_RESIDUAL_RTOL * scale)
    if bad.any():
        i = np.flatnonzero(bad)[0]
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
    d_rows = np.broadcast_to(d, batch + (n, n)).reshape(-1, n, n)
    if len(a_rows) <= LYAPUNOV_STACK_ROWS:   # one piece, perhaps empty
        return _solve_lyapunov_rows(a_rows, d_rows, 0).reshape(batch + (n, n))
    pieces = [_solve_lyapunov_rows(a_rows[start:start + LYAPUNOV_STACK_ROWS],
                                   d_rows[start:start + LYAPUNOV_STACK_ROWS], start)
              for start in range(0, len(a_rows), LYAPUNOV_STACK_ROWS)]
    return np.concatenate(pieces).reshape(batch + (n, n))
