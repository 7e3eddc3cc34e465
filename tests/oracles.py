"""Independent oracles the tests check the solvers and the command line
against."""

import argparse
import functools
import math
from fractions import Fraction
from typing import List, Optional

import numpy as np

from optobec import HBAR, SweepTable, derive_quantities
from optobec.config import ConfigError
from optobec.presets import FIGURE_IDS
from optobec.sweep import CSV_COLUMNS

MEASURES = CSV_COLUMNS[-5:]


def matrix_charpoly(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - A) of any square matrix, ascending order,
    leading 1.

    Trace-based recurrence (Faddeev-LeVerrier, no eigendecomposition): with
    M_1 = I and c_{n-1} = -tr(A), iterate M_k = A M_{k-1} + c_{n-k+1} I and
    c_{n-k} = -tr(A M_k)/k.  Exact for integer matrices up to rounding.
    A ``(..., n, n)`` stack gives ``(..., n + 1)`` coefficients, each row
    computed with the same operations as the matrix alone.  Runs in the
    input's float type, so an ``np.longdouble`` stack gives an
    extended-precision reference.
    """
    a = np.asarray(a)
    a = a.astype(np.promote_types(a.dtype, float))
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise ValueError("matrix must be square")
    eye = np.eye(n, dtype=a.dtype)
    coeffs = np.empty(a.shape[:-2] + (n + 1,), dtype=a.dtype)
    coeffs[..., n] = 1.0
    m = eye
    c = -np.trace(a, axis1=-2, axis2=-1)
    coeffs[..., n - 1] = c
    for k in range(2, n + 1):
        m = a @ m + c[..., None, None] * eye
        c = -np.einsum("...ij,...ji->...", a, m) / k
        coeffs[..., n - k] = c
    return coeffs


def _rk4_step_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """One-step propagator of the classical 4th-order scheme for du/dt = A u."""
    ha = h * a
    term = np.eye(a.shape[0])
    out = term.copy()
    for k in (1.0, 2.0, 3.0, 4.0):
        term = term @ ha / k
        out = out + term
    return out


def stability_oracle(a: np.ndarray, rng: Optional[np.random.Generator] = None) -> float:
    """Asymptotic growth/decay rate of du/dt = A u along a trajectory.

    Validation oracle (used by the tests, never by the solvers).  Propagates
    a random unit initial vector with the fixed-step 4th-order integrator;
    chunks of 2^17 steps are applied as a renormalized matrix power, which
    is algebraically identical to stepping and reaches a horizon far beyond
    1/|smallest rate| cheaply.  The rate is the least-squares slope of
    log ||u(t)|| over the trailing half of 64 uniformly spaced checkpoints.
    A negative return means decay (stable), positive means growth.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0.0
    if rng is None:
        rng = np.random.default_rng(0)

    h = 0.02 / scale
    step = _rk4_step_matrix(a, h)

    # chunk = step^(2^17), renormalized at every squaring
    chunk = step.copy()
    log_norm = 0.0
    for _ in range(17):
        chunk = chunk @ chunk
        s = np.abs(chunk).max()
        chunk /= s
        log_norm = 2.0 * log_norm + math.log(s)
    t_chunk = (2 ** 17) * h

    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    logs = np.empty(64)
    acc = 0.0
    for j in range(64):
        u = chunk @ u
        norm = np.linalg.norm(u)
        u /= norm
        acc += log_norm + math.log(norm)
        logs[j] = acc
    times = t_chunk * np.arange(1, 65)
    tail = slice(32, 64)
    slope = np.polyfit(times[tail], logs[tail], 1)[0]
    return float(slope)


def power_at_photon_number(params, delta_c: float, n: float) -> float:
    """Drive power that sustains photon number ``n`` at the detuning ``delta_c``.

    Inverse of the mean-field fixed-point condition:
    P = n ((delta_c - beta n)^2 + kappa^2) hbar omega_c / (2 kappa).
    """
    d = derive_quantities(params)
    eta_sq = n * ((delta_c - d.beta * n) ** 2 + d.kappa ** 2)
    return eta_sq * HBAR * d.omega_cav / (2.0 * d.kappa)


def branch_rows(branches):
    """The branches of :class:`~optobec.BranchColumns` as
    ``(n, alpha, Delta, label, degenerate)`` tuples, each float as its
    ``float.hex`` so that ``==`` compares bits (signed zeros included)."""
    floats = ([x.hex() for x in column.tolist()]
              for column in (branches.n, branches.alpha, branches.Delta))
    return list(zip(*floats, branches.label.tolist(), branches.degenerate.tolist()))


def column(table, name):
    """The column ``name`` of ``CSV_COLUMNS`` of a sweep table, as a list; a
    measure column holds None on an unmeasured row."""
    if name not in MEASURES:
        return getattr(table, name)
    k = MEASURES.index(name)
    return [None if measure is None else measure[k] for measure in table.measures]


def _format_number(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x), ".12g")


def rows_to_csv(table) -> str:
    """CSV text of a sweep table, written field by field with
    ``format(x, ".12g")``."""
    lines = [",".join(CSV_COLUMNS)]
    for row in zip(*(column(table, name) for name in CSV_COLUMNS)):
        lines.append(",".join(x if isinstance(x, str) else _format_number(x)
                              for x in row))
    return "\n".join(lines) + "\n"


def sweep_table(rows) -> SweepTable:
    """The table of sweep rows given as plain tuples in ``CSV_COLUMNS``
    order; a row of eight values carries no measures."""
    heads = ([list(x) for x in zip(*(row[:8] for row in rows))]
             or [[] for _ in range(8)])
    return SweepTable(*heads, measures=[list(row[8:]) if len(row) > 8 else None
                                        for row in rows])


def eigenbasis_lyapunov(a: np.ndarray, d: np.ndarray):
    """Solution of A V + V A^T = -D in the eigenbasis of A, and cond(U).

    With A = U diag(lambda) U^-1, the equation becomes
    diag(lambda) X + X diag(conj(lambda)) = -U^-1 D U^-H for V = U X U^H, so
    X_ij = -(U^-1 D U^-H)_ij / (lambda_i + conj(lambda_j)): no Kronecker
    system is built or solved.  ``a`` and ``d`` are ``(..., n, n)`` stacks;
    returns V (real part) and the condition number of each U, which marks
    the near-defective drifts where the eigenbasis itself is inaccurate.
    """
    lam, u = np.linalg.eig(np.asarray(a, dtype=float))
    u_inv = np.linalg.inv(u)
    rhs = u_inv @ d @ np.conj(np.swapaxes(u_inv, -1, -2))
    x = -rhs / (lam[..., :, None] + np.conj(lam[..., None, :]))
    v = u @ x @ np.conj(np.swapaxes(u, -1, -2))
    return v.real, np.linalg.cond(u)


def symplectic_eta_minus(v4: np.ndarray) -> float:
    """Lowest symplectic eigenvalue of the partial transpose of a two-mode
    covariance, min |eig(i Omega V~)|.

    V~ = P V P with P = diag(1, 1, 1, -1) flips the momentum of the second
    mode (partial transposition; Simon, PRL 84, 2726 (2000)), and Omega is
    the two-mode symplectic form.  The eigenvalues of i Omega V~ come in
    pairs +-eta_k, so the least modulus is eta_minus.  A general float64
    eigensolver, with no determinant or closed form shared with
    :func:`optobec.log_negativity`.
    """
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    v_pt = flip @ np.asarray(v4, dtype=float) @ flip
    return float(np.abs(np.linalg.eigvals(1j * omega @ v_pt)).min())


def log_negativity_oracle(v4: np.ndarray) -> float:
    """E_N = max(0, -ln 2 eta_minus) from :func:`symplectic_eta_minus`."""
    return max(0.0, -math.log(2.0 * symplectic_eta_minus(v4)))


def sideband_occupation(damping: float, nbar: float, g: float, kappa: float,
                        Delta: float, omega: float) -> float:
    """Weak-coupling occupation of a mechanical mode cooled by the cavity.

    n_f = (Gamma nbar + A_+)/(Gamma + A_- - A_+), with the anti-Stokes and
    Stokes rates A_-+ = 2 kappa g^2/(kappa^2 + (Delta -+ omega)^2), for a
    mode of frequency ``omega`` and energy damping ``damping`` (Gamma) in a
    bath of ``nbar`` quanta, coupled with rate ``g`` to a field of amplitude
    decay ``kappa`` at effective detuning ``Delta``.  Valid to leading order
    in (g/kappa)^2 (Marquardt et al., PRL 99, 093902 (2007); Wilson-Rae et
    al., PRL 99, 093901 (2007); Genes et al., PRA 77, 033804 (2008)).
    """
    a_minus = 2.0 * kappa * g ** 2 / (kappa ** 2 + (Delta - omega) ** 2)
    a_plus = 2.0 * kappa * g ** 2 / (kappa ** 2 + (Delta + omega) ** 2)
    return (damping * nbar + a_plus) / (damping + a_minus - a_plus)


def _hurwitz_matrix(coeffs) -> List[List[Fraction]]:
    """Hurwitz matrix of the polynomial with ascending ``coeffs`` divided by
    its leading coefficient, s^n + a_1 s^(n-1) + ... + a_n, in exact
    fractions: entry (i, j) is a_(2j - i + 1), with a_0 = 1 and a_k = 0
    outside 0..n."""
    lead = Fraction(coeffs[-1])
    a = [Fraction(x) / lead for x in reversed(coeffs)]
    n = len(a) - 1
    return [[a[2 * j - i + 1] if 0 <= 2 * j - i + 1 <= n else Fraction(0)
             for j in range(n)] for i in range(n)]


def _determinant(m: List[List[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination with row exchanges."""
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def hurwitz_determinants(coeffs) -> List[Fraction]:
    """Exact Hurwitz determinants Delta_1 ... Delta_n of the polynomial with
    ascending ``coeffs`` (any degree n >= 1, positive leading coefficient),
    divided by its leading coefficient: the leading principal minors of its
    Hurwitz matrix, each by ``fractions.Fraction`` elimination.  Every float
    is taken at its exact value."""
    h = _hurwitz_matrix(coeffs)
    return [_determinant([row[:k] for row in h[:k]]) for k in range(1, len(h) + 1)]


def hurwitz_term_scales(coeffs) -> List[float]:
    """The sum of the magnitudes of the terms of each Delta_k of
    :func:`hurwitz_determinants`, the scale its roundoff is relative to: the
    permanent of the leading k x k block of |H|, summed over the column sets
    that rows 0..k-1 take, row by row."""
    h = [[abs(float(x)) for x in row] for row in _hurwitz_matrix(coeffs)]
    sums, scales = {0: 1.0}, []
    for i, row in enumerate(h):
        grown: dict = {}
        for mask, value in sums.items():
            for j, x in enumerate(row):
                if x and not mask >> j & 1:
                    grown[mask | 1 << j] = grown.get(mask | 1 << j, 0.0) + value * x
        sums = grown
        scales.append(sums.get((1 << i + 1) - 1, 0.0))
    return scales


def hurwitz_verdict(coeffs) -> str:
    """The :func:`optobec.is_stable` rule on exact Hurwitz determinants:
    ``stable`` iff every coefficient and Delta_1 ... Delta_(n-1) is
    positive, ``marginal`` iff every coefficient and Delta_1 ... Delta_(n-2)
    is positive and Delta_(n-1) == 0 (Liu's Hopf condition), else
    ``unstable``."""
    deltas = [Fraction(1)] + hurwitz_determinants(coeffs)
    n = len(deltas) - 1
    if all(x > 0 for x in coeffs) and all(x > 0 for x in deltas[1:n - 1]):
        if deltas[n - 1] > 0:
            return "stable"
        if deltas[n - 1] == 0:
            return "marginal"
    return "unstable"


# The argparse parser that optobec.cli used before its own table parser;
# the tests check that the two accept the same command lines.
class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # invalid-configuration path instead (2 is reserved for numerical failure)
    def error(self, message):
        raise ConfigError(f"usage: {message}")


@functools.cache
def _build_parser() -> _Parser:
    # built on the first call and reused: parsing does not change it
    parser = _Parser(prog="optobec",
                     description="Steady states, stability, cooling and "
                                 "entanglement of a condensate-filled "
                                 "optomechanical cavity.")
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="single-configuration report")
    point.add_argument("--config", required=True)
    point.add_argument("--out", default=None, help="output file (default stdout)")

    sweep = sub.add_parser("sweep", help="run the sweep described by the config")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None, help="output file (default stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    figure = sub.add_parser("figure", help="run a bundled dataset preset")
    figure.add_argument("id", choices=FIGURE_IDS, metavar="ID",
                        help=f"one of: {', '.join(FIGURE_IDS)}")
    figure.add_argument("--out", default=".", help="output directory")

    threshold = sub.add_parser("threshold", help="print the bistability window in mW")
    threshold.add_argument("--config", required=True)
    return parser
