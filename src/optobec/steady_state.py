"""Mean-field fixed points of the driven cavity and their bistability structure.

Eliminating the oscillator displacements from the field equation leaves a
cubic in the intracavity photon number n,

    beta^2 n^3 - 2 delta_c beta n^2 + (delta_c^2 + kappa^2) n = eta^2,

whose real roots are the steady-state branches.  Roots are found by the
closed-form depressed-cubic solution (the trigonometric form in the
three-real-root regime, so the branch count is exact) and each root gets one
Newton polish step on the original cubic.  A whole ``delta_c`` or ``power``
grid is solved as one stack of cubics (:func:`solve_mean_field_grid`), each
row in the operations of the scalar kernel, and its branches come back as
columns.  Turning points of the drive power as a function of n give the
bistability window in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Sequence

import numpy as np

from .model import (HBAR, DerivedQuantities, SystemParams, derive_quantities,
                    drive_rate)

# |cubic discriminant| below 1e-9 of its natural scale marks a (near-)double
# root; those are the physical knee points and are reported, not dropped.
_DEGENERACY_RTOL = 1e-9


@dataclass
class MeanFieldBranch:
    """One self-consistent fixed point.

    ``Delta`` is the effective detuning delta_c - beta*n seen by the
    fluctuations.  ``degenerate`` marks roots sitting on a bistability knee
    (double root of the cubic within tolerance).
    """

    n: float       # mean photon number
    alpha: float   # field amplitude, sqrt(n)
    Delta: float   # rad/s, effective detuning
    q_s: float     # mirror displacement quadrature
    p_s: float     # mirror momentum quadrature (identically 0)
    Q_s: float     # condensate displacement quadrature
    P_s: float     # condensate momentum quadrature
    label: str     # lower | middle | upper | unique
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class BranchColumns:
    """Mean-field branches as columns, one entry per branch.

    ``index`` is the grid point each branch belongs to (0 for the branches
    of a single point), in grid order, branches of one point by ascending
    photon number.  The displacement quadratures are left out: no sweep
    output carries them.
    """

    index: np.ndarray        # int, grid point of each branch
    n: np.ndarray            # mean photon number
    alpha: np.ndarray        # field amplitude, sqrt(n)
    Delta: np.ndarray        # rad/s, effective detuning
    label: List[str]         # lower | middle | upper | unique
    degenerate: np.ndarray   # bool, root on a bistability knee

    @classmethod
    def of(cls, branches: Sequence[MeanFieldBranch]) -> "BranchColumns":
        """Columns of the branches of one point."""
        return cls(index=np.zeros(len(branches), dtype=int),
                   n=np.array([b.n for b in branches], dtype=float),
                   alpha=np.array([b.alpha for b in branches], dtype=float),
                   Delta=np.array([b.Delta for b in branches], dtype=float),
                   label=[b.label for b in branches],
                   degenerate=np.array([b.degenerate for b in branches], dtype=bool))

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, rows: slice) -> "BranchColumns":
        return BranchColumns(self.index[rows], self.n[rows], self.alpha[rows],
                             self.Delta[rows], self.label[rows], self.degenerate[rows])


@dataclass(frozen=True)
class BistabilityWindow:
    """Drive-power interval with three coexisting branches.

    ``power_low`` is the lower knee (onset of multivaluedness when the power
    is increased), reached at the larger turning-point photon number
    ``n_knee_low``; ``power_high`` the upper knee at ``n_knee_high``.
    """

    power_low: float    # W
    power_high: float   # W
    n_knee_low: float   # photon number at the power_low turning point
    n_knee_high: float  # photon number at the power_high turning point


def _real_cubic_roots(a3, a2, a1, a0):
    """Real roots of a3 x^3 + a2 x^2 + a1 x + a0, ascending.

    Returns a list of (root, degenerate) pairs.  Closed form throughout,
    trigonometric in the three-real-root regime, then one Newton step per
    root on the original polynomial.  A discriminant within tolerance of
    zero collapses the closest pair into a flagged double root.
    """
    if a3 == 0.0:
        if a2 == 0.0:
            if a1 == 0.0:
                raise ValueError("degenerate polynomial: all leading coefficients zero")
            return [(-a0 / a1, False)]
        disc2 = a1 * a1 - 4.0 * a2 * a0
        if disc2 < 0.0:
            return []
        # q = -(a1 + sign(a1) s)/2 adds terms of one sign, so neither root
        # cancels: the roots are q / a2 and a0 / q (q == 0 only at a double 0)
        q = -0.5 * (a1 + math.copysign(math.sqrt(disc2), a1))
        roots = sorted((q / a2, a0 / q)) if q != 0.0 else [0.0, 0.0]
        return [(r, disc2 == 0.0) for r in roots]

    if a0 == 0.0:
        # zero is an exact root; factoring it out avoids the cancellation the
        # shifted closed form would suffer here
        rest = _real_cubic_roots(0.0, a3, a2, a1)
        return sorted(rest + [(0.0, False)])

    b = a2 / a3
    c = a1 / a3
    dd = a0 / a3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + dd
    shift = -b / 3.0

    disc = -4.0 * p ** 3 - 27.0 * q * q
    disc_scale = max(abs(p), abs(q) ** (2.0 / 3.0)) ** 3

    def polish(x):
        f = ((a3 * x + a2) * x + a1) * x + a0
        fp = (3.0 * a3 * x + 2.0 * a2) * x + a1
        return x - f / fp if fp != 0.0 else x

    # (near-)multiple roots are left unpolished: the closed form is smooth in
    # the coefficients there while Newton divides by a vanishing derivative
    if disc_scale == 0.0:
        return [(shift, True)]  # triple root

    if abs(disc) <= _DEGENERACY_RTOL * disc_scale:
        if abs(p) ** 3 <= _DEGENERACY_RTOL * disc_scale:
            return [(shift + math.copysign(abs(q) ** (1.0 / 3.0), -q), True)]
        double = -3.0 * q / (2.0 * p)
        simple = 3.0 * q / p
        pair = sorted([(shift + double, True), (shift + simple, False)])
        return [(x if flag else polish(x), flag) for x, flag in pair]

    if disc > 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg)
        ts = [m * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)]
        return [(polish(shift + t), False) for t in sorted(ts)]

    # one real root, Cardano in the cancellation-safe arrangement
    h = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
    u = -math.copysign(abs(q) / 2.0 + h, q)
    a = math.copysign(abs(u) ** (1.0 / 3.0), u)
    t = a - p / (3.0 * a) if a != 0.0 else 0.0
    return [(polish(shift + t), False)]


def _each(fn, x: np.ndarray, *args) -> np.ndarray:
    # fn(entry, *args) in Python floats for every entry: libm's pow, acos and
    # cos, whose last bit numpy's own versions do not always match
    return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), dtype=float,
                       count=len(x))


def _polish(x, a3, a2, a1, a0):
    f = ((a3 * x + a2) * x + a1) * x + a0
    fp = (3.0 * a3 * x + 2.0 * a2) * x + a1
    return np.where(fp != 0.0, x - f / fp, x)


def _stacked_cubic_roots(a3, a2, a1, a0):
    """Real roots of a stack of cubics, each row as :func:`_real_cubic_roots`.

    Takes 1-D coefficient arrays (floats broadcast) and returns
    ``(row, root, degenerate)`` columns, rows in order and the roots of a
    row ascending.  The trigonometric and Cardano forms and the Newton
    polish run over the stack in the operations of the scalar kernel, with
    its powers and its acos and cos taken per entry in Python floats, so
    every root has the scalar kernel's bits.  A row with ``a3 == 0``,
    ``a0 == 0`` or a discriminant within tolerance of zero (a knee) goes
    through :func:`_real_cubic_roots` itself.
    """
    a3, a2, a1, a0 = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (a3, a2, a1, a0)))
    rows = np.flatnonzero((a3 != 0.0) & (a0 != 0.0))
    a3_, a2_, a1_, a0_ = a3[rows], a2[rows], a1[rows], a0[rows]
    with np.errstate(all="ignore"):
        b = a2_ / a3_
        c = a1_ / a3_
        dd = a0_ / a3_
        p = c - b * b / 3.0
        q = 2.0 * _each(pow, b, 3) / 27.0 - b * c / 3.0 + dd
        shift = -b / 3.0
        p3 = _each(pow, p, 3)
        disc = -4.0 * p3 - 27.0 * q * q
        disc_scale = _each(pow, np.maximum(
            np.abs(p), _each(pow, np.abs(q), 2.0 / 3.0)), 3)
        knee = (disc_scale == 0.0) | (np.abs(disc) <= _DEGENERACY_RTOL * disc_scale)

        three = ~knee & (disc > 0.0)
        coeffs = [x[three, None] for x in (a3_, a2_, a1_, a0_)]
        m = 2.0 * np.sqrt(-p[three] / 3.0)
        arg = 3.0 * q[three] / (p[three] * m)
        arg = np.where(arg > -1.0, arg, -1.0)   # max(-1.0, arg)
        arg = np.where(arg < 1.0, arg, 1.0)     # min(1.0, arg)
        theta = _each(math.acos, arg)
        ts = np.stack([m * _each(math.cos, (theta - 2.0 * math.pi * k) / 3.0)
                       for k in range(3)], axis=1)
        ts.sort(axis=1)
        three_roots = _polish(shift[three, None] + ts, *coeffs)

        one = ~knee & ~(disc > 0.0)
        coeffs = [x[one] for x in (a3_, a2_, a1_, a0_)]
        p, q = p[one], q[one]
        h = np.sqrt(q * q / 4.0 + p3[one] / 27.0)
        u = -np.copysign(np.abs(q) / 2.0 + h, q)
        a = np.copysign(_each(pow, np.abs(u), 1.0 / 3.0), u)
        t = np.where(a != 0.0, a - p / (3.0 * a), 0.0)
        one_root = _polish(shift[one] + t, *coeffs)

    closed = np.zeros(len(a3), dtype=bool)
    closed[rows[~knee]] = True
    scalar_rows = np.flatnonzero(~closed)
    scalar = [_real_cubic_roots(*coeffs) for coeffs in
              zip(*(x[scalar_rows].tolist() for x in (a3, a2, a1, a0)))]
    pairs = np.array([pair for roots in scalar for pair in roots],
                     dtype=float).reshape(-1, 2)
    row = np.concatenate([np.repeat(rows[three], 3), rows[one],
                          np.repeat(scalar_rows, [len(roots) for roots in scalar])])
    root = np.concatenate([three_roots.ravel(), one_root, pairs[:, 0]])
    flag = np.concatenate([np.zeros(three_roots.size + one_root.size, dtype=bool),
                           pairs[:, 1] != 0.0])
    order = np.argsort(row, kind="stable")
    return row[order], root[order], flag[order]


def build_branch(n: float, Delta: float, d: DerivedQuantities, label: str,
                 degenerate: bool = False) -> MeanFieldBranch:
    """Fixed point, displacements included, at photon number ``n`` and ``Delta``."""
    q_s = (d.xi / d.omega_m) * n
    if d.zeta > 0.0:
        qc = -d.zeta * n / (d.Omega_c + d.omega_sw + d.gamma_c ** 2 / d.Omega_c)
        pc = (d.gamma_c / d.Omega_c) * qc
    else:
        qc = pc = 0.0
    return MeanFieldBranch(n=n, alpha=math.sqrt(n), Delta=Delta, q_s=q_s,
                           p_s=0.0, Q_s=qc, P_s=pc, label=label,
                           degenerate=degenerate)


_LABELS = {1: ("unique",), 2: ("lower", "upper"), 3: ("lower", "middle", "upper")}


def _mean_field_cubic(d: DerivedQuantities, delta_c, delta_c_sq, eta):
    """Coefficients (a3, a2, a1, a0) of the photon-number cubic.

    ``delta_c``, its square and the drive rate ``eta`` are floats or arrays;
    the caller squares ``delta_c``, a grid entry by entry in Python floats.
    """
    return (d.beta ** 2, -2.0 * delta_c * d.beta, delta_c_sq + d.kappa ** 2,
            -eta * eta)


def solve_mean_field(params: SystemParams,
                     delta_c: Optional[float] = None,
                     power: Optional[float] = None,
                     d: Optional[DerivedQuantities] = None) -> List[MeanFieldBranch]:
    """All mean-field branches at the given detuning and drive power.

    Defaults to the detuning and power stored in ``params``.  Branches come
    back sorted by ascending photon number; with three real roots they are
    labelled lower/middle/upper, a single root is ``unique`` and a flagged
    knee pair is lower/upper with ``degenerate`` set on the double root.
    A caller that already holds ``derive_quantities(params)`` passes it as
    ``d``; the drive rate always follows ``power``.
    """
    if d is None:
        d = derive_quantities(params)
    if delta_c is None:
        delta_c = params.cavity.detuning
    if power is None:
        power = params.drive.power
    eta = drive_rate(power, d.kappa, d.omega_cav)

    coeffs = _mean_field_cubic(d, delta_c, delta_c ** 2, eta)
    roots = _real_cubic_roots(*coeffs)

    # photon-number scale of the cubic, for the roundoff window of the
    # negative-root filter (genuine negative roots sit at the full scale);
    # a beta whose square underflows leaves no cubic term to scale by
    if coeffs[0] > 0.0:
        scale = max(abs(coeffs[1] / coeffs[0]),
                    abs(coeffs[2] / coeffs[0]) ** 0.5,
                    abs(coeffs[3] / coeffs[0]) ** (1.0 / 3.0))
    else:
        scale = max((abs(r) for r, _ in roots), default=0.0)
    kept = [(max(r, 0.0), flag) for r, flag in roots if not r < -1e-12 * scale]

    return [build_branch(n, delta_c - d.beta * n, d, label, flag)
            for (n, flag), label in zip(kept, _LABELS[len(kept)])]


def solve_mean_field_grid(d: DerivedQuantities, delta_c, eta) -> BranchColumns:
    """Mean-field branches over a grid of detunings or drive rates, as columns.

    ``delta_c`` and the drive rate ``eta`` are 1-D arrays over the grid, or
    floats shared by every grid point.  The grid goes through one stack of
    cubics, and the negative-root filter, labels and effective detunings are
    taken on the columns, each with the operations of
    :func:`solve_mean_field`: a branch has the bits it has there.
    """
    delta_c, eta = np.broadcast_arrays(np.asarray(delta_c, dtype=float),
                                       np.asarray(eta, dtype=float))
    a3, a2, a1, a0 = _mean_field_cubic(d, delta_c, _each(pow, delta_c, 2), eta)
    row, root, flag = _stacked_cubic_roots(a3, a2, a1, a0)

    if a3 > 0.0:
        scale = np.maximum(np.maximum(
            np.abs(a2 / a3), _each(pow, np.abs(a1 / a3), 0.5)),
            _each(pow, np.abs(a0 / a3), 1.0 / 3.0))
    else:
        scale = np.zeros(len(delta_c))
        np.maximum.at(scale, row, np.abs(root))
    keep = ~(root < -1e-12 * scale[row])
    row, root, flag = row[keep], root[keep], flag[keep]
    n = np.where(0.0 > root, 0.0, root)   # max(root, 0.0)

    count = np.bincount(row, minlength=len(delta_c))[row]
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    label = [_LABELS[c][k] for c, k in zip(count.tolist(), rank.tolist())]
    return BranchColumns(index=row, n=n, alpha=np.sqrt(n),
                         Delta=delta_c[row] - d.beta * n, label=label,
                         degenerate=flag)


def imposed_detuning_branches(d: DerivedQuantities, Delta) -> BranchColumns:
    """One ``unique`` branch per imposed effective detuning, as columns.

    The detuning fixes the photon number through the field fixed point,
    n = eta^2 / (Delta^2 + kappa^2); the branch structure of the cubic never
    enters.
    """
    Delta = np.asarray(Delta, dtype=float)
    n = d.eta ** 2 / (_each(pow, Delta, 2) + d.kappa ** 2)
    return BranchColumns(index=np.arange(len(Delta)), n=n, alpha=np.sqrt(n),
                         Delta=Delta, label=["unique"] * len(Delta),
                         degenerate=np.zeros(len(Delta), dtype=bool))


def bistability_window(params: SystemParams,
                       delta_c: float) -> Optional[BistabilityWindow]:
    """Closed-form bistability window, or None when the response is single-valued.

    A window exists only for delta_c > sqrt(3) kappa and beta > 0.  The
    drive power that sustains n photons is
    P(n) = n ((delta_c - beta n)^2 + kappa^2) hbar omega_c / (2 kappa), and
    its turning points are n = (2 delta_c -+ sqrt(delta_c^2 - 3 kappa^2)) / (3 beta).
    """
    d = derive_quantities(params)
    if d.beta == 0.0 or delta_c <= math.sqrt(3.0) * d.kappa:
        return None
    s = math.sqrt(delta_c ** 2 - 3.0 * d.kappa ** 2)
    n_hi = (2.0 * delta_c + s) / (3.0 * d.beta)
    n_lo = (2.0 * delta_c - s) / (3.0 * d.beta)
    p_hi, p_lo = (n * ((delta_c - d.beta * n) ** 2 + d.kappa ** 2)
                  * HBAR * d.omega_cav / (2.0 * d.kappa) for n in (n_hi, n_lo))
    return BistabilityWindow(power_low=p_hi, power_high=p_lo,
                             n_knee_low=n_hi, n_knee_high=n_lo)
