"""Mean-field fixed points of the driven cavity and their bistability structure.

Eliminating the oscillator displacements from the field equation leaves a
cubic in the intracavity photon number n,

    beta^2 n^3 - 2 delta_c beta n^2 + (delta_c^2 + kappa^2) n = eta^2,

whose real roots are the steady-state branches.  Roots are found by the
closed-form depressed-cubic solution (the trigonometric form in the
three-real-root regime, so the branch count is exact) and each root gets one
Newton polish step on the original cubic.  One point goes through this
scalar kernel (:func:`solve_mean_field`); a sweep grid is one stack of
cubics (:func:`solve_mean_field_grid`), each row in the operations of the
scalar kernel.  The stack calls libm (Python's ``pow``, ``math.acos`` and
``math.cos``, entry by entry) only where its bits reach a root: b^3 in q,
the p^3 and the cube root of a one-root row, the acos and cos of a
three-root row, and delta_c^2 once per distinct detuning.  The knee test
and the choice between one and three roots come from numpy products;
libm's p^3, |q|^(2/3) and cube of the discriminant's scale are taken only
in the rows a written roundoff bound cannot put clear of the knee
threshold (see :func:`_stacked_cubic_roots`), so every root and every
decision keeps the scalar kernel's bits.  Either way the branches come
back as columns (:class:`BranchColumns`).  The grids of several
configurations are one stack too: each grid point carries its group, whose
beta, beta^2 and kappa^2 are taken once in Python floats and gathered per
point.  Both solves check every branch against the field fixed point and
raise :class:`~optobec.linear_dynamics.NumericalError` for one the closed
form got wrong.  Turning points of the drive power as a function of n give the
bistability window in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .linear_dynamics import NumericalError, per_row
from .model import (HBAR, DerivedQuantities, SystemParams, derive_quantities,
                    drive_rate)

# |cubic discriminant| below 1e-9 of its natural scale marks a (near-)double
# root; those are the physical knee points and are reported, not dropped.
_DEGENERACY_RTOL = 1e-9
# The stacked kernel decides a row from products when they put |disc| more
# than _KNEE_BAND * disc_scale past that threshold: 64 times the bound 16 u
# (u = 2^-53) on their error, derived in _stacked_cubic_roots.
_KNEE_BAND = 64 * 16 * 2.0 ** -53
_TINY = 2.0 ** -1022   # smallest normal float

#: accepted |n (Delta^2 + kappa^2) - eta^2| of a branch, relative to eta^2
FIXED_POINT_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class BranchColumns:
    """Mean-field branches as columns, one entry per branch.

    ``index`` is the grid point each branch belongs to (0 for the branches
    of a single point), in grid order, branches of one point by ascending
    photon number.  ``group`` indexes the sequence of derived quantities
    the branches were solved and are evaluated with (see
    :func:`~optobec.linear_dynamics.per_row`): one entry per configuration,
    or per grid point of an ``omega_sw`` or ``xi`` sweep.  The
    displacement quadratures are left out: they follow from ``n``, and only
    the ``point`` report carries them.
    """

    index: np.ndarray        # int, grid point of each branch
    group: np.ndarray        # int, configuration of each branch
    n: np.ndarray            # mean photon number
    alpha: np.ndarray        # field amplitude, sqrt(n)
    Delta: np.ndarray        # rad/s, effective detuning
    label: np.ndarray        # str objects: lower | middle | upper | unique
    degenerate: np.ndarray   # bool, root on a bistability knee

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, rows) -> "BranchColumns":
        return BranchColumns(self.index[rows], self.group[rows], self.n[rows],
                             self.alpha[rows], self.Delta[rows], self.label[rows],
                             self.degenerate[rows])


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
    """Real roots of the mean-field cubic a3 n^3 + a2 n^2 + a1 n + a0, ascending.

    Returns a list of (root, degenerate) pairs.  Only the cubic of
    :func:`_mean_field_cubic` is solved, whose a1 = delta_c^2 + kappa^2 > 0:
    - ``a3 == 0`` only when beta == 0 (``derive_quantities`` rejects a
      beta^2 that underflows), so a2 == 0 too and the one root is -a0 / a1;
    - ``a0 == 0`` only when eta == 0, and n = 0 is the one root: the
      quadratic left has discriminant -4 beta^2 kappa^2 < 0.
    Otherwise closed form, trigonometric in the three-real-root regime, then
    one Newton step per root on the original polynomial.  A discriminant
    within tolerance of zero collapses the closest pair into a flagged
    double root.
    """
    if a3 == 0.0:
        return [(-a0 / a1, False)]
    if a0 == 0.0:
        return [(0.0, False)]

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
        # a triple root, or p and q underflowed because the roots sit far
        # from 1 (a strong pull): then the cubic is solved for x / 2^k, an
        # exact scaling with |dd| / 2^(3k) in [1/2, 4), which recurses once
        k = math.frexp(dd)[1] // 3
        if k == 0:
            return [(shift, True)]  # triple root
        return [(math.ldexp(r, k), flag) for r, flag in _real_cubic_roots(
            1.0, math.ldexp(b, -k), math.ldexp(c, -2 * k), math.ldexp(dd, -3 * k))]

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
    # cos, whose last bit numpy's own versions do not always match; called
    # only where those bits reach a root or a decision the products of
    # _stacked_cubic_roots cannot take
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

    The scalar kernel takes a knee for |disc| <= 1e-9 disc_scale, where
    disc = -4 P - 27 q q, with P = p**3 and
    disc_scale = max(|p|, |q|**(2/3))**3 from libm, and three roots for
    disc > 0.  Here both tests first use the products P' = p*p*p and
    S' = max(|P'|, q*q).  With u = 2^-53 and libm's pow within one ulp
    (2 u relative), to first order in u:

    - |P - P'| <= 4 u |p|^3, so disc' = -4 P' - 27 q q, whose q term is
      disc's own, has |disc - disc'| <= 16 u |p|^3 + u (|disc| + |disc'|);
    - |disc_scale - S'| <= 10 u S' (the q side of disc_scale is rounded by
      pow, pow and the cube, the product side by two products).

    So |disc'| > (1e-9 + B) S' implies |disc| > 1e-9 disc_scale, with disc'
    and disc of one sign, whenever B >= 16 u + 14e-9 u, about 1.8e-15.
    ``_KNEE_BAND`` is B = 64 * 16 u = 1.1e-13.  The bound needs normal,
    finite products: a row inside the band, or whose products overflow,
    underflow or are zero, or whose disc' is not finite, takes libm's P
    and disc_scale and the scalar kernel's tests.  A one-root row takes
    libm's P as well, because its h needs P's bits.
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
        # the knee and branch tests from products, libm's p**3 and disc_scale
        # only in rows whose products cannot decide them (see the docstring)
        p3 = p * p * p
        disc = -4.0 * p3 - 27.0 * q * q
        disc_scale = np.maximum(np.abs(p3), q * q)
        near = ~((np.abs(disc) > (_DEGENERACY_RTOL + _KNEE_BAND) * disc_scale)
                 & np.isfinite(disc) & (np.minimum(np.abs(p3), q * q) >= _TINY))
        p3[near] = _each(pow, p[near], 3)
        disc = -4.0 * p3 - 27.0 * q * q
        disc_scale[near] = _each(pow, np.maximum(
            np.abs(p[near]), _each(pow, np.abs(q[near]), 2.0 / 3.0)), 3)
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
        h = np.sqrt(q * q / 4.0 + _each(pow, p, 3) / 27.0)
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


_LABELS = {1: ("unique",), 2: ("lower", "upper"), 3: ("lower", "middle", "upper")}
# the labels of _LABELS in one array; a point's labels start at _LABEL_START[count]
_LABEL_NAMES = np.array([label for count in (1, 2, 3) for label in _LABELS[count]],
                        dtype=object)
_LABEL_START = np.array([0, 0, 1, 3])


def _cubic_constants(d: DerivedQuantities):
    """beta, beta^2 and kappa^2 of one configuration, in Python floats."""
    return d.beta, d.beta ** 2, d.kappa ** 2


def _mean_field_cubic(beta, beta_sq, kappa_sq, delta_c, delta_c_sq, eta):
    """Coefficients (a3, a2, a1, a0) of the photon-number cubic.

    The first three are the :func:`_cubic_constants` of the configuration.
    They, ``delta_c``, its square and the drive rate ``eta`` are floats, or
    arrays with the constants gathered per entry; the caller squares
    ``delta_c`` in Python floats, a grid once per distinct value.
    """
    return beta_sq, -2.0 * delta_c * beta, delta_c_sq + kappa_sq, -eta * eta


def _out_of_range(exc: Exception) -> NumericalError:
    # an overflow inside the closed form: pow raises OverflowError, and an
    # inf - inf under a square root raises a math-domain ValueError
    return NumericalError(f"mean-field cubic leaves the float range: {exc}")


def _on_fixed_point(branches: BranchColumns, kappa_sq, eta_sq) -> BranchColumns:
    """``branches``, once every one satisfies the field fixed point
    n (Delta^2 + kappa^2) = eta^2 to ``FIXED_POINT_RTOL`` of eta^2; else
    :class:`NumericalError`, so a root the closed form lost to cancellation
    (at a weak pull) is not reported.  ``kappa_sq`` and ``eta_sq`` (eta * eta,
    the negated constant term of the cubic) are arrays over the branches or
    floats."""
    residual = np.abs(branches.n * (branches.Delta * branches.Delta + kappa_sq) - eta_sq)
    ok = residual <= FIXED_POINT_RTOL * eta_sq   # False where NaN, too
    if not ok.all():   # ok.argmin() is the first branch off it
        raise NumericalError(
            f"mean-field branch n = {branches.n[ok.argmin()]:.6e} is off the field "
            f"fixed point: |n (Delta^2 + kappa^2) - eta^2| = "
            f"{residual[ok.argmin()]:.3e} exceeds {FIXED_POINT_RTOL:.0e} * eta^2")
    return branches


def solve_mean_field(params: SystemParams,
                     delta_c: Optional[float] = None,
                     power: Optional[float] = None,
                     d: Optional[DerivedQuantities] = None) -> BranchColumns:
    """All mean-field branches at the given detuning and drive power, as
    columns (index and group 0).

    Defaults to the detuning and power stored in ``params``.  Branches come
    back sorted by ascending photon number; with three real roots they are
    labelled lower/middle/upper, a single root is ``unique`` and a flagged
    knee pair is lower/upper with ``degenerate`` set on the double root.
    A caller that already holds ``derive_quantities(params)`` passes it as
    ``d``; the drive rate always follows ``power``.  The cubic has no root
    at n < 0, and at n = 0 only when eta == 0, so a root the closed form puts
    below 0 is one it lost: it is clamped to 0 and fails the fixed-point
    check.  A branch off the field fixed point (a root lost to cancellation
    at a weak pull) raises :class:`NumericalError`; none is dropped.
    """
    if d is None:
        d = derive_quantities(params)
    if delta_c is None:
        delta_c = params.cavity.detuning
    if power is None:
        power = params.drive.power
    eta = drive_rate(power, d.kappa, d.omega_cav)

    coeffs = _mean_field_cubic(*_cubic_constants(d), delta_c, delta_c ** 2, eta)
    try:
        roots = _real_cubic_roots(*coeffs)
    except (OverflowError, ValueError) as exc:
        raise _out_of_range(exc) from exc

    n, flag = np.array([(max(r, 0.0), f) for r, f in roots]).T
    zero = np.zeros(len(roots), dtype=int)
    return _on_fixed_point(BranchColumns(
        index=zero, group=zero, n=n, alpha=np.sqrt(n), Delta=delta_c - d.beta * n,
        label=np.array(_LABELS[len(roots)], dtype=object), degenerate=flag != 0.0),
        d.kappa ** 2, -coeffs[3])


def solve_mean_field_grid(ds, delta_c, eta, group=0) -> BranchColumns:
    """Mean-field branches over a grid of detunings or drive rates, as columns.

    ``delta_c`` and the drive rate ``eta`` are 1-D arrays over the grid, or
    floats shared by every grid point.  ``group`` (an array over the grid,
    or one int) gives each grid point its configuration, whose derived
    quantities are ``ds[group]`` in the list ``ds``, so the grids of several
    configurations are one grid.  The grid goes through one stack of cubics,
    and the clamp to n >= 0, labels and effective detunings are taken on
    the columns, each with the operations of :func:`solve_mean_field`: a
    branch has the bits it has there, and fails its fixed-point check there.
    """
    delta_c, eta, group = np.broadcast_arrays(np.asarray(delta_c, dtype=float),
                                              np.asarray(eta, dtype=float), group)
    beta, beta_sq, kappa_sq = per_row(ds, group, _cubic_constants).T
    # libm once per distinct detuning: a delta_c grid repeats its values in
    # every configuration, any other grid has one detuning per configuration
    # (the square is even, so -0.0 and 0.0 may share one)
    detunings, inverse = np.unique(delta_c, return_inverse=True)
    a3, a2, a1, a0 = _mean_field_cubic(beta, beta_sq, kappa_sq, delta_c,
                                       _each(pow, detunings, 2)[inverse], eta)
    try:
        row, root, flag = _stacked_cubic_roots(a3, a2, a1, a0)
    except (OverflowError, ValueError) as exc:
        raise _out_of_range(exc) from exc

    n = np.where(0.0 > root, 0.0, root)   # max(root, 0.0)

    counts = np.bincount(row, minlength=len(delta_c))
    count = counts[row]
    rank = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]   # rows are sorted
    return _on_fixed_point(BranchColumns(
        index=row, group=group[row], n=n, alpha=np.sqrt(n), degenerate=flag,
        Delta=delta_c[row] - beta[row] * n, label=_LABEL_NAMES[_LABEL_START[count] + rank]),
        kappa_sq[row], -a0[row])


def imposed_detuning_branches(ds, Delta, group) -> BranchColumns:
    """One ``unique`` branch per imposed effective detuning, as columns.

    The detuning fixes the photon number through the field fixed point,
    n = eta^2 / (Delta^2 + kappa^2); the branch structure of the cubic never
    enters.  ``Delta`` is a float array over the grid, and ``ds`` and
    ``group`` are as in :func:`solve_mean_field_grid`.
    """
    eta_sq, kappa_sq = per_row(ds, group, lambda x: (x.eta ** 2, x.kappa ** 2)).T
    n = eta_sq / (_each(pow, Delta, 2) + kappa_sq)
    return BranchColumns(index=np.arange(len(Delta)), group=group, n=n,
                         alpha=np.sqrt(n), Delta=Delta,
                         label=np.full(len(Delta), "unique", dtype=object),
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
