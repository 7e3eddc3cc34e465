"""Mean-field fixed points of the driven cavity and their bistability structure.

Eliminating the oscillator displacements from the field equation leaves a
cubic in the intracavity photon number n,

    beta^2 n^3 - 2 delta_c beta n^2 + (delta_c^2 + kappa^2) n = eta^2,

whose real roots are the steady-state branches.  Roots are found by the
closed-form depressed-cubic solution (the trigonometric form in the
three-real-root regime, so the branch count is exact) and each root gets one
Newton polish step on the original cubic.  Turning points of the drive power
as a function of n give the bistability window in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

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
        s = math.sqrt(disc2)
        roots = sorted(((-a1 - s) / (2.0 * a2), (-a1 + s) / (2.0 * a2)))
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

    coeffs = [d.beta ** 2, -2.0 * delta_c * d.beta,
              delta_c ** 2 + d.kappa ** 2, -eta * eta]
    roots = _real_cubic_roots(*coeffs)

    # photon-number scale of the cubic, for the roundoff window of the
    # negative-root filter (genuine negative roots sit at the full scale)
    if d.beta > 0.0:
        scale = max(abs(coeffs[1] / coeffs[0]),
                    abs(coeffs[2] / coeffs[0]) ** 0.5,
                    abs(coeffs[3] / coeffs[0]) ** (1.0 / 3.0))
    else:
        scale = max((abs(r) for r, _ in roots), default=0.0)
    kept = [(max(r, 0.0), flag) for r, flag in roots if not r < -1e-12 * scale]

    return [build_branch(n, delta_c - d.beta * n, d, label, flag)
            for (n, flag), label in zip(kept, _LABELS[len(kept)])]


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
