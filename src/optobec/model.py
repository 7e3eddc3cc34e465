"""Physical inputs and derived rates for a driven optomechanical cavity
coupled to the collective density mode of a trapped atomic condensate.

Unit conventions, used everywhere in this package:

* frequencies, rates, detunings: angular, rad/s
* lengths: m, masses: kg, temperatures: K, powers: W
* quadratures are dimensionless with vacuum variance 1/2

Parameters are grouped into small frozen dataclasses (cavity geometry,
mirror, condensate, drive) and collected in :class:`SystemParams`.  All
rates the dynamics needs are computed once per configuration by
:func:`derive_quantities`; everything downstream consumes the resulting
:class:`DerivedQuantities` value and never re-derives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J/K
C_LIGHT = 2.99792458e8  # m/s

# hbar*omega/(k_B T) beyond this makes the Bose factor underflow double
# precision; the occupation is reported as exactly 0 below the corresponding
# temperature floor T < hbar*omega/(700 k_B).
_BOSE_EXP_CUTOFF = 700.0


class ParameterError(ValueError):
    """A physical parameter violates its validity constraint."""


def _require(cond: bool, name: str, message: str) -> None:
    if not cond:
        raise ParameterError(f"{name}: {message}")


def _positive(value: float, name: str) -> None:
    _require(math.isfinite(value) and value > 0, name, "must be finite and > 0")


def _non_negative(value: float, name: str) -> None:
    _require(math.isfinite(value) and value >= 0, name, "must be finite and >= 0")


def _finite_square(value: float, name: str) -> None:
    # a value the solvers square, whose square must not overflow
    _require(math.isfinite(value * value), name, "must be finite, with a finite square")


@dataclass(frozen=True)
class CavityParams:
    """Fabry-Perot geometry and the (Stark-shifted) cavity-pump detuning.

    ``detuning`` is the effective detuning offset delta_c, i.e. the bare
    cavity-pump detuning already including the static condensate shift.  Any
    sign is allowed.
    """

    length: float      # m
    wavelength: float  # m
    finesse: float
    detuning: float = 0.0  # rad/s

    def __post_init__(self):
        _positive(self.length, "cavity.length")
        _positive(self.wavelength, "cavity.wavelength")
        _positive(self.finesse, "cavity.finesse")
        _finite_square(self.detuning, "cavity.detuning")
        # the solvers square kappa = pi c / (L F), which is 0 for an infinite L F
        _require(0.0 < self.length * self.finesse < math.inf
                 and math.isfinite(self.kappa * self.kappa), "cavity.length/cavity.finesse",
                 "must give a decay rate kappa > 0 with a finite square")

    @property
    def kappa(self) -> float:
        """Cavity amplitude decay rate pi c / (L F), rad/s."""
        return math.pi * C_LIGHT / (self.length * self.finesse)


@dataclass(frozen=True)
class MirrorParams:
    """Moving end mirror: mechanical mode and its thermal bath."""

    mass: float         # kg
    frequency: float    # rad/s
    quality: float      # dimensionless, sets gamma_m = frequency/quality
    temperature: float  # K

    def __post_init__(self):
        _positive(self.mass, "mirror.mass")
        _positive(self.frequency, "mirror.frequency")
        _finite_square(self.frequency, "mirror.frequency")
        _positive(self.quality, "mirror.quality")
        _non_negative(self.temperature, "mirror.temperature")


@dataclass(frozen=True)
class BecParams:
    """Condensate side mode treated as a secondary mechanical oscillator.

    ``coupling`` is the radiation-pressure rate zeta of the density mode,
    ``sw_frequency`` the s-wave collisional frequency, ``recoil`` the photon
    recoil frequency of a condensate atom and ``damping`` the decay rate of
    the collective excitation.  With ``present=False`` the mode is kept in
    the state vector but completely decoupled (coupling treated as zero
    downstream), which is exactly equivalent to removing it.
    """

    present: bool = False
    coupling: float = 0.0      # rad/s
    sw_frequency: float = 0.0  # rad/s
    recoil: float = 0.0        # rad/s
    damping: float = 0.0       # rad/s
    temperature: float = 0.0   # K

    def __post_init__(self):
        _non_negative(self.coupling, "bec.coupling")
        _finite_square(self.coupling, "bec.coupling")
        _non_negative(self.sw_frequency, "bec.sw_frequency")
        _non_negative(self.damping, "bec.damping")
        _finite_square(self.damping, "bec.damping")
        _non_negative(self.temperature, "bec.temperature")
        if self.present:
            _require(math.isfinite(self.recoil) and self.recoil > 0,
                     "bec.recoil", "must be > 0 when the condensate is present")
        else:
            _non_negative(self.recoil, "bec.recoil")


@dataclass(frozen=True)
class DriveParams:
    """Laser drive through the fixed mirror."""

    power: float  # W

    def __post_init__(self):
        _non_negative(self.power, "drive.power")


@dataclass(frozen=True)
class SystemParams:
    """Complete physical configuration.

    ``xi_override`` replaces the geometric mirror coupling rate when set
    (useful for coupling sweeps and for the decoupled-mirror limit xi=0).
    """

    cavity: CavityParams
    mirror: MirrorParams
    bec: BecParams
    drive: DriveParams
    xi_override: Optional[float] = None

    def __post_init__(self):
        if self.xi_override is not None:
            _non_negative(self.xi_override, "xi_override")
            _finite_square(self.xi_override, "xi_override")

    def without_bec(self) -> "SystemParams":
        """Copy with the condensate decoupled (mode retained, coupling off)."""
        return replace(self, bec=replace(self.bec, present=False))


@dataclass(frozen=True)
class DerivedQuantities:
    """All rates the steady-state and fluctuation dynamics consume.

    ``zeta`` is the effective condensate coupling (zero when the condensate
    is absent), ``beta`` the total nonlinear detuning-pull coefficient per
    photon, ``delta_omega`` the signed gap between the condensate-mode
    resonance ``omega_B`` and the mirror frequency.
    """

    omega_cav: float    # rad/s, optical resonance
    kappa: float        # rad/s, cavity amplitude decay
    eta: float          # rad/s, coherent drive amplitude rate
    xi: float           # rad/s, mirror radiation-pressure coupling
    zeta: float         # rad/s, condensate radiation-pressure coupling (effective)
    gamma_m: float      # rad/s, mirror damping
    gamma_c: float      # rad/s, condensate-mode damping
    Omega_c: float      # rad/s, bare condensate-mode frequency
    omega_sw: float     # rad/s, s-wave collisional frequency
    omega_B: float      # rad/s, condensate-mode resonance sqrt(Omega_c(Omega_c+omega_sw))
    delta_omega: float  # rad/s, omega_B - omega_m, signed
    omega_m: float      # rad/s, mirror frequency (copied through for convenience)
    nbar: float         # mean thermal phonons of the mirror bath
    nbar_bec: float     # mean thermal quanta of the condensate bath at omega_B
    beta: float         # rad/s per photon, total detuning-pull coefficient


def bose_occupation(omega: float, temperature: float) -> float:
    """Mean thermal occupation of a mode at ``omega`` for a bath at ``temperature``.

    Returns 0 at T = 0 and for any bath cold enough that
    hbar*omega/(k_B T) > 700, where the Bose factor underflows double
    precision (occupation below ~1e-304), and inf where hbar*omega/(k_B T)
    is so small that 1/x is not a finite float.
    """
    if K_B * temperature == 0.0:   # T = 0, or a bath so cold k_B T underflows
        return 0.0
    _require(omega > 0, "bose_occupation.omega", "must be > 0 for a thermal bath")
    x = HBAR * omega / (K_B * temperature)
    if x > _BOSE_EXP_CUTOFF:
        return 0.0
    return 1.0 / math.expm1(x) if x > 0.0 else math.inf


def drive_rate(power: float, kappa: float, omega_cav: float) -> float:
    """Coherent drive amplitude rate for a given input power."""
    _non_negative(power, "drive.power")
    eta = math.sqrt(2.0 * power * kappa / (HBAR * omega_cav))
    # the mean-field cubic squares the rate
    _require(math.isfinite(eta * eta), "drive.power",
             "must give a drive rate with a finite square")
    return eta


def derive_quantities(params: SystemParams) -> DerivedQuantities:
    """Compute every derived rate once for a configuration.

    Pure function of its inputs; repeated calls are bit-identical.
    """
    cav, mir, bec, drv = params.cavity, params.mirror, params.bec, params.drive

    omega_cav = 2.0 * math.pi * C_LIGHT / cav.wavelength
    # drive_rate divides by the photon energy
    _require(0.0 < HBAR * omega_cav < math.inf, "cavity.wavelength",
             "must give a photon energy hbar omega_cav that is finite and > 0")
    kappa = cav.kappa
    if params.xi_override is not None:
        xi = params.xi_override
    else:
        m_omega = mir.mass * mir.frequency
        xi = (omega_cav / cav.length) * math.sqrt(HBAR / m_omega) if m_omega > 0.0 else math.inf
        if not math.isfinite(xi * xi):   # the solvers square xi
            raise ParameterError(
                f"cavity.length/mirror.mass/mirror.frequency: the mirror coupling "
                f"xi = {xi:.3e} rad/s has no finite square")
    eta = drive_rate(drv.power, kappa, omega_cav)
    gamma_m = mir.frequency / mir.quality

    zeta = bec.coupling if bec.present else 0.0
    omega_sw = bec.sw_frequency
    Omega_c = 4.0 * bec.recoil + 0.5 * omega_sw
    omega_B = math.sqrt(Omega_c * (Omega_c + omega_sw))
    if Omega_c * (Omega_c + omega_sw) < sys.float_info.min:
        # the product underflows, to a subnormal or to 0: take the roots apart
        omega_B = math.sqrt(Omega_c) * math.sqrt(Omega_c + omega_sw)
    # the pull and the condensate displacement divide by Omega_c
    if bec.present and not (math.isfinite(bec.damping / Omega_c)
                            and math.isfinite(bec.damping ** 2 / Omega_c)):
        raise ParameterError(
            f"bec.recoil/bec.damping: gamma_c/Omega_c and gamma_c^2/Omega_c must be "
            f"finite (Omega_c = {Omega_c:.3e} rad/s)")

    nbar = bose_occupation(mir.frequency, mir.temperature)
    nbar_bec = bose_occupation(omega_B, bec.temperature) if omega_B > 0 else 0.0
    for n, fields in ((nbar, "mirror.frequency/mirror.temperature"),
                      (nbar_bec, "bec.recoil/bec.sw_frequency/bec.temperature")):
        _require(math.isfinite(n), fields, "hbar omega/(k_B T) is too small "
                 "for a finite thermal occupation")

    beta = xi ** 2 / mir.frequency
    if zeta > 0.0:
        beta += zeta ** 2 / (Omega_c + omega_sw + bec.damping ** 2 / Omega_c)
    # beta^2 leads the mean-field cubic, whose kernel has no quadratic
    # branch: rejecting a beta^2 that underflows keeps a3 == 0 the same as
    # beta == 0 (no pull, one root), and once it overflows the cubic has no
    # coefficients
    if 0.0 < beta and not sys.float_info.min <= beta * beta < math.inf:
        way = "weak: beta^2 underflows" if beta < 1.0 else "strong: beta^2 overflows"
        raise ParameterError(
            f"xi_override/bec.coupling: the detuning pull beta = {beta:.3e} "
            f"rad/s per photon is too {way}")

    return DerivedQuantities(
        omega_cav=omega_cav,
        kappa=kappa,
        eta=eta,
        xi=xi,
        zeta=zeta,
        gamma_m=gamma_m,
        gamma_c=bec.damping,
        Omega_c=Omega_c,
        omega_sw=omega_sw,
        omega_B=omega_B,
        delta_omega=omega_B - mir.frequency,
        omega_m=mir.frequency,
        nbar=nbar,
        nbar_bec=nbar_bec,
        beta=beta,
    )
