"""Reference parameter set and the bundled figure presets.

The reference configuration used throughout the presets: a 1 mm cavity at
1064 nm with finesse 3e4 (amplitude decay kappa = pi c / L F, about half the
mirror frequency), a 50 ng end mirror at omega_m = 2 pi x 10 MHz with
quality 1e5 in a 0.4 K bath, condensate recoil frequency 0.1 omega_m,
condensate damping 1e-3 kappa at an effective temperature of 0.1 uK.  The
condensate coupling defaults to the geometric mirror coupling rate xi
(about 324 rad/s); ``fig4`` instead pins both couplings to the round value
330 rad/s that its coupling grid is built from.

Preset catalogue (each writes one multi-configuration dataset):

========  =====================================================================
fig2a     photon number vs detuning at 10 mW, four condensate configurations
fig2b     same at 50 mW
fig2c     same at 250 mW
fig2d     photon number vs drive power at delta_c = 4 kappa, four configurations
fig3      photon number vs drive power at delta_c = 3 kappa, weak vs strong
          collisions (omega_sw = 0.01 and 1 omega_m)
fig4      photon number vs drive power at delta_c = 5 kappa for mirror
          couplings xi = 0, 330, 660 rad/s (zeta fixed at 330 rad/s,
          omega_sw = 0.1 omega_m)
fig5a-c   occupations vs effective detuning at 50 mW for omega_sw = 2, 1,
          0.5 omega_m, condensate present and decoupled
fig6a-c   same sweeps (entanglement columns of the full-mode output)
fig7      occupations vs effective detuning for omega_sw = 0, 0.5, 1 omega_m
          plus the condensate-free curve
========  =====================================================================
"""

from __future__ import annotations

import math
from dataclasses import replace

from .model import (BecParams, CavityParams, DriveParams, MirrorParams,
                    ParameterError, SystemParams, derive_quantities)
from .sweep import SweepSpec, Variant

CAVITY_LENGTH = 1e-3        # m
WAVELENGTH = 1.064e-6       # m
FINESSE = 3e4
MIRROR_MASS = 50e-12        # kg
MIRROR_FREQ = 2.0 * math.pi * 1e7  # rad/s
MIRROR_QUALITY = 1e5
MIRROR_TEMPERATURE = 0.4    # K
BEC_RECOIL = 0.1 * MIRROR_FREQ
BEC_TEMPERATURE = 1e-7      # K
DEFAULT_POINTS = 600

FIG4_COUPLING = 330.0       # rad/s, round coupling used by the fig4 grid


def reference_kappa() -> float:
    return CavityParams(CAVITY_LENGTH, WAVELENGTH, FINESSE).kappa


def reference_xi() -> float:
    """Geometric mirror coupling rate of the reference cavity."""
    params = baseline_params(zeta=0.0, bec_present=False)
    return derive_quantities(params).xi


def baseline_params(power: float = 0.05,
                    detuning: float = 0.0,
                    sw_frequency: float = 0.0,
                    zeta: float = None,
                    bec_present: bool = True,
                    temperature: float = MIRROR_TEMPERATURE) -> SystemParams:
    """Reference configuration; ``zeta=None`` means condensate coupling = xi."""
    kappa = reference_kappa()
    cavity = CavityParams(length=CAVITY_LENGTH, wavelength=WAVELENGTH,
                          finesse=FINESSE, detuning=detuning)
    mirror = MirrorParams(mass=MIRROR_MASS, frequency=MIRROR_FREQ,
                          quality=MIRROR_QUALITY, temperature=temperature)
    if zeta is None:
        zeta = reference_xi()
    bec = BecParams(present=bec_present, coupling=zeta,
                    sw_frequency=sw_frequency, recoil=BEC_RECOIL,
                    damping=1e-3 * kappa, temperature=BEC_TEMPERATURE)
    return SystemParams(cavity=cavity, mirror=mirror, bec=bec,
                        drive=DriveParams(power=power))


def _bec_variants(params: SystemParams) -> tuple:
    """No-condensate curve plus three collision strengths."""
    wm = MIRROR_FREQ
    return (
        Variant("no_bec", params.without_bec()),
        Variant("sw_0.0", replace(params, bec=replace(params.bec, sw_frequency=0.0))),
        Variant("sw_0.5", replace(params, bec=replace(params.bec, sw_frequency=0.5 * wm))),
        Variant("sw_1.0", replace(params, bec=replace(params.bec, sw_frequency=1.0 * wm))),
    )


def _fig2_abc(power: float, hi_kappa: float) -> SweepSpec:
    params = baseline_params(power=power)
    kappa = reference_kappa()
    return SweepSpec(variable="delta_c", lo=-2.0 * kappa, hi=hi_kappa * kappa,
                     points=DEFAULT_POINTS, params=params, mode="mean_field",
                     bec="present", variants=_bec_variants(params))


def _fig2d() -> SweepSpec:
    kappa = reference_kappa()
    params = baseline_params(power=0.05, detuning=4.0 * kappa)
    return SweepSpec(variable="power", lo=0.0, hi=0.3,
                     points=DEFAULT_POINTS, params=params, mode="mean_field",
                     bec="present", variants=_bec_variants(params))


def _fig3() -> SweepSpec:
    kappa = reference_kappa()
    wm = MIRROR_FREQ
    params = baseline_params(power=0.05, detuning=3.0 * kappa)
    variants = (
        Variant("sw_0.01", replace(params, bec=replace(params.bec, sw_frequency=0.01 * wm))),
        Variant("sw_1.0", replace(params, bec=replace(params.bec, sw_frequency=1.0 * wm))),
    )
    return SweepSpec(variable="power", lo=0.0, hi=0.2, points=DEFAULT_POINTS,
                     params=params, mode="mean_field", bec="present",
                     variants=variants)


def _fig4() -> SweepSpec:
    kappa = reference_kappa()
    params = baseline_params(power=0.05, detuning=5.0 * kappa,
                             sw_frequency=0.1 * MIRROR_FREQ, zeta=FIG4_COUPLING)
    variants = tuple(
        Variant(f"xi_{int(x)}", replace(params, xi_override=float(x)))
        for x in (0.0, FIG4_COUPLING, 2 * FIG4_COUPLING)
    )
    return SweepSpec(variable="power", lo=0.0, hi=0.3, points=DEFAULT_POINTS,
                     params=params, mode="mean_field", bec="present",
                     variants=variants)


def _cooling_sweep(sw_ratio: float) -> SweepSpec:
    params = baseline_params(power=0.05, sw_frequency=sw_ratio * MIRROR_FREQ)
    return SweepSpec(variable="Delta_effective", lo=0.0, hi=3.0 * MIRROR_FREQ,
                     points=DEFAULT_POINTS, params=params, mode="full",
                     bec="both")


def _fig7() -> SweepSpec:
    params = baseline_params(power=0.05)
    return SweepSpec(variable="Delta_effective", lo=0.0, hi=3.0 * MIRROR_FREQ,
                     points=DEFAULT_POINTS, params=params, mode="full",
                     bec="present", variants=_bec_variants(params))


_PRESET_BUILDERS = {
    "fig2a": lambda: _fig2_abc(0.010, 4.0),
    "fig2b": lambda: _fig2_abc(0.050, 8.0),
    "fig2c": lambda: _fig2_abc(0.250, 18.0),
    "fig2d": _fig2d,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5a": lambda: _cooling_sweep(2.0),
    "fig5b": lambda: _cooling_sweep(1.0),
    "fig5c": lambda: _cooling_sweep(0.5),
    "fig7": _fig7,
}
# fig6a-c plot the entanglement columns of the fig5a-c sweeps
_PRESET_BUILDERS.update({f"fig6{c}": _PRESET_BUILDERS[f"fig5{c}"] for c in "abc"})

FIGURE_IDS = tuple(sorted(_PRESET_BUILDERS))


def figure_preset(fig_id: str) -> SweepSpec:
    """Fully populated sweep for one of the bundled dataset presets."""
    try:
        builder = _PRESET_BUILDERS[fig_id]
    except KeyError:
        raise ParameterError(
            f"figure: unknown preset {fig_id!r}; known ids: {', '.join(FIGURE_IDS)}")
    return builder()
