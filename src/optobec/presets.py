"""Reference parameter set and the bundled figure presets.

The reference configuration used throughout the presets: a 1 mm cavity at
1064 nm with finesse 3e4 (amplitude decay kappa = pi c / L F, about half the
mirror frequency), a 50 ng end mirror at omega_m = 2 pi x 10 MHz with
quality 1e5 in a 0.4 K bath, condensate recoil frequency 0.1 omega_m,
condensate damping 1e-3 kappa at an effective temperature of 0.1 uK.  The
condensate coupling defaults to the geometric mirror coupling rate xi
(about 324 rad/s); ``fig4`` instead pins both couplings to the round value
330 rad/s that its coupling grid is built from.

Each preset writes one multi-configuration dataset.  The catalogue is the
table ``_PRESETS``, one row per figure, which mirrors the README table
"Bundled presets" row for row: bistability against the drive and the
detuning for several collision strengths omega_sw (fig2a-d, fig3) and
mirror couplings xi (fig4), then the occupations and log-negativities of
the full-mode sweeps against the effective detuning (fig5a-c, whose
entanglement columns are fig6a-c, and fig7).  Every grid has
``sweep.DEFAULT_POINTS`` points.
"""

from __future__ import annotations

import math

from .model import (BecParams, CavityParams, DriveParams, MirrorParams,
                    ParameterError, SystemParams, derive_quantities)
from .sweep import DEFAULT_POINTS, SweepSpec, Variant, _point_params

CAVITY_LENGTH = 1e-3        # m
WAVELENGTH = 1.064e-6       # m
FINESSE = 3e4
MIRROR_MASS = 50e-12        # kg
MIRROR_FREQ = 2.0 * math.pi * 1e7  # rad/s
MIRROR_QUALITY = 1e5
MIRROR_TEMPERATURE = 0.4    # K
BEC_RECOIL = 0.1 * MIRROR_FREQ
BEC_TEMPERATURE = 1e-7      # K


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


# the condensate-free curve and three collision strengths
_BEC_CURVES = ("no_bec", "sw_0.0", "sw_0.5", "sw_1.0")
_KAPPA = reference_kappa()

#: One row per preset, as in the README table "Bundled presets": swept
#: variable, its range, the overrides of ``baseline_params``, the variants,
#: mode and bec.  A variant's label says what it changes: ``no_bec``
#: decouples the condensate, ``sw_R`` sets omega_sw = R omega_m and ``xi_X``
#: the mirror coupling xi = X rad/s.
_PRESETS = {
    "fig2a": ("delta_c", -2.0 * _KAPPA, 4.0 * _KAPPA, dict(power=0.010),
              _BEC_CURVES, "mean_field", "present"),
    "fig2b": ("delta_c", -2.0 * _KAPPA, 8.0 * _KAPPA, dict(power=0.050),
              _BEC_CURVES, "mean_field", "present"),
    "fig2c": ("delta_c", -2.0 * _KAPPA, 18.0 * _KAPPA, dict(power=0.250),
              _BEC_CURVES, "mean_field", "present"),
    "fig2d": ("power", 0.0, 0.3, dict(detuning=4.0 * _KAPPA),
              _BEC_CURVES, "mean_field", "present"),
    "fig3": ("power", 0.0, 0.2, dict(detuning=3.0 * _KAPPA),
             ("sw_0.01", "sw_1.0"), "mean_field", "present"),
    "fig4": ("power", 0.0, 0.3, dict(detuning=5.0 * _KAPPA,
                                     sw_frequency=0.1 * MIRROR_FREQ, zeta=330.0),
             ("xi_0", "xi_330", "xi_660"), "mean_field", "present"),
    "fig5a": ("Delta_effective", 0.0, 3.0 * MIRROR_FREQ,
              dict(sw_frequency=2.0 * MIRROR_FREQ), (), "full", "both"),
    "fig5b": ("Delta_effective", 0.0, 3.0 * MIRROR_FREQ,
              dict(sw_frequency=1.0 * MIRROR_FREQ), (), "full", "both"),
    "fig5c": ("Delta_effective", 0.0, 3.0 * MIRROR_FREQ,
              dict(sw_frequency=0.5 * MIRROR_FREQ), (), "full", "both"),
    "fig7": ("Delta_effective", 0.0, 3.0 * MIRROR_FREQ, {},
             _BEC_CURVES, "full", "present"),
}
# fig6a-c plot the entanglement columns of the fig5a-c sweeps
_PRESETS.update({f"fig6{c}": _PRESETS[f"fig5{c}"] for c in "abc"})

FIGURE_IDS = tuple(sorted(_PRESETS))

# the swept variable a variant label's prefix installs, and its unit
_VARIANT_VALUES = {"sw": ("omega_sw", MIRROR_FREQ), "xi": ("xi", 1.0)}


def _variant(label: str, params: SystemParams) -> Variant:
    """The curve a variant label of ``_PRESETS`` names, on ``params``."""
    if label == "no_bec":
        return Variant(label, params.without_bec())
    prefix, _, value = label.partition("_")
    swept, unit = _VARIANT_VALUES[prefix]
    return Variant(label, _point_params(swept, float(value) * unit, params))


def figure_preset(fig_id: str) -> SweepSpec:
    """Fully populated sweep for one of the bundled dataset presets."""
    try:
        variable, lo, hi, overrides, labels, mode, bec = _PRESETS[fig_id]
    except KeyError:
        raise ParameterError(
            f"figure: unknown preset {fig_id!r}; known ids: {', '.join(FIGURE_IDS)}")
    params = baseline_params(**overrides)
    return SweepSpec(variable=variable, lo=lo, hi=hi, points=DEFAULT_POINTS,
                     params=params, mode=mode, bec=bec,
                     variants=tuple([_variant(label, params) for label in labels]))
