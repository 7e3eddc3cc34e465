"""JSON configuration ingestion.

A configuration is a single JSON document with a ``units`` mode and the
parameter sections; an optional ``sweep`` section turns it into a sweep
description.  Two unit modes exist:

* ``si``          every quantity in base SI units (rad/s, m, kg, K, W)
* ``normalized``  the mirror frequency stays in rad/s and acts as the
                  reference; every other frequency-like rate (condensate
                  coupling, collisional frequency, recoil, damping, xi
                  override) is a multiple of the mirror frequency, while
                  detunings are multiples of the cavity decay rate kappa.
                  Lengths, masses, temperatures and powers stay SI.

Sweep bounds follow the same convention per variable: ``delta_c`` in kappa
units, ``Delta_effective`` / ``omega_sw`` / ``xi`` in mirror-frequency
units, ``power`` always in watts.

When the ``bec`` section is omitted the condensate is absent; its decoupled
reference mode keeps a nonzero recoil and damping (0.1 mirror frequencies
and 1e-3 kappa, in rad/s in both unit modes) so the full covariance solve
stays well-posed.  A section with ``present: false`` that leaves out
``recoil`` or ``damping`` takes the same value for it.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from typing import Dict, Optional, Tuple

import numpy as np

from .model import (BecParams, CavityParams, DriveParams, MirrorParams,
                    ParameterError, SystemParams)
from .sweep import DEFAULT_POINTS, SweepSpec


class ConfigError(ParameterError):
    """A configuration document is malformed or names invalid values."""


# the most float64 grid values numpy can address in one array
_MAX_POINTS = np.iinfo(np.intp).max // 8


def _section(doc: Dict, name: str, keys, required: bool = True) -> Optional[Dict]:
    """The object ``doc[name]``, every key of which is in ``keys``; None for
    an absent section that is not required."""
    if name not in doc:
        if required:
            raise ConfigError(f"{name}: section is required")
        return None
    value = doc[name]
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: must be an object")
    _check_keys(value, name, keys)
    return value


def _number(section: Dict, path: str, key: str, default=None):
    name = f"{path}.{key}" if path else key
    if key not in section:
        if default is None:
            raise ConfigError(f"{name}: value is required")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: must be a number")
    try:
        value = float(value)
    except OverflowError:   # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{name}: must be finite")
    return value


def _scaled(value: float, name: str, unit: float, unit_fields: str) -> float:
    """``value`` times ``unit``, the rate in rad/s that ``unit_fields`` set;
    a product that overflows, or underflows to 0 from a nonzero value, is
    rejected with both names."""
    rate = value * unit
    if not math.isfinite(rate) or (rate == 0.0) != (value == 0.0):
        raise ConfigError(f"{name}/{unit_fields}: {value:g} x {unit:g} rad/s "
                          "leaves the float range")
    return rate


def _check_keys(section: Dict, path: str, allowed) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")


def params_from_dict(doc: Dict) -> SystemParams:
    """Build :class:`SystemParams` from a parsed configuration document."""
    _check_keys(doc, "config", ("units", "sweep", *SystemParams.__dataclass_fields__))
    units = doc.get("units", "si")
    if units not in ("si", "normalized"):
        raise ConfigError(f"units: {units!r} is not one of ('si', 'normalized')")
    normalized = units == "normalized"

    # a section takes exactly the fields of its dataclass, the keys a report
    # writes under params
    cav = _section(doc, "cavity", CavityParams.__dataclass_fields__)
    mir = _section(doc, "mirror", MirrorParams.__dataclass_fields__)
    drv = _section(doc, "drive", DriveParams.__dataclass_fields__)
    bec = _section(doc, "bec", BecParams.__dataclass_fields__, required=False)

    cavity = CavityParams(
        length=_number(cav, "cavity", "length"),
        wavelength=_number(cav, "cavity", "wavelength"),
        finesse=_number(cav, "cavity", "finesse"),
        detuning=0.0)
    kappa = cavity.kappa
    omega_m = _number(mir, "mirror", "frequency")
    freq_unit = omega_m if normalized else 1.0
    det_unit = kappa if normalized else 1.0
    # kappa, the unit of a normalized detuning, is set by the length and finesse
    cavity = replace(cavity, detuning=_scaled(_number(cav, "cavity", "detuning", 0.0),
                                              "cavity.detuning", det_unit,
                                              "cavity.length/cavity.finesse"))

    mirror = MirrorParams(
        mass=_number(mir, "mirror", "mass"),
        frequency=omega_m,
        quality=_number(mir, "mirror", "quality"),
        temperature=_number(mir, "mirror", "temperature", 0.0))
    # an omitted section's decoupled mode; a section sets the rates it gives,
    # and a present condensate also zeroes the rates it leaves out
    rates = dict(present=False, coupling=0.0, sw_frequency=0.0,
                 recoil=0.1 * omega_m, damping=1e-3 * kappa, temperature=0.0)
    if bec is not None:
        present = bec.get("present", True)
        if not isinstance(present, bool):
            raise ConfigError("bec.present: must be a boolean")
        rates.update({key: _scaled(_number(bec, "bec", key, 0.0), f"bec.{key}",
                                   freq_unit, "mirror.frequency")
                      for key in ("coupling", "sw_frequency", "recoil", "damping")
                      if present or key in bec},
                     present=present,
                     temperature=_number(bec, "bec", "temperature", 0.0))
    condensate = BecParams(**rates)
    drive = DriveParams(power=_number(drv, "drive", "power"))

    xi_override = None
    if doc.get("xi_override") is not None:
        xi_override = _scaled(_number(doc, "", "xi_override"), "xi_override",
                              freq_unit, "mirror.frequency")

    return SystemParams(cavity=cavity, mirror=mirror, bec=condensate,
                        drive=drive, xi_override=xi_override)


def sweep_from_dict(doc: Dict, params: SystemParams) -> SweepSpec:
    """Build the sweep description from the ``sweep`` section."""
    section = _section(doc, "sweep", ("variable", "lo", "hi", "points", "mode", "bec"))
    variable = section.get("variable")
    if not isinstance(variable, str):
        raise ConfigError("sweep.variable: value is required")

    normalized = doc.get("units", "si") == "normalized"
    unit, unit_fields = 1.0, ""
    if normalized:
        if variable == "delta_c":
            unit, unit_fields = params.cavity.kappa, "cavity.length/cavity.finesse"
        elif variable in ("Delta_effective", "omega_sw", "xi"):
            unit, unit_fields = params.mirror.frequency, "mirror.frequency"

    points = section.get("points", DEFAULT_POINTS)
    if isinstance(points, bool) or not isinstance(points, int):
        raise ConfigError("sweep.points: must be an integer")
    if points > _MAX_POINTS:
        raise ConfigError(f"sweep.points: must be at most {_MAX_POINTS}")

    return SweepSpec(
        variable=variable,
        lo=_scaled(_number(section, "sweep", "lo"), "sweep.lo", unit, unit_fields),
        hi=_scaled(_number(section, "sweep", "hi"), "sweep.hi", unit, unit_fields),
        points=points,
        params=params,
        **{key: section[key] for key in ("mode", "bec") if key in section},
    )


def load_config(path) -> Tuple[SystemParams, Optional[SweepSpec]]:
    """Read a configuration file; returns (params, sweep-or-None)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, an integer past the digit limit, or nested
        # deeper than the decoder recurses
        raise ConfigError(f"config: {path} cannot be decoded as JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top-level document must be an object")
    params = params_from_dict(doc)
    sweep = sweep_from_dict(doc, params) if "sweep" in doc else None
    return params, sweep
