"""One-dimensional parameter sweeps over the steady-state pipeline and
deterministic CSV/JSON emission.

Every branch, whether it comes from a sweep point or from a single ``point``
report, goes through :func:`evaluate_branch`: drift matrix, Routh-Hurwitz
verdict and, for stable branches in full mode, the Lyapunov covariance and
the five measures.  Points are evaluated serially in grid order, so emitted
bytes are deterministic.

Swept variables:

* ``delta_c``          detuning offset, full self-consistent branch solve
* ``power``            drive power, full self-consistent branch solve
* ``Delta_effective``  effective detuning taken as the independent input;
                       the photon number follows directly from the field
                       fixed point and the self-consistency loop is
                       bypassed (single branch per point)
* ``omega_sw``         collisional frequency
* ``xi``               mirror coupling rate (installed as an override)

``Delta_effective`` differs qualitatively from a ``delta_c`` sweep: the
branch structure of the cubic never enters, which is the natural x-axis for
cooling and entanglement curves.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gaussian_measures as gm
from .linear_dynamics import (NumericalError, characteristic_polynomial,
                              diffusion_matrix, drift_matrix, is_stable,
                              solve_lyapunov)
from .model import (DerivedQuantities, ParameterError, SystemParams,
                    derive_quantities)
from .steady_state import MeanFieldBranch, build_branch, solve_mean_field

SWEEP_VARIABLES = ("delta_c", "power", "Delta_effective", "omega_sw", "xi")
SWEEP_MODES = ("mean_field", "full")
BEC_CHOICES = ("present", "absent", "both")

CSV_COLUMNS = (
    "config", "value", "branch", "n", "alpha", "Delta", "stability",
    "degenerate", "delta_n_m", "delta_n_c",
    "e_n_mirror_field", "e_n_atom_field", "e_n_mirror_atom",
)


@dataclass(frozen=True)
class Variant:
    """A named parameter override inside one sweep (for multi-curve figures)."""

    label: str
    params: SystemParams


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a 1-D sweep.

    ``bec`` selects the condensate handling: ``present`` sweeps every
    configuration as given, ``absent`` force-decouples the condensate in
    all of them, ``both`` duplicates each configuration into a coupled and
    a decoupled curve.  ``variants`` optionally multiplies the sweep over
    named parameter sets; when empty, ``params`` alone is swept.
    """

    variable: str
    lo: float
    hi: float
    points: int
    params: SystemParams
    mode: str = "mean_field"
    bec: str = "present"
    variants: Tuple[Variant, ...] = ()

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ParameterError(
                f"sweep.variable: {self.variable!r} is not one of {SWEEP_VARIABLES}")
        if self.mode not in SWEEP_MODES:
            raise ParameterError(
                f"sweep.mode: {self.mode!r} is not one of {SWEEP_MODES}")
        if self.bec not in BEC_CHOICES:
            raise ParameterError(
                f"sweep.bec: {self.bec!r} is not one of {BEC_CHOICES}")
        if self.points < 2:
            raise ParameterError("sweep.points: must be >= 2")
        if not (self.lo < self.hi):
            raise ParameterError("sweep.lo: must be < sweep.hi")


@dataclass
class SweepRow:
    """One branch at one sweep point of one configuration.

    Measure fields stay None unless the point is RH-stable and the sweep
    runs in full mode; unstable and marginal points only carry the flag.
    """

    config: str
    value: float
    branch: str
    n: float
    alpha: float
    Delta: float
    stability: str
    degenerate: bool
    delta_n_m: Optional[float] = None
    delta_n_c: Optional[float] = None
    e_n_mirror_field: Optional[float] = None
    e_n_atom_field: Optional[float] = None
    e_n_mirror_atom: Optional[float] = None


def _expand_configs(spec: SweepSpec) -> List[Tuple[str, SystemParams]]:
    base = list(spec.variants) if spec.variants else [Variant("base", spec.params)]
    configs: List[Tuple[str, SystemParams]] = []
    for variant in base:
        if spec.bec == "both":
            present = variant.params
            if not present.bec.present:
                present = replace(present, bec=replace(present.bec, present=True))
            configs.append((f"{variant.label}/bec", present))
            configs.append((f"{variant.label}/no_bec", variant.params.without_bec()))
        elif spec.bec == "absent":
            configs.append((variant.label, variant.params.without_bec()))
        else:
            configs.append((variant.label, variant.params))
    return configs


def evaluate_branch(branch: MeanFieldBranch, d: DerivedQuantities,
                    diffusion: Optional[np.ndarray] = None
                    ) -> Tuple[str, Optional[Dict[str, float]]]:
    """Stability verdict of a branch and, given the diffusion matrix, its measures.

    Returns ``(verdict, measures)``.  ``measures`` maps the last five
    ``CSV_COLUMNS`` to the occupations and log-negativities of the
    stationary covariance; it is None for a non-stable branch or when no
    ``diffusion`` is given (mean-field mode).
    """
    a = drift_matrix(branch, d)
    verdict = is_stable(characteristic_polynomial(a))
    if diffusion is None or verdict != "stable":
        return verdict, None
    v = solve_lyapunov(a, diffusion)
    return verdict, {
        "delta_n_m": gm.mirror_phonons(v),
        "delta_n_c": gm.bogoliubov_excitations(v),
        "e_n_mirror_field": gm.log_negativity(
            gm.reduce_bipartition(v, gm.MIRROR_FIELD)).log_negativity,
        "e_n_atom_field": gm.log_negativity(
            gm.reduce_bipartition(v, gm.ATOM_FIELD)).log_negativity,
        "e_n_mirror_atom": gm.log_negativity(
            gm.reduce_bipartition(v, gm.MIRROR_ATOM)).log_negativity,
    }


def _branches_at(variable: str, value: float, params: SystemParams
                 ) -> Tuple[List[MeanFieldBranch], DerivedQuantities]:
    if variable == "Delta_effective":
        # the imposed effective detuning fixes n through the field fixed point
        d = derive_quantities(params)
        n = d.eta ** 2 / (value ** 2 + d.kappa ** 2)
        return [build_branch(n, value, d, "unique")], d
    if variable == "delta_c":
        return solve_mean_field(params, delta_c=value), derive_quantities(params)
    if variable == "power":
        return solve_mean_field(params, power=value), derive_quantities(params)
    if variable == "omega_sw":
        params = replace(params, bec=replace(params.bec, sw_frequency=value))
    else:  # variable == "xi"
        params = replace(params, xi_override=value)
    return solve_mean_field(params), derive_quantities(params)


def _evaluate_point(config: str, variable: str, value: float,
                    params: SystemParams, mode: str) -> List[SweepRow]:
    branch = None
    try:
        branches, d = _branches_at(variable, value, params)
        diffusion = diffusion_matrix(d) if mode == "full" else None
        rows = []
        for branch in branches:
            verdict, measures = evaluate_branch(branch, d, diffusion)
            rows.append(SweepRow(config, value, branch.label, branch.n,
                                 branch.alpha, branch.Delta, verdict,
                                 branch.degenerate, **(measures or {})))
        return rows
    except (ParameterError, NumericalError) as exc:
        at_branch = "" if branch is None else f", branch {branch.label}"
        raise type(exc)(f"{config}: {variable}={value:.12g}{at_branch}: {exc}") from exc


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """Evaluate the sweep; rows are grouped by configuration, ascending value."""
    values = [float(v) for v in np.linspace(spec.lo, spec.hi, spec.points)]
    return [row for label, params in _expand_configs(spec) for v in values
            for row in _evaluate_point(label, spec.variable, v, params, spec.mode)]


def _format_number(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x), ".12g")


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV text: fixed header, 12 significant digits, LF line endings."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join((
            row.config, _format_number(row.value), row.branch,
            _format_number(row.n), _format_number(row.alpha),
            _format_number(row.Delta), row.stability,
            _format_number(row.degenerate),
            _format_number(row.delta_n_m), _format_number(row.delta_n_c),
            _format_number(row.e_n_mirror_field),
            _format_number(row.e_n_atom_field),
            _format_number(row.e_n_mirror_atom),
        )))
    return "\n".join(lines) + "\n"


def _spec_to_dict(spec: SweepSpec) -> Dict:
    return {
        "variable": spec.variable, "lo": spec.lo, "hi": spec.hi,
        "points": spec.points, "mode": spec.mode, "bec": spec.bec,
        "params": dataclasses.asdict(spec.params),
        "variants": [
            {"label": v.label, "params": dataclasses.asdict(v.params)}
            for v in spec.variants
        ],
    }


def report_dict(rows: Sequence[SweepRow], spec: Optional[SweepSpec] = None) -> Dict:
    """JSON-ready report object: sweep description, derived rates, rows."""
    doc: Dict = {"rows": [dataclasses.asdict(r) for r in rows]}
    if spec is not None:
        doc["spec"] = _spec_to_dict(spec)
        doc["derived_quantities"] = {
            label: dataclasses.asdict(derive_quantities(params))
            for label, params in _expand_configs(spec)
        }
    return doc


def emit(rows: Sequence[SweepRow], fmt: str, destination,
         spec: Optional[SweepSpec] = None) -> int:
    """Write rows as ``csv`` or ``json``; returns the number of bytes written.

    ``destination`` is a path or a binary file object.  Identical inputs
    produce byte-identical output.
    """
    if fmt == "csv":
        payload = rows_to_csv(rows).encode()
    elif fmt == "json":
        payload = (json.dumps(report_dict(rows, spec), indent=2, sort_keys=True)
                   + "\n").encode()
    else:
        raise ParameterError(f"format: {fmt!r} is not one of ('csv', 'json')")

    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "wb") as handle:
            handle.write(payload)
    return len(payload)
