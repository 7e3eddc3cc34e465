"""One-dimensional parameter sweeps over the steady-state pipeline and
deterministic CSV/JSON emission.

Every branch, whether it comes from a sweep point or from a single ``point``
report, goes through :func:`evaluate_branches`: drift matrix, Routh-Hurwitz
verdict and, for stable branches in full mode, the Lyapunov covariance and
the five measures.  A sweep configuration's branches go through it as one
batch of stacked arrays; each row gets the arithmetic it would get on its
own, so emitted bytes are deterministic and independent of the batching.

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
# bipartitions of the three e_n_* columns, in column order
_SPLITS = (gm.MIRROR_FIELD, gm.ATOM_FIELD, gm.MIRROR_ATOM)

#: Rows per stack in :func:`evaluate_branches`.  Peak RSS of the four
#: full-mode presets: 32.5 MB one row at a time, 34.1 MB at 64 rows,
#: 44.6 MB unchunked; larger chunks gain little speed.
BATCH_ROWS = 64


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


def evaluate_branches(branches: Sequence[MeanFieldBranch], d: DerivedQuantities,
                      diffusion: Optional[np.ndarray] = None
                      ) -> Tuple[List[str], List[Optional[Dict[str, float]]]]:
    """Stability verdicts of branches and, given the diffusion matrix, their measures.

    Returns ``(verdicts, measures)``, one entry per branch.  ``measures[i]``
    maps the last five ``CSV_COLUMNS`` to the occupations and
    log-negativities of the stationary covariance; it is None for a
    non-stable branch or when no ``diffusion`` is given (mean-field mode).
    The branches go through the solvers as stacks of at most ``BATCH_ROWS``,
    and every row sees the same arithmetic as it would on its own.
    """
    verdicts: List[str] = []
    measures: List[Optional[Dict[str, float]]] = [None] * len(branches)
    for start in range(0, len(branches), BATCH_ROWS):
        a = drift_matrix(branches[start:start + BATCH_ROWS], d)
        verdicts.extend(is_stable(characteristic_polynomial(a)))
        stable = [i for i in range(len(a)) if verdicts[start + i] == "stable"]
        if diffusion is not None and stable:
            v = solve_lyapunov(a[stable], diffusion)
            splits = np.stack([gm.reduce_bipartition(v, bp) for bp in _SPLITS])
            columns = np.stack([gm.mirror_phonons(v), gm.bogoliubov_excitations(v),
                                *gm.log_negativity(splits).log_negativity], axis=1)
            for i, row in zip(stable, columns.tolist()):
                measures[start + i] = dict(zip(CSV_COLUMNS[-5:], row))
    return verdicts, measures


def _point_params(variable: str, value: float, params: SystemParams) -> SystemParams:
    """``params`` with an ``omega_sw`` or ``xi`` grid value installed."""
    if variable == "omega_sw":
        return replace(params, bec=replace(params.bec, sw_frequency=value))
    if variable == "xi":
        return replace(params, xi_override=value)
    return params


def _branches_at(variable: str, value: float, params: SystemParams,
                 d: DerivedQuantities) -> List[MeanFieldBranch]:
    """Branches at one grid point of ``params`` from :func:`_point_params`."""
    if variable == "Delta_effective":
        # the imposed effective detuning fixes n through the field fixed point
        n = d.eta ** 2 / (value ** 2 + d.kappa ** 2)
        return [build_branch(n, value, d, "unique")]
    if variable == "delta_c":
        return solve_mean_field(params, delta_c=value, d=d)
    if variable == "power":
        return solve_mean_field(params, power=value, d=d)
    return solve_mean_field(params, d=d)


def _named(exc: Exception, config: str, variable: str, value: float,
           branch: Optional[MeanFieldBranch] = None) -> Exception:
    at_branch = "" if branch is None else f", branch {branch.label}"
    return type(exc)(f"{config}: {variable}={value:.12g}{at_branch}: {exc}")


def _evaluate_group(config: str, variable: str, d: DerivedQuantities,
                    points: List[Tuple[float, MeanFieldBranch]],
                    mode: str) -> List[SweepRow]:
    """Rows of the (value, branch) pairs that share ``d``, as one batch.

    When the batch fails it is re-run branch by branch, so the error names
    the first failing value and branch in grid order.
    """
    diffusion = diffusion_matrix(d) if mode == "full" else None
    branches = [branch for _, branch in points]
    try:
        verdicts, measures = evaluate_branches(branches, d, diffusion)
    except (NumericalError, ValueError):
        # ValueError too: a non-physical covariance must also be the first
        # one in grid order, not the first one in the stack
        verdicts, measures = [], []
        for value, branch in points:
            try:
                (verdict,), (measure,) = evaluate_branches([branch], d, diffusion)
            except (ParameterError, NumericalError) as exc:
                raise _named(exc, config, variable, value, branch) from exc
            verdicts.append(verdict)
            measures.append(measure)
    return [SweepRow(config, value, branch.label, branch.n, branch.alpha,
                     branch.Delta, verdict, branch.degenerate, **(measure or {}))
            for (value, branch), verdict, measure in zip(points, verdicts, measures)]


def _config_rows(config: str, variable: str, values: Sequence[float],
                 params: SystemParams, mode: str) -> List[SweepRow]:
    """Rows of one configuration, in grid order.

    ``omega_sw`` and ``xi`` change the derived rates at every point, so each
    of their points is its own batch; for the other variables ``d`` is
    derived once and all branches of the configuration are one batch.
    """
    groups: List[Tuple[DerivedQuantities, List[Tuple[float, MeanFieldBranch]]]] = []
    failure = None
    try:
        for value in values:
            point_params = _point_params(variable, value, params)
            if variable in ("omega_sw", "xi") or not groups:
                groups.append((derive_quantities(point_params), []))
            d, points = groups[-1]
            points.extend((value, b) for b in _branches_at(variable, value, point_params, d))
    except (ParameterError, NumericalError) as exc:
        failure = exc
    # the points before a failing one are evaluated first, so that an
    # earlier failure is the one reported, as in a point-by-point run
    rows = [row for d, points in groups
            for row in _evaluate_group(config, variable, d, points, mode)]
    if failure is not None:
        raise _named(failure, config, variable, value) from failure
    return rows


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """Evaluate the sweep; rows are grouped by configuration, ascending value."""
    values = [float(v) for v in np.linspace(spec.lo, spec.hi, spec.points)]
    return [row for label, params in _expand_configs(spec)
            for row in _config_rows(label, spec.variable, values, params, spec.mode)]


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
