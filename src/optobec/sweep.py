"""One-dimensional parameter sweeps over the steady-state pipeline and
deterministic CSV/JSON emission.

Every branch, whether it comes from a sweep point or from a single ``point``
report, goes through :func:`evaluate_branches`: closed-form characteristic
polynomial, Routh-Hurwitz verdict and, for stable branches in full mode, the
drift matrix, the Lyapunov covariance and the five measures.  A sweep configuration's branches go through it as one
batch of branch columns (:class:`BranchColumns`); each row gets the
arithmetic it would get on its own, so emitted bytes are deterministic and
independent of the batching.

Swept variables:

* ``delta_c``          detuning offset, full self-consistent branch solve,
                       the whole grid as one stack of cubics
* ``power``            drive power, likewise
* ``Delta_effective``  effective detuning taken as the independent input;
                       the photon number follows directly from the field
                       fixed point and the self-consistency loop is
                       bypassed (single branch per point)
* ``omega_sw``         collisional frequency
* ``xi``               mirror coupling rate (installed as an override)

The last two change the derived rates, so each of their grid values gets
its own scalar :func:`solve_mean_field`.

``Delta_effective`` differs qualitatively from a ``delta_c`` sweep: the
branch structure of the cubic never enters, which is the natural x-axis for
cooling and entanglement curves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gaussian_measures as gm
from .linear_dynamics import (NumericalError, characteristic_polynomial,
                              diffusion_matrix, drift_matrix, is_stable,
                              solve_lyapunov)
from .model import (HBAR, DerivedQuantities, ParameterError, SystemParams,
                    derive_quantities, drive_rate)
from .steady_state import (BranchColumns, imposed_detuning_branches,
                           solve_mean_field, solve_mean_field_grid)

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

#: Rows per Lyapunov stack in :func:`evaluate_branches`.  Peak RSS of the
#: four full-mode presets: 32.5 MB one row at a time, 34.1 MB at 64 rows,
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


def evaluate_branches(branches: BranchColumns, d: DerivedQuantities,
                      diffusion: Optional[np.ndarray] = None
                      ) -> Tuple[List[str], List[Optional[Dict[str, float]]]]:
    """Stability verdicts of branches and, given the diffusion matrix, their measures.

    Returns ``(verdicts, measures)``, one entry per branch of the columns.
    ``measures[i]`` maps the last five ``CSV_COLUMNS`` to the occupations
    and log-negativities of the stationary covariance; it is None for a
    non-stable branch or when no ``diffusion`` is given (mean-field mode).
    The verdicts come from the closed-form characteristic polynomial of the
    columns in one Routh stack, so mean-field mode builds no drift matrix;
    in full mode the drift matrices feed only the Lyapunov solve and the
    measures, in stacks of ``BATCH_ROWS`` stable rows.  Every row sees the
    same arithmetic as it would on its own.  A covariance that fails the
    physicality check raises :class:`NumericalError`.
    """
    verdicts = is_stable(characteristic_polynomial(branches, d))
    measures: List[Optional[Dict[str, float]]] = [None] * len(verdicts)
    if diffusion is None:
        return verdicts, measures
    drift = drift_matrix(branches, d)
    stable = [i for i, verdict in enumerate(verdicts) if verdict == "stable"]
    for start in range(0, len(stable), BATCH_ROWS):
        rows = stable[start:start + BATCH_ROWS]
        v = solve_lyapunov(drift[rows], diffusion)
        splits = np.stack([gm.reduce_bipartition(v, bp) for bp in _SPLITS])
        try:
            e_n = gm.log_negativity(splits).log_negativity
        except ValueError as exc:   # the covariance is not physical
            raise NumericalError(str(exc)) from exc
        columns = np.stack([gm.mirror_phonons(v), gm.bogoliubov_excitations(v),
                            *e_n], axis=1)
        for i, row in zip(rows, columns.tolist()):
            measures[i] = dict(zip(CSV_COLUMNS[-5:], row))
    return verdicts, measures


def _point_params(variable: str, value: float, params: SystemParams) -> SystemParams:
    """``params`` with an ``omega_sw`` or ``xi`` grid value installed."""
    if variable == "omega_sw":
        return replace(params, bec=replace(params.bec, sw_frequency=value))
    return replace(params, xi_override=value)


def _grid_branches(variable: str, values: Sequence[float], params: SystemParams,
                   d: DerivedQuantities) -> BranchColumns:
    """Branches of a ``delta_c``, ``power`` or ``Delta_effective`` grid, as columns."""
    if variable == "delta_c":
        return solve_mean_field_grid(d, values, d.eta)
    if variable == "power":
        power = np.asarray(values, dtype=float)
        invalid = np.flatnonzero(~(np.isfinite(power) & (power >= 0.0)))
        if len(invalid):
            # the scalar check raises the ParameterError of the first bad power
            drive_rate(values[invalid[0]], d.kappa, d.omega_cav)
        # drive_rate over the grid, in its operations and order
        eta = np.sqrt(2.0 * power * d.kappa / (HBAR * d.omega_cav))
        return solve_mean_field_grid(d, params.cavity.detuning, eta)
    return imposed_detuning_branches(d, values)


def _named(exc: Exception, config: str, variable: str, value: float,
           label: Optional[str] = None) -> Exception:
    at_branch = "" if label is None else f", branch {label}"
    return type(exc)(f"{config}: {variable}={value:.12g}{at_branch}: {exc}")


def _evaluate_group(config: str, variable: str, d: DerivedQuantities,
                    values: Sequence[float], branches: BranchColumns,
                    mode: str) -> List[SweepRow]:
    """Rows of branch columns over grid ``values`` that share ``d``, as one batch.

    When the batch fails it is re-run branch by branch, so the error names
    the first failing value and branch in grid order; a failure that no
    single branch repeats is raised as it is.
    """
    diffusion = diffusion_matrix(d) if mode == "full" else None
    try:
        verdicts, measures = evaluate_branches(branches, d, diffusion)
    except NumericalError:
        for i in range(len(branches)):
            try:
                evaluate_branches(branches[i:i + 1], d, diffusion)
            except NumericalError as exc:
                raise _named(exc, config, variable, values[branches.index[i]],
                             branches.label[i]) from exc
        raise
    return [SweepRow(config, values[i], label, n, alpha, Delta, verdict, flag,
                     **(measure or {}))
            for i, label, n, alpha, Delta, flag, verdict, measure in zip(
                branches.index.tolist(), branches.label, branches.n.tolist(),
                branches.alpha.tolist(), branches.Delta.tolist(),
                branches.degenerate.tolist(), verdicts, measures)]


def _config_rows(config: str, variable: str, values: Sequence[float],
                 params: SystemParams, mode: str) -> List[SweepRow]:
    """Rows of one configuration, in grid order.

    A ``delta_c``, ``power`` or ``Delta_effective`` grid shares one ``d``
    and goes through as one set of branch columns.  Every ``omega_sw`` or
    ``xi`` value gets its own parameters, ``d`` and scalar
    :func:`solve_mean_field`.
    """
    groups: List[Tuple[DerivedQuantities, Sequence[float], BranchColumns]] = []
    failure = None
    # the grid ascends, so a grid-wide failure (a negative power) is at its
    # first value, with no point before it
    value = values[0]
    try:
        if variable in ("omega_sw", "xi"):
            for value in values:
                point_params = _point_params(variable, value, params)
                d = derive_quantities(point_params)
                groups.append((d, [value], BranchColumns.of(
                    solve_mean_field(point_params, d=d))))
        else:
            d = derive_quantities(params)
            groups.append((d, values, _grid_branches(variable, values, params, d)))
    except (ParameterError, NumericalError) as exc:
        failure = exc
    # the points before a failing one are evaluated first, so that an
    # earlier failure is the one reported, as in a point-by-point run
    rows = [row for d, group_values, branches in groups
            for row in _evaluate_group(config, variable, d, group_values, branches, mode)]
    if failure is not None:
        raise _named(failure, config, variable, value) from failure
    return rows


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """Evaluate the sweep; rows are grouped by configuration, ascending value."""
    values = [float(v) for v in np.linspace(spec.lo, spec.hi, spec.points)]
    return [row for label, params in _expand_configs(spec)
            for row in _config_rows(label, spec.variable, values, params, spec.mode)]


# one CSV line per row: rows from a sweep carry all five measures or none
_CSV_ROW = "%s,%.12g,%s,%.12g,%.12g,%.12g,%s,%s"
_CSV_MEASURED = _CSV_ROW + ",%.12g,%.12g,%.12g,%.12g,%.12g"
_CSV_UNMEASURED = _CSV_ROW + ",,,,,"
_NO_MEASURES = (None,) * 5


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV text: fixed header, 12 significant digits, LF line endings."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        head = (row.config, row.value, row.branch, row.n, row.alpha, row.Delta,
                row.stability, "true" if row.degenerate else "false")
        measures = (row.delta_n_m, row.delta_n_c, row.e_n_mirror_field,
                    row.e_n_atom_field, row.e_n_mirror_atom)
        if measures == _NO_MEASURES:
            lines.append(_CSV_UNMEASURED % head)
        else:
            lines.append(_CSV_MEASURED % (head + measures))
    return "\n".join(lines) + "\n"


def as_dict(obj):
    """Field map of a report value, without a deep copy.

    A dataclass becomes a dict of its fields and a list or tuple a list, each
    walked in turn; every other value is taken as it is (the report's
    dataclasses have no ``ClassVar`` or ``InitVar`` pseudo-fields).
    """
    if isinstance(obj, (list, tuple)):
        return [as_dict(x) for x in obj]
    out = {}
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)
        if hasattr(value, "__dataclass_fields__") or isinstance(value, (list, tuple)):
            value = as_dict(value)
        out[name] = value
    return out


def to_json(doc) -> str:
    """Report text: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_dict(rows: Sequence[SweepRow], spec: Optional[SweepSpec] = None) -> Dict:
    """JSON-ready report object: sweep description, derived rates, rows."""
    doc: Dict = {"rows": [as_dict(r) for r in rows]}
    if spec is not None:
        doc["spec"] = as_dict(spec)
        doc["derived_quantities"] = {
            label: as_dict(derive_quantities(params))
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
        payload = to_json(report_dict(rows, spec)).encode()
    else:
        raise ParameterError(f"format: {fmt!r} is not one of ('csv', 'json')")

    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "wb") as handle:
            handle.write(payload)
    return len(payload)
