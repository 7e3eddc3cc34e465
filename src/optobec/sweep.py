"""One-dimensional parameter sweeps over the steady-state pipeline and
deterministic CSV/JSON emission.

Every branch, whether it comes from a sweep point or from a single ``point``
report, goes through :func:`evaluate_branches`: closed-form characteristic
polynomial, Routh-Hurwitz verdict and, for stable branches in full mode, the
drift matrix, the Lyapunov covariance and the five measures.  A sweep
configuration's branches go through it as one batch of branch columns
(:class:`BranchColumns`); each row gets the arithmetic it would get on its
own, so emitted bytes are deterministic and independent of the batching.
The rows stay columns (:class:`SweepTable`) from there to the CSV text.

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
import math
from dataclasses import dataclass, fields, replace
from itertools import chain, groupby, islice, repeat
from operator import add, is_
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
        if not math.isfinite(self.hi - self.lo):
            raise ParameterError("sweep.hi: sweep.hi - sweep.lo must be finite")
        if self.variable in ("delta_c", "Delta_effective"):
            # the solvers square a detuning
            for name, bound in (("lo", self.lo), ("hi", self.hi)):
                if not math.isfinite(bound * bound):
                    raise ParameterError(
                        f"sweep.{name}: must have a finite square for a "
                        f"{self.variable} sweep")


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


@dataclass(frozen=True)
class SweepTable(Sequence[SweepRow]):
    """The rows of a sweep as columns of plain Python values.

    ``measures`` has one entry per row: None, or the five measures in
    ``CSV_COLUMNS`` order.  The table reads as a sequence of rows: indexing
    and iteration build a :class:`SweepRow` view on demand.
    """

    config: List[str]
    value: List[float]
    branch: List[str]
    n: List[float]
    alpha: List[float]
    Delta: List[float]
    stability: List[str]
    degenerate: List[bool]
    measures: List[Optional[List[float]]]

    def __len__(self) -> int:
        return len(self.config)

    def __getitem__(self, i: int) -> SweepRow:
        return SweepRow(self.config[i], self.value[i], self.branch[i], self.n[i],
                        self.alpha[i], self.Delta[i], self.stability[i],
                        self.degenerate[i], *(self.measures[i] or ()))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _joined(blocks: Sequence[SweepTable]) -> SweepTable:
    """The rows of the blocks, one after another, as one table."""
    return SweepTable(*(list(chain.from_iterable(getattr(block, f.name)
                                                 for block in blocks))
                        for f in fields(SweepTable)))


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
                      ) -> Tuple[List[str], List[Optional[List[float]]]]:
    """Stability verdicts of branches and, given the diffusion matrix, their measures.

    Returns ``(verdicts, measures)``, one entry per branch of the columns.
    ``measures[i]`` lists the occupations and log-negativities of the
    stationary covariance in the order of the last five ``CSV_COLUMNS``; it
    is None for a non-stable branch or when no ``diffusion`` is given
    (mean-field mode).
    The verdicts come from the closed-form characteristic polynomial of the
    columns in one Routh stack, so mean-field mode builds no drift matrix;
    in full mode the drift matrices of the stable rows go through one
    Lyapunov call (which bounds its own memory) and one pass of the
    measures.  Every row sees the same arithmetic as it would on its own.
    A covariance that fails the physicality check raises
    :class:`NumericalError`.
    """
    verdicts = is_stable(characteristic_polynomial(branches, d))
    measures: List[Optional[List[float]]] = [None] * len(verdicts)
    if diffusion is None:
        return verdicts, measures
    stable = [i for i, verdict in enumerate(verdicts) if verdict == "stable"]
    if not stable:
        return verdicts, measures
    v = solve_lyapunov(drift_matrix(branches, d)[stable], diffusion)
    splits = np.stack([gm.reduce_bipartition(v, bp) for bp in _SPLITS])
    try:
        e_n = gm.log_negativity(splits).log_negativity
    except ValueError as exc:   # the covariance is not physical
        raise NumericalError(str(exc)) from exc
    columns = np.stack([gm.mirror_phonons(v), gm.bogoliubov_excitations(v),
                        *e_n], axis=1)
    for i, row in zip(stable, columns.tolist()):
        measures[i] = row
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
        # drive_rate over the grid, in its operations, order and checks
        with np.errstate(over="ignore", invalid="ignore"):
            eta = np.sqrt(2.0 * power * d.kappa / (HBAR * d.omega_cav))
            invalid = np.flatnonzero(~(np.isfinite(power) & (power >= 0.0)
                                       & np.isfinite(eta * eta)))
        if len(invalid):
            # the scalar check raises the ParameterError of the first bad power
            drive_rate(values[invalid[0]], d.kappa, d.omega_cav)
        return solve_mean_field_grid(d, params.cavity.detuning, eta)
    return imposed_detuning_branches(d, values)


def _named(exc: Exception, config: str, variable: str, value: float,
           label: Optional[str] = None) -> Exception:
    at_branch = "" if label is None else f", branch {label}"
    return type(exc)(f"{config}: {variable}={value:.12g}{at_branch}: {exc}")


def _evaluate_group(config: str, variable: str, d: DerivedQuantities,
                    values: Sequence[float], branches: BranchColumns,
                    mode: str) -> SweepTable:
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
    return SweepTable(config=[config] * len(branches),
                      value=list(map(values.__getitem__, branches.index.tolist())),
                      branch=branches.label, n=branches.n.tolist(),
                      alpha=branches.alpha.tolist(), Delta=branches.Delta.tolist(),
                      stability=verdicts, degenerate=branches.degenerate.tolist(),
                      measures=measures)


def _config_rows(config: str, variable: str, values: Sequence[float],
                 params: SystemParams, mode: str) -> List[SweepTable]:
    """Blocks of rows of one configuration, in grid order.

    A ``delta_c``, ``power`` or ``Delta_effective`` grid shares one ``d``
    and goes through as one set of branch columns.  Every ``omega_sw`` or
    ``xi`` value gets its own parameters, ``d`` and scalar
    :func:`solve_mean_field`.
    """
    groups: List[Tuple[DerivedQuantities, Sequence[float], BranchColumns]] = []
    failure = None
    # a configuration that fails to derive is named at its first value
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
            try:
                groups.append((d, values, _grid_branches(variable, values, params, d)))
            except (ParameterError, NumericalError):
                # re-solve value by value, so that the first failing value
                # raises and is named
                for value in values:
                    groups.append((d, [value],
                                   _grid_branches(variable, [value], params, d)))
    except (ParameterError, NumericalError) as exc:
        failure = exc
    # the points before a failing one are evaluated first, so that an
    # earlier failure is the one reported, as in a point-by-point run
    blocks = [_evaluate_group(config, variable, d, group_values, branches, mode)
              for d, group_values, branches in groups]
    if failure is not None:
        raise _named(failure, config, variable, value) from failure
    return blocks


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the sweep; rows are grouped by configuration, ascending value."""
    values = np.linspace(spec.lo, spec.hi, spec.points).tolist()
    return _joined([block for label, params in _expand_configs(spec)
                    for block in _config_rows(label, spec.variable, values,
                                              params, spec.mode)])


# one CSV line per row: rows from a sweep carry all five measures or none
_CSV_ROW = "%s,%.12g,%s,%.12g,%.12g,%.12g,%s,%s"
_CSV_MEASURED = _CSV_ROW + ",%.12g,%.12g,%.12g,%.12g,%.12g"
_CSV_UNMEASURED = _CSV_ROW + ",,,,,"
_CSV_FLAG = {True: "true", False: "false"}


def rows_to_csv(table: SweepTable) -> str:
    """CSV text: fixed header, 12 significant digits, LF line endings.

    Written from the columns, one run of measured or unmeasured rows at a
    time, with the template of the run mapped over its zipped columns.
    """
    heads = zip(table.config, table.value, table.branch, table.n, table.alpha,
                table.Delta, table.stability,
                map(_CSV_FLAG.__getitem__, table.degenerate))
    lines = [",".join(CSV_COLUMNS)]
    start = 0
    for unmeasured, run in groupby(map(is_, table.measures, repeat(None))):
        stop = start + len(list(run))
        run_heads = islice(heads, stop - start)
        if unmeasured:
            lines.extend(map(_CSV_UNMEASURED.__mod__, run_heads))
        else:
            lines.extend(map(_CSV_MEASURED.__mod__, map(
                add, run_heads, map(tuple, table.measures[start:stop]))))
        start = stop
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


def report_dict(rows: SweepTable, spec: Optional[SweepSpec] = None) -> Dict:
    """JSON-ready report object: sweep description, derived rates, rows."""
    doc: Dict = {"rows": [as_dict(r) for r in rows]}
    if spec is not None:
        doc["spec"] = as_dict(spec)
        doc["derived_quantities"] = {
            label: as_dict(derive_quantities(params))
            for label, params in _expand_configs(spec)
        }
    return doc


def emit(rows: SweepTable, fmt: str, destination,
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
