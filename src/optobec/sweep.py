"""One-dimensional parameter sweeps over the steady-state pipeline and
deterministic CSV/JSON emission.

Every branch, whether it comes from a sweep point or from a single ``point``
report, goes through :func:`evaluate_branches`: closed-form characteristic
polynomial, Hurwitz verdict and, for stable branches in full mode, the
drift matrix, the Lyapunov covariance and the five measures.  It is the one
place that picks a lane: the few branches of one configuration (a ``point``
report) are carried in Python floats from the branch columns to the
measures, and any other stack on numpy columns, with the same operations in
the same order, so a row has the same bits in either.  A whole
sweep goes through it as one stack of branch columns
(:class:`BranchColumns`), all its configurations together: every row
carries its group, the index of the derived quantities it was solved with
(one per configuration, or per grid value of an ``omega_sw`` or ``xi``
sweep), and gathers that group's constants.  Each row gets the arithmetic
it would get on its own, so emitted bytes are deterministic and independent
of the stacking.  The rows stay columns (:class:`SweepTable`) from there to
the CSV text and the JSON report.

A stack that fails is replayed point by point in sweep order (derive,
solve, then each branch on its own), and the first failure of the replay
is raised with its configuration, value and, if evaluating a branch
failed, branch: the failure a point-by-point run would hit first.

Swept variables:

* ``delta_c``          detuning offset, full self-consistent branch solve,
                       the grids of all configurations as one stack of
                       cubics
* ``power``            drive power, likewise
* ``Delta_effective``  effective detuning taken as the independent input;
                       the photon number follows directly from the field
                       fixed point and the self-consistency loop is
                       bypassed (single branch per point)
* ``omega_sw``         collisional frequency
* ``xi``               mirror coupling rate (installed as an override)

The last two change the derived rates, so each of their grid values is its
own group with its own derived quantities; the cavity detuning of its
configuration goes through the same stack of cubics as a ``delta_c`` grid.

``Delta_effective`` differs qualitatively from a ``delta_c`` sweep: the
branch structure of the cubic never enters, which is the natural x-axis for
cooling and entanglement curves.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import groupby, product, repeat
from operator import is_
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gaussian_measures as gm
from .linear_dynamics import (NumericalError, characteristic_polynomial,
                              diffusion_matrix, drift_matrix, is_stable,
                              per_row, point_charpoly, point_drift,
                              point_verdict, solve_lyapunov)
from .model import (HBAR, DerivedQuantities, ParameterError, SystemParams,
                    derive_quantities, drive_rate)
from .steady_state import (BranchColumns, imposed_detuning_branches,
                           solve_mean_field_grid)

SWEEP_VARIABLES = ("delta_c", "power", "Delta_effective", "omega_sw", "xi")
SWEEP_MODES = ("mean_field", "full")
BEC_CHOICES = ("present", "absent", "both")

CSV_COLUMNS = (
    "config", "value", "branch", "n", "alpha", "Delta", "stability",
    "degenerate", "delta_n_m", "delta_n_c",
    "e_n_mirror_field", "e_n_atom_field", "e_n_mirror_atom",
)
# the bipartitions of the three e_n_* columns, in column order
_SPLITS = (gm.MIRROR_FIELD, gm.ATOM_FIELD, gm.MIRROR_ATOM)

#: Most branches of one configuration that :func:`evaluate_branches` carries
#: in Python floats: a cubic has at most three real roots, so a ``point``
#: request has at most three branches, and on so few rows Python floats cost
#: less than numpy calls.  Any other stack is evaluated on numpy columns.
SMALL_STACK_ROWS = 3

#: Most stable rows in one piece of :func:`evaluate_branches`: a full-mode
#: stack goes through in pieces of this many, each piece on its own, so
#: memory stays bounded however many configurations and points a sweep has
#: (one piece per worker thread in flight).  600 is one configuration of a
#: preset grid, the piece each configuration was when configurations were
#: evaluated one at a time.  On the four full-mode presets (2-core VM, one
#: BLAS thread, 9 passes, pieces evaluated serially): 512-row pieces
#: took 1.6% longer than 600, 768-row pieces 1.3% less with 0.3 MB more
#: traced peak, and one piece per sweep up to 1.6 MB more.
MEASURE_STACK_ROWS = 600


@dataclass(frozen=True)
class Variant:
    """A named parameter override inside one sweep (for multi-curve figures)."""

    label: str
    params: SystemParams


#: Grid size of a sweep whose description gives none: every figure preset,
#: and a configuration's ``sweep`` section without ``points``.  ``mode`` and
#: ``bec`` default in :class:`SweepSpec` itself.
DEFAULT_POINTS = 600


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
        for name, choices in (("variable", SWEEP_VARIABLES), ("mode", SWEEP_MODES),
                              ("bec", BEC_CHOICES)):
            value = getattr(self, name)
            if value not in choices:
                raise ParameterError(f"sweep.{name}: {value!r} is not one of {choices}")
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


@dataclass(frozen=True)
class SweepTable:
    """The rows of a sweep as columns of plain Python values.

    The first eight columns are named as in ``CSV_COLUMNS``.  ``measures``
    has one entry per row: None, or the five measures in ``CSV_COLUMNS``
    order.
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


def _expand_configs(spec: SweepSpec) -> List[Tuple[str, SystemParams]]:
    base = spec.variants or [Variant("base", spec.params)]
    if spec.bec == "both":
        return [config for v in base for config in (
            (f"{v.label}/bec", replace(v.params, bec=replace(v.params.bec, present=True))),
            (f"{v.label}/no_bec", v.params.without_bec()))]
    return [(v.label, v.params.without_bec() if spec.bec == "absent" else v.params)
            for v in base]


def _available_cpus() -> int:
    """CPUs the process may run on: its affinity mask where the platform
    has one, every CPU of the machine otherwise."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _piece_measures(branches: BranchColumns, d, rows: np.ndarray) -> np.ndarray:
    """The ``(len(rows), 5)`` measure columns of the stable ``rows`` of
    ``branches``, in the order of the last five ``CSV_COLUMNS``.

    The drift matrices of the rows, with the diffusion matrix of each row's
    configuration, go through one Lyapunov call and one pass of the
    measures.  A covariance that fails the physicality check raises
    :class:`NumericalError`.
    """
    piece = branches[rows]
    v = solve_lyapunov(drift_matrix(piece, d), per_row(d, piece.group, diffusion_matrix))
    e_n = _physical(gm.log_negativity, gm.reduce_bipartition(v, _SPLITS))
    return np.column_stack([gm.mirror_phonons(v), gm.bogoliubov_excitations(v), e_n])


def _physical(log_negativity, covariances):
    """``log_negativity(covariances)``, with a covariance that fails the
    physicality check raised as :class:`NumericalError`."""
    try:
        return log_negativity(covariances)
    except ValueError as exc:   # the covariance is not physical
        raise NumericalError(str(exc)) from exc


def _point_lane(branches: BranchColumns, d: DerivedQuantities, full: bool
                ) -> Tuple[List[str], List[Optional[List[float]]]]:
    """:func:`evaluate_branches` of at most ``SMALL_STACK_ROWS`` branches of
    one configuration, in Python floats from the branch columns to the
    measures.

    Each row's verdict comes from :func:`point_charpoly` and
    :func:`point_verdict`.  The stable rows' drift matrices
    (:func:`point_drift`) go through one :func:`solve_lyapunov` call, whose
    covariances become lists once: the occupations come from their
    diagonals and each split's 16 entries go to
    :func:`~optobec.gaussian_measures.point_log_negativity`.  Every step
    has the operations, order and errors of the numpy columns.
    """
    rows = list(zip(branches.alpha.tolist(), branches.Delta.tolist()))
    verdicts = [point_verdict(coeffs) for coeffs in point_charpoly(d, rows)]
    stable = [row for row, verdict in zip(rows, verdicts) if full and verdict == "stable"]
    measured = iter(())
    if stable:
        v = solve_lyapunov(point_drift(d, stable), diffusion_matrix(d)).tolist()
        e_n = _physical(gm.point_log_negativity, [[m[r][c] for r in split for c in split]
                                                   for m in v for split in _SPLITS])
        measured = iter([gm.occupation(m[2][2], m[3][3]), gm.occupation(m[4][4], m[5][5]),
                         *e_n[3 * i:3 * i + 3]] for i, m in enumerate(v))
    return verdicts, [next(measured) if full and verdict == "stable" else None
                      for verdict in verdicts]


def evaluate_branches(branches: BranchColumns, d, full: bool = False
                      ) -> Tuple[List[str], List[Optional[List[float]]]]:
    """Stability verdicts of branches and, in full mode, their measures.

    ``d`` is the :class:`DerivedQuantities` of the branches, or a sequence
    of them that ``branches.group`` indexes (see :func:`per_row`).  Returns
    ``(verdicts, measures)``, one entry per branch of the columns.
    ``measures[i]`` lists the occupations and log-negativities of the
    stationary covariance in the order of the last five ``CSV_COLUMNS``; it
    is None for a non-stable branch or when not ``full`` (mean-field mode).

    This is the one place that picks a lane.  At most ``SMALL_STACK_ROWS``
    branches of one configuration (every ``point`` request) are carried in
    Python floats (:func:`_point_lane`).  Any other stack is evaluated on
    numpy columns: the verdicts come from the closed-form characteristic
    polynomial of the columns in one :func:`is_stable` stack, so mean-field
    mode builds no drift matrix, and in full mode the stable rows go
    through in pieces of at most ``MEASURE_STACK_ROWS``
    (:func:`_piece_measures`).  Both lanes run the same operations in the
    same order, so a row gets the same verdict, measures and errors in
    either.

    Two or more pieces run on a thread pool made for the call, one thread
    per CPU the process may run on (at most one per piece), and their
    columns are gathered in piece order; one piece, or one CPU, runs in the
    calling thread.  Every row sees the same arithmetic as it would on its
    own, so the measures have the same bits whatever the number of
    threads.  When pieces fail,
    the error of the first failing piece in order is raised, as in a serial
    loop.  numpy's error state is per thread: a caller's ``np.errstate``
    does not reach the workers, which run under numpy's defaults (warnings
    filters are process-wide and do reach them).
    """
    if isinstance(d, DerivedQuantities) and len(branches) <= SMALL_STACK_ROWS:
        return _point_lane(branches, d, full)
    verdicts = is_stable(characteristic_polynomial(branches, d))
    measures: List[Optional[List[float]]] = [None] * len(verdicts)
    stable = np.flatnonzero([x == "stable" for x in (verdicts if full else ())])
    pieces = [stable[start:start + MEASURE_STACK_ROWS]
              for start in range(0, len(stable), MEASURE_STACK_ROWS)]
    workers = min(len(pieces), _available_cpus()) if len(pieces) > 1 else 1
    args = (_piece_measures, repeat(branches), repeat(d), pieces)
    if workers > 1:
        # imported here, not at load: about 16 ms that a one-piece request
        # (every point report) would pay for nothing
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            columns = list(pool.map(*args))
    else:
        columns = map(*args)
    for rows, piece_columns in zip(pieces, columns):
        for i, row in zip(rows.tolist(), piece_columns.tolist()):
            measures[i] = row
    return verdicts, measures


#: Swept variables that change the derived rates: each of their grid values
#: is its own group, with ``params`` from :func:`_point_params`.
_PER_POINT = ("omega_sw", "xi")


def _point_params(variable: str, value: float, params: SystemParams) -> SystemParams:
    """``params`` with an ``omega_sw`` or ``xi`` grid value installed."""
    if variable == "omega_sw":
        return replace(params, bec=replace(params.bec, sw_frequency=value))
    return replace(params, xi_override=value)


def _grid_branches(variable: str, values: Sequence[float], configs, ds) -> BranchColumns:
    """Branches of every sweep point as one grid, as columns.

    Point ``p`` is configuration ``p // len(values)`` at grid value
    ``p % len(values)``.  Its group, which indexes ``ds``, is ``p`` for an
    ``omega_sw`` or ``xi`` sweep and its configuration otherwise.  A
    branch's ``index`` is its point.
    """
    points = np.arange(len(configs) * len(values))
    config, column = np.divmod(points, len(values))
    group = points if variable in _PER_POINT else config
    value = np.array(values)[column]
    if variable == "Delta_effective":
        return imposed_detuning_branches(ds, value, group)
    delta_c = (value if variable == "delta_c"
               else np.array([p.cavity.detuning for _, p in configs])[config])
    if variable != "power":
        return solve_mean_field_grid(ds, delta_c, np.array([d.eta for d in ds])[group],
                                     group)
    # eta and eta^2 do not decrease as the power grows, so drive_rate's
    # checks at the grid's lowest and highest power pass for every point
    for d, power in product(ds, (min(values), max(values))):
        drive_rate(power, d.kappa, d.omega_cav)
    kappa, omega_cav = per_row(ds, group, lambda d: (d.kappa, d.omega_cav)).T
    # drive_rate over the grid, in its operations and order
    eta = np.sqrt(2.0 * value * kappa / (HBAR * omega_cav))
    return solve_mean_field_grid(ds, delta_c, eta, group)


def _named(exc: Exception, config: str, variable: str, value: float,
           label: Optional[str] = None) -> Exception:
    at_branch = "" if label is None else f", branch {label}"
    return type(exc)(f"{config}: {variable}={value:.12g}{at_branch}: {exc}")


def _sweep_branches(variable: str, values: List[float],
                    configs: List[Tuple[str, SystemParams]]):
    """``(ds, branches)``: the branches of a sweep as columns, and the
    derived quantities their groups index.

    Each group (a configuration, or a point of an ``omega_sw`` or ``xi``
    sweep) is derived once, and every point goes through one grid (see
    :func:`_grid_branches`).  A failure to derive or solve propagates.
    """
    groups = ((_point_params(variable, value, params)
               for (_, params), value in product(configs, values))
              if variable in _PER_POINT else (params for _, params in configs))
    ds = [derive_quantities(params) for params in groups]
    return ds, _grid_branches(variable, values, configs, ds)


def _replay(variable: str, values: List[float],
            configs: List[Tuple[str, SystemParams]], full: bool) -> None:
    """Re-run a failed sweep point by point, in sweep order, and raise its
    first failure named by configuration and value, and by branch if the
    failure came from evaluating that branch rather than from deriving or
    solving its point.  Returns if no single point fails."""
    for (config, params), value in product(configs, values):
        label = None
        try:
            ds, branches = _sweep_branches(variable, [value], [(config, params)])
            for i, label in enumerate(branches.label.tolist()):
                evaluate_branches(branches[i:i + 1], ds, full)
        except (ParameterError, NumericalError) as exc:
            raise _named(exc, config, variable, value, label) from exc


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the sweep; rows are grouped by configuration, ascending value.

    Every configuration is derived, solved and evaluated as one stack
    (:func:`_sweep_branches`, one :func:`evaluate_branches` call).  When
    the stack fails, the sweep is replayed point by point, so the error
    names the configuration, value and branch of the first failure a
    point-by-point run hits; a failure that no single point repeats is
    raised as it is.
    """
    grid = np.linspace(spec.lo, spec.hi, spec.points)
    configs = _expand_configs(spec)
    try:
        ds, branches = _sweep_branches(spec.variable, grid.tolist(), configs)
        verdicts, measures = evaluate_branches(branches, ds, spec.mode == "full")
    except (ParameterError, NumericalError):
        _replay(spec.variable, grid.tolist(), configs, spec.mode == "full")
        raise
    config = np.array(configs, dtype=object)[branches.index // spec.points, 0].tolist()
    value = grid[branches.index % spec.points].tolist()
    return SweepTable(config=config, value=value, branch=branches.label.tolist(),
                      n=branches.n.tolist(), alpha=branches.alpha.tolist(),
                      Delta=branches.Delta.tolist(), stability=verdicts,
                      degenerate=branches.degenerate.tolist(), measures=measures)


# one CSV line per row: rows from a sweep carry all five measures or none
_CSV_ROW = "%s,%.12g,%s,%.12g,%.12g,%.12g,%s,%s"
_CSV_MEASURED = _CSV_ROW + ",%.12g,%.12g,%.12g,%.12g,%.12g"
_CSV_UNMEASURED = _CSV_ROW + ",,,,,"
_CSV_FLAG = {True: "true", False: "false"}
_UNMEASURED = (None,) * 5


def rows_to_csv(table: SweepTable) -> str:
    """CSV text: fixed header, 12 significant digits, LF line endings.

    Written from the columns, one run of measured or unmeasured rows at a
    time: a run is one ``%`` call, on its template repeated once per row,
    with the run's columns (the eight head columns, then the five measures
    of a measured run) interleaved by slices.
    """
    columns = (table.config, table.value, table.branch, table.n, table.alpha,
               table.Delta, table.stability,
               list(map(_CSV_FLAG.__getitem__, table.degenerate)))
    lines = [",".join(CSV_COLUMNS)]
    start = 0
    for unmeasured, run in groupby(map(is_, table.measures, repeat(None))):
        stop = start + len(list(run))
        run_columns = [column[start:stop] for column in columns]
        if not unmeasured:
            run_columns.extend(zip(*table.measures[start:stop]))
        fields = [None] * (len(run_columns) * (stop - start))
        for k, column in enumerate(run_columns):
            fields[k::len(run_columns)] = column
        template = _CSV_UNMEASURED if unmeasured else _CSV_MEASURED
        lines.append("\n".join(repeat(template, stop - start)) % tuple(fields))
        start = stop
    return "\n".join(lines) + "\n"


def to_json(doc) -> str:
    """Report text: one line of JSON with sorted keys, and a newline.

    ``json.dumps(doc, sort_keys=True)`` through the C encoder, with a
    dataclass instance written as ``vars()``, the dict of its fields (the
    report's dataclasses have no slots and set no other attribute);
    ``python -m json.tool`` pretty-prints it.  Dict keys follow ``json``:
    an int, float, bool or None key is written as a string (no report has
    one), and keys of kinds that do not sort together raise ``TypeError``.
    A value other than a dict, list, tuple, str, int, float, bool, None or
    dataclass instance raises ``TypeError``.
    """
    return json.dumps(doc, sort_keys=True, default=_fields) + "\n"


def _fields(x) -> dict:
    if hasattr(type(x), "__dataclass_fields__"):   # an instance, not the class
        return vars(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def report_dict(rows: SweepTable, spec: Optional[SweepSpec] = None) -> Dict:
    """Report document for :func:`to_json`: sweep description, derived
    rates, rows.

    The sweep description and the derived rates are the dataclasses
    themselves.  Each row is a dict keyed by ``CSV_COLUMNS``, with None for
    the measures of an unmeasured row, written straight from the columns.
    """
    heads = zip(*(getattr(rows, name) for name in CSV_COLUMNS[:8]))
    doc: Dict = {"rows": [dict(zip(CSV_COLUMNS, (*head, *(measure or _UNMEASURED))))
                          for head, measure in zip(heads, rows.measures)]}
    if spec is not None:
        doc["spec"] = spec
        doc["derived_quantities"] = {
            label: derive_quantities(params)
            for label, params in _expand_configs(spec)
        }
    return doc


def emit(rows: SweepTable, fmt: str, destination,
         spec: Optional[SweepSpec] = None) -> int:
    """Write rows as ``csv`` or ``json``; returns the number of bytes written.

    ``destination`` is as in :func:`write_bytes`.  Identical inputs produce
    byte-identical output.
    """
    if fmt == "csv":
        payload = rows_to_csv(rows).encode()
    elif fmt == "json":
        payload = to_json(report_dict(rows, spec)).encode()
    else:
        raise ParameterError(f"format: {fmt!r} is not one of ('csv', 'json')")
    return write_bytes(payload, destination)


def write_bytes(payload: bytes, destination=None) -> int:
    """Write ``payload`` to a path, a binary file object or a text stream
    (``io.TextIOBase``, as UTF-8 text); returns its length in bytes.

    None means ``sys.stdout``: the byte stream under it, or ``sys.stdout``
    itself as text when it has none (an ``io.StringIO`` put there by a
    caller).
    """
    if destination is None:
        destination = getattr(sys.stdout, "buffer", sys.stdout)
    if isinstance(destination, io.TextIOBase):
        destination.write(payload.decode())
    elif hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "wb") as handle:
            handle.write(payload)
    return len(payload)
