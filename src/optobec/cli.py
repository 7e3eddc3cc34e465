"""Command-line interface.

Subcommands:

* ``point --config FILE``            single-configuration JSON report
* ``sweep --config FILE``            run the configured sweep, CSV or JSON
* ``figure ID [--out DIR]``          run a bundled preset, writes ``ID.csv``
* ``threshold --config FILE``        bistability window in mW

Exit codes: 0 success, 1 invalid configuration or usage, or an output path
that cannot be made or written, 2 numerical failure (a singular or
ill-conditioned Lyapunov solve, a covariance that is not physical, a
mean-field branch off the field fixed point, or a mean-field cubic or
characteristic polynomial that leaves the float range).  A ``marginal``
stability verdict is reported in the stability field and does not change
the exit code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional

import numpy as np

from .config import ConfigError, load_config
from .linear_dynamics import NumericalError
from .model import ParameterError, derive_quantities
from .presets import FIGURE_IDS, figure_preset
from .steady_state import bistability_window, solve_mean_field
from .sweep import (CSV_COLUMNS, emit, evaluate_branches, run_sweep, to_json,
                    write_bytes)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # invalid-configuration path instead (2 is reserved for numerical failure)
    def error(self, message):
        raise ConfigError(f"usage: {message}")


@functools.cache
def _build_parser() -> _Parser:
    # built on the first main() call and reused: parsing does not change it
    parser = _Parser(prog="optobec",
                     description="Steady states, stability, cooling and "
                                 "entanglement of a condensate-filled "
                                 "optomechanical cavity.")
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="single-configuration report")
    point.add_argument("--config", required=True)
    point.add_argument("--out", default=None, help="output file (default stdout)")

    sweep = sub.add_parser("sweep", help="run the sweep described by the config")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None, help="output file (default stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    figure = sub.add_parser("figure", help="run a bundled dataset preset")
    figure.add_argument("id", choices=FIGURE_IDS, metavar="ID",
                        help=f"one of: {', '.join(FIGURE_IDS)}")
    figure.add_argument("--out", default=".", help="output directory")

    threshold = sub.add_parser("threshold", help="print the bistability window in mW")
    threshold.add_argument("--config", required=True)
    return parser


def _point_report(params) -> dict:
    d = derive_quantities(params)
    branches = solve_mean_field(params, d=d)
    verdicts, measures = evaluate_branches(branches, d, full=True)
    # the displacements of the mirror (q_s, p_s) and the condensate (Q_s, P_s)
    n, zero = branches.n, np.zeros(len(branches))
    if d.zeta > 0.0:
        Q_s = -d.zeta * n / (d.Omega_c + d.omega_sw + d.gamma_c ** 2 / d.Omega_c)
        P_s = (d.gamma_c / d.Omega_c) * Q_s
    else:
        Q_s = P_s = zero
    columns = {"n": n, "alpha": branches.alpha, "Delta": branches.Delta,
               "q_s": (d.xi / d.omega_m) * n, "p_s": zero, "Q_s": Q_s, "P_s": P_s,
               "label": branches.label, "degenerate": branches.degenerate}
    rows = zip(*(column.tolist() for column in columns.values()), verdicts, measures)
    return {
        "params": params,
        "derived_quantities": d,
        "branches": [dict(zip(columns, row), stability=verdict,
                          measures=None if measure is None
                          else dict(zip(CSV_COLUMNS[-5:], measure)))
                     for *row, verdict, measure in rows],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "point":
            params, _ = load_config(args.config)
            write_bytes(to_json(_point_report(params)).encode(), args.out)
        elif args.command == "sweep":
            params, spec = load_config(args.config)
            if spec is None:
                raise ConfigError("sweep: config file has no sweep section")
            emit(run_sweep(spec), args.format, args.out, spec=spec)
        elif args.command == "figure":
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{args.id}.csv")
            emit(run_sweep(figure_preset(args.id)), "csv", path)
            print(path)
        elif args.command == "threshold":
            params, _ = load_config(args.config)
            window = bistability_window(params, params.cavity.detuning)
            if window is None:
                print("no bistability window")
            else:
                print(f"{window.power_low * 1e3:.6g} {window.power_high * 1e3:.6g}")
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:   # an output path that cannot be made or written
        print(f"error: output: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
