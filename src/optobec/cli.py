"""Command-line interface.

Subcommands:

* ``point --config FILE``            single-configuration JSON report
* ``sweep --config FILE``            run the configured sweep, CSV or JSON
* ``figure ID [--out DIR]``          run a bundled preset, writes ``ID.csv``
* ``threshold --config FILE``        bistability window in mW

Exit codes: 0 success, 1 invalid configuration or usage, 2 numerical
failure (marginal stability or a singular covariance solve).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from .config import ConfigError, load_config
from .linear_dynamics import NumericalError, diffusion_matrix
from .model import ParameterError, derive_quantities
from .presets import FIGURE_IDS, figure_preset
from .steady_state import bistability_window, solve_mean_field
from .sweep import emit, evaluate_branches, run_sweep


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


def _as_dict(obj) -> dict:
    """``dataclasses.asdict`` without its deep copy: nested dataclasses become
    dicts and every other field value is taken as it is (the report's
    dataclasses have no ``ClassVar`` or ``InitVar`` pseudo-fields)."""
    out = {}
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)
        out[name] = _as_dict(value) if hasattr(value, "__dataclass_fields__") else value
    return out


def _point_report(params) -> dict:
    d = derive_quantities(params)
    branches = solve_mean_field(params, d=d)
    verdicts, measures = evaluate_branches(branches, d, diffusion_matrix(d))
    return {
        "params": _as_dict(params),
        "derived_quantities": _as_dict(d),
        "branches": [dict(_as_dict(branch), stability=verdict, measures=measure)
                     for branch, verdict, measure in zip(branches, verdicts, measures)],
    }


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "point":
            params, _ = load_config(args.config)
            report = _point_report(params)
            _write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
        elif args.command == "sweep":
            params, spec = load_config(args.config)
            if spec is None:
                raise ConfigError("sweep: config file has no sweep section")
            destination = sys.stdout.buffer if args.out is None else args.out
            emit(run_sweep(spec), args.format, destination, spec=spec)
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
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
