"""Command-line interface.

Subcommands:

* ``point --config FILE``            single-configuration JSON report
* ``sweep --config FILE``            run the configured sweep, CSV or JSON
* ``figure ID [--out DIR]``          run a bundled preset, writes ``ID.csv``
* ``threshold --config FILE``        bistability window in mW

``point`` and ``sweep`` take ``--out FILE`` (default stdout) and ``sweep``
takes ``--format csv|json``.  The command line is parsed from one table,
``_COMMANDS``, as argparse's subparsers parsed it before: a flag is given
as ``--flag VALUE``, ``--flag=VALUE`` or by a unique prefix (``--con``),
options come in any order, and the last of a repeated flag wins.  ``-h``
or ``--help`` prints the help of the top level or of one command, made
from the same table, to stdout and exits 0.  A usage error is printed as
``error: usage: ...``, in argparse's words.

Exit codes: 0 success, 1 invalid configuration or usage, or an output path
that cannot be made or written, 2 numerical failure (a singular or
ill-conditioned Lyapunov solve, a covariance that is not physical, a
mean-field branch off the field fixed point, or a mean-field cubic or
characteristic polynomial that leaves the float range).  A ``marginal``
stability verdict is reported in the stability field and does not change
the exit code.
"""

from __future__ import annotations

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


# One row per command: its help line and its arguments by name, a flag
# ("--out") or a positional (its metavar, "ID"), each with its default
# (... when it is required), its choices (None for any value) and its help.
_CONFIG = {"--config": (..., None, "config file (JSON)")}
_OUT = {"--out": (None, None, "output file (default stdout)")}
_COMMANDS = {
    "point": ("single-configuration report", {**_CONFIG, **_OUT}),
    "sweep": ("run the sweep described by the config", {**_CONFIG, **_OUT,
              "--format": ("csv", ("csv", "json"), "csv or json (default csv)")}),
    "figure": ("run a bundled dataset preset",
               {"ID": (..., FIGURE_IDS, f"one of: {', '.join(FIGURE_IDS)}"),
                "--out": (".", None, "output directory (default .)")}),
    "threshold": ("print the bistability window in mW", _CONFIG),
}


def _parse(argv: List[str]) -> dict:
    """The command and the value of each of its arguments, keyed as
    argparse named them (``command``, ``config``, ``out``, ``format``, ``id``).

    Parses as argparse's subparsers did, messages included: a flag takes
    ``--flag VALUE`` or ``--flag=VALUE``, and a unique prefix names it; the
    last of a repeated flag wins; options before the command other than -h
    are unrecognized.  Errors come in argparse's order: a missing value or
    an invalid choice where it occurs, then a missing required argument,
    then the unrecognized arguments.  ``--`` is one more unrecognized
    argument, not the end of the options.  Every token that starts with
    ``-``, other than ``-`` itself, is an option, so a value that starts
    with ``-`` is given as ``--flag=VALUE`` (argparse also took a negative
    number or a token with a space in it as a value).
    """
    # the arguments known so far: the command, and once it is given, its own
    rows, values, extras = {"command": (..., tuple(_COMMANDS), None)}, {}, []
    # each token, last first, with whether it is an option ("-" is a value)
    tokens = [(token, token[:1] == "-" and token != "-") for token in reversed(argv)]
    while tokens:
        token, option = tokens.pop()
        # a value is the next positional not yet given, if there is one
        name, value = next((n for n in rows if n[0] != "-" and n not in values), None), token
        if option:   # a flag or -h, named by k in full or by a unique prefix
            k, eq, value = token.partition("=")
            hit = [f for f in (*rows, "-h", "--help") if f == k or k[2:] and f.startswith(k)]
            name = hit[0] if len(hit) == 1 else None
            if name and not eq:
                value = tokens.pop()[0] if tokens and not tokens[-1][1] else None
        if name in ("-h", "--help"):
            _help(values.get("command"))
        elif name is None:
            extras.append(token)
        elif value is None:
            raise ConfigError(f"usage: argument {name}: expected one argument")
        elif rows[name][1] and value not in rows[name][1]:
            raise ConfigError(f"usage: argument {name}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, rows[name][1]))})")
        else:
            values[name] = value
            # the rest of the line is the command's
            rows = {**rows, **_COMMANDS[value][1]} if name == "command" else rows
    missing = ", ".join(n for n, (d, *_) in rows.items() if d is ... and n not in values)
    if missing or extras:
        raise ConfigError(f"usage: the following arguments are required: {missing}" if missing
                          else f"usage: unrecognized arguments: {' '.join(extras)}")
    return {n.lstrip("-").lower(): values.get(n, d) for n, (d, *_) in rows.items()}


def _help(command: Optional[str]) -> None:
    """Print the usage and help lines of one command, or of every command
    when ``command`` is None, to stdout and exit 0, as argparse's -h did."""
    for name, (line, rows) in [(command, _COMMANDS[command])] if command else _COMMANDS.items():
        specs = {a: a if a[0] != "-" else f"{a} {a[2:].upper()}" for a in rows}
        usage = " ".join(s if rows[a][0] is ... else f"[{s}]" for a, s in specs.items())
        print(f"usage: optobec {name} {usage} [-h]\n  {line}",
              *(f"    {specs[a]:<18}{text}" for a, (*_, text) in rows.items()), sep="\n")
    raise SystemExit(0)


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
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args["command"] == "point":
            params, _ = load_config(args["config"])
            write_bytes(to_json(_point_report(params)).encode(), args["out"])
        elif args["command"] == "sweep":
            params, spec = load_config(args["config"])
            if spec is None:
                raise ConfigError("sweep: config file has no sweep section")
            emit(run_sweep(spec), args["format"], args["out"], spec=spec)
        elif args["command"] == "figure":
            os.makedirs(args["out"], exist_ok=True)
            path = os.path.join(args["out"], f"{args['id']}.csv")
            emit(run_sweep(figure_preset(args["id"])), "csv", path)
            print(path)
        elif args["command"] == "threshold":
            params, _ = load_config(args["config"])
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
