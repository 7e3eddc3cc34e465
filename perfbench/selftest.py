"""Short self-test of the benchmark on cut-down inputs.

Run from the repository root (about half a minute):

    python3 perfbench/selftest.py

For each workload it runs one untraced and one traced pass on a cut-down
request list (one preset, or eight point configs) and checks that every
metric named in BENCHMARK.json is emitted with its unit, that all outputs
pass their checks, and that traced and untraced outputs are identical.  It
then runs the command-line entry once and checks the result line's format.
"""

import json
import subprocess
import sys

import run

CUT_DOWN = {
    "mf_presets": {"presets": ["fig2a"]},
    "full_presets": {"presets": ["fig5a"]},
    "cli_points": {"points": 8},
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(result: dict, expected: dict, label: str) -> list:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} "
                        f"failed={result.get('failed')} attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {name} = {got}, expected unit {unit}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problem = run.import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_digest = run.run(workload, 1, 0, False, **CUT_DOWN[workload])
        traced, traced_digest = run.run(workload, 1, 0, True, **CUT_DOWN[workload])
        problems += check_result(plain, end_to_end, f"{workload} --trace 0")
        problems += check_result(traced, per_layer, f"{workload} --trace 1")
        if plain_digest != traced_digest:
            problems.append(f"{workload}: traced output digest differs from untraced")

    cmd = spec["command"] + ["--workload", "cli_points", "--seed", "3",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        problems.append(f"command exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    else:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        problems += check_result(last, end_to_end, "command line")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
