"""optobec benchmark: one closed-loop client driving ``optobec.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload mf_presets --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is the JSON result.
Workloads, metrics and the layer map are described in perfbench/README.md.
"""

import os

# One single-threaded process: BLAS threads are pinned before numpy loads and
# an inherited OPTOMECH_THREADS cannot switch on the sweep thread pool.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
INHERITED_THREADS = os.environ.pop("OPTOMECH_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional, Sequence, Tuple  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = BENCH_DIR / ".work"
SETUP_REPEATS = 15

# Self time is reported only for functions every workload calls: on the
# others it is exactly 0, which the per-layer table still prints.
SELF_MS_REPORTED = (
    "model.derive_quantities",
    "linear_dynamics.drift_matrix",
    "linear_dynamics.characteristic_polynomial",
    "linear_dynamics.is_stable",
    "cli.main",
)

_SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import optobec
{build}
"""
SETUP_BUILD = {
    "figure": "from optobec.presets import figure_preset\nfigure_preset(sys.argv[2])",
    "point": "from optobec.config import load_config\nload_config(sys.argv[2])",
}


def measure_setup(kind: str, arg: str) -> List[float]:
    """Times of fresh interpreters that import optobec and build the first
    request's input, at the reference host speed; one untimed warm-up first."""
    code = _SETUP_CHILD.format(build=SETUP_BUILD[kind])
    argv = [sys.executable, "-c", code, str(SRC), arg]
    walls, kernel = [], speed.samples()
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            walls.append(time.perf_counter() - t0)
        kernel += speed.samples()
    scale = speed.REFERENCE_S / statistics.median(kernel)
    return [t * scale for t in walls]


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "optobec").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": 1, "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "optomech_threads_inherited": INHERITED_THREADS,
    }


def quantile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool,
        presets: Optional[Sequence[str]] = None,
        points: int = workloads.POINTS_PER_PASS) -> Tuple[dict, str]:
    """Run one workload; returns the result object and the output digest.

    The result has the keys ``correct``, ``attempted``, ``failed`` and
    ``metrics``.  ``presets`` and ``points`` cut the workload down (for the
    self-test).
    """
    import optobec.cli

    wl = workloads.Workload(workload, seed, WORKDIR / workload, presets=presets, points=points)
    setup = measure_setup(wl.setup_kind, wl.setup_arg)

    def cli_main(argv):
        return optobec.cli.main(argv)   # looked up per call so tracing sees it

    errors: List[str] = []
    reference = wl.run_pass(cli_main)   # warm-up; its digest is the reference
    untraced, traced = [], []
    recorder = spans.SpanRecorder() if trace else None
    start = time.perf_counter()
    while True:
        untraced.append(wl.run_pass(cli_main))
        if recorder is not None:
            recorder.current_pass = len(traced)
            with recorder:
                traced.append(wl.run_pass(cli_main))
        if time.perf_counter() - start >= seconds:
            break

    passes = [reference] + untraced + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = 0
    for p in passes:
        errors.extend(p.errors)
        if p.digest != reference.digest:
            errors.append("output digest differs from the first pass")
            failed += len(p.latencies)
        else:
            failed += p.failed

    # A request's latency is its median over the timed passes at the
    # reference host speed; the spread between requests (inputs) stays.
    typical = [statistics.median(t) for t in zip(*(p.scaled for p in untraced))]
    wall = [statistics.median(t) for t in zip(*(p.latencies for p in untraced))]
    kernel = statistics.median(k for p in untraced for k in p.kernel)
    print(f"workload {workload}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes of {len(wl.requests)} requests, {reference.rows} rows and "
          f"{reference.points} points per pass")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} requests)")
    print(f"host kernel median {kernel * 1e3:.3f} ms (reference {speed.REFERENCE_S * 1e3:.3f} ms)")

    if not trace:
        metrics = {
            "rows_per_s": (reference.rows / sum(typical), "rows/s"),
            "latency_ms.p50": (1e3 * statistics.median(typical), "ms"),
            "latency_ms.p90": (1e3 * quantile(typical, 90), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"latency samples: {len(typical)} requests x {len(untraced)} passes; "
              f"setup runs {len(setup)}")
        print(f"unscaled wall: rows_per_s {reference.rows / sum(wall):.6g} rows/s, "
              f"latency_ms.p50 {1e3 * statistics.median(wall):.6g} ms, "
              f"latency_ms.p90 {1e3 * quantile(wall, 90):.6g} ms")
    else:
        metrics = _layer_metrics(recorder, traced, untraced, errors)
        recorder.save(WORKDIR / f"trace_{workload}.npz")

    for err in errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, reference.digest


def _layer_metrics(recorder, traced, untraced, errors: List[str]) -> dict:
    """Per-layer metrics from the traced passes; prints the full table."""
    per_pass = recorder.per_pass([p.scale for p in traced])
    if recorder.missing:
        errors.append(f"traced functions not found: {', '.join(recorder.missing)}")
    first = per_pass[0]
    if any((p["calls"] != first["calls"]).any() for p in per_pass):
        errors.append("call counts differ between traced passes")
    index = {name: i for i, name in enumerate(spans.SPAN_NAMES)}

    def self_ms(i: int) -> float:
        return statistics.median(float(p["self_ns"][i]) / 1e6 for p in per_pass)

    print(f"{'function':45s} {'calls/pass':>10s} {'self_ms/pass':>13s}")
    for name, i in index.items():
        print(f"{name:45s} {int(first['calls'][i]):10d} {self_ms(i):13.3f}")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name, i in index.items():
        metrics[f"{name}.calls"] = (int(first["calls"][i]), "count")
    for name in SELF_MS_REPORTED:
        metrics[f"{name}.self_ms"] = (self_ms(index[name]), "ms")
    stable, mf = index["linear_dynamics.is_stable"], index["steady_state.solve_mean_field"]
    metrics["linear_dynamics.stable_frac"] = (
        ratio(first["tally"][stable], first["calls"][stable]), "ratio")
    metrics["model.derive_quantities.calls_per_point"] = (
        ratio(first["calls"][index["model.derive_quantities"]], traced[0].points), "ratio")
    metrics["steady_state.solve_mean_field.branches_per_call"] = (
        ratio(first["tally"][mf], first["calls"][mf]), "ratio")
    metrics["trace.overhead_frac"] = (
        statistics.median(sum(p.scaled) for p in traced)
        / statistics.median(sum(p.scaled) for p in untraced) - 1.0, "ratio")
    return metrics


def import_program() -> Optional[str]:
    """Import optobec from this checkout's sources; returns a problem or None."""
    if not (SRC / "optobec" / "__init__.py").is_file():
        return f"no optobec sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import optobec
    if Path(optobec.__file__).resolve().parent != SRC / "optobec":
        return f"optobec imported from {optobec.__file__}, not from {SRC}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(
        provenance(args.workload, args.seed, args.seconds, args.trace), sort_keys=True))
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
