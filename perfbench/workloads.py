"""The three benchmark workloads: their requests and their output checks.

Every request goes through ``optobec.cli.main`` with the argv a user would
type.  ``mf_presets`` and ``full_presets`` run bundled figure presets, whose
CSV bytes are pinned by the behaviour-lock hashes below.  ``cli_points``
runs single-configuration ``point`` requests on configs drawn from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import speed

# First 16 hex digits of the sha256 of each `optobec figure ID` CSV.
LOCK_HASHES = {
    "fig2a": "5838edcb40d8d03f",
    "fig2b": "dfc5087081784c6f",
    "fig2c": "416b7a96fbfcd419",
    "fig2d": "ae5f9a7afc55cf93",
    "fig3": "8ce409c1a4a99f15",
    "fig4": "7df545e1f8d21458",
    "fig5a": "da6fcac3358e18b9",
    "fig5b": "db8c194af27cddf7",
    "fig5c": "169eca570d3fcb9e",
    "fig7": "86d4a0b346f1af62",
}

MF_PRESETS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4")
# fig6a-c are byte-identical re-runs of fig5a-c and add no coverage.
FULL_PRESETS = ("fig5a", "fig5b", "fig5c", "fig7")
POINTS_PER_PASS = 400
WORKLOADS = ("mf_presets", "full_presets", "cli_points")

MIRROR_FREQ = 2.0 * math.pi * 1e7   # rad/s, reference mirror frequency
# Reference condensate coupling (~324 rad/s) and damping (1e-3 kappa), both
# in units of the mirror frequency as the normalized config mode expects.
BEC_COUPLING = 5.16e-6
BEC_DAMPING = 5e-4

MEASURE_KEYS = ("delta_n_m", "delta_n_c", "e_n_mirror_field",
                "e_n_atom_field", "e_n_mirror_atom")
STABILITY_VERDICTS = ("stable", "unstable", "marginal")
# Wall time of requests between two samples of the reference kernel.
BLOCK_S = 0.025
# Relative tolerance of the field fixed point n (Delta^2 + kappa^2) = eta^2.
FIXED_POINT_RTOL = 1e-8


def point_config(rng: random.Random) -> dict:
    """One configuration drawn uniformly over the physical box."""
    detuning = rng.uniform(-2.0, 8.0)          # kappa
    power = rng.uniform(1e-3, 0.3)             # W
    sw_frequency = rng.uniform(0.0, 2.0)       # omega_m
    temperature = rng.uniform(0.01, 1.0)       # K, mirror bath
    present = rng.random() < 0.75
    return {
        "units": "normalized",
        "cavity": {"length": 1e-3, "wavelength": 1.064e-6, "finesse": 3e4,
                   "detuning": detuning},
        "mirror": {"mass": 5e-11, "frequency": MIRROR_FREQ, "quality": 1e5,
                   "temperature": temperature},
        "bec": {"present": present, "coupling": BEC_COUPLING,
                "sw_frequency": sw_frequency, "recoil": 0.1,
                "damping": BEC_DAMPING, "temperature": 1e-7},
        "drive": {"power": power},
    }


@dataclass
class Request:
    """One CLI invocation and where its output lands."""

    argv: List[str]
    output: Path
    figure: Optional[str] = None   # preset id, for figure requests


@dataclass
class PassResult:
    """Outcome of running every request of a workload once."""

    latencies: List[float] = field(default_factory=list)   # s, wall, per request
    kernel: List[float] = field(default_factory=list)      # s, reference kernel samples
    rows: int = 0
    points: int = 0
    failed: int = 0
    digest: str = ""
    errors: List[str] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor that takes this pass's wall times to the reference host speed."""
        return speed.REFERENCE_S / statistics.median(self.kernel)

    @property
    def scaled(self) -> List[float]:
        """Latencies at the reference host speed (see speed.py)."""
        scale = self.scale
        return [t * scale for t in self.latencies]


def check_csv(fig_id: str, payload: bytes) -> tuple:
    """Verify a preset CSV against its lock hash; returns (rows, points)."""
    got = hashlib.sha256(payload).hexdigest()[:16]
    if got != LOCK_HASHES[fig_id]:
        raise ValueError(f"{fig_id}: csv sha256 {got} != lock {LOCK_HASHES[fig_id]}")
    lines = payload.decode().splitlines()[1:]
    points = {tuple(line.split(",", 2)[:2]) for line in lines}
    return len(lines), len(points)


def check_point(doc: dict) -> int:
    """Verify one point report; returns its branch count.

    Each branch must satisfy the field fixed point, carry a known verdict,
    and have finite measures with E_N >= 0 exactly when it is stable.
    """
    dq = doc["derived_quantities"]
    delta_c = doc["params"]["cavity"]["detuning"]
    branches = doc["branches"]
    if not 1 <= len(branches) <= 3:
        raise ValueError(f"{len(branches)} branches")
    for b in branches:
        n, delta = b["n"], b["Delta"]
        if not abs(delta - (delta_c - dq["beta"] * n)) <= 1e-9 * max(abs(delta_c), dq["kappa"]):
            raise ValueError(f"branch {b['label']}: Delta != delta_c - beta n")
        if not abs(n * (delta ** 2 + dq["kappa"] ** 2) - dq["eta"] ** 2) <= FIXED_POINT_RTOL * dq["eta"] ** 2:
            raise ValueError(f"branch {b['label']}: field fixed point violated")
        if b["stability"] not in STABILITY_VERDICTS:
            raise ValueError(f"branch {b['label']}: verdict {b['stability']!r}")
        measures = b["measures"]
        if b["stability"] != "stable":
            if measures is not None:
                raise ValueError(f"branch {b['label']}: measures on a {b['stability']} branch")
            continue
        if measures is None or set(measures) != set(MEASURE_KEYS):
            raise ValueError(f"branch {b['label']}: stable branch without measures")
        for key in MEASURE_KEYS:
            if not math.isfinite(measures[key]):
                raise ValueError(f"branch {b['label']}: {key} = {measures[key]}")
            if key.startswith("e_n_") and measures[key] < 0.0:
                raise ValueError(f"branch {b['label']}: {key} = {measures[key]} < 0")
    return len(branches)


class Workload:
    """The requests of one workload, generated before any timing."""

    def __init__(self, name: str, seed: int, workdir: Path,
                 presets: Optional[Sequence[str]] = None,
                 points: int = POINTS_PER_PASS) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        rng = random.Random(seed)
        out = workdir / "out"
        out.mkdir(parents=True, exist_ok=True)
        self.requests: List[Request] = []
        if name == "cli_points":
            configs = workdir / "configs"
            configs.mkdir(parents=True, exist_ok=True)
            for i in range(points):
                cfg = configs / f"point_{i:04d}.json"
                cfg.write_text(json.dumps(point_config(rng), indent=1) + "\n")
                target = out / f"point_{i:04d}.json"
                self.requests.append(Request(
                    ["point", "--config", str(cfg), "--out", str(target)], target))
        else:
            ids = list(presets if presets is not None else
                       MF_PRESETS if name == "mf_presets" else FULL_PRESETS)
            rng.shuffle(ids)   # the seed fixes the request order
            for fig_id in ids:
                self.requests.append(Request(
                    ["figure", fig_id, "--out", str(out)], out / f"{fig_id}.csv", fig_id))
        # the first request's input, as the set-up child builds it
        first = self.requests[0]
        self.setup_kind = "figure" if first.figure else "point"
        self.setup_arg = first.figure or first.argv[2]

    def run_pass(self, cli_main: Callable[[List[str]], int]) -> PassResult:
        """Send every request in order, one at a time, and check each output.

        Only the ``cli_main`` call is timed.  The reference kernel is
        sampled before the first request, after every ``BLOCK_S`` of
        requests and after the last.
        """
        result = PassResult()
        digest = hashlib.sha256()
        sink = io.StringIO()
        result.kernel.extend(speed.samples())
        block_s = 0.0
        for req in self.requests:
            latency, payload, error = self._send(req, cli_main, sink)
            result.latencies.append(latency)
            if error is None:
                try:
                    if req.figure:
                        rows, points = check_csv(req.figure, payload)
                    else:
                        rows, points = check_point(json.loads(payload)), 1
                except (ValueError, KeyError, TypeError) as exc:
                    error = str(exc)
                else:
                    digest.update(payload)
                    result.rows += rows
                    result.points += points
            if error is not None:
                result.failed += 1
                result.errors.append(f"{' '.join(req.argv)}: {error}")
            block_s += latency
            if block_s >= BLOCK_S:
                result.kernel.extend(speed.samples())
                block_s = 0.0
        result.kernel.extend(speed.samples())
        result.digest = digest.hexdigest()
        return result

    @staticmethod
    def _send(req: Request, cli_main, sink: io.StringIO) -> tuple:
        """One timed request; returns (latency, output bytes, error or None)."""
        sink.seek(0)
        sink.truncate()
        req.output.unlink(missing_ok=True)   # no stale output passes a check
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            try:
                code = cli_main(req.argv)
            except Exception as exc:   # a crash is a failed request
                return time.perf_counter() - t0, b"", f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        if code != 0:
            return latency, b"", f"exit code {code}"
        try:
            return latency, req.output.read_bytes(), None
        except OSError as exc:
            return latency, b"", str(exc)
