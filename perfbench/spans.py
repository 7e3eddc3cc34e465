"""In-memory span recording around optobec's public functions.

The program is not instrumented: the recorder replaces each traced function
by a wrapper at every module attribute that holds it (the modules import
names directly, so ``optobec.sweep.is_stable`` and
``optobec.linear_dynamics.is_stable`` are separate bindings of one function)
and puts the originals back on exit.  Spans stay in flat arrays while the
benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# (module, function) pairs under ``optobec``; the per-layer metric names are
# "<module>.<function>.calls" and "<module>.<function>.self_ms".
TRACED_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("model", "derive_quantities"),
    ("steady_state", "solve_mean_field"),
    ("linear_dynamics", "drift_matrix"),
    ("linear_dynamics", "diffusion_matrix"),
    ("linear_dynamics", "characteristic_polynomial"),
    ("linear_dynamics", "is_stable"),
    ("linear_dynamics", "solve_lyapunov"),
    ("gaussian_measures", "reduce_bipartition"),
    ("gaussian_measures", "log_negativity"),
    ("gaussian_measures", "mirror_phonons"),
    ("gaussian_measures", "bogoliubov_excitations"),
    ("sweep", "run_sweep"),
    ("sweep", "emit"),
    ("presets", "figure_preset"),
    ("config", "load_config"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fn in TRACED_FUNCTIONS)

# Per-span tally stored next to the timing: the number of stable verdicts
# and the number of branches found, for the useful-work ratios.
TALLIES: Dict[str, Callable[[object], float]] = {
    "linear_dynamics.is_stable": lambda verdict: float(verdict == "stable"),
    "steady_state.solve_mean_field": lambda branches: float(len(branches)),
}


class SpanRecorder:
    """Records one span per call of each traced function.

    A span holds its name, its parent span (-1 for a root), the request it
    belongs to (a new request starts at every root span), the pass number,
    start and end in ``perf_counter_ns`` and the tally of its result.
    """

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.pass_no = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tally = array("d")
        self.current_pass = 0
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._request = -1
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn: Callable, tally: Optional[Callable]) -> Callable:
        rec = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(rec.name)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                rec._request += 1
            rec.name.append(name_id)
            rec.parent.append(parent)
            rec.request.append(rec._request)
            rec.pass_no.append(rec.current_pass)
            rec.start.append(0)
            rec.end.append(0)
            rec.tally.append(0.0)
            stack.append(i)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rec.start[i] = start
                rec.end[i] = end
            if tally is not None:
                rec.tally[i] = tally(result)
            return result

        return traced

    def __enter__(self) -> "SpanRecorder":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "optobec" or key.startswith("optobec."))]
        self.missing = []
        for name_id, (module, fn_name) in enumerate(TRACED_FUNCTIONS):
            home = sys.modules.get(f"optobec.{module}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(SPAN_NAMES[name_id])
                continue
            wrapper = self._wrap(name_id, original, TALLIES.get(SPAN_NAMES[name_id]))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)
        self._stack.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        """All spans as numpy arrays, indexed by span number."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
            "pass_no": np.array(self.pass_no, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "tally": np.array(self.tally, dtype=np.float64),
        }

    def per_pass(self, scales: Sequence[float]) -> List[Dict[str, np.ndarray]]:
        """Calls, self time (ns) and tally sums per traced function, per pass.

        Self time is a span's duration minus the durations of its direct
        children, which are the time its callees' spans cover; pass ``p``'s
        self times are multiplied by ``scales[p]``.
        """
        spans = self.arrays()
        duration = spans["end_ns"] - spans["start_ns"]
        child = np.zeros(len(duration), dtype=np.int64)
        nested = spans["parent"] >= 0
        np.add.at(child, spans["parent"][nested], duration[nested])
        self_ns = duration - child
        k = len(SPAN_NAMES)
        out = []
        for p, scale in enumerate(scales):
            sel = spans["pass_no"] == p
            names = spans["name"][sel]
            out.append({
                "calls": np.bincount(names, minlength=k),
                "self_ns": scale * np.bincount(names, weights=self_ns[sel], minlength=k),
                "tally": np.bincount(names, weights=spans["tally"][sel], minlength=k),
            })
        return out

    def save(self, path) -> None:
        """Write every span and the name table to ``path`` (numpy .npz)."""
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())
