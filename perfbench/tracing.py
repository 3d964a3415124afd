"""Span tracing for the benchmark's traced runs.

The tracer wraps the public functions each ddqcl module exposes, in the
namespaces of the modules that call them, so every span knows its layer and
its caller.  A span is (kind, parent span, start, end, raised) with
perf_counter_ns times.  Spans stay in memory and are written out when the run ends.  Nothing
in `src/` changes: patches are undone when `installed()` exits.

Self time is a span's duration minus the time its direct children cover.
Calls a module makes into its own functions (calibrate into
apply_channel_sampled, correct into correct_raw) are not wrapped, so they
count as the caller's self time.

numpy is imported inside functions, so importing this module never loads it
before run.py has pinned the BLAS threads.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from core import BenchError

# (layer, module that defines it, attribute, modules that must call it)
TRACE_POINTS = (
    ("ansatz.execute", "ddqcl.ansatz", "execute", ("ddqcl.optim", "ddqcl.harness")),
    ("sim.apply_ry", "ddqcl.sim", "apply_ry", ("ddqcl.ansatz",)),
    ("sim.apply_cz", "ddqcl.sim", "apply_cz", ("ddqcl.ansatz",)),
    ("sim.probabilities", "ddqcl.sim", "probabilities", ("ddqcl.optim", "ddqcl.harness")),
    ("sim.sample", "ddqcl.sim", "sample", ("ddqcl.optim", "ddqcl.harness")),
    (
        "readout.apply_channel_sampled",
        "ddqcl.readout",
        "apply_channel_sampled",
        ("ddqcl.optim", "ddqcl.harness"),
    ),
    ("readout.correct", "ddqcl.readout", "correct", ("ddqcl.optim", "ddqcl.harness")),
    ("readout.calibrate", "ddqcl.readout", "calibrate", ("ddqcl.harness",)),
    ("metrics.js_divergence", "ddqcl.metrics", "js_divergence", ("ddqcl.optim",)),
    (
        "metrics.histogram_to_distribution",
        "ddqcl.metrics",
        "histogram_to_distribution",
        ("ddqcl.optim", "ddqcl.harness"),
    ),
    ("optim.run", "ddqcl.optim", "run", ("ddqcl.harness",)),
)
# (layer, module, class, method): patched on the class, so every caller sees it
METHOD_POINTS = (("optim.evaluate", "ddqcl.optim", "CostContext", "evaluate"),)

ROOT_LAYER = "bench.batch"

# Per-layer metrics of a traced run, with their units.  *_us is the median
# duration of one call, children included; *_s is per batch; self_s is the
# module's summed self time per batch.
PER_LAYER_UNITS = {
    "ansatz.execute_us": "us",
    "ansatz.execute_calls": "count",
    "ansatz.self_s": "s",
    "sim.apply_ry_us": "us",
    "sim.apply_cz_us": "us",
    "sim.gate_calls": "count",
    "sim.probabilities_us": "us",
    "sim.sample_us": "us",
    "sim.self_s": "s",
    "readout.apply_channel_sampled_us": "us",
    "readout.correct_us": "us",
    "readout.correct_calls": "count",
    "readout.calibrate_s": "s",
    "readout.self_s": "s",
    "metrics.js_divergence_us": "us",
    "metrics.histogram_to_distribution_us": "us",
    "metrics.self_s": "s",
    "optim.evaluate_us_p50": "us",
    "optim.evaluate_us_p99": "us",
    "optim.evaluate_samples": "count",
    "optim.evaluate_self_s": "s",
    "optim.self_s": "s",
    "optim.evaluations": "count",
    "optim.improvement_rate": "ratio",
    "harness.export_s": "s",
    "harness.export_bytes": "bytes",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}

# Which self times make up each accounted share of the traced wall time.
SHARES = {
    "ansatz": ("ansatz.",),
    "sim": ("sim.",),
    "readout": ("readout.",),
    "metrics": ("metrics.",),
    "optim.evaluate": ("optim.evaluate",),
    "optim.run": ("optim.run",),
    "harness.run_batch": ("harness.run_batch",),
    "harness.export": ("harness.export",),
}


class TraceError(BenchError):
    """A wrapped name is gone or no longer called from where it was."""


class Tracer:
    def __init__(self) -> None:
        self.kinds: list[str] = []
        self._kind_index: dict[str, int] = {}
        self._kind = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._raised = array("b")
        self._stack = [-1]
        self.batches: list[tuple[int, int]] = []

    def wrap(self, layer: str, caller: str, fn):
        """`fn` with a span of kind `layer@caller` around every call."""
        kind = self._register(f"{layer}@{caller}")
        kinds, parents, starts, ends, raised, stack = (
            self._kind, self._parent, self._start, self._end, self._raised, self._stack
        )
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1])
            ends.append(0)
            raised.append(0)
            stack.append(i)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = now()
                stack.pop()

        return traced

    def batch(self, body):
        """Run `body()` under a root span; returns its result and the span's seconds."""
        i = len(self._kind)
        try:
            return self.wrap(ROOT_LAYER, "bench", body)(), (self._end[i] - self._start[i]) / 1e9
        finally:
            self.batches.append((i, len(self._kind)))

    def _register(self, name: str) -> int:
        if name not in self._kind_index:
            self._kind_index[name] = len(self.kinds)
            self.kinds.append(name)
        return self._kind_index[name]

    @contextmanager
    def installed(self):
        """Wrap every trace point in the loaded ddqcl modules; undo on exit."""
        undo: list[tuple[object, str, object]] = []
        try:
            for layer, home, attr, callers in TRACE_POINTS:
                module = _module(home)
                if not hasattr(module, attr):
                    raise TraceError(f"{home}.{attr} no longer exists; update perfbench/tracing.py")
                original = getattr(module, attr)
                bound = {}
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == home or not mod_name.startswith("ddqcl.") or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            bound.setdefault(mod_name, []).append(key)
                missing = [c for c in callers if c not in bound]
                if missing:
                    raise TraceError(
                        f"{home}.{attr} is no longer bound in {missing}; update perfbench/tracing.py"
                    )
                for mod_name, keys in bound.items():
                    caller = mod_name.removeprefix("ddqcl.")
                    for key in keys:
                        mod = sys.modules[mod_name]
                        undo.append((mod, key, original))
                        setattr(mod, key, self.wrap(layer, caller, original))
            for layer, home, cls_name, attr in METHOD_POINTS:
                cls = getattr(_module(home), cls_name, None)
                if cls is None or attr not in vars(cls):
                    raise TraceError(
                        f"{home}.{cls_name}.{attr} no longer exists; update perfbench/tracing.py"
                    )
                original = vars(cls)[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(layer, home.removeprefix("ddqcl."), original))
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

    def profile(self, index: int) -> "Profile":
        """Counts, self times and call durations of the index-th traced batch."""
        import numpy as np

        a, b = self.batches[index]
        kind = np.frombuffer(self._kind[a:b], dtype=np.int64)
        parent = np.frombuffer(self._parent[a:b], dtype=np.int64) - a
        dur = np.frombuffer(self._end[a:b], dtype=np.int64) - np.frombuffer(
            self._start[a:b], dtype=np.int64
        )
        ok = np.frombuffer(self._raised[a:b], dtype=np.int8) == 0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        k = len(self.kinds)
        calls = np.bincount(kind[ok], minlength=k)
        self_sum = np.bincount(kind, weights=self_ns, minlength=k)
        return Profile(
            calls={n: int(calls[i]) for i, n in enumerate(self.kinds)},
            self_s={n: float(self_sum[i]) / 1e9 for i, n in enumerate(self.kinds)},
            durations_us={
                n: dur[ok & (kind == i)] / 1e3 for i, n in enumerate(self.kinds) if calls[i]
            },
        )

    def write(self, path: Path) -> None:
        """All spans of the run as one .npz: kind, parent, start_ns, end_ns."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            kinds=np.array(self.kinds),
            batches=np.array(self.batches, dtype=np.int64).reshape(-1, 2),
            kind=np.frombuffer(self._kind, dtype=np.int64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            start_ns=np.frombuffer(self._start, dtype=np.int64),
            end_ns=np.frombuffer(self._end, dtype=np.int64),
            raised=np.frombuffer(self._raised, dtype=np.int8),
        )


def _module(name: str):
    module = sys.modules.get(name)
    if module is None:
        raise TraceError(f"module {name} is not loaded; update perfbench/tracing.py")
    return module


@dataclass(frozen=True)
class Profile:
    """One traced batch, keyed by span kind `layer@caller`.

    `calls` and `durations_us` cover calls that returned, which leaves out
    each run's last CostContext.evaluate (it raises BudgetExhausted).  Self
    times cover every call.
    """

    calls: dict[str, int]
    self_s: dict[str, float]
    durations_us: dict[str, object]

    def layer_calls(self, layer: str, caller: str | None = None) -> int:
        return sum(
            c for k, c in self.calls.items()
            if k.split("@")[0] == layer and (caller is None or k.split("@")[1] == caller)
        )

    def layer_self_s(self, prefix: str) -> float:
        return sum(s for k, s in self.self_s.items() if k.startswith(prefix))

    def layer_durations_us(self, layer: str):
        import numpy as np

        parts = [d for k, d in self.durations_us.items() if k.split("@")[0] == layer]
        return np.concatenate(parts) if parts else np.zeros(0)


def cross_checks(profile: Profile, evaluations: int, doc: dict) -> dict[str, tuple[int, int]]:
    """Counter identities of one traced batch, as (measured, expected) pairs.

    The solver's evaluations must equal runs x budget, and every stage of the
    cost pipeline that the config turns on must be called once per evaluation
    from ddqcl.optim (and not at all when it is off).
    """
    readout = doc.get("readout")
    shots = not doc.get("exact_mode", False)
    correction = readout is not None and readout.get("correction", True)
    n = profile.layer_calls("optim.evaluate")
    runs = doc.get("runs", 5)
    budget = doc.get("budget", 2000)
    return {
        "optim.evaluations == runs x budget": (n, runs * budget),
        "exported evaluations == optim.evaluations": (evaluations, n),
        "ansatz.execute from optim": (profile.layer_calls("ansatz.execute", "optim"), n),
        "sim.probabilities from optim": (profile.layer_calls("sim.probabilities", "optim"), n),
        "sim.sample from optim": (profile.layer_calls("sim.sample", "optim"), n if shots else 0),
        "readout.apply_channel_sampled from optim": (
            profile.layer_calls("readout.apply_channel_sampled", "optim"),
            n if readout is not None else 0,
        ),
        "readout.correct from optim": (
            profile.layer_calls("readout.correct", "optim"),
            n if correction else 0,
        ),
        "metrics.js_divergence from optim": (profile.layer_calls("metrics.js_divergence", "optim"), n),
    }
