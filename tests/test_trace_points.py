"""The benchmark's span tracer still finds every function it wraps.

perfbench/tracing.py patches named ddqcl functions in the modules that call
them.  A refactor that renames one, or stops calling it from where the
tracer expects, breaks only traced bench runs; these tiny traced batches
make that a test failure instead.
"""

import os
import sys
from pathlib import Path

import pytest

import ddqcl.harness
import ddqcl.optim
from ddqcl.ansatz import Ansatz, line_topology, star_topology

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_TINY = {"rows": 2, "cols": 2, "topology": "line", "layers": 1, "runs": 1, "budget": 40}
BATCHES = {
    "exact-adam": {**_TINY, "optimizer": "adam", "exact_mode": True},
    "readout-svhc": {
        **_TINY,
        "optimizer": "svhc",
        "shots": 100,
        "readout": {"p10": 0.05, "correction": True, "calibration_shots": 200},
    },
    "uncorrected-adam": {
        **_TINY,
        "optimizer": "adam",
        "shots": 100,
        "readout": {"p10": 0.05, "correction": False},
    },
    # 46 initial rows and 4 of an ADAM request, each group computed on lanes
    "exact-16q-adam": {
        **_TINY,
        "rows": 4,
        "cols": 4,
        "optimizer": "adam",
        "exact_mode": True,
        "n_ini_multiplier": 1,
        "budget": 50,
    },
}
# batches run as on a host with this many usable CPUs, so that lanes start
CPUS = {"exact-16q-adam": 2}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import core
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return core, tracing


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_traced_batch_holds_every_cross_check(monkeypatch, tmp_path, bench, name):
    core, tracing = bench
    if name in CPUS:
        cpus = set(range(CPUS[name]))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    doc = BATCHES[name]
    tracer = tracing.Tracer()
    with tracer.installed():  # raises TraceError for a trace point that is gone
        batch = core.run_batch(ddqcl, doc, tmp_path / "out", tracer=tracer)
    assert batch.error is None, batch.error
    assert batch.evaluations == doc["runs"] * doc["budget"]
    profile = tracer.profile(0)
    checks = tracing.cross_checks(profile, batch.evaluations, doc)
    assert {name: pair for name, pair in checks.items() if pair[0] != pair[1]} == {}
    # every gate after the product layer goes through its kernel, so that
    # sim.gate_calls counts them: a circuit that inlined a kernel reads 0 here
    topology = {"line": line_topology, "star": star_topology}[doc["topology"]]
    ansatz = Ansatz(topology(doc["rows"] * doc["cols"]), doc["layers"])
    runs = profile.layer_calls("ansatz.execute")
    assert runs > 0
    assert profile.layer_calls("sim.apply_ry") == runs * (ansatz.param_count - ansatz.n_qubits)
    assert profile.layer_calls("sim.apply_cz") == runs * ansatz.layers * len(ansatz.topology.edges)
