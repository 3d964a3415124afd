"""Fresh-process probes the benchmark starts one at a time and waits for.

    python3 perfbench/child.py setup <workload> <seed>
        Times everything a batch pays before its first cost evaluation in a
        new interpreter: importing ddqcl, validating the config (which builds
        the ansatz), and run_batch up to its first CostContext.evaluate call
        (BAS target, readout calibration).  The calibrate call is timed on its
        own.  Prints one JSON object.

    python3 perfbench/child.py batch <workload> <seed> <out_dir>
        Runs and exports one batch and prints the artifact digests and the
        BLAS thread count the process actually ran with.  The benchmark runs
        this with the BLAS thread pin removed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _setup(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import core

    ddqcl = core.import_ddqcl()
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    cfg = ddqcl.harness.ExperimentConfig.from_dict(WORKLOADS[workload].config(seed))
    t2 = time.perf_counter()

    calibrate = ddqcl.harness.calibrate
    spent = []

    def timed_calibrate(*args, **kwargs):
        c0 = time.perf_counter()
        try:
            return calibrate(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - c0)

    ddqcl.harness.calibrate = timed_calibrate
    try:
        with core.FirstEvaluation(ddqcl.optim, stop=True) as first:
            ddqcl.harness.run_batch(cfg)
    except core.StopAtFirstEvaluation:
        pass
    finally:
        ddqcl.harness.calibrate = calibrate
    if first.at is None:
        raise core.BenchError("run_batch finished without calling CostContext.evaluate")
    return {
        "setup_s": first.at - t0,
        "import_s": t1 - t0,
        "validate_s": t2 - t1,
        "calibrate_s": sum(spent),
        "pre_eval_s": first.at - t2,
    }


def _batch(workload: str, seed: int, out_dir: str) -> dict:
    import core

    ddqcl = core.import_ddqcl()
    from provenance import blas_threads
    from workloads import WORKLOADS

    batch = core.run_batch(ddqcl, WORKLOADS[workload].config(seed), Path(out_dir))
    if batch.error is not None:
        raise core.BenchError(batch.error)
    return {"digests": batch.digests, "blas_threads": blas_threads()}


def main(argv: list[str]) -> int:
    mode, workload, seed, *rest = argv
    if mode == "setup":
        doc = _setup(workload, int(seed))
    elif mode == "batch":
        doc = _batch(workload, int(seed), *rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
