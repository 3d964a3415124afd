"""ddqcl benchmark: train one workload's batch over and over through the
public library path and report what a `ddqcl run` user sees.

    python3 perfbench/run.py --workload exact-4q-adam --seed 0 --seconds 35 --trace 0

Run it from the root of a checkout; it imports ddqcl from `src/` there and
fails without printing a result if that is missing.  The process pins BLAS
to one thread before numpy loads.

--trace 0 reports the end-to-end metrics (wall_s, evals_per_s, setup_s,
peak_rss_mb), measured untraced.  --trace 1 alternates untraced and traced
batches and reports per-layer metrics from spans recorded around the public
functions of each ddqcl module (see tracing.py).  Either way every batch's
exported artifacts are hashed and checked, and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Earlier
lines are a readable report; the full report and the spans are written
under perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import core
from provenance import platform_key, provenance
from tracing import PER_LAYER_UNITS, SHARES, Tracer, cross_checks
from workloads import WORKLOADS

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60
REFERENCES = core.BENCH_DIR / "reference_digests.json"

END_TO_END_UNITS = {"wall_s": "s", "evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _child(args: list[str], env: dict[str, str] | None = None) -> dict:
    """Run child.py to completion and return the JSON it printed."""
    cmd = [sys.executable, str(core.BENCH_DIR / "child.py"), *args]
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=core.ROOT
        )
    except subprocess.TimeoutExpired as e:
        raise core.ChildTimeout(f"{' '.join(args)} timed out after {CHILD_TIMEOUT_S} s") from e
    if done.returncode != 0:
        raise core.BenchError(f"child {' '.join(args)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _references(platform: dict, workload: str, seed: int) -> dict[str, str] | None:
    """Recorded digests for this workload and seed, if recorded on this platform."""
    if not REFERENCES.is_file():
        return None
    doc = json.loads(REFERENCES.read_text())
    if doc.get("platform") != platform:
        return None
    return doc["digests"].get(workload, {}).get(str(seed))


def _layer_metrics(tracer, traced, untraced_walls) -> tuple[dict, dict, dict]:
    """Per-layer metrics, and shares of traced wall time: module self times
    (which add up to 1) and each layer's calls including their children."""
    import numpy as np

    profiles = [tracer.profile(i) for i in range(len(traced))]
    walls = [b.wall_s for b in traced]

    def med(f):
        return statistics.median(f(p) for p in profiles)

    def per_call(layer):
        d = np.concatenate([p.layer_durations_us(layer) for p in profiles])
        return float(np.median(d)) if len(d) else 0.0

    evals = np.concatenate([p.layer_durations_us("optim.evaluate") for p in profiles])
    m = {
        "ansatz.execute_us": per_call("ansatz.execute"),
        "ansatz.execute_calls": med(lambda p: p.layer_calls("ansatz.execute")),
        "ansatz.self_s": med(lambda p: p.layer_self_s("ansatz.")),
        "sim.apply_ry_us": per_call("sim.apply_ry"),
        "sim.apply_cz_us": per_call("sim.apply_cz"),
        "sim.gate_calls": med(
            lambda p: p.layer_calls("sim.apply_ry") + p.layer_calls("sim.apply_cz")
        ),
        "sim.probabilities_us": per_call("sim.probabilities"),
        "sim.sample_us": per_call("sim.sample"),
        "sim.self_s": med(lambda p: p.layer_self_s("sim.")),
        "readout.apply_channel_sampled_us": per_call("readout.apply_channel_sampled"),
        "readout.correct_us": per_call("readout.correct"),
        "readout.correct_calls": med(lambda p: p.layer_calls("readout.correct")),
        "readout.calibrate_s": med(lambda p: p.layer_self_s("readout.calibrate")),
        "readout.self_s": med(lambda p: p.layer_self_s("readout.")),
        "metrics.js_divergence_us": per_call("metrics.js_divergence"),
        "metrics.histogram_to_distribution_us": per_call("metrics.histogram_to_distribution"),
        "metrics.self_s": med(lambda p: p.layer_self_s("metrics.")),
        "optim.evaluate_us_p50": float(np.percentile(evals, 50)),
        "optim.evaluate_us_p99": float(np.percentile(evals, 99)),
        "optim.evaluate_samples": len(evals),
        "optim.evaluate_self_s": med(lambda p: p.layer_self_s("optim.evaluate")),
        "optim.self_s": med(lambda p: p.layer_self_s("optim.run")),
        "optim.evaluations": med(lambda p: p.layer_calls("optim.evaluate")),
        "optim.improvement_rate": sum(b.improvements for b in traced)
        / sum(b.evaluations for b in traced),
        "harness.export_s": med(lambda p: p.layer_self_s("harness.export")),
        "harness.export_bytes": statistics.median(b.export_bytes for b in traced),
        "harness.self_s": med(lambda p: p.layer_self_s("harness.run_batch")),
        "trace.wall_s": statistics.median(walls),
        "trace.remainder_s": med(lambda p: p.layer_self_s("bench.batch")),
        # paired with the untraced batch run just before, so host drift cancels
        "trace.overhead_s": statistics.median(t - u for t, u in zip(walls, untraced_walls)),
    }
    shares = {
        name: statistics.median(
            sum(p.layer_self_s(prefix) for prefix in prefixes) / w
            for p, w in zip(profiles, walls)
        )
        for name, prefixes in SHARES.items()
    }
    shares["remainder"] = statistics.median(
        p.layer_self_s("bench.batch") / w for p, w in zip(profiles, walls)
    )
    layers = sorted({k.split("@")[0] for p in profiles for k in p.durations_us})
    inclusive = {
        layer: statistics.median(
            p.layer_durations_us(layer).sum() / 1e6 / w for p, w in zip(profiles, walls)
        )
        for layer in layers
    }
    return m, shares, inclusive


def measure(ddqcl, workload, seed: int, seconds: float, traced_run: bool) -> dict:
    doc = workload.config(seed)
    out = core.WORK_DIR / f"out-{workload.name}-{os.getpid()}"
    report: dict = {"workload": workload.name, "config": doc, "seconds": seconds}

    setup = [_child(["setup", workload.name, str(seed)]) for _ in range(SETUP_SAMPLES)]
    report["setup"] = {k: _stats([s[k] for s in setup]) for k in setup[0]}

    tracer = Tracer() if traced_run else None
    batches = [core.run_batch(ddqcl, doc, out)]  # warm-up: checked, not timed
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        b = core.run_batch(ddqcl, doc, out)
        batches.append(b)
        untraced.append(b)
        if tracer is not None:
            with tracer.installed():
                b = core.run_batch(ddqcl, doc, out, tracer=tracer)
            batches.append(b)
            traced.append(b)
        if time.perf_counter() >= deadline:
            break
    shutil.rmtree(out, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    pinned = next((b.digests for b in batches if b.error is None), {})
    reference = _references(platform_key(), workload.name, seed)
    expected = pinned if reference is None else reference
    report["digest_gate"] = "self-consistency" if reference is None else "reference"
    failed, mismatches = 0, []
    for i, b in enumerate(batches):
        n, bad = core.failed_runs(b, expected)
        failed += n
        if bad:
            mismatches.append({"batch": i, "files": bad, "error": b.error})
    attempted = sum(b.runs for b in batches)
    report["digests"] = pinned
    report["mismatches"] = mismatches
    report["error_rate"] = {"failed": failed, "attempted": attempted, "value": failed / attempted}

    checks = {}
    ok = [b for b in batches if b.error is None]
    checks["evaluations == runs x budget, every batch"] = (
        sum(b.evaluations == b.runs * b.budget for b in ok),
        len(ok),
    )
    if tracer is not None:
        for i, b in enumerate(traced):
            if b.error is None:
                for name, pair in cross_checks(tracer.profile(i), b.evaluations, doc).items():
                    checks[f"traced batch {i}: {name}"] = pair
    report["checks"] = {k: {"measured": a, "expected": e, "ok": a == e} for k, (a, e) in checks.items()}
    correct = failed == 0 and all(a == e for a, e in checks.values())

    good = [b for b in untraced if b.error is None]
    best_js = [statistics.median(b.best_js) for b in ok]
    report["best_js_median"] = best_js[0] if best_js else None
    if not traced_run:
        if not good:
            raise core.BenchError("every timed batch failed:\n" + batches[-1].error)
        walls = [b.wall_s for b in good]
        rates = [b.evaluations / (b.wall_s - b.pre_eval_s) for b in good]
        report["wall_s"] = _stats(walls)
        report["evals_per_s"] = _stats(rates)
        metrics = {
            "wall_s": report["wall_s"]["median"],
            "evals_per_s": report["evals_per_s"]["median"],
            "setup_s": report["setup"]["setup_s"]["median"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        report["known_failures"] = [_thread_divergence(workload, seed, pinned)]
    else:
        good_traced = [b for b in traced if b.error is None]
        if not good or not good_traced:
            raise core.BenchError("every traced or untraced batch failed")
        metrics, shares, inclusive = _layer_metrics(tracer, traced, [b.wall_s for b in untraced])
        units = PER_LAYER_UNITS
        report["shares_of_traced_wall"] = shares
        report["inclusive_shares_of_traced_wall"] = inclusive
        report["untraced_wall_s"] = _stats([b.wall_s for b in good])
        spans = core.WORK_DIR / f"spans-{workload.name}-seed{seed}.npz"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(core.ROOT))
    report["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    report["result"] = {"correct": correct, "attempted": attempted, "failed": failed}
    return report


def _thread_divergence(workload, seed: int, pinned: dict[str, str]) -> dict:
    """Known failure: artifacts change with the BLAS thread count.

    One batch runs in a child with the thread pin removed, so OpenBLAS uses
    its default (one thread per core), and its digests are compared with the
    pinned ones.  The divergence is reported, not counted as a failed run:
    the program fix belongs to ddqcl, and the pinned run is the measured one.
    """
    out = core.WORK_DIR / f"out-{workload.name}-{os.getpid()}-default-threads"
    report = {"name": "blas-thread-divergence"}
    try:
        child = _child(["batch", workload.name, str(seed), str(out)], env=core.unpinned_env())
    except core.ChildTimeout:
        # OpenBLAS threads spin when another process holds the cores
        return {**report, "default_blas_threads": None, "observed": None, "differing_files": []}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    differ = sorted(
        n for n in set(child["digests"]) | set(pinned)
        if child["digests"].get(n) != pinned.get(n)
    )
    return {
        **report,
        "default_blas_threads": child["blas_threads"],
        "observed": bool(differ),
        "differing_files": differ,
    }


def _print_report(report: dict, prov: dict) -> None:
    p = print
    p(f"workload {report['workload']}  seed {prov['seed']}  "
      f"blas threads {prov['blas_threads_actual']}  nproc {prov['nproc']}  "
      f"load {prov['loadavg_at_start'][0]:.2f}")
    for name in ("wall_s", "evals_per_s"):
        if name in report:
            s = report[name]
            p(f"  {name:<14} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"({s['n']} batches)  {END_TO_END_UNITS[name]}")
    for name, s in report["setup"].items():
        p(f"  setup.{name:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
          f"({s['n']} fresh processes)  s")
    for name, m in report["metrics"].items():
        p(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    if "shares_of_traced_wall" in report:
        shares = "  ".join(f"{k} {v:.1%}" for k, v in report["shares_of_traced_wall"].items())
        p(f"  self-time share of traced wall_s: {shares}")
        inclusive = "  ".join(
            f"{k} {v:.1%}" for k, v in report["inclusive_shares_of_traced_wall"].items()
        )
        p(f"  inclusive share of traced wall_s: {inclusive}")
    p(f"  best_js_median {report['best_js_median']}")
    e = report["error_rate"]
    p(f"  error_rate {e['value']} ({e['failed']} of {e['attempted']} runs; "
      f"digest gate: {report['digest_gate']})")
    for m in report["mismatches"]:
        p(f"  MISMATCH batch {m['batch']}: {m['files']}")
    for name, c in report["checks"].items():
        if not c["ok"]:
            p(f"  CHECK FAILED {name}: measured {c['measured']}, expected {c['expected']}")
    p(f"  checks: {sum(c['ok'] for c in report['checks'].values())} of {len(report['checks'])} hold")
    for k in report.get("known_failures", []):
        state = {True: "observed", False: "not observed", None: "not checked (timed out)"}[
            k["observed"]
        ]
        p(f"  known failure {k['name']}: {state} at {k['default_blas_threads']} BLAS threads "
          f"{k['differing_files']}")


def main(argv: list[str] | None = None) -> int:
    load_at_start = os.getloadavg()
    core.pin_blas_threads()
    args = _parse(argv)
    try:
        ddqcl = core.import_ddqcl()
        prov = provenance(args.seed, load_at_start)
        report = measure(ddqcl, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except core.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    report["provenance"] = prov
    core.WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = core.WORK_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _print_report(report, prov)
    print(json.dumps({**report["result"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
