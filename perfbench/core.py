"""Shared plumbing for the ddqcl benchmark.

It pins the BLAS pool, imports ddqcl from the checkout's own `src/`, runs one
batch through the public library path (`ExperimentConfig.from_dict`, then
`run_batch`, then `export`) and hashes what the batch exported.

This module imports nothing outside the standard library at load time:
`pin_blas_threads` has to run before the process first imports numpy.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

# One BLAS thread: the target machine has 2 cores, and the dense solve in
# readout.correct gives different last digits at 1 and 2 threads (the
# "blas-thread-divergence" known failure, see README.md).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, a broken child)."""


class ChildTimeout(BenchError):
    """A child process of the benchmark ran past its time limit and was killed."""


class StopAtFirstEvaluation(Exception):
    """Raised by `FirstEvaluation(stop=True)` to end a batch at its first cost call."""


def pin_blas_threads() -> None:
    for key in BLAS_ENV:
        os.environ[key] = PINNED_THREADS


def unpinned_env() -> dict[str, str]:
    """This process's environment with every BLAS thread setting removed."""
    env = dict(os.environ)
    for key in BLAS_ENV:
        env.pop(key, None)
    return env


def import_ddqcl():
    """Import ddqcl from `<checkout>/src`, and from nowhere else.

    Returns the package; `.harness` and `.optim` are loaded on it.
    """
    init = SRC / "ddqcl" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no ddqcl sources at {init.parent}: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ddqcl
    import ddqcl.harness
    import ddqcl.optim

    if Path(ddqcl.__file__).resolve() != init.resolve():
        raise BenchError(f"imported ddqcl from {ddqcl.__file__}, expected {init}")
    return ddqcl


class FirstEvaluation:
    """Notes the time of a batch's first cost evaluation.

    It replaces `CostContext.evaluate` for exactly one call and then puts
    the original back, so the rest of the batch runs unwrapped.  With
    `stop=True` that first call raises `StopAtFirstEvaluation` instead.
    """

    def __init__(self, optim, stop: bool = False) -> None:
        self._cls = optim.CostContext
        if "evaluate" not in vars(self._cls):
            raise BenchError("ddqcl.optim.CostContext.evaluate no longer exists")
        self._stop = stop
        self.at: float | None = None

    def __enter__(self) -> "FirstEvaluation":
        self._original = vars(self._cls)["evaluate"]
        original = self._original

        def first(ctx, params):
            self.at = time.perf_counter()
            self._cls.evaluate = original
            if self._stop:
                raise StopAtFirstEvaluation
            return original(ctx, params)

        self._cls.evaluate = first
        return self

    def __exit__(self, *exc) -> None:
        self._cls.evaluate = self._original


def digest_dir(path: Path) -> dict[str, str]:
    """sha256 of every file in an export directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


@dataclass
class Batch:
    """One batch as the benchmark saw it."""

    runs: int
    budget: int
    wall_s: float = 0.0
    pre_eval_s: float = 0.0  # run_batch start to first cost evaluation
    evaluations: int = 0
    improvements: int = 0
    best_js: list[float] = field(default_factory=list)
    export_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    error: str | None = None


def run_batch(ddqcl, doc: dict, out_dir: Path, tracer=None) -> Batch:
    """Validate `doc`, run its batch and export it into a fresh `out_dir`.

    Wall time covers `run_batch` plus `export`, the part a `ddqcl run` user
    waits for after the config is loaded.  A batch that raises is returned
    with `error` set rather than propagated, so it counts as failed runs.
    """
    harness = ddqcl.harness
    batch = Batch(runs=doc["runs"], budget=doc["budget"])
    if out_dir.exists():
        shutil.rmtree(out_dir)
    run, export = harness.run_batch, harness.export
    first = FirstEvaluation(ddqcl.optim)
    try:
        cfg = harness.ExperimentConfig.from_dict(doc)
        if tracer is None:
            with first:
                t0 = time.perf_counter()
                result = run(cfg)
                files = export(result, out_dir)
                batch.wall_s = time.perf_counter() - t0
        else:

            def body():
                result = tracer.wrap("harness.run_batch", "bench", run)(cfg)
                return result, tracer.wrap("harness.export", "bench", export)(result, out_dir)

            (result, files), batch.wall_s = tracer.batch(body)
    except Exception:  # a failing batch is a measured outcome, not a crash
        batch.error = traceback.format_exc()
        return batch
    if tracer is None:
        if first.at is None:
            raise BenchError("run_batch finished without calling CostContext.evaluate")
        batch.pre_eval_s = first.at - t0
    batch.evaluations = sum(r.evaluations for r in result.runs)
    batch.improvements = sum(len(r.curve.improvements) for r in result.runs)
    batch.best_js = [r.best_js for r in result.runs]
    batch.export_bytes = sum(Path(f).stat().st_size for f in files)
    batch.digests = digest_dir(out_dir)
    return batch


def failed_runs(batch: Batch, expected: dict[str, str]) -> tuple[int, list[str]]:
    """Runs of `batch` that raised or whose artifacts differ from `expected`.

    A differing `curve_run<i>.csv` fails run i; any other differing, missing
    or extra file is batch-wide and fails every run.
    """
    if batch.error is not None:
        return batch.runs, ["raised"]
    names = sorted(set(batch.digests) | set(expected))
    bad = [n for n in names if batch.digests.get(n) != expected.get(n)]
    if any(not (n.startswith("curve_run") and n in expected and n in batch.digests) for n in bad):
        return batch.runs, bad
    return len(bad), bad
