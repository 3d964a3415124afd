"""The benchmark's workloads: one ddqcl experiment config each.

The benchmark's `--seed` becomes the config's `base_seed`; run i of a batch
trains from seed base_seed + i.  Every workload repeats the same batch, so
its exported artifacts must be bit-identical batch after batch.

Each entry keeps, next to its config, the measured shares of traced wall time
(`python3 perfbench/run.py --trace 1 --seconds 20`, one BLAS thread, 2-core
x86-64 Xeon, Python 3.11, numpy 2.4) and the changes it is predicted not to
notice.  Later performance work cites these pairings.
"""

from __future__ import annotations

from dataclasses import dataclass

_FLIP_5PCT = {"p10": 0.05, "p01": 0.05, "correction": True}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc: dict

    def config(self, seed: int) -> dict:
        return {**self.doc, "base_seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        # Traced wall, calls including children: execute 90% (apply_ry 67%,
        # apply_cz 15%), js_divergence 5%, probabilities 3%, export 1%.
        # Module self time: sim 84%, ansatz 8%, metrics 5%, optim 2%.
        # Predicted no change: readout work (ROADMAP item 4); there is no readout here.
        # Moved by: batched evaluation of ADAM's probes (item 2); quality by
        # parameter-shift gradients (item 3).
        # Not gated in BENCHMARK.json: interpreter-bound batches swing with host
        # load, and 10-run wall_s spreads reached 0.305, above the largest bound
        # (README.md, "Host noise").  Run by hand.
        Workload(
            name="exact-4q-adam",
            why="exact statevector training: almost all time is circuit simulation; "
            "ADAM's 2L+1 probes per step are what batched evaluation targets",
            doc={
                "rows": 2, "cols": 2, "topology": "line", "layers": 2,
                "optimizer": "adam", "exact_mode": True, "runs": 2, "budget": 2000,
            },
        ),
        # Traced wall, calls including children: execute 96% (apply_ry 82%,
        # apply_cz 9%), js_divergence 3%, probabilities 0.4%, export <0.1%.
        # Module self time: sim 91%, ansatz 5%, metrics 3%.
        # Predicted no change: readout work (item 4); there is no readout here.
        # Moved by: the batched real-amplitude simulator (item 2), which halves
        # the bytes each gate moves and drops the per-gate copies; its n_ini pool
        # of 46 evaluations is what evaluate_many batches.
        Workload(
            name="exact-16q-adam",
            why="exact training on 16 qubits (4x4 BAS): every gate moves a 1 MB state, "
            "so circuit simulation is bound by numpy rather than by the interpreter",
            doc={
                "rows": 4, "cols": 4, "topology": "line", "layers": 1,
                "optimizer": "adam", "exact_mode": True, "n_ini_multiplier": 1,
                "runs": 1, "budget": 60,
            },
        ),
        # Traced wall, calls including children: execute 40% (apply_ry 30%,
        # apply_cz 6%), apply_channel_sampled 31%, sample 10%, correct 10%,
        # js_divergence 2%, histogram_to_distribution 1%, probabilities 1%.
        # Module self time: sim 48%, readout 41%, ansatz 4%, optim 4%, metrics 3%.
        # Predicted no change: batching ADAM's probes (item 2).  SVHC proposes one
        # point at a time, so a gain bought by slowing the sequential path shows here.
        # Not gated in BENCHMARK.json, for the same reason as exact-4q-adam
        # (a 10-run wall_s spread of 0.254).  Run by hand.
        Workload(
            name="readout-4q-svhc",
            why="the whole 3000-shot pipeline with a 5% flip channel and correction, "
            "driven by a solver that proposes one point at a time",
            doc={
                "rows": 2, "cols": 2, "topology": "star", "layers": 2,
                "optimizer": "svhc", "shots": 3000, "readout": _FLIP_5PCT,
                "runs": 1, "budget": 2000,
            },
        ),
        # Traced wall, calls including children: correct 79% (dense 512x512 cond
        # and solve per call), calibrate 8% (2^9 experiments), apply_channel_sampled
        # 6%, export 4% (2.5 MB, mostly confusion.json), execute 2%, sample 0.5%.
        # Module self time: readout 94%, export 4%, sim 2%.
        # Predicted no change: simulator work (item 2); execute is 2%.
        # Moved by: scalable readout correction (item 4), in evals_per_s and setup_s.
        Workload(
            name="readout-9q-zoo",
            why="3x3 BAS on 9 qubits: the dense readout correction dominates, "
            "calibration dominates set-up and export writes a 2.5 MB confusion matrix",
            doc={
                "rows": 3, "cols": 3, "topology": "line", "layers": 1,
                "optimizer": "zoo", "shots": 3000, "readout": _FLIP_5PCT,
                "runs": 1, "budget": 100,
            },
        ),
    )
}
