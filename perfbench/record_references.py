"""Record the reference artifact digests the benchmark's correctness gate uses.

    python3 perfbench/record_references.py

Runs one batch of every workload at the default seed (0) with BLAS pinned to
one thread, and writes perfbench/reference_digests.json together with the
platform the digests hold on.  Re-record only on purpose: when a change is
meant to alter outputs (for example how the RNG stream is consumed), and say
so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import core

DEFAULT_SEED = 0


def main() -> int:
    core.pin_blas_threads()
    ddqcl = core.import_ddqcl()
    from provenance import platform_key, source_digest
    from workloads import WORKLOADS

    digests = {}
    for name, workload in WORKLOADS.items():
        out = core.WORK_DIR / f"out-{name}-references"
        batch = core.run_batch(ddqcl, workload.config(DEFAULT_SEED), out)
        shutil.rmtree(out, ignore_errors=True)
        if batch.error is not None:
            print(batch.error, file=sys.stderr)
            return 1
        digests[name] = {str(DEFAULT_SEED): batch.digests}
        print(f"{name}: {len(batch.digests)} files")
    doc = {
        "platform": platform_key(),
        "ddqcl_sources_sha256": source_digest(),
        "digests": digests,
    }
    path = core.BENCH_DIR / "reference_digests.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(core.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
