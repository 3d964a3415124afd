"""Golden outputs: tiny 4-qubit batches whose exported bytes are pinned by sha256.

A change to any digest here means the program now computes, samples or
formats something differently.  That change must be deliberate: say so in
CHANGES.md and re-record the digests.  At 4 qubits the BLAS thread count does
not change any exported byte.

The workloads that BENCHMARK.json gates are pinned too, by the digests the
benchmark recorded in perfbench/reference_digests.json: each runs in a fresh
interpreter through perfbench/child.py, with one BLAS thread as recorded.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ddqcl.harness import ExperimentConfig, export, run_batch

_BASE = {"rows": 2, "cols": 2, "topology": "line", "layers": 1, "runs": 2, "budget": 120}

BATCHES = {
    "exact-adam": {**_BASE, "optimizer": "adam", "exact_mode": True},
    "shots-svhc": {**_BASE, "optimizer": "svhc", "shots": 500, "base_seed": 3},
    "readout-zoo": {
        **_BASE,
        "optimizer": "zoo",
        "shots": 500,
        "base_seed": 5,
        "readout": {"p10": 0.05, "p01": 0.08, "correction": True, "calibration_shots": 2000},
    },
    "readout-uncorrected-adam": {
        **_BASE,
        "optimizer": "adam",
        "shots": 500,
        "base_seed": 7,
        "readout": {"p10": 0.05, "p01": 0.08, "correction": False},
    },
}

DIGESTS = {
    "exact-adam": {
        "config.json": "d9c55f442a0856c89f95f75f3718768e4a123f448805daf614ba4cad987fcc17",
        "curve_run0.csv": "f03e5f04cf5175e6176620557144980e485bc021ae506ba3fee85428c5d962d2",
        "curve_run1.csv": "44274de9dbe25405efaaabd606a641a3c5dff9e0587200e7aa0184544fa6cbbc",
        "aggregate.csv": "cf4c2c77fda28c01de19f75b723cb0c53b275ae76002efe3e19ed4e79ef5c978",
        "summary.json": "a3c1242f6b956ccf2e8391fe0ffb26384c5641c13fdc1f9bf0917a5b7eff5181",
    },
    "shots-svhc": {
        "config.json": "54a39f999556e3e659d544fe943caee1814b9bcb2c79972f3dcde398f4fc379b",
        "curve_run0.csv": "2833ff43a7b7d338130153a8d32b4c7e4690231475c3af10f1abcbd38bbf1c1e",
        "curve_run1.csv": "2865a0a22a53c03fddafaafe9eacc19835777c234978462dbbc57a984968b4a4",
        "aggregate.csv": "d74b48983b97f34e356bff7dba76f67a44154e9cad1ddbf33e5de46325e4fafc",
        "summary.json": "f1a524dee1d95f0b8e9ac7bdd6b4a38fa9995ac36afcec38b0e7c6306f0da7bf",
    },
    "readout-zoo": {
        "config.json": "f24692515b9e19a745261c3822770975ed91ec90c8772c8462a6aca3f1291de4",
        "curve_run0.csv": "737a6ba5dd0e044302f572007d6b041c52c7184a8a67f079dad86ace521256cc",
        "curve_run1.csv": "2ae9cd4a93c36e01101ba58cf4bbeff5b5862c0a5d55e1385912f850f92b5795",
        "aggregate.csv": "fc8bbf83e3939bd095da601d42768c70acf5b220ae08e09480c88c1c42d774d0",
        "summary.json": "3ea17009558867b7676057516a13265187960954e2f3f48a6928a4a61be484db",
        "confusion.json": "98ba01db268aeeff2885ffdf565bf406f799b7a7a149811e4148c7452c91e5bc",
    },
    "readout-uncorrected-adam": {
        "config.json": "2c1647c393d13d40a125a99d02d9c7570b824b55560afaf5bc36087708d72fe9",
        "curve_run0.csv": "c997596467498df8e93c9b3f7fba7f58218b27cf417b8b5b3cf3445472af533c",
        "curve_run1.csv": "d1dc63ff4a38cc09426da559d44b5ec29a9b4bddcd510fcf0f900ddd7df35aca",
        "aggregate.csv": "f755ae468d72f907d0ac8ae3a0cfa98aea25d0dd3a91398c9175d2784a28d20e",
        "summary.json": "514938813f0905e883367cd18a05a58bec81c6bb739eaffbed74d5e8c3ada9dd",
    },
}


def _digests(tmp_path, doc):
    files = export(run_batch(ExperimentConfig.from_dict(doc)), tmp_path)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_golden_export_digests(tmp_path, name):
    assert _digests(tmp_path, BATCHES[name]) == DIGESTS[name]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import core
        import provenance
    finally:
        sys.path.remove(str(PERFBENCH))
    return core, provenance


@pytest.mark.parametrize("workload", ["exact-16q-adam", "readout-9q-zoo"])
def test_gated_workload_matches_reference_digests(tmp_path, bench, workload):
    core, provenance = bench
    recorded = json.loads((PERFBENCH / "reference_digests.json").read_text())
    here = {k: v for k, v in provenance.platform_key().items() if k != "blas_threads"}
    there = {k: v for k, v in recorded["platform"].items() if k != "blas_threads"}
    if here != there:
        pytest.skip(f"reference digests were recorded on {there}, this platform is {here}")
    # the dense solve in `correct` gives other last digits at more BLAS threads
    env = {**os.environ, **{key: core.PINNED_THREADS for key in core.BLAS_ENV}}
    cmd = [sys.executable, str(PERFBENCH / "child.py"), "batch", workload, "0", str(tmp_path)]
    done = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=core.ROOT, timeout=300
    )
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout.strip().splitlines()[-1])["digests"]
    assert digests == recorded["digests"][workload]["0"]
