"""Release acceptance suite: one test per shipping criterion.

Each test prints a `criterion N: PASS/FAIL` line with the measured figures
(run with -s or -rA to see them all), then asserts the criterion.  The
batches are full-size training runs, so this module takes a minute or two.
"""

import math

import numpy as np
import pytest

from ddqcl.ansatz import execute, u2_block
from ddqcl.bas import BasSpec, bas_patterns, bas_target_distribution
from ddqcl.harness import ExperimentConfig, run_batch, summary_dict
from ddqcl.metrics import js_divergence, kl_divergence, qbas_score
from ddqcl.readout import PerQubitFlipModel, apply_channel_exact, correct, synth_confusion
from ddqcl.sim import Distribution, Histogram, probabilities, sample

TAU = 2 * np.pi


def _report(n: int, ok: bool, detail: str) -> str:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    return line


def _batch(**overrides):
    doc = {"rows": 2, "cols": 2, "topology": "line", "layers": 2, "optimizer": "adam"}
    doc.update(overrides)
    return run_batch(ExperimentConfig.from_dict(doc))


# --- shared full-size batches ---


@pytest.fixture(scope="module")
def exact_line2_batches():
    """Exact-mode 2-layer line(4) training, one batch per optimizer."""
    return {kind: _batch(optimizer=kind, exact_mode=True) for kind in ("adam", "svhc", "zoo")}


@pytest.fixture(scope="module")
def shot_batches():
    """3000-shot noiseless training on both topologies at 1 and 2 layers."""
    return {
        (topo, layers): _batch(topology=topo, layers=layers)
        for topo in ("line", "star")
        for layers in (2, 1)
    }


# --- criteria ---


def test_criterion_1_learnability(exact_line2_batches):
    hits = {
        kind: sum(r.best_js < 0.01 for r in res.runs)
        for kind, res in exact_line2_batches.items()
    }
    best_kind = max(hits, key=hits.get)
    ok = hits[best_kind] >= 3
    per_run = {
        kind: [round(r.best_js, 5) for r in res.runs]
        for kind, res in exact_line2_batches.items()
    }
    detail = (
        f"exact 2-layer line(4), JS<0.01 runs out of 5: {hits} "
        f"(need >=3 for at least one optimizer); best js per run {per_run}"
    )
    assert ok, _report(1, ok, detail)
    _report(1, ok, detail)


def test_criterion_2_shot_noise_regime(shot_batches):
    best_kl = {
        topo: min(r.kl for r in shot_batches[(topo, 2)].runs) for topo in ("line", "star")
    }
    ok = all(v < 0.14 for v in best_kl.values())
    detail = (
        f"3000-shot 2-layer best-of-5 KL: line {best_kl['line']:.4f}, "
        f"star {best_kl['star']:.4f} (need both < 0.14)"
    )
    assert ok, _report(2, ok, detail)
    _report(2, ok, detail)


def test_criterion_3_depth_effect(shot_batches):
    med = {
        key: float(np.median([r.best_js for r in res.runs]))
        for key, res in shot_batches.items()
    }
    ok = any(med[(t, 2)] <= med[(t, 1)] for t in ("line", "star"))
    detail = (
        f"median best JS, 1 vs 2 layers: line {med[('line', 1)]:.4f} -> "
        f"{med[('line', 2)]:.4f}, star {med[('star', 1)]:.4f} -> {med[('star', 2)]:.4f} "
        f"(need an improvement on at least one topology)"
    )
    assert ok, _report(3, ok, detail)
    _report(3, ok, detail)


def uncorrected_kl_floor(spec: BasSpec, p10: float) -> float:
    """Least KL(target || M P) over all models P read through the flip channel M.

    With s(x) = sum over BAS patterns y of M[y, x], the log-sum inequality gives
    KL(target || M P) >= -ln sum_x s(x) P[x] >= -ln max_x s(x) for a target
    uniform on the patterns.  On 2x2 BAS a symmetric channel attains it at P = target.
    """
    m = synth_confusion(PerQubitFlipModel.uniform(spec.n_qubits, p10))
    rows = list(bas_patterns(spec))
    return -math.log(float(m.entries[rows].sum(axis=0).max()))


def test_criterion_4_readout_correction_gap():
    p10 = 0.10
    # The uncorrected best KL sits at this floor, less a little shot noise, so
    # a gap of 0.3 is reachable only if the floor clears 0.3.
    floor = uncorrected_kl_floor(BasSpec(2, 2), p10)
    assert floor > 0.3, f"a {p10:.0%} flip channel caps the KL gap near {floor:.4f} < 0.3"
    corrected = _batch(topology="star", readout={"p10": p10})
    bare = _batch(topology="star", readout={"p10": p10, "correction": False})
    kl_corrected = min(r.kl for r in corrected.runs)
    kl_bare = min(r.kl for r in bare.runs)
    gap = kl_bare - kl_corrected
    ok = gap >= 0.3
    detail = (
        f"{p10:.0%} flip channel, star(4) 2-layer best-of-5 KL: corrected {kl_corrected:.4f}, "
        f"uncorrected {kl_bare:.4f} (floor {floor:.4f}), gap {gap:.4f} (need >= 0.3)"
    )
    assert ok, _report(4, ok, detail)
    _report(4, ok, detail)


def test_criterion_5_oracle_equivalences():
    rng = np.random.default_rng(0)

    # (a) two-qubit block against dense 4x4 matrix algebra
    cz = np.diag([1.0, 1.0, 1.0, -1.0])

    def ry(t):
        return np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]])

    i2 = np.eye(2)
    worst_a = 0.0
    for _ in range(1000):
        t, g, b = rng.uniform(-TAU, TAU, 3)
        v = np.zeros(4)
        v[0] = 1.0
        v = np.kron(ry(t), i2) @ cz @ np.kron(ry(g), i2) @ np.kron(i2, ry(b)) @ v
        worst_a = max(worst_a, float(np.max(np.abs(u2_block(t, g, b).reshape(-1) - v))))

    # (b) exact channel then correction is the identity
    worst_b = 0.0
    for _ in range(100):
        model = PerQubitFlipModel(tuple(rng.uniform(0, 0.2, 4)), tuple(rng.uniform(0, 0.2, 4)))
        m = synth_confusion(model)
        p = rng.random(16)
        p /= p.sum()
        back = correct(apply_channel_exact(Distribution(4, p), m), m)
        worst_b = max(worst_b, float(np.max(np.abs(back.probs - p))))

    # (c) divergence worked examples against a direct-summation oracle
    def kl_oracle(p, q, eps=1e-8):
        return sum(pi * math.log(pi / max(qi, eps)) for pi, qi in zip(p, q) if pi > 0)

    def js_oracle(p, q):
        m = [(a + b) / 2 for a, b in zip(p, q)]
        return 0.5 * kl_oracle(p, m, eps=0) + 0.5 * kl_oracle(q, m, eps=0)

    target = bas_target_distribution(BasSpec(2, 2))
    uniform = Distribution(4, np.full(16, 1 / 16))
    delta = Distribution.delta(4, 0)
    cases = [
        ("KL(target||uniform)", kl_divergence(target, uniform),
         kl_oracle(target.probs, uniform.probs), math.log(16 / 6)),
        ("KL(delta||target)", kl_divergence(delta, target),
         kl_oracle(delta.probs, target.probs), math.log(6.0)),
        ("JS(target,uniform)", js_divergence(target, uniform),
         js_oracle(target.probs, uniform.probs), 0.29030475547625423),
        ("JS(delta,target)", js_divergence(delta, target),
         js_oracle(delta.probs, target.probs), 0.45391266155837334),
    ]
    worst_c = max(max(abs(got - oracle), abs(got - frozen)) for _, got, oracle, frozen in cases)

    ok = worst_a < 1e-10 and worst_b < 1e-10 and worst_c < 1e-12
    detail = (
        f"u2 vs matrix oracle worst |diff| {worst_a:.2e} (1000 cases, need <1e-10); "
        f"correct∘channel worst |diff| {worst_b:.2e} (100 cases, need <1e-10); "
        f"divergence worked examples worst |diff| {worst_c:.2e} (need <1e-12)"
    )
    assert ok, _report(5, ok, detail)
    _report(5, ok, detail)


def test_criterion_6_metric_properties():
    rng = np.random.default_rng(1)
    ln2 = math.log(2.0)
    sym_ok = bounds_ok = True
    for _ in range(1000):
        p = rng.random(16)
        p /= p.sum()
        q = rng.random(16)
        q /= q.sum()
        a = js_divergence(Distribution(4, p), Distribution(4, q))
        b = js_divergence(Distribution(4, q), Distribution(4, p))
        sym_ok &= abs(a - b) < 1e-12
        bounds_ok &= -1e-15 <= a <= ln2 + 1e-12
    kl_ok = True
    for _ in range(200):
        p = rng.random(16)
        p /= p.sum()
        q = rng.random(16)
        q /= q.sum()
        kl_ok &= kl_divergence(Distribution(4, p), Distribution(4, q)) >= 0.0

    patterns = bas_patterns(BasSpec(2, 2))
    values = sorted(patterns)
    perfect = np.zeros(16, dtype=np.int64)
    perfect[values] = 500
    s1 = qbas_score(Histogram(4, perfect, 3000), patterns)
    miss = np.zeros(16, dtype=np.int64)
    miss[1] = 3000  # 0001 is neither a bar nor a stripe
    s0 = qbas_score(Histogram(4, miss, 3000), patterns)
    single = np.zeros(16, dtype=np.int64)
    single[values[0]] = 3000
    s27 = qbas_score(Histogram(4, single, 3000), patterns)
    qbas_ok = (
        (s1.precision, s1.recall, s1.f1) == (1.0, 1.0, 1.0)
        and (s0.precision, s0.f1) == (0.0, 0.0)
        and s27.f1 == pytest.approx(2.0 / 7.0, abs=1e-15)
    )

    ok = sym_ok and bounds_ok and kl_ok and qbas_ok
    detail = (
        f"JS symmetry x1000 {'ok' if sym_ok else 'violated'}; JS in [0, ln2] x1000 "
        f"{'ok' if bounds_ok else 'violated'}; KL>=0 x200 {'ok' if kl_ok else 'violated'}; "
        f"qBAS f1 deterministic cases (1, 0, 2/7) -> ({s1.f1:.0f}, {s0.f1:.0f}, {s27.f1:.4f})"
    )
    assert ok, _report(6, ok, detail)
    _report(6, ok, detail)


def test_criterion_7_qbas_sanity(exact_line2_batches):
    result = exact_line2_batches["adam"]
    best = min(result.runs, key=lambda r: r.best_js)
    ansatz = result.config.build_ansatz()
    patterns = bas_patterns(BasSpec(2, 2))
    dist = probabilities(execute(ansatz, best.curve.best_params))
    trained = [
        qbas_score(sample(dist, 3000, np.random.default_rng(s)), patterns).f1
        for s in range(5)
    ]
    rng = np.random.default_rng(999)
    random_f1 = []
    for s in range(5):
        d = probabilities(execute(ansatz, rng.uniform(0.0, TAU, ansatz.param_count)))
        random_f1.append(qbas_score(sample(d, 3000, np.random.default_rng(s)), patterns).f1)
    hits = sum(f > 0.99 for f in trained)
    ok = hits >= 4 and float(np.median(random_f1)) < float(np.median(trained))
    detail = (
        f"best trained model (JS {best.best_js:.5f}): f1 > 0.99 in {hits}/5 seeds "
        f"(median {np.median(trained):.4f}); random circuits median f1 "
        f"{np.median(random_f1):.4f} (must be strictly lower)"
    )
    assert ok, _report(7, ok, detail)
    _report(7, ok, detail)


def test_criterion_8_protocol_fidelity():
    result = _batch(readout={"p10": 0.03, "calibration_shots": 10_000})
    doc = summary_dict(result)
    batch = doc["batch"]
    runs_ok = batch["runs"] == 5 and len(doc["runs"]) == 5
    evals_ok = all(r["evaluations"] <= 2000 for r in doc["runs"])
    total_ok = batch["total_evaluations"] == sum(r["evaluations"] for r in doc["runs"])
    shots_ok = all(r["shots_per_evaluation"] == 3000 for r in doc["runs"])
    cal_ok = batch["calibration"] == {"experiments": 16, "shots_per_experiment": 10_000}
    ok = runs_ok and evals_ok and total_ok and shots_ok and cal_ok
    detail = (
        f"default protocol: {batch['runs']} runs x "
        f"{doc['runs'][0]['evaluations']} evaluations x "
        f"{doc['runs'][0]['shots_per_evaluation']} shots, calibration "
        f"{batch['calibration']['experiments']} experiments x "
        f"{batch['calibration']['shots_per_experiment']} shots"
    )
    assert ok, _report(8, ok, detail)
    _report(8, ok, detail)
