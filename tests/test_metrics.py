import math

import numpy as np
import pytest

from ddqcl.bas import BasSpec, bas_patterns, bas_target_distribution
from ddqcl.metrics import (
    QbasScore,
    histogram_to_distribution,
    js_divergence,
    kl_divergence,
    qbas_score,
)
from ddqcl.sim import Distribution, Histogram

UNIFORM16 = Distribution(4, np.full(16, 1 / 16))
BAS22 = bas_target_distribution(BasSpec(2, 2))
DELTA0 = Distribution.delta(4, 0)


def _kl_oracle(p, q):
    # independent direct summation, scalar math only
    out = 0.0
    for a, b in zip(p, q):
        if a > 0:
            out += a * math.log(a / b)
    return out


def _js_oracle(p, q):
    m = [(a + b) / 2 for a, b in zip(p, q)]
    return 0.5 * _kl_oracle(p, m) + 0.5 * _kl_oracle(q, m)


def _rand_dist(rng, n=4):
    p = rng.random(2**n)
    return Distribution(n, p / p.sum())


# --- KL ---


def test_kl_identical_is_zero():
    rng = np.random.default_rng(0)
    d = _rand_dist(rng)
    assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-14)


def test_kl_bas_vs_uniform():
    want = math.log(16 / 6)
    assert kl_divergence(BAS22, UNIFORM16) == pytest.approx(want, abs=1e-12)
    assert kl_divergence(BAS22, UNIFORM16) == pytest.approx(0.9808292530117262, abs=1e-12)


def test_kl_delta_vs_bas():
    assert kl_divergence(DELTA0, BAS22) == pytest.approx(math.log(6), abs=1e-12)


def test_kl_zero_target_terms_drop():
    # 0 * ln 0 = 0: target mass zero contributes nothing even where model is 0
    x = Distribution(1, np.array([1.0, 0.0]))
    m = Distribution(1, np.array([1.0, 0.0]))
    assert kl_divergence(x, m) == 0.0


def test_kl_clamps_model_zeros():
    x = Distribution(1, np.array([0.5, 0.5]))
    m = Distribution(1, np.array([1.0, 0.0]))
    got = kl_divergence(x, m, epsilon=1e-8)
    assert got == pytest.approx(0.5 * math.log(0.5 / 1.0) + 0.5 * math.log(0.5 / 1e-8))
    # larger epsilon, smaller penalty
    assert kl_divergence(x, m, epsilon=1e-4) < got


def test_kl_nonnegative_gibbs():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p, q = _rand_dist(rng), _rand_dist(rng)
        assert kl_divergence(p, q) >= -1e-12


def test_kl_matches_oracle_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p, q = _rand_dist(rng), _rand_dist(rng)
        assert kl_divergence(p, q) == pytest.approx(_kl_oracle(p.probs, q.probs), abs=1e-12)


def test_kl_errors():
    with pytest.raises(ValueError):
        kl_divergence(BAS22, Distribution(2, np.full(4, 0.25)))
    with pytest.raises(ValueError):
        kl_divergence(BAS22, UNIFORM16, epsilon=0.0)


# --- JS ---


def test_js_identical_is_zero():
    assert js_divergence(BAS22, BAS22) == 0.0


def test_js_disjoint_deltas_saturate():
    a, b = Distribution.delta(4, 0), Distribution.delta(4, 15)
    assert js_divergence(a, b) == pytest.approx(math.log(2), abs=1e-12)


def test_js_bas_vs_uniform():
    got = js_divergence(BAS22, UNIFORM16)
    assert got == pytest.approx(_js_oracle(BAS22.probs, UNIFORM16.probs), abs=1e-12)
    assert got == pytest.approx(0.29030475547625423, abs=1e-12)


def test_js_delta_vs_bas():
    got = js_divergence(DELTA0, BAS22)
    assert got == pytest.approx(_js_oracle(DELTA0.probs, BAS22.probs), abs=1e-12)
    assert got == pytest.approx(0.45391266155837334, abs=1e-12)


def test_js_symmetry_exact():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p, q = _rand_dist(rng), _rand_dist(rng)
        assert js_divergence(p, q) == js_divergence(q, p)


def test_js_bounds_property():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p, q = _rand_dist(rng, 3), _rand_dist(rng, 3)
        v = js_divergence(p, q)
        assert -1e-14 <= v <= math.log(2) + 1e-14


def test_js_zero_iff_equal():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = _rand_dist(rng)
        assert js_divergence(p, Distribution(4, p.probs.copy())) <= 1e-12
        q = _rand_dist(rng)
        if np.max(np.abs(p.probs - q.probs)) > 1e-6:
            assert js_divergence(p, q) > 1e-12


def test_js_width_mismatch():
    with pytest.raises(ValueError):
        js_divergence(BAS22, Distribution(2, np.full(4, 0.25)))


# --- histogram conversion ---


def test_histogram_to_distribution_examples():
    h = Histogram(4, np.eye(16, dtype=int)[0] * 3000, 3000)
    np.testing.assert_array_equal(histogram_to_distribution(h).probs, DELTA0.probs)
    h2 = Histogram(2, np.array([1, 0, 0, 1]), 2)
    np.testing.assert_allclose(histogram_to_distribution(h2).probs, [0.5, 0, 0, 0.5])


def test_histogram_normalization_identity():
    rng = np.random.default_rng(6)
    counts = rng.integers(0, 100, 16)
    h = Histogram(4, counts, int(counts.sum()))
    assert histogram_to_distribution(h).probs.sum() == pytest.approx(1.0, abs=1e-12)


# --- qBAS ---


def test_qbas_perfect_generator():
    pats = bas_patterns(BasSpec(2, 2))
    counts = np.zeros(16, dtype=int)
    for p in pats:
        counts[p] = 500
    s = qbas_score(Histogram(4, counts, 3000), pats)
    assert s == QbasScore(1.0, 1.0, 1.0)


def test_qbas_all_misses():
    pats = bas_patterns(BasSpec(2, 2))
    counts = np.zeros(16, dtype=int)
    counts[0b0001] = 3000
    s = qbas_score(Histogram(4, counts, 3000), pats)
    assert s.precision == 0.0 and s.f1 == 0.0


def test_qbas_single_mode():
    pats = bas_patterns(BasSpec(2, 2))
    counts = np.zeros(16, dtype=int)
    counts[0] = 3000
    s = qbas_score(Histogram(4, counts, 3000), pats)
    assert s.precision == 1.0
    assert s.recall == pytest.approx(1 / 6)
    assert s.f1 == pytest.approx(2 / 7)


def test_qbas_f1_range_property():
    pats = bas_patterns(BasSpec(2, 2))
    rng = np.random.default_rng(7)
    for _ in range(200):
        counts = rng.multinomial(300, np.full(16, 1 / 16))
        s = qbas_score(Histogram(4, counts, 300), pats)
        assert 0.0 <= s.f1 <= 1.0
        if s.f1 == 1.0:
            assert s.precision == 1.0 and s.recall == 1.0


def test_qbas_rejects_empty_patterns():
    with pytest.raises(ValueError):
        qbas_score(Histogram(1, np.array([1, 0]), 1), set())


@pytest.mark.parametrize("outside", [16, -1, -13])
def test_qbas_rejects_patterns_outside_register(outside):
    # unchecked, -13 would index the counts from the end and count the shots
    # on state 3 twice, and 16 would raise an IndexError that names no pattern
    counts = np.zeros(16, dtype=np.int64)
    counts[3] = 10
    with pytest.raises(ValueError, match=rf"patterns \[{outside}\] lie outside the 4-qubit"):
        qbas_score(Histogram(4, counts, 10), {3, outside})
