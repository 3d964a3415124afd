import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddqcl.bas import BasSpec, bas_patterns, bas_target_distribution
from ddqcl.metrics import (
    DEFAULT_EPSILON,
    QbasScore,
    histogram_to_distribution,
    js_divergence,
    kl_divergence,
    qbas_score,
)

UNIFORM16 = np.full(16, 1 / 16)
BAS22 = bas_target_distribution(BasSpec(2, 2))
DELTA0 = np.eye(16)[0]


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
    return p / p.sum()


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
    x = np.array([1.0, 0.0])
    m = np.array([1.0, 0.0])
    assert kl_divergence(x, m) == 0.0


def test_kl_clamps_model_zeros():
    # the zero model entry counts as DEFAULT_EPSILON, no more and no less
    x = np.array([0.5, 0.5])
    m = np.array([1.0, 0.0])
    want = _kl_oracle(x, [1.0, DEFAULT_EPSILON])
    assert kl_divergence(x, m) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.5 * math.log(0.5 / 1.0) + 0.5 * math.log(0.5 / 1e-8))


def test_kl_nonnegative_gibbs():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p, q = _rand_dist(rng), _rand_dist(rng)
        assert kl_divergence(p, q) >= -1e-12


def test_kl_matches_oracle_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p, q = _rand_dist(rng), _rand_dist(rng)
        assert kl_divergence(p, q) == pytest.approx(_kl_oracle(p, q), abs=1e-12)


def test_kl_errors():
    with pytest.raises(ValueError, match="shape mismatch"):
        kl_divergence(BAS22, np.full(4, 0.25))


# --- JS ---


def test_js_identical_is_zero():
    assert js_divergence(BAS22, BAS22) == 0.0


def test_js_disjoint_deltas_saturate():
    a, b = np.eye(16)[0], np.eye(16)[15]
    assert js_divergence(a, b) == pytest.approx(math.log(2), abs=1e-12)
    assert js_divergence(a, b, np.empty((3, 16))) == js_divergence(a, b)


def test_js_bas_vs_uniform():
    got = js_divergence(BAS22, UNIFORM16)
    assert got == pytest.approx(_js_oracle(BAS22, UNIFORM16), abs=1e-12)
    assert got == pytest.approx(0.29030475547625423, abs=1e-12)


def test_js_delta_vs_bas():
    got = js_divergence(DELTA0, BAS22)
    assert got == pytest.approx(_js_oracle(DELTA0, BAS22), abs=1e-12)
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
        assert js_divergence(p, p.copy()) <= 1e-12
        q = _rand_dist(rng)
        if np.max(np.abs(p - q)) > 1e-6:
            assert js_divergence(p, q) > 1e-12


def test_js_width_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        js_divergence(BAS22, np.full(4, 0.25))


def _parent_js(p, q):
    # the allocating formula js_divergence had before it ran in a scratch buffer
    m = 0.5 * (p + q)
    out = 0.0
    for x in (p, q):
        mask = x > 0
        out += 0.5 * float(np.sum(x[mask] * (np.log(x[mask]) - np.log(m[mask]))))
    return out


def _support(draw, n):
    # a random mask over n entries with at least one entry in and one out
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    i = draw(st.integers(0, n - 1))
    mask[i], mask[(i + 1) % n] = True, False
    return mask


@st.composite
def _js_pairs(draw):
    # two probability vectors, with exact zeros in p, in q, in both, or with
    # disjoint supports (JS = ln 2)
    n = draw(st.integers(2, 40))
    weights = st.lists(st.floats(1e-12, 1.0), min_size=n, max_size=n)
    p, q = np.array(draw(weights)), np.array(draw(weights))
    kind = draw(st.sampled_from(["zeros in p", "zeros in q", "zeros in both", "disjoint"]))
    in_p = _support(draw, n)
    if kind != "zeros in q":
        p[~in_p] = 0.0
    if kind == "disjoint":
        q[in_p] = 0.0
    elif kind != "zeros in p":
        q[~_support(draw, n)] = 0.0
    return p / p.sum(), q / q.sum()


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=150, deadline=None)
@given(_js_pairs())
def test_js_in_work_matches_parent_formula(pair):
    p, q = pair
    work = np.full((3, len(p)), np.nan)
    for a, b in ((p, q), (q, p)):  # the second call reuses the scratch
        assert _bits(js_divergence(a, b, work)) == _bits(_parent_js(a, b))
        assert _bits(js_divergence(a, b)) == _bits(_parent_js(a, b))


@pytest.mark.parametrize("work", [np.empty((3, 8)), np.empty((2, 16)), np.empty((3, 16), dtype=np.float32)])
def test_js_refuses_wrong_work(work):
    with pytest.raises(ValueError, match="work must be a C-contiguous float64"):
        js_divergence(UNIFORM16, BAS22, work)


# --- histogram conversion ---


def test_histogram_to_distribution_examples():
    counts = np.eye(16, dtype=np.int64)[0] * 3000
    np.testing.assert_array_equal(histogram_to_distribution(counts), DELTA0)
    d2 = histogram_to_distribution(np.array([1, 0, 0, 1]))
    assert d2.dtype == np.float64
    np.testing.assert_allclose(d2, [0.5, 0, 0, 0.5])


def test_histogram_normalization_identity():
    rng = np.random.default_rng(6)
    counts = rng.integers(0, 100, 16)
    assert histogram_to_distribution(counts).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "counts, match",
    [
        (np.zeros(16, dtype=np.int64), "shots must be >= 1, got 0"),
        (np.ones(1, dtype=np.int64), r"2\^N counts for some N >= 1, got shape \(1,\)"),
        (np.ones(3, dtype=np.int64), r"2\^N counts for some N >= 1, got shape \(3,\)"),
        (np.ones(12, dtype=np.int64), r"2\^N counts for some N >= 1, got shape \(12,\)"),
        (np.array([3, -1, 0, 0]), "non-negative"),
        (np.array([0.3, 0.3]), "counts must be integers, got float64"),
        (np.ones((2, 2), dtype=np.int64), r"got shape \(2, 2\)"),
    ],
    ids=["zero-shots", "length-1", "length-3", "length-12", "negative", "float", "2-d"],
)
def test_histogram_to_distribution_rejects_bad_counts(counts, match):
    with pytest.raises(ValueError, match=match):
        histogram_to_distribution(counts)


# --- qBAS ---


def test_qbas_perfect_generator():
    pats = bas_patterns(BasSpec(2, 2))
    counts = np.zeros(16, dtype=int)
    for p in pats:
        counts[p] = 500
    s = qbas_score(counts, pats)
    assert s == QbasScore(1.0, 1.0, 1.0)


def test_qbas_all_misses():
    pats = bas_patterns(BasSpec(2, 2))
    counts = np.zeros(16, dtype=int)
    counts[0b0001] = 3000
    s = qbas_score(counts, pats)
    assert s.precision == 0.0 and s.f1 == 0.0


def test_qbas_single_mode():
    pats = bas_patterns(BasSpec(2, 2))
    counts = np.zeros(16, dtype=int)
    counts[0] = 3000
    s = qbas_score(counts, pats)
    assert s.precision == 1.0
    assert s.recall == pytest.approx(1 / 6)
    assert s.f1 == pytest.approx(2 / 7)


def test_qbas_f1_range_property():
    pats = bas_patterns(BasSpec(2, 2))
    rng = np.random.default_rng(7)
    for _ in range(200):
        counts = rng.multinomial(300, np.full(16, 1 / 16))
        s = qbas_score(counts, pats)
        assert 0.0 <= s.f1 <= 1.0
        if s.f1 == 1.0:
            assert s.precision == 1.0 and s.recall == 1.0


def test_qbas_rejects_empty_patterns():
    with pytest.raises(ValueError):
        qbas_score(np.array([1, 0]), set())


def _negative_off_patterns():
    # unchecked, a count of -5 off the patterns would make precision 10/5 = 2
    counts = np.zeros(16, dtype=np.int64)
    counts[[0, 15]] = 5
    counts[1] = -5
    return counts


@pytest.mark.parametrize(
    "counts, match",
    [
        (_negative_off_patterns(), "non-negative"),
        (np.zeros(16, dtype=np.int64), "shots must be >= 1, got 0"),
        # unchecked, these would score precision 0.0 with recall 1.0
        (np.array([0.4, 0.9]), "counts must be integers, got float64"),
        (np.ones(3, dtype=np.int64), r"2\^N counts for some N >= 1, got shape \(3,\)"),
    ],
    ids=["negative", "zero-shots", "float", "length-3"],
)
def test_qbas_rejects_bad_counts(counts, match):
    with pytest.raises(ValueError, match=match):
        qbas_score(counts, {0, 15})


def test_histogram_and_qbas_refuse_counts_whose_total_wraps_int64():
    # the int64 sum of these is -2**63: unchecked, the frequencies read
    # [-0.5, -0.5, -0, -0], and qBAS precision -0.5 and F1 -2.0
    counts = np.array([2**62, 2**62, 0, 0])
    with pytest.raises(ValueError, match="counts total more than"):
        histogram_to_distribution(counts)
    with pytest.raises(ValueError, match="counts total more than"):
        qbas_score(counts, {0, 3})


@pytest.mark.parametrize("outside", [16, -1, -13])
def test_qbas_rejects_patterns_outside_register(outside):
    # unchecked, -13 would index the counts from the end and count the shots
    # on state 3 twice, and 16 would raise an IndexError that names no pattern
    counts = np.zeros(16, dtype=np.int64)
    counts[3] = 10
    with pytest.raises(ValueError, match=rf"patterns \[{outside}\] lie outside the 4-qubit"):
        qbas_score(counts, {3, outside})
