"""Readout-error channel, calibration, and correction tests."""

import copy
import gc
import os
import pickle
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddqcl import readout
from ddqcl.bas import BasSpec, bas_patterns, bas_target_distribution
from ddqcl.metrics import histogram_to_distribution, kl_divergence, qbas_score
from ddqcl.readout import (
    ConfusionMatrix,
    PerQubitFlipModel,
    apply_channel_exact,
    apply_channel_sampled,
    calibrate,
    correct,
    synth_confusion,
)

# --- flip model ---


def test_uniform_model():
    m = PerQubitFlipModel.uniform(3, 0.05, 0.1)
    assert m.n_qubits == 3
    assert m.p10 == (0.05, 0.05, 0.05)
    assert m.p01 == (0.1, 0.1, 0.1)


def test_uniform_symmetric_default():
    m = PerQubitFlipModel.uniform(2, 0.03)
    assert m.p01 == (0.03, 0.03)


@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), "2"], ids=repr)
def test_uniform_model_refuses_a_non_integer_width(value):
    # True made a one-qubit model, and 2.5 a TypeError from tuple repetition
    with pytest.raises(ValueError, match=r"^n_qubits must be an integer, got "):
        PerQubitFlipModel.uniform(value, 0.05)


def test_uniform_model_takes_a_numpy_width():
    assert PerQubitFlipModel.uniform(np.int64(3), 0.05) == PerQubitFlipModel.uniform(3, 0.05)


def test_model_validation():
    with pytest.raises(ValueError):
        PerQubitFlipModel((0.5,), (0.0,))  # rate must stay below one half
    with pytest.raises(ValueError):
        PerQubitFlipModel((-0.01,), (0.0,))
    with pytest.raises(ValueError):
        PerQubitFlipModel((0.05, 0.05), (0.05,))  # length mismatch
    with pytest.raises(ValueError):
        PerQubitFlipModel((), ())


@pytest.mark.parametrize("rate", ["0.05", True, None, np.nan, np.inf], ids=repr)
def test_model_refuses_a_rate_that_is_not_a_number(rate):
    # `float(p)` took the string and the bool
    with pytest.raises(ValueError, match=r"^p01 must be a (finite )?number, got "):
        PerQubitFlipModel((0.05,), (rate,))


def test_model_stores_its_rates_as_floats():
    model = PerQubitFlipModel((np.float32(0.25), 0), [np.float64(0.125), np.int64(0)])
    assert model.p10 == (0.25, 0.0) and model.p01 == (0.125, 0.0)
    assert {type(p) for p in model.p10 + model.p01} == {float}


# --- synthesized confusion matrix ---


def test_synth_identity_when_noiseless():
    m = synth_confusion(PerQubitFlipModel.uniform(3, 0.0))
    np.testing.assert_array_equal(m.entries, np.eye(8))
    assert m.n_qubits == 3


def test_synth_single_qubit_block():
    m = synth_confusion(PerQubitFlipModel((0.05,), (0.10,)))
    np.testing.assert_allclose(m.entries, [[0.95, 0.10], [0.05, 0.90]], atol=1e-15)


def test_synth_matches_kron_oracle():
    model = PerQubitFlipModel((0.05, 0.02), (0.03, 0.07))
    blocks = [
        np.array([[1 - p10, p01], [p10, 1 - p01]])
        for p10, p01 in zip(model.p10, model.p01)
    ]
    m = synth_confusion(model)
    np.testing.assert_allclose(m.entries, reduce(np.kron, blocks), atol=1e-15)
    # qubit 0 is the outermost factor: p(read 00 | true 10) = p01[0] * (1 - p10[1])
    assert m.entries[0, 2] == pytest.approx(0.03 * 0.98)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    *[st.lists(st.floats(0.0, 0.45), min_size=n, max_size=n)] * 2)))
def test_channel_condition_number_is_the_blocks_product(rates):
    # checked at validation without the 2^n x 2^n matrix: the singular
    # values of a Kronecker product are products of its factors'
    model = PerQubitFlipModel(*rates)
    dense = np.linalg.cond(synth_confusion(model).entries)
    assert model.condition_number == pytest.approx(dense, rel=1e-9)


def test_synth_refuses_register_too_wide_to_correct(monkeypatch):
    # 13 qubits would mean a 512 MiB Kronecker product, then its copy and SVD,
    # and 16 qubits 32 GiB: refused, as `calibrate` refuses it, before either
    def no_product(*args):
        raise AssertionError("the Kronecker product ran before the width was checked")

    monkeypatch.setattr(np, "kron", no_product)
    with pytest.raises(ValueError, match=r"13 qubits .* 8192x8192 .* cap is 12 qubits"):
        synth_confusion(PerQubitFlipModel.uniform(13, 0.05))


def test_synth_columns_stochastic():
    m = synth_confusion(PerQubitFlipModel.uniform(4, 0.05, 0.02))
    np.testing.assert_allclose(m.entries.sum(axis=0), np.ones(16), atol=1e-12)
    assert np.all(m.entries >= 0)


def test_synth_diagonal_value():
    m = synth_confusion(PerQubitFlipModel.uniform(2, 0.05))
    assert m.entries[0, 0] == pytest.approx(0.95**2)


# --- exact channel ---


def test_exact_channel_identity():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    m = synth_confusion(PerQubitFlipModel.uniform(2, 0.0))
    np.testing.assert_allclose(apply_channel_exact(p, m), p, atol=1e-15)


def test_exact_channel_delta_gives_column():
    m = synth_confusion(PerQubitFlipModel.uniform(2, 0.05, 0.02))
    out = apply_channel_exact(np.eye(4)[3], m)
    np.testing.assert_allclose(out, m.entries[:, 3], atol=1e-15)


def test_exact_channel_preserves_mass():
    rng = np.random.default_rng(0)
    m = synth_confusion(PerQubitFlipModel.uniform(3, 0.04, 0.08))
    for _ in range(20):
        p = rng.random(8)
        p /= p.sum()
        out = apply_channel_exact(p, m)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_channel_width_mismatch():
    p = np.full(4, 0.25)
    m = synth_confusion(PerQubitFlipModel.uniform(3, 0.05))
    with pytest.raises(ValueError, match=r"expected 8 probabilities for 3 qubits, got shape \(4,\)"):
        apply_channel_exact(p, m)


# --- sampled channel ---


def test_sampled_channel_noiseless_is_identity():
    counts = np.array([100, 0, 250, 650])
    out = apply_channel_sampled(counts, PerQubitFlipModel.uniform(2, 0.0),
                                np.random.default_rng(0))
    np.testing.assert_array_equal(out, counts)


def test_sampled_channel_deterministic_per_seed():
    counts = np.array([500, 300, 150, 50])
    model = PerQubitFlipModel.uniform(2, 0.05, 0.02)
    a = apply_channel_sampled(counts, model, np.random.default_rng(7))
    b = apply_channel_sampled(counts, model, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_sampled_channel_preserves_shots():
    out = apply_channel_sampled(np.array([123, 456, 401, 20]),
                                PerQubitFlipModel.uniform(2, 0.3, 0.3), np.random.default_rng(1))
    assert out.dtype == np.int64 and out.shape == (4,)
    assert int(out.sum()) == 1000


def test_sampled_channel_single_qubit_binomial():
    # all shots prepared in |0>, p10 = 0.05: reads of 1 ~ Binomial(1e6, 0.05)
    shots = 1_000_000
    out = apply_channel_sampled(np.array([shots, 0]), PerQubitFlipModel((0.05,), (0.0,)),
                                np.random.default_rng(2))
    sigma = np.sqrt(shots * 0.05 * 0.95)  # ~218
    assert abs(out[1] - 0.05 * shots) < 3 * sigma


def test_sampled_channel_matches_exact_in_expectation():
    shots = 200_000
    model = PerQubitFlipModel.uniform(2, 0.05, 0.02)
    out = apply_channel_sampled(np.array([0, 0, shots, 0]), model, np.random.default_rng(3))
    expected = apply_channel_exact(np.eye(4)[2], synth_confusion(model))
    np.testing.assert_allclose(out / shots, expected, atol=5e-3)


def test_sampled_channel_width_mismatch():
    with pytest.raises(ValueError, match=r"expected 8 counts for 3 qubits, got shape \(4,\)"):
        apply_channel_sampled(np.array([1000, 0, 0, 0]), PerQubitFlipModel.uniform(3, 0.05),
                              np.random.default_rng(0))


@pytest.mark.parametrize(
    "counts, match",
    [
        (np.ones((2, 2), dtype=np.int64), r"2\^N counts for some N >= 1, got shape \(2, 2\)"),
        (np.array([10, -5, 0, 0]), "non-negative"),  # would drop 5 shots of state 0
        (np.array([0.5, 0.0, 0.0, 0.5]), "counts must be integers, got float64"),
        (np.zeros(4, dtype=np.int64), "shots must be >= 1, got 0"),
    ],
    ids=["shape", "negative", "float", "zero-shots"],
)
def test_sampled_channel_rejects_bad_counts(counts, match):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=match):
        apply_channel_sampled(counts, PerQubitFlipModel.uniform(2, 0.05), rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("dtype", [np.uint64, np.int32, np.uint8])
def test_count_consumers_give_the_int64_result_for_any_integer_dtype(dtype):
    # check_counts admits every integer dtype, so each function that takes
    # counts must give what it gives for the int64 counts `sample` returns;
    # unsigned counts made the sampled channel raise a TypeError
    counts = np.array([200, 0, 57, 3, 0, 255, 1, 9])
    other = counts.astype(dtype)
    freqs = histogram_to_distribution(other)
    np.testing.assert_array_equal(freqs, histogram_to_distribution(counts))
    assert qbas_score(other, {0, 3, 5}) == qbas_score(counts, {0, 3, 5})
    model = PerQubitFlipModel((0.1, 0.0, 0.3), (0.05, 0.2, 0.0))
    expected = apply_channel_sampled(counts, model, np.random.default_rng(2))
    read = apply_channel_sampled(other, model, np.random.default_rng(2))
    assert read.dtype == np.int64
    np.testing.assert_array_equal(read, expected)


# --- sampled channel against a per-outcome oracle ---


def _oracle_channel(counts, model, rng):
    # one rng.random((c, n)) draw per basis state with c > 0 counts, in order
    n = model.n_qubits
    p10 = np.array(model.p10)
    p01 = np.array(model.p01)
    out = np.zeros_like(counts)
    for x in range(2**n):
        c = int(counts[x])
        if c == 0:
            continue
        bits = np.array([(x >> (n - 1 - q)) & 1 for q in range(n)])
        flip_prob = np.where(bits == 0, p10, p01)
        flips = rng.random((c, n)) < flip_prob
        read = bits[None, :] ^ flips
        y = read @ (1 << np.arange(n - 1, -1, -1))
        out += np.bincount(y, minlength=2**n)
    return out


@st.composite
def _channel_cases(draw):
    n = draw(st.integers(1, 10))
    rate = st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True))
    p10 = draw(st.lists(rate, min_size=n, max_size=n))
    p01 = draw(st.lists(rate, min_size=n, max_size=n))
    block = readout._FLIP_BLOCK_DRAWS // n
    shots = draw(st.integers(2 * block + 1, 4 * block))  # at least 3 blocks
    support = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=40, unique=True))
    weights = draw(st.lists(st.integers(0, 5), min_size=len(support), max_size=len(support)))
    weights[0] += 1  # keep at least one state with counts
    mix = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.zeros(2**n, dtype=np.int64)
    counts[support] = mix.multinomial(shots, np.array(weights) / sum(weights))
    return counts, PerQubitFlipModel(tuple(p10), tuple(p01))


@settings(max_examples=60, deadline=None)
@given(_channel_cases(), st.integers(0, 2**32 - 1))
def test_sampled_channel_matches_per_outcome_oracle(case, seed):
    # the blocked draw consumes the oracle's exact stream: same counts, same state
    counts, model = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = apply_channel_sampled(counts, model, rng)
    np.testing.assert_array_equal(out, _oracle_channel(counts, model, oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sampled_channel_matches_oracle_where_a_block_meets_a_state(offset):
    # the first state's run ends one shot before, at, or one shot after the
    # end of the first block: a block that prepares one state and one that
    # prepares two, against the same oracle
    model = PerQubitFlipModel((0.3, 0.1), (0.2, 0.4))
    block = readout._FLIP_BLOCK_DRAWS // 2
    counts = np.array([0, block + offset, 7, 0], dtype=np.int64)
    rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    out = apply_channel_sampled(counts, model, rng)
    np.testing.assert_array_equal(out, _oracle_channel(counts, model, oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_calibrate_matches_per_outcome_oracle():
    model = PerQubitFlipModel((0.0, 0.04, 0.2), (0.1, 0.0, 0.07))
    shots = 3 * (readout._FLIP_BLOCK_DRAWS // 3) + 17  # 3 full blocks and a partial one per state
    oracle_rng = np.random.default_rng(11)
    expected = np.empty((8, 8))
    for x in range(8):
        prepared = np.zeros(8, dtype=np.int64)
        prepared[x] = shots
        expected[:, x] = _oracle_channel(prepared, model, oracle_rng) / shots
    m = calibrate(model, shots, np.random.default_rng(11))
    np.testing.assert_array_equal(m.entries, expected)


def _traced_calibration(monkeypatch, model, shots, rng):
    # calibrate `model` on `rng`; returns the matrix and, per generator the
    # experiments drew from, the basis states it prepared, in order.  An
    # experiment is known by where its draws start: basis state x starts
    # where `rng` stands after the x experiments before it
    walk, started_by = copy.deepcopy(rng), {}
    for x in range(2**model.n_qubits):
        started_by[pickle.dumps(walk.bit_generator.state)] = x
        walk.random(shots * model.n_qubits)
    prepared_on = {}
    flip_shots = readout._flip_shots

    def spy(shots, n, stream, prepared):  # called once per experiment, before it draws
        x = started_by[pickle.dumps(stream.bit_generator.state)]
        prepared_on.setdefault(id(stream), []).append(x)
        return flip_shots(shots, n, stream, prepared)

    monkeypatch.setattr(readout, "_flip_shots", spy)
    return calibrate(model, shots, rng), sorted(prepared_on.values())


@pytest.mark.parametrize(
    "cpus, ranges",
    [
        (2, [range(0, 4), range(4, 8)]),
        (3, [range(0, 2), range(2, 5), range(5, 8)]),
        (64, [range(x, x + 1) for x in range(8)]),  # at most one range per experiment
    ],
)
def test_calibrate_split_over_cpus_matches_one_range(monkeypatch, cpus, ranges):
    # each range draws from a copy of the generator advanced to its first
    # experiment: the matrix and the final state are those of one range
    model = PerQubitFlipModel((0.0, 0.04, 0.2), (0.1, 0.0, 0.07))
    shots = readout._FLIP_BLOCK_DRAWS // 3 + 5  # two blocks per experiment
    start = np.random.default_rng(21)
    start.integers(10, dtype=np.uint32)  # leaves a buffered 32-bit output, which doubles skip
    assert start.bit_generator.state["has_uint32"] == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_rng = copy.deepcopy(start)
    one, one_ranges = _traced_calibration(monkeypatch, model, shots, one_rng)
    assert one_ranges == [list(range(8))]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap often while they write the matrix
    try:
        split_rng = copy.deepcopy(start)
        split, split_ranges = _traced_calibration(monkeypatch, model, shots, split_rng)
    finally:
        sys.setswitchinterval(interval)
    assert split_ranges == [list(r) for r in ranges]
    assert split.entries.tobytes() == one.entries.tobytes()
    assert split_rng.bit_generator.state == one_rng.bit_generator.state


def test_calibrate_runs_other_generators_as_one_range(monkeypatch):
    # MT19937 cannot be advanced by a count of draws: its experiments run in
    # one range on the caller's generator, whatever the CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    model = PerQubitFlipModel((0.03, 0.2), (0.1, 0.0))
    rng = np.random.Generator(np.random.MT19937(0))
    oracle_rng = np.random.Generator(np.random.MT19937(0))
    expected = np.empty((4, 4))
    for x in range(4):
        prepared = np.zeros(4, dtype=np.int64)
        prepared[x] = 500
        expected[:, x] = _oracle_channel(prepared, model, oracle_rng) / 500
    m, ranges = _traced_calibration(monkeypatch, model, 500, rng)
    assert ranges == [[0, 1, 2, 3]]
    np.testing.assert_array_equal(m.entries, expected)
    state, oracle_state = rng.bit_generator.state["state"], oracle_rng.bit_generator.state["state"]
    np.testing.assert_array_equal(state["key"], oracle_state["key"])
    assert state["pos"] == oracle_state["pos"]


def test_calibrate_counts_cpus_without_affinity(monkeypatch):
    # a platform without sched_getaffinity splits over os.cpu_count() CPUs
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    model = PerQubitFlipModel.uniform(2, 0.1)
    _, ranges = _traced_calibration(monkeypatch, model, 50, np.random.default_rng(0))
    assert ranges == [[0, 1], [2, 3]]


def test_sampled_channel_memory_is_bounded():
    # drawing per block, not per shot: a million shots stay far below the
    # ~80 MB that one (shots, n) draw and its threshold array would take
    counts = np.zeros(512, dtype=np.int64)
    counts[[5, 300]] = 500_000
    model = PerQubitFlipModel.uniform(9, 0.05, 0.02)
    tracemalloc.start()
    try:
        out = apply_channel_sampled(counts, model, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.sum() == 1_000_000
    assert peak < 16 * 2**20


def test_calibration_memory_is_bounded():
    # each experiment draws in blocks too: two million shots per state stay
    # far below the 48 MB of one experiment's draws, flip sums and read-outs
    model = PerQubitFlipModel.uniform(1, 0.05, 0.02)
    tracemalloc.start()
    try:
        m = calibrate(model, 2_000_000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(m.entries, synth_confusion(model).entries, atol=1e-3)
    assert peak < 16 * 2**20


# --- calibration ---


def test_calibrate_noiseless_gives_identity():
    m = calibrate(PerQubitFlipModel.uniform(2, 0.0), 100, np.random.default_rng(0))
    np.testing.assert_array_equal(m.entries, np.eye(4))


def test_calibrate_converges_to_synth():
    model = PerQubitFlipModel.uniform(2, 0.05, 0.02)
    exact = synth_confusion(model).entries
    errs = []
    for shots in (100, 10_000, 1_000_000):
        m = calibrate(model, shots, np.random.default_rng(4))
        errs.append(np.max(np.abs(m.entries - exact)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-3


def test_calibrate_columns_stochastic():
    m = calibrate(PerQubitFlipModel.uniform(3, 0.05, 0.03), 1000,
                  np.random.default_rng(5))
    np.testing.assert_allclose(m.entries.sum(axis=0), np.ones(8), atol=1e-12)


def test_calibrate_rejects_bad_shots():
    with pytest.raises(ValueError):
        calibrate(PerQubitFlipModel.uniform(2, 0.05), 0, np.random.default_rng(0))


@pytest.mark.parametrize("shots", [2**63, 10**20])
def test_calibrate_refuses_shots_past_int64(shots):
    # an int64 count cannot hold them: unchecked, filling the first prepared
    # state's counts raised OverflowError
    with pytest.raises(ValueError, match=rf"shots must be in \[1, {2**63 - 1}\], got {shots}$"):
        calibrate(PerQubitFlipModel.uniform(2, 0.05), shots, np.random.default_rng(0))


def test_calibrate_refuses_register_too_wide_to_correct(monkeypatch):
    # 13 qubits would mean 8192 experiments filling a 512 MiB matrix, and the
    # 16 of a 4x4 image 65,536 experiments and 32 GiB: refused before either
    def no_experiment(*args):
        raise AssertionError("an experiment ran before the width was checked")

    monkeypatch.setattr(readout, "_flip_shots", no_experiment)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"13 qubits .* 8192x8192 .* cap is 12 qubits"):
            calibrate(PerQubitFlipModel.uniform(13, 0.05), 10, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_calibrate_requires_its_shots_and_rng():
    # an unseeded default stream would make the confusion matrix unreproducible
    model = PerQubitFlipModel.uniform(2, 0.05)
    with pytest.raises(TypeError):
        calibrate(model, 100)
    with pytest.raises(TypeError):
        calibrate(model, rng=np.random.default_rng(0))


# --- correction ---


def test_correct_identity_matrix_is_noop():
    d = np.array([0.25, 0.5, 0.125, 0.125])
    m = ConfusionMatrix(np.eye(4))
    np.testing.assert_allclose(correct(d, m), d, atol=1e-15)


def test_correct_inverts_exact_channel():
    rng = np.random.default_rng(6)
    m = synth_confusion(PerQubitFlipModel.uniform(3, 0.05, 0.02))
    for _ in range(100):
        p = rng.random(8)
        p /= p.sum()
        observed = apply_channel_exact(p, m)
        recovered = correct(observed, m)
        np.testing.assert_allclose(recovered, p, atol=1e-10)


def test_correct_clamps_negative_mass():
    # raw inversion of (0.96, 0.04) under a 5%/5% channel is (0.91, -0.01)/0.9,
    # so correction must clamp the negative entry and renormalize
    m = synth_confusion(PerQubitFlipModel.uniform(1, 0.05, 0.05))
    observed = np.array([0.96, 0.04])
    raw = np.linalg.solve(m.entries, observed)
    assert raw.min() < 0
    out = correct(observed, m)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("observed", [np.zeros(4), np.array([np.nan, 0.5, 0.25, 0.25])],
                         ids=["zero", "nan"])
def test_correct_rejects_no_positive_mass(observed):
    m = synth_confusion(PerQubitFlipModel.uniform(2, 0.05))
    with pytest.raises(ValueError, match="no positive mass"):
        correct(observed, m)


def test_correct_width_mismatch():
    m = synth_confusion(PerQubitFlipModel.uniform(2, 0.05))
    with pytest.raises(ValueError, match=r"expected 4 probabilities for 2 qubits, got shape \(8,\)"):
        correct(np.full(8, 1 / 8), m)


def test_correct_rejects_ill_conditioned():
    # a near-singular channel is refused where the matrix is built, so no
    # correction can ever be attempted with it
    with pytest.raises(ValueError, match="ill-conditioned"):
        synth_confusion(PerQubitFlipModel.uniform(4, 0.49999))


def test_calibrate_rejects_singular_estimate():
    # one shot per basis state at 45% flips: with this stream both columns read 1
    with pytest.raises(ValueError, match="ill-conditioned"):
        calibrate(PerQubitFlipModel.uniform(1, 0.45), 1, np.random.default_rng((1, 1)))


def test_confusion_entries_are_a_read_only_copy():
    # the conditioning check runs once, so the checked entries must not change
    source = np.eye(2)
    m = ConfusionMatrix(source)
    source[:, 1] = source[:, 0]  # the caller's array stays the caller's
    np.testing.assert_array_equal(m.entries, np.eye(2))
    with pytest.raises(ValueError, match="read-only"):
        m.entries[:, 1] = m.entries[:, 0]


@pytest.mark.parametrize("layout", ["C", "F", "list"])
def test_confusion_entries_are_column_major(layout):
    # held in the layout LAPACK reads, whatever the caller's layout
    rows = [[0.9, 0.2, 0.0, 0.0], [0.1, 0.8, 0.0, 0.0], [0.0, 0.0, 0.7, 0.4], [0.0, 0.0, 0.3, 0.6]]
    source = rows if layout == "list" else np.array(rows, order=layout)
    m = ConfusionMatrix(source)
    assert m.entries.flags.f_contiguous
    assert not m.entries.flags.writeable
    assert m.entries is not source
    np.testing.assert_array_equal(m.entries, rows)


@st.composite
def _correction_cases(draw):
    n = draw(st.integers(1, 10))
    rate = st.floats(0.001, 0.1)
    model = PerQubitFlipModel(tuple(draw(st.lists(rate, min_size=n, max_size=n))),
                              tuple(draw(st.lists(rate, min_size=n, max_size=n))))
    if draw(st.booleans()):
        m = synth_confusion(model)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m = calibrate(model, draw(st.integers(100, 300)), rng)
    # a sparse observed vector sends most of the solution negative, so the
    # clamp acts; pushed through the matrix, it leaves only rounding to clamp
    support = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.integers(1, 1000), min_size=len(support), max_size=len(support)))
    observed = np.zeros(2**n)
    observed[support] = np.array(weights) / sum(weights)
    if draw(st.booleans()):
        observed = np.ascontiguousarray(m.entries) @ observed
    return m, observed


_needs_lapack = pytest.mark.skipif(
    readout._LAPACK is None, reason="this numpy build exports no dgesv/dgetrs binding"
)


@pytest.mark.skipif(not hasattr(np.__config__, "CONFIG"), reason="numpy reports no build config")
def test_lapack_binding_found_on_openblas_builds():
    # a numpy that renames the symbols would leave the binding None: every
    # test above skipped, and each correction factoring M again, O(8^N)
    lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]["name"]
    assert lapack != "scipy-openblas" or readout._LAPACK is not None


def _solved_clamped_normalized(m, observed):
    raw = np.linalg.solve(np.ascontiguousarray(m.entries), observed)
    clamped = np.maximum(raw, 0.0)
    return clamped / clamped.sum()


@settings(max_examples=20, deadline=None)
@given(_correction_cases())
def test_correct_column_major_matches_row_major_solve(case):
    # dgetrs on the factors stored at construction gives what dgesv gives on
    # a C-ordered copy of the matrix: the corrected vector is the same, byte
    # for byte (on a numpy build without the binding, correct is that solve)
    m, observed = case
    assert (m._lu is None) == (readout._LAPACK is None)
    assert correct(observed, m).tobytes() == _solved_clamped_normalized(m, observed).tobytes()


@settings(max_examples=20, deadline=None)
@given(_correction_cases())
def test_correct_without_lapack_binding_matches_solve(case):
    # built where numpy exports no dgesv/dgetrs, the matrix holds no factors
    # and correct is np.linalg.solve, clamped and renormalized
    m, observed = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(readout, "_LAPACK", None)
        m = ConfusionMatrix(m.entries)
    assert m._lu is None
    assert correct(observed, m).tobytes() == _solved_clamped_normalized(m, observed).tobytes()


@_needs_lapack
def test_confusion_matrix_factored_once(monkeypatch):
    # one factorization where the matrix is built, then one dgetrs per
    # correction and no np.linalg.solve, which would factor it again each time
    gesv, getrs = readout._LAPACK
    factored, solved = [], []

    def counting_gesv(*args):
        factored.append(1)
        return gesv(*args)

    def counting_solve(*args, **kwargs):
        solved.append(1)
        return np.linalg.solve(*args, **kwargs)

    monkeypatch.setattr(readout, "_LAPACK", (counting_gesv, getrs))
    m = synth_confusion(PerQubitFlipModel.uniform(3, 0.05, 0.02))
    monkeypatch.setattr(readout.np.linalg, "solve", counting_solve)
    observed = apply_channel_exact(np.full(8, 1 / 8), m)
    for _ in range(100):
        correct(observed, m)
    assert len(factored) == 1 and not solved


@_needs_lapack
def test_factors_survive_copy_and_pickle():
    # a copy is rebuilt through the constructor: read-only entries and
    # factors of its own, whose addresses its solve reads, not the
    # original's, so the original can go and the copy still corrects
    m = synth_confusion(PerQubitFlipModel((0.05, 0.01, 0.08), (0.02, 0.03, 0.04)))
    observed = apply_channel_exact(np.array([0.3, 0.0, 0.1, 0.2, 0.0, 0.15, 0.05, 0.2]), m)
    expected = correct(observed, m).tobytes()
    copies = [copy.deepcopy(m), pickle.loads(pickle.dumps(m))]
    for c in copies:
        assert not c.entries.flags.writeable and c.entries.flags.f_contiguous
        np.testing.assert_array_equal(c.entries, m.entries)
        assert not np.shares_memory(c._lu[0], m._lu[0])
        assert not np.shares_memory(c._lu[1], m._lu[1])
        assert not c._lu[0].flags.writeable and not c._lu[1].flags.writeable
    del m
    gc.collect()
    for c in copies:
        assert correct(observed, c).tobytes() == expected


@_needs_lapack
def test_singular_factorization_is_refused():
    # a matrix with an exactly zero pivot would leave dgetrs dividing by
    # zero: refused where it is factored
    with pytest.raises(ValueError, match=r"dgesv could not factor .* \(info 2\)"):
        readout._factor(np.array([[1.0, 1.0], [0.0, 0.0]]))


_TWO_THREAD_CHILD = """
import ctypes
import numpy as np
from ddqcl.readout import PerQubitFlipModel, calibrate, correct
threads = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_num_threads64_
threads.restype = ctypes.c_int
rng = np.random.default_rng(3)
for n in (7, 9):
    m = calibrate(PerQubitFlipModel.uniform(n, 0.05), 200, np.random.default_rng((0, 1)))
    assert m._lu is not None
    for k in range(20):
        observed = rng.dirichlet(np.full(2**n, 0.2 if k % 2 else 5.0))
        raw = np.maximum(np.linalg.solve(m.entries, observed), 0.0)
        assert correct(observed, m).tobytes() == (raw / raw.sum()).tobytes(), (n, k)
print(threads())
"""


@_needs_lapack
def test_correct_matches_solve_at_two_blas_threads():
    # from 100 x 100 up the LU runs on more than one thread if it may, and
    # its last digits depend on the thread count; the factors built once give
    # the bits np.linalg.solve gives at the same count (a 7-qubit matrix is
    # where a plain dgetrf would not)
    src = str(Path(readout.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _TWO_THREAD_CHILD], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == min(2, os.cpu_count())  # OpenBLAS runs no more than the cores


def test_correct_rejects_complex_observed():
    # a complex "probability vector" came back before; the imaginary part
    # has no meaning here
    m = synth_confusion(PerQubitFlipModel.uniform(2, 0.05))
    with pytest.raises(ValueError, match="observed must be real, got dtype complex128"):
        correct(np.full(4, 0.25 + 0.1j), m)


def test_condition_number_computed_once_per_matrix(monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counting_cond(*args, **kwargs):
        calls.append(1)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    m = synth_confusion(PerQubitFlipModel.uniform(3, 0.05, 0.02))
    assert len(calls) == 1
    observed = apply_channel_exact(np.full(8, 1 / 8), m)
    for _ in range(100):
        correct(observed, m)
    assert len(calls) == 1


def test_correct_improves_sampled_estimates():
    # with a known channel, corrected frequencies should usually be closer to
    # the true distribution (in total variation) than the raw observed ones
    rng = np.random.default_rng(8)
    model = PerQubitFlipModel.uniform(4, 0.03)
    m = synth_confusion(model)
    truth = np.zeros(16)
    truth[[0, 3, 5, 10, 12, 15]] = 1 / 6
    wins = 0
    for _ in range(100):
        counts = rng.multinomial(3000, truth)
        observed = apply_channel_sampled(counts, model, rng)
        freq = observed / observed.sum()
        corrected = correct(freq, m)
        tv_raw = 0.5 * np.abs(freq - truth).sum()
        tv_cor = 0.5 * np.abs(corrected - truth).sum()
        wins += tv_cor < tv_raw
    assert wins >= 95


# --- uncorrected KL floor (the bound the readout acceptance gap rests on) ---


@pytest.mark.parametrize("p, floor_value", [(0.05, 0.194146), (0.10, 0.373095)])
def test_uncorrected_kl_floor(p, floor_value):
    # F = -ln max_x sum_{y in BAS} M[y, x] bounds KL(target || M P) from below
    # for every model P; on 2x2 BAS the symmetric channel attains it at P = target
    spec = BasSpec(2, 2)
    target = bas_target_distribution(spec)
    m = synth_confusion(PerQubitFlipModel.uniform(spec.n_qubits, p))
    rows = list(bas_patterns(spec))
    floor = -np.log(m.entries[rows].sum(axis=0).max())
    assert floor == pytest.approx(floor_value, abs=1e-6)
    rng = np.random.default_rng(9)
    for _ in range(500):
        model = rng.dirichlet(np.full(16, 0.3))
        assert kl_divergence(target, apply_channel_exact(model, m)) >= floor - 1e-12
    assert kl_divergence(target, apply_channel_exact(target, m)) == pytest.approx(
        floor, abs=1e-12
    )


# --- validation ---


def test_confusion_validation():
    with pytest.raises(ValueError, match="columns must sum to 1"):
        ConfusionMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-negative"):
        ConfusionMatrix(np.array([[1.1, 0.0], [-0.1, 1.0]]))


@pytest.mark.parametrize("shape", [(3, 3), (4, 2), (4,), (1, 1), (0, 0)],
                         ids=["3x3", "4x2", "1-d", "1x1", "0x0"])
def test_confusion_shape_is_square_power_of_two(shape):
    with pytest.raises(ValueError, match="2\\^N x 2\\^N matrix for some N >= 1"):
        ConfusionMatrix(np.full(shape, 1.0 / max(shape[0], 1)))


def test_confusion_rejects_complex_entries():
    # a cast to float would drop the imaginary part with only a warning
    with pytest.raises(ValueError, match="complex128"):
        ConfusionMatrix(np.array([[1.0, 0.0], [0.0, 1.0 + 0j]]))


def test_confusion_rejects_nan_entry():
    # NaN passes `< 0` and a `> tolerance` test; unchecked, np.linalg.cond then
    # raises LinAlgError: SVD did not converge, which names no fault
    with pytest.raises(ValueError, match="columns must sum to 1"):
        ConfusionMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
