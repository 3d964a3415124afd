import re
import reprlib
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddqcl import readout, sim
from ddqcl.ansatz import Ansatz, Topology, execute, line_topology, star_topology
from ddqcl.metrics import histogram_to_distribution
from ddqcl.readout import PerQubitFlipModel, correct, synth_confusion
from ddqcl.sim import (
    MAX_QUBITS,
    apply_cz,
    apply_ry,
    check_counts,
    check_integer,
    check_probabilities,
    check_real,
    check_shots,
    cz_gate,
    probabilities,
    product_state,
    ry_gate,
    sample,
)

INT64_MAX = int(np.iinfo(np.int64).max)

# --- states and probability vectors ---


def test_state_requires_normalization():
    with pytest.raises(ValueError, match="sum to"):
        probabilities(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="sum to"):
        probabilities(np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_state_is_real_float64():
    with pytest.raises(ValueError, match="float64"):
        probabilities(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="float64"):
        probabilities(np.array([1, 0]))
    with pytest.raises(ValueError, match="float64"):
        probabilities(np.array([1.0, 0.0], dtype=np.float32))
    with pytest.raises(ValueError, match="sum to"):
        probabilities(np.array([np.nan, 0.0]))


@pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 1), (3, 2)])
def test_probabilities_rejects_shape_not_one_axis_per_qubit(shape):
    amp = np.zeros(shape)
    amp.flat[0] = 1.0
    with pytest.raises(ValueError, match=r"shape \(2,\)\*N"):
        probabilities(amp)


def test_qubit_count_bounds():
    with pytest.raises(ValueError, match="n_qubits"):
        probabilities(np.array(1.0))  # zero axes: no qubits
    # a broadcast view: 21 axes of length 2 without 16 MiB behind them
    with pytest.raises(ValueError, match="n_qubits"):
        probabilities(np.broadcast_to(np.float64(0.0), (2,) * (MAX_QUBITS + 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probabilities_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="sum to"):
        probabilities(np.array([[bad, 0.5], [0.5, 0.5]]))


@pytest.mark.parametrize(
    "probs, match",
    [
        (np.array([0.5, 0.6]), "sum to"),
        (np.array([0.25, 0.25, 0.25, 0.2]), "sum to"),
        # NaN would otherwise put every shot in bin 0
        (np.array([np.nan, 0.5, 0.25, 0.25]), "sum to"),
        # sums to 1; unchecked, 1000 shots drew [373, 0, 627, 0]
        (np.array([0.5, -0.1, 0.6, 0.0]), "non-negative"),
        (np.array([0.2, 0.3, 0.5]), r"2\^N probabilities for some N >= 1, got shape \(3,\)"),
        (np.array([1.0]), r"got shape \(1,\)"),
        (np.full((2, 2), 0.25), r"got shape \(2, 2\)"),
        # 21 qubits' worth of entries without 16 MiB behind them
        (np.broadcast_to(np.float64(0.0), (2 ** (MAX_QUBITS + 1),)), "n_qubits"),
    ],
    ids=["over-1", "under-1", "nan", "negative", "length-3", "length-1", "2-d", "too-wide"],
)
def test_sample_rejects_vector_not_summing_to_one(probs, match):
    # every refusal comes before the first draw: the generator is untouched
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=match):
        sample(probs, 10, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


# --- gate kernels: float64 (2,)*N arrays, written into buffers the caller owns ---

_RY = lambda t: np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]])


def _ry(amp, axis, theta, out):
    # the kernel on a gate built for this one call; `amp` is left as scratch
    apply_ry(ry_gate(amp, axis, out), theta)
    return out


def _cz(amp, qa, qb):
    apply_cz(cz_gate(amp, qa, qb))
    return amp


def _basis0(n):
    amp = np.zeros((2,) * n)
    amp[(0,) * n] = 1.0
    return amp


def test_ry_single_qubit_matches_matrix():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = rng.uniform(-10, 10)
        amp = rng.normal(size=2)
        amp = amp / np.linalg.norm(amp)
        expected = _RY(t) @ amp
        np.testing.assert_allclose(_ry(amp, 0, t, np.empty(2)), expected, atol=1e-12)


def test_ry_identity_at_zero():
    amp = _basis0(4)
    for q in range(4):
        amp = _ry(amp, q, 0.0, np.empty_like(amp))
    np.testing.assert_array_equal(amp, _basis0(4))


def test_ry_acts_on_named_qubit_only():
    # rotating qubit 0 of |000> by pi moves all mass to |100>
    out = _ry(_basis0(3), 0, np.pi, np.empty((2, 2, 2)))
    assert out[1, 0, 0] ** 2 == pytest.approx(1.0)


def test_ry_multi_qubit_matches_kron():
    rng = np.random.default_rng(1)
    for q in range(3):
        t = rng.uniform(0, 2 * np.pi)
        amp = rng.normal(size=8)
        amp = amp / np.linalg.norm(amp)
        ops = [np.eye(2)] * 3
        ops[q] = _RY(t)
        full = np.kron(np.kron(ops[0], ops[1]), ops[2])
        out = _ry(amp.reshape(2, 2, 2).copy(), q, t, np.empty((2, 2, 2)))
        np.testing.assert_allclose(out.reshape(-1), full @ amp, atol=1e-12)


def test_cz_negates_only_both_ones():
    amp = np.full((2, 2), 0.5)
    apply_cz(cz_gate(amp, 0, 1))  # in place
    np.testing.assert_array_equal(amp.reshape(-1), [0.5, 0.5, 0.5, -0.5])


def test_cz_symmetric_and_involutive():
    rng = np.random.default_rng(2)
    amp = rng.normal(size=(2, 2, 2))
    np.testing.assert_array_equal(_cz(amp.copy(), 0, 2), _cz(amp.copy(), 2, 0))
    np.testing.assert_array_equal(_cz(_cz(amp.copy(), 0, 2), 0, 2), amp)


# --- the kernels writing into their buffers, against the allocating ones they replaced ---


def _parent_ry(amp, qubit, theta):
    # the allocating kernel as it was before `out`: the reference, kept verbatim
    from math import cos, sin

    c, s = cos(theta / 2.0), sin(theta / 2.0)
    a0 = amp.take(0, axis=qubit)
    a1 = amp.take(1, axis=qubit)
    return np.stack([c * a0 - s * a1, s * a0 + c * a1], axis=qubit)


def _parent_cz(amp, qa, qb):
    out = amp.copy()
    sel = [slice(None)] * amp.ndim
    sel[qa] = 1
    sel[qb] = 1
    out[tuple(sel)] *= -1
    return out


def _check_ry_into_out(amp, qubit, theta):
    ref = _parent_ry(amp, qubit, theta)
    scratch, out = amp.copy(), np.full_like(amp, np.nan)
    apply_ry(ry_gate(scratch, qubit, out), theta)
    assert np.array_equal(out, ref), (amp.ndim, qubit, theta)
    # same IEEE operations, so the signs of zeros agree too
    assert np.array_equal(np.signbit(out), np.signbit(ref))


_angles = st.floats(-20.0, 20.0) | st.sampled_from([0.0, np.pi, 2 * np.pi, -np.pi])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), _angles, st.integers(0, 2**32 - 1))
def test_ry_into_out_matches_parent_kernel(n, theta, seed):
    # every qubit of widths 1-10: rows of 1 to 512 and leading blocks of 1 to
    # 512 entries, so both loop shapes of the kernel run
    amp = np.random.default_rng(seed).normal(size=(2,) * n)
    for q in range(n):
        _check_ry_into_out(amp, q, theta)


def test_ry_into_out_matches_parent_kernel_16_qubits():
    amp = np.random.default_rng(12).normal(size=(2,) * 16)
    for q, theta in enumerate(np.random.default_rng(13).uniform(-7, 14, 16)):
        _check_ry_into_out(amp, q, theta)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.data())
def test_cz_into_out_matches_parent_kernel(n, data):
    qa, qb = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    amp = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(2,) * n)
    ref = _parent_cz(amp, qa, qb)
    apply_cz(cz_gate(amp, qa, qb))
    assert np.array_equal(amp, ref) and np.array_equal(np.signbit(amp), np.signbit(ref))


@settings(max_examples=100, deadline=None)
@given(st.lists(_angles, min_size=1, max_size=10))
def test_product_state_matches_sequential_rotations(angles):
    # n parent Ry gates on |0...0>, including angles 0 and pi, whose factors
    # are exact zeros and ones, and angles outside [0, 2*pi)
    n = len(angles)
    ref = _basis0(n)
    for q, t in enumerate(angles):
        ref = _parent_ry(ref, q, t)
    got = product_state(np.array(angles))
    assert got.shape == (2,) * n and got.dtype == np.float64
    assert np.array_equal(got, ref)


# --- execute against a dense Kronecker-product matrix oracle ---


def _dense_ry(n, qubit, t):
    ops = [np.eye(2)] * n
    ops[qubit] = _RY(t)
    return reduce(np.kron, ops)


def _dense_cz(n, qa, qb):
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    return np.diag(np.where(bits[:, qa] & bits[:, qb], -1.0, 1.0))


def _dense_circuit(topo, layers, theta):
    # the documented layout, spelled out: Ry(q) for each qubit, then per layer
    # and per edge (a, b) in listed order CZ(a, b), Ry(a), Ry(b); rotation k
    # takes theta[k]
    n = topo.n_qubits
    angles = iter(theta)
    mats = [_dense_ry(n, q, next(angles)) for q in range(n)]
    for _ in range(layers):
        for a, b in topo.edges:
            mats += [_dense_cz(n, a, b), _dense_ry(n, a, next(angles)), _dense_ry(n, b, next(angles))]
    assert next(angles, None) is None
    return reduce(lambda v, m: m @ v, mats, _basis0(n).reshape(-1))


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["line", "star", "random"]))
    if kind == "line":
        topo = line_topology(n)
    elif kind == "star":
        topo = star_topology(n)
    else:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        pairs += [(b, a) for a, b in pairs]
        edges = draw(st.lists(st.sampled_from(pairs), unique_by=lambda e: frozenset(e),
                              max_size=8)) if pairs else []
        topo = Topology(n, tuple(edges))
    layers = draw(st.integers(0, 3)) if topo.edges else 0
    count = n + 2 * layers * len(topo.edges)
    angle = st.floats(0.0, 2 * np.pi, exclude_max=True)
    theta = np.array(draw(st.lists(angle, min_size=count, max_size=count)))
    return topo, layers, theta


@settings(max_examples=100, deadline=None)
@given(_circuits())
def test_execute_matches_dense_oracle(circuit):
    topo, layers, theta = circuit
    out = execute(Ansatz(topo, layers), theta)
    assert out.dtype == np.float64 and out.shape == (2,) * topo.n_qubits
    np.testing.assert_allclose(out.reshape(-1), _dense_circuit(topo, layers, theta),
                               rtol=0, atol=1e-12)


# --- execute and probabilities in a caller's buffers, bit for bit ---


_WORK_CASES = [
    (topology, n, layers)
    for topology in (line_topology, star_topology)
    for n in (1, 2, 5, 6)
    for layers in (0, 1, 2)
    if n > 1 or layers == 0  # entangling layers need an edge
]


@pytest.mark.parametrize("topology, n, layers", _WORK_CASES)
def test_execute_into_work_matches_fresh_call(topology, n, layers):
    a = Ansatz(topology(n), layers)
    rng = np.random.default_rng(n + 10 * layers)
    work = np.full((2, 2**n), np.nan)
    for _ in range(2):  # the second call overwrites the first: nothing stale survives
        theta = rng.uniform(-10, 10, a.param_count)
        got = execute(a, theta, work)
        ref = execute(a, theta)
        assert np.shares_memory(got, work) and got.shape == (2,) * n
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 4, 16])
def test_probabilities_into_out_matches_square(n):
    a = Ansatz(line_topology(n), 1 if n > 1 else 0)
    amp = execute(a, np.random.default_rng(n).uniform(0, 2 * np.pi, a.param_count))
    out = np.full(2**n, np.nan)
    assert probabilities(amp, out) is out
    assert out.tobytes() == (amp.reshape(-1) ** 2).tobytes()
    assert probabilities(amp).tobytes() == out.tobytes()


@pytest.mark.parametrize("shape", [(1,), (2, 8), (3, 5), (4, 2**16)])
def test_allocated_buffers_start_on_a_cache_line(shape):
    # where the heap puts a buffer must not decide how fast the kernels run
    buf = sim._aligned_empty(shape)
    assert buf.shape == shape and buf.dtype == np.float64 and buf.flags.c_contiguous
    assert buf.ctypes.data % 64 == 0


def test_execute_and_probabilities_allocate_aligned():
    a = Ansatz(line_topology(5), 1)
    amp = execute(a, np.random.default_rng(3).uniform(0, 2 * np.pi, a.param_count))
    assert amp.ctypes.data % 64 == 0
    assert probabilities(amp).ctypes.data % 64 == 0


def test_sample_frequencies_and_correction_allocate_aligned(monkeypatch):
    # the shot path's state-sized vectors start on a cache line too: the cdf
    # `sample` searches, the frequencies and the corrected vector
    offsets = []
    searchsorted = np.searchsorted

    def spy(a, v, *args, **kwargs):
        # the cdf is searched into the draws, or the draws into it: it is
        # the argument with 2^n entries (100 draws are never a power of two)
        cdf = a if len(a) == 2**n else v
        offsets.append(cdf.ctypes.data % 64)
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    for n in range(1, 9):
        probs = np.random.default_rng(n).dirichlet(np.ones(2**n))
        freq = histogram_to_distribution(sample(probs, 100, np.random.default_rng(0)))
        assert freq.ctypes.data % 64 == 0
        if readout._LAPACK is not None:  # without it the solve is np.linalg.solve's own array
            m = synth_confusion(PerQubitFlipModel.uniform(n, 0.02))
            assert correct(freq, m).ctypes.data % 64 == 0
    assert len(offsets) == 8 and not any(offsets)


@pytest.mark.parametrize(
    "work",
    [np.empty((2, 8), dtype=np.float32), np.empty((2, 16)), np.empty((3, 8)), np.empty((8, 2)).T],
    ids=["float32", "wide", "three-rows", "fortran"],
)
def test_execute_refuses_wrong_work(work):
    a = Ansatz(line_topology(3), 1)
    with pytest.raises(ValueError, match="work must be a C-contiguous float64"):
        execute(a, np.zeros(a.param_count), work)


@pytest.mark.parametrize("out", [np.empty(4, dtype=np.float32), np.empty(8), np.empty((2, 2))])
def test_probabilities_refuses_wrong_out(out):
    with pytest.raises(ValueError, match="out must be a C-contiguous float64"):
        probabilities(np.array([[0.6, 0.0], [0.0, 0.8]]), out)


# --- measurement ---


def test_probabilities_born_rule():
    amp = np.array([[0.6, 0.0], [0.0, 0.8]])
    p = probabilities(amp)
    assert p.dtype == np.float64 and p.shape == (4,)
    np.testing.assert_allclose(p, [0.36, 0.0, 0.0, 0.64])


def test_sample_deterministic_and_counts():
    d = np.array([0.1, 0.2, 0.3, 0.4])
    c1 = sample(d, 1000, np.random.default_rng(7))
    c2 = sample(d, 1000, np.random.default_rng(7))
    np.testing.assert_array_equal(c1, c2)
    assert c1.dtype == np.int64 and c1.shape == (4,) and c1.sum() == 1000


def test_sample_never_draws_zero_probability():
    d = np.array([0.0, 1.0, 0.0, 0.0])
    assert sample(d, 5000, np.random.default_rng(3))[1] == 5000


class _TopDraws:
    # a generator stub whose every uniform is the largest double below 1
    def random(self, k):
        return np.full(k, np.nextafter(1.0, 0.0))


def test_sample_never_draws_past_last_positive_outcome():
    # the cumsum of ten 0.1s is 0.9999999999999999, so a draw of 1 - 2**-53
    # lands past it; it must fall on outcome 9, not on a zero after it, when
    # the draws are fewer than 2^n and when they are as many or more
    for n, shots in [(4, 3), (4, 64), (12, 3), (12, 5000)]:
        d = np.array([0.1] * 10 + [0.0] * (2**n - 10))
        assert np.cumsum(d)[9] < 1.0
        counts = sample(d, shots, _TopDraws())
        np.testing.assert_array_equal(np.flatnonzero(counts), [9])
        assert counts[9] == shots


class _GivenDraws:
    # a generator stub that draws the given uniforms over and over
    def __init__(self, values):
        self.values = np.array(values)

    def random(self, k):
        return np.resize(self.values, k)


@pytest.mark.parametrize("shots", [3, 8])
def test_sample_counts_a_draw_on_a_cdf_entry_in_the_next_bin(shots):
    # a draw equal to cdf[i] lands in bin i + 1, where searchsorted's
    # side="right" puts it, whether the draws are fewer than 2^n or not: so a
    # draw of exactly 0.0 never lands on a leading zero-probability outcome
    d = np.array([0.0, 0.25, 0.25, 0.5])  # cdf 0, 0.25, 0.5, 1
    draws = [0.0, 0.25, 0.5, 0.75]
    counts = sample(d, shots, _GivenDraws(draws))
    expected = {3: [0, 1, 1, 1], 8: [0, 2, 2, 4]}[shots]
    np.testing.assert_array_equal(counts, expected)


def test_sample_converges_to_distribution():
    probs = np.array([0.05, 0.25, 0.3, 0.4])
    counts = sample(probs, 10**6, np.random.default_rng(11))
    np.testing.assert_allclose(counts / 10**6, probs, atol=3e-3)


def test_sample_rejects_bad_shots():
    d = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        sample(d, 0, np.random.default_rng(0))


class _NoDraws:
    # a generator stub that fails the test if anything is drawn from it
    def random(self, *args, **kwargs):
        raise AssertionError("drew from the generator")


@pytest.mark.parametrize(
    "shots, message",
    [
        (2**63, rf"shots must be in \[1, {INT64_MAX}\], got {2**63}$"),  # about 10^15 blocks
        (10**20, rf"shots must be in \[1, {INT64_MAX}\], got {10**20}$"),
        (3.0, r"shots must be an integer, got 3\.0$"),  # range() raised TypeError on it
        (np.float64(5), r"shots must be an integer, got np\.float64\(5\.0\)$"),
        ("7", r"shots must be an integer, got '7'$"),
        (-1, r"shots must be >= 1, got -1$"),
    ],
)
def test_sample_refuses_shots_before_drawing(shots, message):
    with pytest.raises(ValueError, match=message):
        sample(np.array([0.5, 0.5]), shots, _NoDraws())


def test_sample_takes_integer_shots_of_any_type():
    d = np.array([0.25, 0.75])
    expected = sample(d, 300, np.random.default_rng(4))
    for shots in (np.int64(300), np.uint16(300)):
        np.testing.assert_array_equal(sample(d, shots, np.random.default_rng(4)), expected)


@pytest.mark.parametrize("shots", [True, False, np.True_])
def test_check_shots_refuses_bools(shots):
    # `operator.index` takes True as 1: one shot where a flag was passed
    message = rf"^shots must be an integer, got {re.escape(repr(shots))}$"
    with pytest.raises(ValueError, match=message):
        check_shots(shots)


def test_sample_refuses_complex_probabilities_before_drawing():
    # a cast to float dropped the imaginary part with only a ComplexWarning
    with pytest.raises(ValueError, match=r"^probabilities must be real, got dtype complex128$"):
        sample(np.array([0.5, 0.5 + 0.25j]), 10, _NoDraws())


# --- the three input rules ---

_NOT_INTEGERS = [2.5, True, False, np.float64(2.0), "2", None, np.array(2.0), np.array([2])]


@pytest.mark.parametrize("value", _NOT_INTEGERS, ids=repr)
def test_check_integer_refuses_non_integers_and_bools(value):
    message = rf"^count must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        check_integer(value, "count", 0)


@pytest.mark.parametrize(
    "value", [3, np.int64(3), np.uint8(3), np.int32(3), np.array(3)], ids=repr
)
def test_check_integer_returns_a_python_int(value):
    got = check_integer(value, "count", 3, 3)
    assert got == 3 and type(got) is int


def test_check_integer_states_its_range():
    with pytest.raises(ValueError, match=r"^count must be >= 1, got 0$"):
        check_integer(0, "count")
    with pytest.raises(ValueError, match=r"^count must be >= -2, got -3$"):
        check_integer(-3, "count", -2)
    # below the range, the message names only the least value
    with pytest.raises(ValueError, match=r"^count must be >= 1, got -1$"):
        check_integer(-1, "count", 1, 7)
    with pytest.raises(ValueError, match=r"^count must be in \[0, 7\], got 8$"):
        check_integer(np.int64(8), "count", 0, 7)
    assert check_integer(10**30, "count") == 10**30  # no upper bound unless one is given
    assert check_integer(7, "count", 0, 7) == 7


_NOT_REALS = [True, False, np.True_, "0.5", None, 1j, np.complex128(1), np.array(0.5), [0.5]]


@pytest.mark.parametrize("value", _NOT_REALS, ids=repr)
def test_check_real_refuses_non_reals_and_bools(value):
    message = rf"^rate must be a number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        check_real(value, "rate")


@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, np.float32("inf"), 10**400, -(10**400)], ids=repr
)
def test_check_real_refuses_what_float64_cannot_hold_finitely(value):
    # 10**400 is an int float() raises OverflowError on, which the CLI would not print
    message = rf"^rate must be a finite number, got {re.escape(reprlib.repr(value))}$"
    with pytest.raises(ValueError, match=message):
        check_real(value, "rate")


@pytest.mark.parametrize(
    "value, expected",
    [
        (0.25, 0.25),
        (1, 1.0),
        (np.float64(0.25), 0.25),
        (np.float32(0.1), 0.10000000149011612),
        (np.int64(3), 3.0),
        (np.uint8(3), 3.0),
    ],
    ids=repr,
)
def test_check_real_returns_a_python_float(value, expected):
    got = check_real(value, "rate")
    assert got == expected and type(got) is float


def test_check_real_states_its_range():
    for ends, rule in [("[]", r"in \[0, 1\]"), ("[)", r"in \[0, 1\)"), ("(]", r"in \(0, 1\]")]:
        with pytest.raises(ValueError, match=rf"^rate must be {rule}, got -0\.5$"):
            check_real(-0.5, "rate", 0, 1, ends)
    with pytest.raises(ValueError, match=r"^rate must be in \[0, 0\.5\), got 0\.5$"):
        check_real(0.5, "rate", 0, 0.5, "[)")
    with pytest.raises(ValueError, match=r"^rate must be in \(0, 1\], got 0\.0$"):
        check_real(0, "rate", 0, 1, "(]")
    # with no upper end, the message names only the lower one
    with pytest.raises(ValueError, match=r"^rate must be > 0, got 0\.0$"):
        check_real(0.0, "rate", 0, np.inf, "(]")
    with pytest.raises(ValueError, match=r"^rate must be >= 0, got -1\.0$"):
        check_real(-1, "rate", 0)
    assert check_real(0, "rate", 0, 1, "[)") == 0.0
    assert check_real(1, "rate", 0, 1, "(]") == 1.0
    assert check_real(-1e308, "rate") == -1e308  # no range unless one is given


def test_check_probabilities_returns_the_float64_vector():
    vec = np.array([0.25, 0.75])
    assert check_probabilities(vec, "p") is vec  # a float64 vector is not copied
    got = check_probabilities([0, 1, 0, 0], "p")
    assert got.dtype == np.float64 and got.tolist() == [0.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "probs, message",
    [
        (np.array([0.5, 0.5j]), r"^p must be real, got dtype complex128$"),
        (np.array([0.5, 0.5, 0.0]), r"^expected 2\^N p for some N >= 1, got shape \(3,\)$"),
        (np.array([1.5, -0.5]), r"^p must be non-negative and sum to 1, not 1\.0$"),
        (np.array([0.5, 0.6]), r"^p must be non-negative and sum to 1, not 1\.1$"),
        (np.array([np.nan, 1.0]), r"^p must be non-negative and sum to 1, not nan$"),
        (np.array([np.inf, 0.0]), r"^p must be non-negative and sum to 1, not inf$"),
    ],
    ids=["complex", "length-3", "negative", "over-1", "nan", "inf"],
)
def test_check_probabilities_refuses(probs, message):
    with pytest.raises(ValueError, match=message):
        check_probabilities(probs, "p")


def _oracle_sample(probs, shots, rng):
    # one rng.random(shots) draw for all shots
    cdf = np.cumsum(probs)
    cdf[np.flatnonzero(probs)[-1] :] = 1.0
    outcomes = np.searchsorted(cdf, rng.random(shots), side="right")
    return np.bincount(outcomes, minlength=len(probs))


@st.composite
def _sample_cases(draw):
    n = draw(st.integers(1, 16))
    mix = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = mix.integers(0, 10, 2**n) * (mix.random(2**n) < draw(st.sampled_from([0.1, 1.0])))
    weights[draw(st.integers(0, 2**n - 1))] += 1
    block = sim._BLOCK_DRAWS
    # a block of fewer draws than 2^n is counted by searching the cdf for
    # each draw, one of 2^n draws or more by searching the draws for each
    # cdf entry; shots past a block mix the two when 2^n <= block
    shots = draw(st.one_of(st.integers(1, 2**n - 1), st.integers(2**n, 2**n + 3 * block + 7)))
    return weights / weights.sum(), shots


@settings(max_examples=60, deadline=None)
@given(_sample_cases(), st.integers(0, 2**32 - 1))
def test_sample_matches_single_draw_oracle(case, seed):
    # blocks of draws consume the single draw's exact stream: same counts, same state
    dist, shots = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    counts = sample(dist, shots, rng)
    np.testing.assert_array_equal(counts, _oracle_sample(dist, shots, oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_sample_memory_is_bounded():
    # one draw for a million shots would hold 16 MB of uniforms and outcomes
    d = np.full(512, 1 / 512)
    tracemalloc.start()
    try:
        counts = sample(d, 1_000_000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 1_000_000
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "counts",
    [
        np.array([2**62, 2**62, 0, 0]),  # the int64 sum wraps to -2**63
        np.array([2**63, 0, 0, 2**63], dtype=np.uint64),  # the uint64 sum wraps to 0
        np.array([INT64_MAX, 1]),
        np.full(2**20, 2**43),  # 2^20 entries, each just over INT64_MAX / 2^20
    ],
    ids=["int64", "uint64", "one-over", "20-qubits"],
)
def test_check_counts_refuses_a_total_past_int64(counts):
    with pytest.raises(ValueError, match=f"counts total more than {INT64_MAX} shots"):
        check_counts(counts)


@pytest.mark.parametrize(
    "counts",
    [
        np.array([INT64_MAX - 3, 1, 1, 1]),
        np.array([INT64_MAX, 0], dtype=np.uint64),
        np.full(2**20, 2**43 - 1),  # each entry at INT64_MAX / 2^20, rounded down
    ],
    ids=["int64", "uint64", "20-qubits"],
)
def test_check_counts_admits_a_total_of_int64_max(counts):
    assert check_counts(counts) == len(counts).bit_length() - 1
