import dataclasses
from math import cos, sin, tau

import numpy as np
import pytest

from ddqcl.ansatz import (
    _MIN_RUN,
    _ROTATE_MIN_QUBITS,
    Ansatz,
    GateProgram,
    Topology,
    execute,
    line_topology,
    star_topology,
    u2_block,
)
from ddqcl.bas import BasSpec, bas_target_distribution
from ddqcl.metrics import js_divergence
from ddqcl.sim import MAX_QUBITS, _aligned_empty, apply_cz, apply_ry, check_params, cz_gate
from ddqcl.sim import probabilities, product_state, ry_gate

# 4x4 matrix oracle for the two-qubit primitive, built from scratch
_CZ = np.diag([1.0, 1.0, 1.0, -1.0])


def _ry_mat(t):
    return np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]])


def _u2_oracle(theta, gamma, beta):
    i2 = np.eye(2)
    v = np.zeros(4)
    v[0] = 1.0
    v = np.kron(i2, _ry_mat(beta)) @ v
    v = np.kron(_ry_mat(gamma), i2) @ v
    v = _CZ @ v
    v = np.kron(_ry_mat(theta), i2) @ v
    return v


# --- topology ---


def test_presets():
    assert line_topology(4).edges == ((0, 1), (1, 2), (2, 3))
    assert star_topology(4).edges == ((0, 1), (0, 2), (0, 3))


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(2, ((0, 0),))
    with pytest.raises(ValueError):
        Topology(2, ((0, 2),))
    with pytest.raises(ValueError):
        Topology(3, ((0, 1), (1, 0)))


def test_topology_width_checked_where_built():
    # a register too wide to simulate is refused before any gate runs on it
    with pytest.raises(ValueError, match=rf"n_qubits must be in \[1, {MAX_QUBITS}\]"):
        line_topology(MAX_QUBITS + 1)
    with pytest.raises(ValueError, match=r"n_qubits must be >= 1, got 0$"):
        Topology(0, ())


# a float, a bool, a numpy float and a string: none of them is a count
_NOT_INTEGERS = [2.5, True, np.float64(2.0), "2"]


@pytest.mark.parametrize("value", _NOT_INTEGERS, ids=repr)
def test_topology_and_layers_refuse_non_integers(value):
    # unchecked, a float width or layer count passed and `execute` failed later
    with pytest.raises(ValueError, match=r"^n_qubits must be an integer, got "):
        Topology(value, ())
    with pytest.raises(ValueError, match=r"^qubit of edge \(1, .*\) must be an integer, got "):
        Topology(3, ((0, 1), (1, value)))
    with pytest.raises(ValueError, match=r"^layers must be an integer, got "):
        Ansatz(line_topology(3), value)


def test_topology_refuses_fractional_edge_ends():
    # `int` truncated each end, so this was the edge (0, 1)
    message = r"^qubit of edge \(0\.5, 1\) must be an integer, got 0\.5$"
    with pytest.raises(ValueError, match=message):
        Topology(3, ((0.5, 1),))
    with pytest.raises(ValueError, match=r"^qubit of edge \(0, 3\) must be in \[0, 2\], got 3$"):
        Topology(3, ((0, 3),))
    with pytest.raises(ValueError, match=r"^qubit of edge \(-1, 1\) must be >= 0, got -1$"):
        Topology(3, ((-1, 1),))


def test_numpy_integer_sizes_are_stored_as_ints():
    topo = Topology(np.int64(3), ((np.int64(0), np.uint8(1)), (np.int32(1), 2)))
    ansatz = Ansatz(topo, np.int64(2))
    assert topo == Topology(3, ((0, 1), (1, 2)))
    stored = [topo.n_qubits, *(q for edge in topo.edges for q in edge), ansatz.layers]
    assert [type(v) for v in stored] == [int] * 6
    assert ansatz.param_count == 11


# --- construction ---


def _spy_gates(monkeypatch):
    # record (kind, qubits, angle) for every gate execute applies; the first
    # rotation layer, built as a product state, counts as its n Ry gates
    import ddqcl.ansatz

    calls = []
    real_ry, real_cz = ddqcl.ansatz.apply_ry, ddqcl.ansatz.apply_cz
    real_product = ddqcl.ansatz.apply_product

    def product(layer, angles):
        calls.extend(("ry", (q,), float(t)) for q, t in enumerate(angles))
        return real_product(layer, angles)

    def ry(gate, theta):
        calls.append(("ry", (gate.axis,), float(theta)))
        return real_ry(gate, theta)

    def cz(gate):
        calls.append(("cz", gate.axes, None))
        return real_cz(gate)

    monkeypatch.setattr(ddqcl.ansatz, "apply_product", product)
    monkeypatch.setattr(ddqcl.ansatz, "apply_ry", ry)
    monkeypatch.setattr(ddqcl.ansatz, "apply_cz", cz)
    return calls


def _expected_calls(topo, layers, theta):
    # the documented rule: one Ry per qubit, then per layer and per edge (a, b)
    # in listed order CZ(a, b), Ry(a), Ry(b); rotation k takes theta_k mod 2*pi
    angles = iter(float(t) for t in np.mod(theta, 2 * np.pi))
    calls = [("ry", (q,), next(angles)) for q in range(topo.n_qubits)]
    for _ in range(layers):
        for a, b in topo.edges:
            calls += [("cz", (a, b), None), ("ry", (a,), next(angles)), ("ry", (b,), next(angles))]
    return calls


def _gate_counts(monkeypatch, ansatz):
    calls = _spy_gates(monkeypatch)
    execute(ansatz, np.zeros(ansatz.param_count))
    kinds = [kind for kind, _, _ in calls]
    return kinds.count("ry"), kinds.count("cz")


def test_ansatz_is_topology_and_depth():
    assert [f.name for f in dataclasses.fields(Ansatz)] == ["topology", "layers"]
    a = Ansatz(star_topology(5), 2)
    assert a.n_qubits == 5


def test_gate_counts_one_layer_line(monkeypatch):
    a = Ansatz(line_topology(4), 1)
    assert a.param_count == 10
    assert _gate_counts(monkeypatch, a) == (10, 3)


def test_gate_counts_two_layer_star(monkeypatch):
    a = Ansatz(star_topology(4), 2)
    assert a.param_count == 16
    assert _gate_counts(monkeypatch, a) == (16, 6)


def test_param_slots_each_used_once(monkeypatch):
    # distinct angles, some outside [0, 2*pi): rotation k gets exactly theta_k mod 2*pi
    a = Ansatz(star_topology(4), 3)
    theta = np.random.default_rng(6).uniform(-3 * np.pi, 5 * np.pi, a.param_count)
    calls = _spy_gates(monkeypatch)
    execute(a, theta)
    angles = [t for kind, _, t in calls if kind == "ry"]
    assert angles == [float(t) for t in np.mod(theta, 2 * np.pi)]


def test_execute_follows_layout_rule(monkeypatch):
    rng = np.random.default_rng(7)
    topologies = [line_topology(5), star_topology(4), Topology(4, ((2, 0), (1, 3), (0, 3)))]
    calls = _spy_gates(monkeypatch)
    for topo in topologies:
        for layers in range(4):
            a = Ansatz(topo, layers)
            theta = rng.uniform(-10, 10, a.param_count)
            calls.clear()
            execute(a, theta)
            assert calls == _expected_calls(topo, layers, theta), (topo, layers)


def test_execute_runs_in_two_buffers(monkeypatch):
    # every kernel call inside one execute reads and writes views of the two
    # rows of the caller's `work` (Ry from one row into the other, CZ in
    # place), and the state only ever lives there
    import ddqcl.ansatz

    real_ry, real_cz = ddqcl.ansatz.apply_ry, ddqcl.ansatz.apply_cz
    real_product = ddqcl.ansatz.apply_product
    kernel_calls = []

    def row(view):
        (index,) = [i for i in (0, 1) if np.shares_memory(view, work[i])]
        return index

    def product(layer, angles):
        assert {row(pair) for _, pair in layer.steps} == {0, 1} and row(layer.state) == 0
        return real_product(layer, angles)

    def ry(gate, theta):
        assert row(gate.source) == row(gate.flipped) != row(gate.target)
        assert row(gate.flipped_target) == row(gate.target)
        kernel_calls.append("ry")
        return real_ry(gate, theta)

    def cz(gate):
        row(gate.quarter)
        kernel_calls.append("cz")
        return real_cz(gate)

    monkeypatch.setattr(ddqcl.ansatz, "apply_product", product)
    monkeypatch.setattr(ddqcl.ansatz, "apply_ry", ry)
    monkeypatch.setattr(ddqcl.ansatz, "apply_cz", cz)
    a = Ansatz(line_topology(6), 3)
    work = np.empty((2, 2**6))
    state = execute(a, np.random.default_rng(8).uniform(0, 2 * np.pi, a.param_count), work)
    assert kernel_calls.count("ry") == 2 * 3 * 5 and kernel_calls.count("cz") == 3 * 5
    assert np.shares_memory(state, work)


# --- rotated layouts on wide registers ---


def _canonical_execute(ansatz, params):
    # the gate loop `execute` ran before it rotated axes, kept as the oracle:
    # qubit q stays on axis q throughout
    theta = np.mod(np.asarray(params, dtype=float), tau)
    n = ansatz.n_qubits
    work = np.empty((2, 2**n))
    amp = product_state(theta[:n], work)
    spare = work[1].reshape(amp.shape)
    angles = iter(theta[n:])
    for _ in range(ansatz.layers):
        for a, b in ansatz.topology.edges:
            apply_cz(cz_gate(amp, a, b))
            apply_ry(ry_gate(amp, a, spare), next(angles))
            amp, spare = spare, amp
            apply_ry(ry_gate(amp, b, spare), next(angles))
            amp, spare = spare, amp
    return amp


def _edge_case_angles(rng, count):
    # values in [-20, 20] with 0, +-pi and 2*pi scattered among them
    theta = rng.uniform(-20.0, 20.0, count)
    spots = rng.choice(count, size=min(count, 8), replace=False)
    theta[spots] = np.resize([0.0, np.pi, -np.pi, 2 * np.pi], len(spots))
    return theta


def _spy_rotations(monkeypatch):
    import ddqcl.ansatz

    shifts = []
    real_rotation = ddqcl.ansatz._rotation

    def rotation(amp, shift, out):
        shifts.append(shift)
        return real_rotation(amp, shift, out)

    monkeypatch.setattr(ddqcl.ansatz, "_rotation", rotation)
    return shifts


@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("n", [_ROTATE_MIN_QUBITS - 1, _ROTATE_MIN_QUBITS, 16, 17])
@pytest.mark.parametrize("topology", [line_topology, star_topology])
def test_execute_matches_canonical_loop_bit_for_bit(monkeypatch, topology, n, layers):
    # a rotation only moves values, so every amplitude, sign bits included,
    # is the one the canonical-layout loop computes
    a = Ansatz(topology(n), layers)
    theta = _edge_case_angles(np.random.default_rng(100 * n + layers), a.param_count)
    shifts = _spy_rotations(monkeypatch)
    work = _aligned_empty((2, 2**n))
    state = execute(a, theta, work)
    expected = _canonical_execute(a, theta)
    assert state.shape == (2,) * n and state.flags.c_contiguous
    assert state.tobytes() == expected.tobytes()
    assert any(state.__array_interface__["data"][0] == row.__array_interface__["data"][0]
               for row in work)
    # only a wide register with entangling layers rotates, and the line always does
    if n < _ROTATE_MIN_QUBITS or layers == 0:
        assert shifts == []
    elif topology is line_topology:
        assert shifts


@pytest.mark.parametrize("layers", [1, 2])
def test_wide_line_gates_run_on_long_run_axes(monkeypatch, layers):
    # on a line every edge fits the axes whose runs hold at least _MIN_RUN
    # entries, so no gate acts on a short-run axis and each rotation and gate
    # writes into a row of the caller's `work`
    import ddqcl.ansatz

    n = 16
    a = Ansatz(line_topology(n), layers)
    work = _aligned_empty((2, 2**n))
    real_ry, real_cz = ddqcl.ansatz.apply_ry, ddqcl.ansatz.apply_cz
    real_rotation = ddqcl.ansatz._rotation
    axes = []

    def written(*views):
        assert all(any(np.shares_memory(view, row) for row in work) for view in views)

    def ry(gate, theta):
        axes.append(gate.axis)
        written(gate.source, gate.target)
        return real_ry(gate, theta)

    def cz(gate):
        axes.extend(gate.axes)
        written(gate.quarter)
        return real_cz(gate)

    def rotation(amp, shift, out):
        views = real_rotation(amp, shift, out)
        written(*views)
        return views

    monkeypatch.setattr(ddqcl.ansatz, "apply_ry", ry)
    monkeypatch.setattr(ddqcl.ansatz, "apply_cz", cz)
    monkeypatch.setattr(ddqcl.ansatz, "_rotation", rotation)
    theta = np.random.default_rng(9).uniform(-20.0, 20.0, a.param_count)
    state = execute(a, theta, work)
    assert len(axes) == 4 * layers * (n - 1)
    assert max(axes) < n + 1 - _MIN_RUN.bit_length()
    assert state.tobytes() == _canonical_execute(a, theta).tobytes()


def _reference_ry(amp, qubit, t):
    # one Ry on allocated arrays, by the pair formula itself
    c, s = cos(t / 2.0), sin(t / 2.0)
    a0, a1 = amp.take(0, axis=qubit), amp.take(1, axis=qubit)
    return np.stack([c * a0 - s * a1, s * a0 + c * a1], axis=qubit)


def _reference_state(ansatz, theta):
    # the layout rule gate by gate, with no kernel, program or buffer of the
    # package: qubit q stays on axis q, and each gate returns a new array
    theta = np.mod(theta, tau)
    n = ansatz.n_qubits
    # the first layer on |0...0> as its product state: each qubit's
    # (cos, sin) pair multiplies the state so far along a new last axis,
    # which signs the zeros as the product layer does
    amp = np.ones(())
    for t in theta[:n]:
        amp = np.multiply.outer(amp, (cos(t / 2.0), sin(t / 2.0)))
    k = n
    for _ in range(ansatz.layers):
        for a, b in ansatz.topology.edges:
            sel = [slice(None)] * n
            sel[a] = sel[b] = 1
            amp[tuple(sel)] *= -1
            amp = _reference_ry(_reference_ry(amp, a, theta[k]), b, theta[k + 1])
            k += 2
    return amp


@pytest.mark.parametrize(
    "n, layers", [(1, 0)] + [(n, layers) for n in (2, 4, 9, 14, 15, 16) for layers in (0, 1, 2)]
)
@pytest.mark.parametrize("topology", [line_topology, star_topology])
def test_program_matches_per_gate_reference(topology, n, layers):
    # one program per buffer, as the cost and each of its lanes build them,
    # each run twice on its reused buffer: every run's state has the
    # reference's bytes, whatever the buffer held before
    a = Ansatz(topology(n), layers)
    programs = [GateProgram(a, _aligned_empty((2, 2**n))) for _ in range(2)]
    rng = np.random.default_rng(1000 * n + layers)
    for _ in range(2):
        theta = check_params(_edge_case_angles(rng, a.param_count), a.param_count)
        expected = _reference_state(a, theta).tobytes()
        for program in programs:
            assert execute(program, theta).tobytes() == expected


def test_param_count_formula():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        layers = int(rng.integers(1, 4))
        topo = line_topology(n) if rng.random() < 0.5 else star_topology(n)
        a = Ansatz(topo, layers)
        assert a.param_count == n + layers * 2 * len(topo.edges)


def test_two_qubit_single_edge_layout(monkeypatch):
    a = Ansatz(Topology(2, ((0, 1),)), 1)
    calls = _spy_gates(monkeypatch)
    execute(a, np.array([0.1, 0.2, 0.3, 0.4]))
    assert calls == [("ry", (0,), 0.1), ("ry", (1,), 0.2), ("cz", (0, 1), None),
                     ("ry", (0,), 0.3), ("ry", (1,), 0.4)]


def test_layers_zero_keeps_initial_rotations_only(monkeypatch):
    a = Ansatz(line_topology(3), 0)
    assert a.param_count == 3
    assert _gate_counts(monkeypatch, a) == (3, 0)


def test_entangling_layers_need_edges():
    with pytest.raises(ValueError, match="at least one edge"):
        Ansatz(Topology(2, ()), 1)


def test_layers_must_be_non_negative():
    with pytest.raises(ValueError, match="layers must be >= 0"):
        Ansatz(line_topology(3), -1)


# --- execution ---


def test_zero_params_leave_all_zeros_state():
    a = Ansatz(line_topology(4), 2)
    out = execute(a, np.zeros(16))
    assert out.shape == (2, 2, 2, 2)
    np.testing.assert_array_equal(out.reshape(-1), np.eye(16)[0])


def test_param_length_checked():
    a = Ansatz(line_topology(4), 1)
    with pytest.raises(ValueError):
        execute(a, np.zeros(9))


def test_angles_reduced_mod_2pi():
    a = Ansatz(star_topology(3), 1)
    rng = np.random.default_rng(1)
    p = rng.uniform(0, 2 * np.pi, a.param_count)
    s1 = execute(a, p)
    s2 = execute(a, p + 2 * np.pi)
    s3 = execute(a, p - 4 * np.pi)
    np.testing.assert_allclose(s1, s2, atol=1e-12)
    np.testing.assert_allclose(s1, s3, atol=1e-12)


def test_execute_pure_function():
    a = Ansatz(line_topology(4), 2)
    p = np.linspace(0, 5, 16)
    np.testing.assert_array_equal(execute(a, p), execute(a, p))


def test_real_amplitudes():
    a = Ansatz(star_topology(4), 2)
    out = execute(a, np.random.default_rng(2).uniform(0, 2 * np.pi, 16))
    assert out.dtype == np.float64 and out.shape == (2, 2, 2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_execute_rejects_non_finite_params(monkeypatch, bad):
    import ddqcl.ansatz

    def no_gates(*args):
        raise AssertionError("a gate ran before the parameters were checked")

    monkeypatch.setattr(ddqcl.ansatz, "apply_product", no_gates)
    monkeypatch.setattr(ddqcl.ansatz, "apply_ry", no_gates)
    monkeypatch.setattr(ddqcl.ansatz, "apply_cz", no_gates)
    a = Ansatz(line_topology(4), 1)
    p = np.zeros(a.param_count)
    p[5] = bad
    with pytest.raises(ValueError, match="finite"):
        execute(a, p)


def test_execute_rejects_complex_params():
    # a cast to float would drop the imaginary part with only a warning
    a = Ansatz(line_topology(4), 1)
    with pytest.raises(ValueError, match="complex128"):
        execute(a, np.zeros(a.param_count, dtype=complex))


def test_single_edge_ansatz_subsumes_u2():
    # initial rotations carry (gamma, beta), the edge pair carries (theta, 0)
    a = Ansatz(Topology(2, ((0, 1),)), 1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta, gamma, beta = rng.uniform(0, 2 * np.pi, 3)
        got = execute(a, np.array([gamma, beta, theta, 0.0]))
        np.testing.assert_allclose(got, u2_block(theta, gamma, beta), atol=1e-12)


# --- the two-qubit primitive ---


def test_u2_identity():
    np.testing.assert_array_equal(u2_block(0, 0, 0), [[1.0, 0.0], [0.0, 0.0]])


def test_u2_half_pi_on_control():
    out = u2_block(np.pi / 2, 0, 0)
    np.testing.assert_allclose(out, [[1 / np.sqrt(2), 0], [1 / np.sqrt(2), 0]], atol=1e-12)


def test_u2_quarter_probs():
    out = u2_block(np.pi / 2, 0, np.pi / 2)
    np.testing.assert_allclose(probabilities(out), np.full(4, 0.25), atol=1e-12)


def test_u2_entangles():
    # rotations on both qubits before the CZ: this is CZ|++> up to locals
    out = u2_block(0, np.pi / 2, np.pi / 2)
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, -0.5]], atol=1e-12)


def test_u2_matches_matrix_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        t, g, b = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
        np.testing.assert_allclose(u2_block(t, g, b).reshape(-1), _u2_oracle(t, g, b),
                                   atol=1e-10)


def test_u2_reaches_random_real_states():
    # finite probe of the "any real-amplitude 2-qubit state" claim
    from scipy.optimize import minimize

    rng = np.random.default_rng(5)
    for _ in range(10):
        target = rng.normal(size=4)
        target /= np.linalg.norm(target)

        def infidelity(angles):
            amp = u2_block(*angles).reshape(-1)
            return 1.0 - np.dot(amp, target) ** 2

        best = min(
            minimize(infidelity, rng.uniform(0, 2 * np.pi, 3), method="Nelder-Mead").fun
            for _ in range(5)
        )
        assert best < 1e-3  # fidelity > 0.999


# --- trained-model regression fixture ---

# parameters produced by the batch trainer on the 2-layer line circuit for the
# 2x2 bars-and-stripes target; frozen here to pin the whole execution pipeline
TRAINED_LINE2_PARAMS = np.array([
    4.6686410740357474, 4.8763622491930718, 1.6076016818392969, 5.0068348626533155,
    0.26860540963470342, 3.741523016244539, 1.6078598290965311, 1.8771324093846957,
    1.5938046257448248, 5.0793207542056695, 1.2332341789343209, 6.3312331273159934,
    -1.0016884843055431, 2.3554616376623323, 2.7213903333135292, 4.7084394765503053,
])


def test_trained_params_reproduce_target():
    a = Ansatz(line_topology(4), 2)
    model = probabilities(execute(a, TRAINED_LINE2_PARAMS))
    target = bas_target_distribution(BasSpec(2, 2))
    assert js_divergence(model, target) < 0.05
