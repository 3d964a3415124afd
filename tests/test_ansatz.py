import dataclasses

import numpy as np
import pytest

from ddqcl.ansatz import (
    Ansatz,
    Topology,
    execute,
    line_topology,
    star_topology,
    u2_block,
)
from ddqcl.bas import BasSpec, bas_target_distribution
from ddqcl.metrics import js_divergence
from ddqcl.sim import MAX_QUBITS, probabilities

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
    with pytest.raises(ValueError, match=rf"n_qubits must be in \[1, {MAX_QUBITS}\]"):
        Topology(0, ())


# --- construction ---


def _spy_gates(monkeypatch):
    # record (kind, qubits, angle) for every gate execute applies; the first
    # rotation layer, built as a product state, counts as its n Ry gates
    import ddqcl.ansatz

    calls = []
    real_ry, real_cz = ddqcl.ansatz.apply_ry, ddqcl.ansatz.apply_cz
    real_product = ddqcl.ansatz.product_state

    def product(angles):
        calls.extend(("ry", (q,), float(t)) for q, t in enumerate(angles))
        return real_product(angles)

    def ry(amp, qubit, theta, out=None):
        calls.append(("ry", (qubit,), float(theta)))
        return real_ry(amp, qubit, theta, out=out)

    def cz(amp, qa, qb, out=None):
        calls.append(("cz", (qa, qb), None))
        return real_cz(amp, qa, qb, out=out)

    monkeypatch.setattr(ddqcl.ansatz, "product_state", product)
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
    # every kernel call inside one execute writes into a buffer it is given
    # and returns it, and the state only ever lives in two buffers
    import ddqcl.ansatz

    real_ry, real_cz = ddqcl.ansatz.apply_ry, ddqcl.ansatz.apply_cz
    real_product = ddqcl.ansatz.product_state
    buffers, kernel_calls = set(), []

    def address(arr):
        return arr.__array_interface__["data"][0]

    def product(angles):
        amp = real_product(angles)
        buffers.add(address(amp))
        return amp

    def ry(amp, qubit, theta, out=None):
        assert out is not None and out is not amp
        buffers.update((address(amp), address(out)))
        kernel_calls.append("ry")
        result = real_ry(amp, qubit, theta, out=out)
        assert result is out
        return result

    def cz(amp, qa, qb, out=None):
        assert out is amp
        buffers.add(address(amp))
        kernel_calls.append("cz")
        result = real_cz(amp, qa, qb, out=out)
        assert result is out
        return result

    monkeypatch.setattr(ddqcl.ansatz, "product_state", product)
    monkeypatch.setattr(ddqcl.ansatz, "apply_ry", ry)
    monkeypatch.setattr(ddqcl.ansatz, "apply_cz", cz)
    a = Ansatz(line_topology(6), 3)
    state = execute(a, np.random.default_rng(8).uniform(0, 2 * np.pi, a.param_count))
    assert kernel_calls.count("ry") == 2 * 3 * 5 and kernel_calls.count("cz") == 3 * 5
    assert len(buffers) == 2
    assert address(state) in buffers


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

    monkeypatch.setattr(ddqcl.ansatz, "product_state", no_gates)
    monkeypatch.setattr(ddqcl.ansatz, "apply_ry", no_gates)
    monkeypatch.setattr(ddqcl.ansatz, "apply_cz", no_gates)
    a = Ansatz(line_topology(4), 1)
    p = np.zeros(a.param_count)
    p[5] = bad
    with pytest.raises(ValueError, match="finite"):
        execute(a, p)


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
    np.testing.assert_allclose(probabilities(out).probs, np.full(4, 0.25), atol=1e-12)


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
