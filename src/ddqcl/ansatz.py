"""Hardware-style layered circuit: one Ry per qubit, then CZ + endpoint Ry
pairs swept over a fixed entangling topology, repeated per layer.

For 4 qubits and 3 edges this gives 10 rotations / 3 CZs at one layer and
16 rotations / 6 CZs at two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import tau

import numpy as np

from .sim import StateVector, apply_cz, apply_ry


@dataclass(frozen=True)
class Topology:
    """Qubit count plus an ordered list of entangling edges."""

    n_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        seen: set[tuple[int, int]] = set()
        for a, b in edges:
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits):
                raise ValueError(f"edge ({a},{b}) references a qubit outside 0..{self.n_qubits - 1}")
            if a == b:
                raise ValueError(f"edge ({a},{b}) is a self-loop")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add(key)
        object.__setattr__(self, "edges", edges)


def line_topology(n_qubits: int) -> Topology:
    """Nearest-neighbour chain: (0,1), (1,2), ..."""
    return Topology(n_qubits, tuple((q, q + 1) for q in range(n_qubits - 1)))


def star_topology(n_qubits: int) -> Topology:
    """All qubits attached to hub qubit 0."""
    return Topology(n_qubits, tuple((0, q) for q in range(1, n_qubits)))


@dataclass(frozen=True)
class RyGate:
    qubit: int
    param_slot: int


@dataclass(frozen=True)
class CzGate:
    qa: int
    qb: int


@dataclass(frozen=True)
class Ansatz:
    """Immutable gate program with L free rotation angles."""

    n_qubits: int
    topology: Topology
    layers: int
    gates: tuple[RyGate | CzGate, ...]
    param_count: int


def build_ansatz(n_qubits: int, topology: Topology, layers: int) -> Ansatz:
    """Lay out the gate program.

    One initial Ry per qubit, then per layer, for each edge in listed order:
    CZ on the edge followed by an Ry on each endpoint.  Layers = 0 keeps just
    the initial rotations (product states only).
    """
    if topology.n_qubits != n_qubits:
        raise ValueError(f"topology is for {topology.n_qubits} qubits, asked for {n_qubits}")
    if layers < 0:
        raise ValueError(f"layers must be >= 0, got {layers}")
    if layers >= 1 and not topology.edges:
        raise ValueError("entangling layers need at least one edge")
    gates: list[RyGate | CzGate] = []
    slot = 0
    for q in range(n_qubits):
        gates.append(RyGate(q, slot))
        slot += 1
    for _ in range(layers):
        for a, b in topology.edges:
            gates.append(CzGate(a, b))
            gates.append(RyGate(a, slot))
            gates.append(RyGate(b, slot + 1))
            slot += 2
    return Ansatz(n_qubits, topology, layers, tuple(gates), slot)


def execute(ansatz: Ansatz, params: np.ndarray) -> StateVector:
    """Run the gate program on |0...0>.  Angles are reduced modulo 2*pi."""
    theta = np.asarray(params, dtype=float)
    if theta.shape != (ansatz.param_count,):
        raise ValueError(f"expected {ansatz.param_count} parameters, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")
    theta = np.mod(theta, tau)
    n = ansatz.n_qubits
    amp = np.zeros((2,) * n)
    amp[(0,) * n] = 1.0
    for g in ansatz.gates:
        if isinstance(g, RyGate):
            amp = apply_ry(amp, g.qubit, theta[g.param_slot])
        else:
            amp = apply_cz(amp, g.qa, g.qb)
    return StateVector(n, amp.reshape(-1))


def u2_block(theta: float, gamma: float, beta: float) -> StateVector:
    """Two-qubit primitive: Ry(q1, beta), Ry(q0, gamma), CZ, Ry(q0, theta) on |00>.

    The CZ sits between rotations on both qubits, so the block entangles, and
    the three angles reach every 2-qubit state with real amplitudes: the output
    is (cos(b)cos(u), sin(b)cos(v), cos(b)sin(u), sin(b)sin(v)) with
    u = (theta+gamma)/2, v = (theta-gamma)/2, b = beta/2, a polar chart of S^3.
    """
    amp = np.array([[1.0, 0.0], [0.0, 0.0]])
    amp = apply_ry(amp, 1, beta)
    amp = apply_ry(amp, 0, gamma)
    amp = apply_cz(amp, 0, 1)
    amp = apply_ry(amp, 0, theta)
    return StateVector(2, amp.reshape(-1))
