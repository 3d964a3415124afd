"""Hardware-style layered Ry/CZ circuit over a fixed entangling topology.

An `Ansatz` is just its topology and depth; `execute` lays the gates out from
them as it runs, by the rule in the `Ansatz` docstring, and returns the
state as the float64 (2,)*N array it computed in.  For 4 qubits and 3 edges
this gives 10 rotations / 3 CZs at one layer and 16 rotations / 6 CZs at
two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import tau

import numpy as np

from .sim import _check_n_qubits, apply_cz, apply_ry, product_state


@dataclass(frozen=True)
class Topology:
    """Qubit count plus an ordered list of entangling edges."""

    n_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_n_qubits(self.n_qubits)
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
class Ansatz:
    """Layered circuit over a topology, with `param_count` rotation angles.

    Gate layout: one Ry per qubit in qubit order, then per layer, for each
    edge (a, b) in listed order: CZ(a, b), Ry(a), Ry(b).  Rotation k (counted
    in that order) takes angle k.  Layers = 0 keeps just the initial rotations
    (product states only).
    """

    topology: Topology
    layers: int

    def __post_init__(self) -> None:
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")
        if self.layers >= 1 and not self.topology.edges:
            raise ValueError("entangling layers need at least one edge")

    @property
    def n_qubits(self) -> int:
        return self.topology.n_qubits

    @property
    def param_count(self) -> int:
        return self.n_qubits + 2 * self.layers * len(self.topology.edges)


def execute(ansatz: Ansatz, params: np.ndarray) -> np.ndarray:
    """Run the circuit on |0...0> in the layout of `Ansatz`; returns the
    float64 (2,)*N amplitude array.  Angles are reduced modulo 2*pi."""
    theta = np.asarray(params, dtype=float)
    if theta.shape != (ansatz.param_count,):
        raise ValueError(f"expected {ansatz.param_count} parameters, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")
    theta = np.mod(theta, tau)
    n = ansatz.n_qubits
    amp = product_state(theta[:n])
    # the state moves between two buffers: each Ry writes into the spare one
    # and leaves the old one as the next spare; CZ acts in place
    spare = np.empty_like(amp)
    angles = iter(theta[n:])
    for _ in range(ansatz.layers):
        for a, b in ansatz.topology.edges:
            apply_cz(amp, a, b, out=amp)
            amp, spare = apply_ry(amp, a, next(angles), out=spare), amp
            amp, spare = apply_ry(amp, b, next(angles), out=spare), amp
    return amp


def u2_block(theta: float, gamma: float, beta: float) -> np.ndarray:
    """Two-qubit primitive: Ry(q1, beta), Ry(q0, gamma), CZ, Ry(q0, theta) on |00>,
    as a (2, 2) amplitude array.

    The CZ sits between rotations on both qubits, so the block entangles, and
    the three angles reach every 2-qubit state with real amplitudes: the output,
    flattened, is (cos(b)cos(u), sin(b)cos(v), cos(b)sin(u), sin(b)sin(v)) with
    u = (theta+gamma)/2, v = (theta-gamma)/2, b = beta/2, a polar chart of S^3.
    """
    amp = np.array([[1.0, 0.0], [0.0, 0.0]])
    amp = apply_ry(amp, 1, beta)
    amp = apply_ry(amp, 0, gamma)
    amp = apply_cz(amp, 0, 1)
    return apply_ry(amp, 0, theta)
