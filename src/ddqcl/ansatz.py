"""Hardware-style layered Ry/CZ circuit over a fixed entangling topology.

An `Ansatz` is just its topology and depth; a `GateProgram` lays its gates
out on one (2, 2^N) `work` buffer, by the rule in the `Ansatz` docstring,
once, and `execute` runs it and returns the state as the float64 (2,)*N
array it computed in: a view of one row of `work`, which the caller may own
and reuse across calls.
For 4 qubits and 3 edges this gives 10 rotations / 3 CZs at one layer and
16 rotations / 6 CZs at two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import tau

import numpy as np

from .sim import _buffer, _check_n_qubits, apply_cz, apply_product, apply_ry, check_integer
from .sim import check_params, cz_gate, product_layer, ry_gate

# numpy runs a strided operation whose contiguous runs hold fewer than 4096
# float64 entries through its 8192-entry buffer: at 16 qubits a Ry on axes 0-3
# (runs of 2^15..2^12) took 51-54 us, one on axes 4-13 98-175 us, and its
# flip pass alone 20 us on axis 3 against 77 us on axis 4
_MIN_RUN = 4096
# `execute` rotates the state's axes from this width up.  Rotating against not
# (2-core x86-64, 10 alternated rounds, 1 and 2 layers): 14 qubits, line
# 10-15% and star 3-6% slower; 15 qubits, line 29-32% faster, star 1% faster
_ROTATE_MIN_QUBITS = 15


@dataclass(frozen=True)
class Topology:
    """Qubit count plus an ordered list of entangling edges."""

    n_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = _check_n_qubits(self.n_qubits)
        edges = tuple(
            tuple(check_integer(q, f"qubit of edge {e}", 0, n - 1) for q in e) for e in self.edges
        )
        seen: set[tuple[int, int]] = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"edge ({a},{b}) is a self-loop")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add(key)
        object.__setattr__(self, "n_qubits", n)
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
        object.__setattr__(self, "layers", check_integer(self.layers, "layers", 0))
        if self.layers >= 1 and not self.topology.edges:
            raise ValueError("entangling layers need at least one edge")

    @property
    def n_qubits(self) -> int:
        return self.topology.n_qubits

    @property
    def param_count(self) -> int:
        return self.n_qubits + 2 * self.layers * len(self.topology.edges)


class GateProgram:
    """An `Ansatz`'s gates laid out once on one (2, 2^N) work buffer, in the
    layout of `execute`: the product layer's views, then per edge its
    rotation's views (or None), its `CzGate` and its two `RyGate`s, and the
    last rotation's (or None).  `state` is the view of the row the state
    ends in.  `run` runs the gates through the kernels `apply_product`,
    `apply_cz` and `apply_ry`, looked up when it runs.
    """

    def __init__(self, ansatz: Ansatz, work: np.ndarray | None = None) -> None:
        n = ansatz.n_qubits
        self.ansatz = ansatz
        work = _buffer(work, (2, 2**n), "work")
        rows = [row.reshape((2,) * n) for row in work]
        self._product = product_layer(work)
        # the row that holds the state: each Ry and each rotation writes into
        # the other one, which then holds it, and CZ acts in place
        here = 0
        # axes below `reach` have long runs; a narrower register counts them all
        reach = n + 1 - _MIN_RUN.bit_length() if n >= _ROTATE_MIN_QUBITS else n
        off = 0
        edges = []
        for _ in range(ansatz.layers):
            for a, b in ansatz.topology.edges:
                ma, mb = (a - off) % n, (b - off) % n
                rotation = None
                if max(ma, mb) >= reach:
                    # the pair fits a window of `reach` consecutive axes starting at one of them
                    start = ma if (mb - ma) % n < reach else mb if (ma - mb) % n < reach else 0
                    if start:
                        rotation, here = _rotation(rows[here], start, rows[1 - here]), 1 - here
                        off = (off + start) % n
                        ma, mb = (ma - start) % n, (mb - start) % n
                cz = cz_gate(rows[here], ma, mb)
                ry_a, here = ry_gate(rows[here], ma, rows[1 - here]), 1 - here
                ry_b, here = ry_gate(rows[here], mb, rows[1 - here]), 1 - here
                edges.append((rotation, cz, ry_a, ry_b))
        self._edges = tuple(edges)
        self._restore = None
        if off:
            self._restore, here = _rotation(rows[here], n - off, rows[1 - here]), 1 - here
        self.state = rows[here]

    def run(self, theta: np.ndarray) -> np.ndarray:
        """The state for `theta`, a float64 vector of `param_count` finite
        angles as `check_params` returns it, which is not checked again."""
        angles = np.mod(theta, tau).tolist()
        n = self.ansatz.n_qubits
        apply_product(self._product, angles[:n])
        rest = iter(angles[n:])
        for rotation, cz, ry_a, ry_b in self._edges:
            if rotation is not None:
                np.copyto(*rotation)
            apply_cz(cz)
            apply_ry(ry_a, next(rest))
            apply_ry(ry_b, next(rest))
        if self._restore is not None:
            np.copyto(*self._restore)
        return self.state


def execute(
    ansatz: Ansatz | GateProgram, params: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray:
    """Run the circuit on |0...0> in the layout of `Ansatz`; returns the
    float64 (2,)*N amplitude array.  Angles are reduced modulo 2*pi, and
    complex or non-finite ones are refused.

    The state is computed in the two rows of `work`, a C-contiguous float64
    (2, 2^N) array the caller owns (allocated when None), by a `GateProgram`
    built on it.  The result is a view of one of its rows, so the next call
    with the same `work` overwrites it.  A loop that runs one circuit many
    times passes the `GateProgram` it built once instead of the `Ansatz`: it
    runs in its own buffer, `work` is unused, and `params` must be what
    `check_params` returned, which is not checked again.

    From `_ROTATE_MIN_QUBITS` qubits up, the state's axes may be rotated
    cyclically while it runs, so that qubit q sits on axis (q - off) % N,
    `off` being the sum of the rotations so far.  Before an edge one of
    whose qubits sits on an axis whose contiguous runs, 2^(N-1-axis)
    entries, are shorter than `_MIN_RUN`, the state is rotated so that both
    qubits sit on axes with runs that long, if one cyclic rotation does
    that; otherwise the edge runs where it is.  A last rotation restores
    qubit q to axis q.  A rotation only moves values, so every amplitude is
    the same product and sum in any layout.
    """
    if isinstance(ansatz, GateProgram):
        return ansatz.run(params)
    theta = check_params(params, ansatz.param_count)
    return GateProgram(ansatz, work).run(theta)


def _rotation(amp: np.ndarray, shift: int, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (destination, source) views of `np.copyto` that copies a (2,)*N
    state into `out` with its first `shift` axes moved to the end, so that
    axis m becomes axis (m - shift) % N."""
    n = amp.ndim
    return out.reshape(2 ** (n - shift), 2**shift), amp.reshape(2**shift, 2 ** (n - shift)).T


def u2_block(theta: float, gamma: float, beta: float) -> np.ndarray:
    """Two-qubit primitive: Ry(q1, beta), Ry(q0, gamma), CZ, Ry(q0, theta) on |00>,
    as a (2, 2) amplitude array.

    The CZ sits between rotations on both qubits, so the block entangles, and
    the three angles reach every 2-qubit state with real amplitudes: the output,
    flattened, is (cos(b)cos(u), sin(b)cos(v), cos(b)sin(u), sin(b)sin(v)) with
    u = (theta+gamma)/2, v = (theta-gamma)/2, b = beta/2, a polar chart of S^3.
    """
    # not through `execute`: it reduces angles mod 2*pi, and Ry has period
    # 4*pi, so a reduced angle can flip the sign of the amplitudes
    amp = apply_product(product_layer(np.empty((2, 4))), (gamma, beta))
    apply_cz(cz_gate(amp, 0, 1))
    out = np.empty_like(amp)
    apply_ry(ry_gate(amp, 0, out), theta)
    return out
