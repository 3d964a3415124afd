"""Exact statevector simulation of Ry/CZ circuits with seeded finite-shot sampling.

Ry and CZ have real matrices, so a state started at |0...0> never leaves the
reals: amplitudes are float64 throughout.  The gate kernels `apply_ry` and
`apply_cz` act on a float64 array of shape (2,)*N and do no validation;
the register width and qubit indices are checked once, in `Topology`, and
the angles once, in `execute`.  Given `out`, a kernel writes its result
there and allocates nothing, so a circuit runs in two state buffers.  The
first rotation layer on |0...0> is a product state, which `product_state`
builds directly, with the same products as the n Ry gates it replaces.

Bit ordering convention, used everywhere in this package: qubit 0 is the most
significant bit of a basis-state index, so the 4-qubit index 0b1010 means
qubit 0 = 1, qubit 1 = 0, qubit 2 = 1, qubit 3 = 0 and prints as "1010".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

# Register width ceiling; amplitudes are dense, so memory is 2^N float64.
MAX_QUBITS = 20

_NORM_TOL = 1e-10
_DIST_TOL = 1e-9
# uniform doubles per block drawn by `sample` and the sampled readout channel
# (64 KiB): memory stays bounded at any shot count, and a single (shots, n)
# draw made readout calibration slower
_BLOCK_DRAWS = 2**13


def _check_n_qubits(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


@dataclass(frozen=True, order=True)
class BitString:
    """An N-bit measurement outcome; qubit 0 is the leftmost character."""

    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.value < 2**self.width:
            raise ValueError(f"value {self.value} out of range for width {self.width}")

    @classmethod
    def parse(cls, text: str) -> "BitString":
        """Parse a string like "1010" (leftmost bit = qubit 0)."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {text!r}")
        return cls(len(text), int(text, 2))

    def format(self) -> str:
        return format(self.value, f"0{self.width}b")

    def bit(self, qubit: int) -> int:
        """Bit of the given qubit (qubit 0 = most significant)."""
        if not 0 <= qubit < self.width:
            raise ValueError(f"qubit {qubit} out of range for width {self.width}")
        return (self.value >> (self.width - 1 - qubit)) & 1

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class StateVector:
    """Normalized register state: 2^N real float64 amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_n_qubits(self.n_qubits)
        if np.iscomplexobj(self.amplitudes):
            raise ValueError("amplitudes must be real; Ry/CZ circuits never leave the reals")
        amp = np.asarray(self.amplitudes, dtype=np.float64)
        if amp.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amp.shape}"
            )
        norm = float(np.sum(amp**2))
        if not abs(norm - 1.0) <= _NORM_TOL:  # also rejects NaN
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class Distribution:
    """Probabilities over all 2^N basis states; sums to 1."""

    n_qubits: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        _check_n_qubits(self.n_qubits)
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (2**self.n_qubits,):
            raise ValueError(f"expected {2**self.n_qubits} probabilities, got shape {p.shape}")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        total = float(p.sum())
        if not abs(total - 1.0) <= _DIST_TOL:  # also rejects NaN
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", p)

    @classmethod
    def delta(cls, n_qubits: int, index: int) -> "Distribution":
        p = np.zeros(2**n_qubits)
        p[index] = 1.0
        return cls(n_qubits, p)


@dataclass(frozen=True)
class Histogram:
    """Integer shot counts over all 2^N basis states."""

    n_qubits: int
    counts: np.ndarray
    shots: int

    def __post_init__(self) -> None:
        _check_n_qubits(self.n_qubits)
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (2**self.n_qubits,):
            raise ValueError(f"expected {2**self.n_qubits} counts, got shape {c.shape}")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        if int(c.sum()) != self.shots:
            raise ValueError(f"counts sum to {int(c.sum())}, declared shots {self.shots}")
        object.__setattr__(self, "counts", c)


def zero_state(n_qubits: int) -> StateVector:
    """The all-zeros computational basis state |0...0>."""
    amp = np.zeros(2**n_qubits)
    amp[0] = 1.0
    return StateVector(n_qubits, amp)


def product_state(angles: np.ndarray) -> np.ndarray:
    """Ry(angles[q]) on each qubit q of |0...0>, as a (2,)*n amplitude array.

    Qubit by qubit, the state so far times (cos(t/2), sin(t/2)) along a new
    last axis: the same products, in the same order, as the n `apply_ry`
    calls it replaces.
    """
    amp = np.ones(1)
    for t in angles:
        # Fortran order runs the long axis innermost, not the length-2 one
        pair = np.empty((amp.size, 2))
        np.multiply(amp[:, None], (cos(t / 2.0), sin(t / 2.0)), out=pair, order="F")
        amp = pair.reshape(-1)
    return amp.reshape((2,) * len(angles))


def apply_ry(
    amp: np.ndarray, qubit: int, theta: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Rotate one qubit of a (2,)*N amplitude array around the y axis by theta.

    The 2x2 action on the (bit=0, bit=1) amplitude pair is
    [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]].  Without `out`, returns a
    new array and leaves `amp` as it was.  With `out` (C-contiguous, of the
    same shape and distinct from `amp`), writes the result there and returns
    it, and uses `amp` as scratch: its contents are lost.
    """
    if out is None:
        return apply_ry(amp.copy(), qubit, theta, np.empty_like(amp))
    c, s = cos(theta / 2.0), sin(theta / 2.0)
    a = amp.reshape(2**qubit, 2, -1)
    o = out.reshape(a.shape)
    # out = c*amp + s*(amp with each pair swapped and its bit-0 entry negated):
    # c*a0 + (-s)*a1 and c*a1 + s*a0 are exactly c*a0 - s*a1 and s*a0 + c*a1
    signed_s = np.array([[-s], [s]])
    if a.shape[2] >= min(8, a.shape[0]):
        np.multiply(a[:, ::-1], signed_s, out=o)
    else:
        # rows this short make a slow innermost loop: run the long axis
        # innermost instead, through the transposed views in C order
        np.multiply(a.T[:, ::-1], signed_s, out=o.T, order="C")
    np.multiply(a, c, out=a)
    np.add(o, a, out=o)
    return out


def apply_cz(
    amp: np.ndarray, qa: int, qb: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Controlled-Z on a (2,)*N amplitude array: negate the entries with both
    bits set.  Writes into `out` and returns it; `out=amp` negates in place.
    Without `out`, returns a new array."""
    if out is None:
        out = amp.copy()
    elif out is not amp:
        np.copyto(out, amp)
    sel: list[object] = [slice(None)] * amp.ndim
    sel[qa] = 1
    sel[qb] = 1
    out[tuple(sel)] *= -1
    return out


def probabilities(state: StateVector) -> Distribution:
    """Born-rule outcome probabilities |amp|^2."""
    return Distribution(state.n_qubits, state.amplitudes**2)


def sample(dist: Distribution, shots: int, rng: np.random.Generator) -> Histogram:
    """Draw `shots` i.i.d. basis-state outcomes via inverse-CDF search.

    Draws the uniforms in consecutive blocks of at most `_BLOCK_DRAWS`, which
    is the same stream of doubles as one `rng.random(shots)`.  Deterministic
    for a fixed generator state.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0  # guard against rounding in the last bin
    counts = np.zeros(len(cdf), dtype=np.int64)
    for start in range(0, shots, _BLOCK_DRAWS):
        u = rng.random(min(_BLOCK_DRAWS, shots - start))
        counts += np.bincount(np.searchsorted(cdf, u, side="right"), minlength=len(cdf))
    return Histogram(dist.n_qubits, counts, shots)
