"""Exact statevector simulation of Ry/CZ circuits with seeded finite-shot sampling.

Ry and CZ have real matrices, so a state started at |0...0> never leaves the
reals.  A state is held in one form only: a float64 array of shape (2,)*N,
one axis per qubit.  The gate kernels `apply_ry` and `apply_cz` act on it
and do no validation; the register width and qubit indices are checked
once, in `Topology`, the angles once, in `execute`, and the array itself
where it leaves the circuit, in `probabilities`.  A kernel writes into a
buffer its caller owns and allocates nothing: `apply_ry` into `out`, and
`apply_cz` into `amp` itself, so a circuit runs in two state buffers.  The
first rotation layer on |0...0> is a product state, which `product_state`
builds directly, with the same products as the n Ry gates it replaces.

Buffers: `product_state`, `probabilities`, `ansatz.execute` and
`metrics.js_divergence` each take an optional float64 buffer (`work` or
`out`) that the caller owns.  Given one, they compute into it and allocate
nothing of state size; the arrays the first three return are views of it,
which the next call with the same buffer overwrites.  Without one, they
allocate it, starting on a 64-byte cache line, and run the same code.  So a
loop that evaluates many circuits, like the cost of `optim.CostContext`,
allocates its buffers once and passes them down.

A probability vector is a float64 array of length 2^N, and shot counts an
int64 array of length 2^N whose sum is the shot count; N is always read from
the length.  `probabilities` checks the state it squares, `sample` that its
cdf ends at 1, and `check_counts` is the one check on counts where they
enter the program's functions.

Bit ordering convention, used everywhere in this package: a measurement
outcome is its basis-state index, a plain int, and qubit 0 is its most
significant bit.  So the 4-qubit index 0b1010 means qubit 0 = 1, qubit 1 = 0,
qubit 2 = 1, qubit 3 = 0, and it is the entry [1, 0, 1, 0] of a state array.
"""

from __future__ import annotations

from math import cos, prod, sin

import numpy as np

# Register width ceiling; amplitudes are dense, so memory is 2^N float64.
MAX_QUBITS = 20

_DIST_TOL = 1e-9
# a buffer's data starts on a cache line: np.empty starts it wherever the heap
# has room, 16, 32 or 48 bytes past a line, and at 16 qubits `execute` into
# such a buffer took 7-21% longer than into an aligned one
_ALIGN_BYTES = 64
# uniform doubles per block drawn by `sample` and the sampled readout channel
# (64 KiB): memory stays bounded at any shot count, and a single (shots, n)
# draw made readout calibration slower
_BLOCK_DRAWS = 2**13


def _check_n_qubits(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def check_counts(counts: np.ndarray) -> int:
    """N of integer counts over 2^N basis states (N >= 1); refuses any other
    dtype or length, a negative count and zero shots."""
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got {counts.dtype}")
    n = len(counts).bit_length() - 1 if counts.ndim == 1 else 0
    if n < 1 or counts.shape != (2**n,):
        raise ValueError(f"expected 2^N counts for some N >= 1, got shape {counts.shape}")
    _check_n_qubits(n)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if not counts.any():
        raise ValueError("shots must be >= 1, got 0")
    return n


def _real_array(values: object, name: str) -> np.ndarray:
    """`values` as a float64 array; refuses a complex dtype, whose imaginary
    part a cast to float would drop with only a warning."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous float64 array of `shape` whose data
    starts on a 64-byte boundary."""
    size = prod(shape)
    raw = np.empty(size + _ALIGN_BYTES // 8)
    start = (-raw.ctypes.data % _ALIGN_BYTES) // 8
    return raw[start : start + size].reshape(shape)


def _buffer(buf: np.ndarray | None, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A caller's float64 buffer of `shape`, checked, or a new, aligned one
    when None."""
    if buf is None:
        return _aligned_empty(shape)
    if buf.dtype != np.float64 or buf.shape != shape or not buf.flags.c_contiguous:
        raise ValueError(
            f"{name} must be a C-contiguous float64 array of shape {shape}, "
            f"got {buf.dtype} of shape {buf.shape}"
        )
    return buf


def product_state(angles: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Ry(angles[q]) on each qubit q of |0...0>, as a (2,)*n amplitude array.

    Qubit by qubit, the state so far times (cos(t/2), sin(t/2)) along a new
    last axis: the same products, in the same order, as the n `apply_ry`
    calls it replaces.  The growing layers are written alternately into the
    two rows of `work`, a C-contiguous float64 (2, 2^n) array the caller owns
    (allocated when None), so that the last one lands in row 0; the result is
    a view of row 0, and row 1 is left as scratch.  Like the gate kernels, it
    does not check `work`.
    """
    n = len(angles)
    if work is None:
        work = _aligned_empty((2, 2**n))
    amp = np.ones(1)
    for k, t in enumerate(angles):
        # Fortran order runs the long axis innermost, not the length-2 one
        pair = work[(n - 1 - k) % 2, : 2 * amp.size].reshape(amp.size, 2)
        np.multiply(amp[:, None], (cos(t / 2.0), sin(t / 2.0)), out=pair, order="F")
        amp = pair.reshape(-1)
    return amp.reshape((2,) * n)


def apply_ry(amp: np.ndarray, qubit: int, theta: float, out: np.ndarray) -> np.ndarray:
    """Rotate one qubit of a (2,)*N amplitude array around the y axis by theta.

    The 2x2 action on the (bit=0, bit=1) amplitude pair is
    [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]].  Writes the result into
    `out` (C-contiguous, of the same shape and distinct from `amp`) and
    returns it, and uses `amp` as scratch: its contents are lost.
    """
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


def apply_cz(amp: np.ndarray, qa: int, qb: int) -> np.ndarray:
    """Controlled-Z on a (2,)*N amplitude array: negate, in place, the entries
    with both bits set.  Returns `amp`."""
    sel: list[object] = [slice(None)] * amp.ndim
    sel[qa] = 1
    sel[qb] = 1
    amp[tuple(sel)] *= -1
    return amp


def probabilities(amp: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Born-rule probabilities amp^2 of a float64 (2,)*N amplitude array, as a
    length-2^N vector; refuses any other array, N outside [1, MAX_QUBITS] and
    an unnormalized or non-finite state.

    Writes them into `out`, a float64 array of length 2^N the caller owns
    (allocated when None), and returns it.
    """
    if amp.dtype != np.float64 or amp.shape != (2,) * amp.ndim:
        raise ValueError(
            f"amplitudes must be a float64 array of shape (2,)*N (Ry/CZ circuits never "
            f"leave the reals), got {amp.dtype} of shape {amp.shape}"
        )
    _check_n_qubits(amp.ndim)
    flat = amp.reshape(-1)
    # the same bits as flat ** 2, which numpy computes as flat * flat
    probs = np.multiply(flat, flat, out=_buffer(out, flat.shape, "out"))
    total = float(probs.sum())
    if not abs(total - 1.0) <= _DIST_TOL:  # also rejects NaN
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return probs


def sample(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `shots` i.i.d. basis-state outcomes of a probability vector via
    inverse-CDF search; returns their int64 counts, one per basis state.

    Draws the uniforms in consecutive blocks of at most `_BLOCK_DRAWS`, which
    is the same stream of doubles as one `rng.random(shots)`.  Deterministic
    for a fixed generator state.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cdf = np.cumsum(probs)
    # NaN fails this too; it would put every shot in bin 0
    if not abs(cdf[-1] - 1.0) <= _DIST_TOL:
        raise ValueError(f"probabilities sum to {float(cdf[-1])!r}, not 1")
    # rounding can leave the cdf short of 1 where it reaches its last positive
    # bin; a draw above it would land on a zero-probability outcome after it
    cdf[np.flatnonzero(probs)[-1] :] = 1.0
    counts = np.zeros(len(cdf), dtype=np.int64)
    for start in range(0, shots, _BLOCK_DRAWS):
        u = rng.random(min(_BLOCK_DRAWS, shots - start))
        counts += np.bincount(np.searchsorted(cdf, u, side="right"), minlength=len(cdf))
    return counts
