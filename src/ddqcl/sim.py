"""Exact statevector simulation of Ry/CZ circuits with seeded finite-shot sampling.

Ry and CZ have real matrices, so a state started at |0...0> never leaves the
reals.  A state is held in one form only: a float64 array of shape (2,)*N,
one axis per qubit.  The gate kernels `apply_ry` and `apply_cz` take a
gate, the views of the state buffers it reads and writes, which `ry_gate`
and `cz_gate` build once for an array axis, not a qubit: `ansatz.execute`
says which axis holds which qubit, since on wide registers it rotates the
axes as it runs.  So a circuit run many times, as `ansatz.GateProgram`
runs it, builds its views once, and each kernel call only computes.  The
kernels do no validation; the register width and qubit indices are checked
once, in `Topology`, the angles once, by `check_params` where they enter,
and the array itself where it leaves the circuit, in `probabilities`.  A
kernel writes into buffers its caller owns and allocates nothing:
`apply_ry` from its source into its target, and `apply_cz` negates its
quarter of the state in place, so a circuit runs in two state buffers.
The first rotation layer on |0...0> is a product state: `apply_product`
fills the views of `product_layer` with the outer product of the n Ry
gates' columns.  Its probabilities equal those of n `apply_ry` calls, but
the sign bit of a zero amplitude can differ from a per-gate loop (seen at
9-16 qubits with angles 0, pi and 2*pi).

Buffers: `probabilities`, `ansatz.execute` and `metrics.js_divergence`
each take an optional float64 buffer (`work` or `out`) that the caller
owns.  Given one, they compute into it and allocate nothing of state
size; the arrays the first two return are views of it,
which the next call with the same buffer overwrites.  Without one, they
allocate it, starting on a 64-byte cache line, and run the same code.  So a
loop that evaluates many circuits, like the cost of `optim.CostContext`,
allocates its buffers once and passes them down.

`_run_ranges` is the one place the package starts threads: it runs the
contiguous ranges `_cpu_ranges` cuts, one per usable CPU, for the
experiments of `readout.calibrate` and the rows of `optim.CostContext`'s
lanes.

A probability vector is a float64 array of length 2^N, and shot counts an
int64 array of length 2^N whose sum is the shot count; N is always read from
the length.  Inputs are checked where they enter the package, by four
rules that every module shares.  `check_integer` takes a count, a width, a
seed or a qubit index: a Python or numpy integer, never a bool, in a stated
range, returned as a Python int.  `check_real` takes a number, such as a
flip rate or a solver option: a Python or numpy real, never a bool or a
string, finite in float64, in a stated range whose ends are each open or
closed, returned as a Python float.  So a record that stores what these
return holds only values json writes and reads back as they were; a value
they refuse is shown by `brief`, shortened past a few dozen characters.
`check_params` takes a parameter vector: real, of a stated length, every
angle finite, returned as float64; `execute` and `CostContext.evaluate` go
through it, and the training cost runs what it returned with no second
check.  `check_probabilities` takes a probability vector: real, 2^N
entries with N in [1, MAX_QUBITS], none negative, summing to 1 within
`_DIST_TOL`; `sample` and the training cost's target go through it.
`check_shots` is `check_integer` over [1, MAX_SHOTS], `probabilities` checks
the state it squares, and `check_counts` is the one check on counts where
they enter the program's functions; it and `check_probabilities` read N by
one rule, `_vector_width`, which also refuses, given the register's
`n_qubits`, a vector of another register.

`sample` sorts each block of its uniforms before it counts them, since a
binary search for each of many unsorted draws mispredicts its branches.  A
block of at least 2^N draws is counted by searching each cdf entry among
the draws and taking differences, a smaller one by searching each draw in
the cdf; either way a draw u counts in bin i when cdf[i-1] <= u < cdf[i].
The counts and the generator's final state are those of one unsorted draw.

Bit ordering convention, used everywhere in this package: a measurement
outcome is its basis-state index, a plain int, and qubit 0 is its most
significant bit.  So the 4-qubit index 0b1010 means qubit 0 = 1, qubit 1 = 0,
qubit 2 = 1, qubit 3 = 0, and it is the entry [1, 0, 1, 0] of a state array.
"""

from __future__ import annotations

import ctypes
import numbers
import operator
import os
import reprlib
from math import cos, inf, isfinite, prod, sin
from typing import Callable, NamedTuple, Sequence

import numpy as np

# Register width ceiling; amplitudes are dense, so memory is 2^N float64.
MAX_QUBITS = 20
# Shot counts are int64, so no shot total may exceed the largest int64.
MAX_SHOTS = 2**63 - 1

_DIST_TOL = 1e-9
# a buffer's data starts on a cache line: np.empty starts it wherever the heap
# has room, 16, 32 or 48 bytes past a line, and at 16 qubits `execute` into
# such a buffer took 7-21% longer than into an aligned one
_ALIGN_BYTES = 64
# uniform doubles per block drawn by `sample` (64 KiB): memory stays bounded
# at any shot count, and each block is sorted before it is counted
_BLOCK_DRAWS = 2**13


# a refused value is shown by its repr shortened past a few dozen characters,
# so that the refusal stays one short line however long the value
brief = reprlib.repr


def check_integer(value: object, name: str, low: int = 1, high: int | None = None) -> int:
    """`value` as a Python int; refuses a bool, anything that is not a Python
    or numpy integer, and an integer below `low` or, unless `high` is None,
    above `high`."""
    try:
        if isinstance(value, bool):  # an int subclass, which `operator.index` takes
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {brief(value)}") from None
    if number < low:
        raise ValueError(f"{name} must be >= {low}, got {brief(number)}")
    if high is not None and number > high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {brief(number)}")
    return number


def check_real(
    value: object, name: str, low: float = -inf, high: float = inf, ends: str = "[]"
) -> float:
    """`value` as a Python float; refuses a bool, anything that is not a Python
    or numpy real, a value that is not finite in float64, and one outside the
    range from `low` to `high`, whose `ends` are each closed ("[", "]") or
    open ("(", ")")."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {brief(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int past float64, such as 10**400
        number = inf
    if not isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {brief(value)}")
    above = low <= number if ends[0] == "[" else low < number
    below = number <= high if ends[1] == "]" else number < high
    if not (above and below):
        if high < inf:
            rule = f"in {ends[0]}{low:g}, {high:g}{ends[1]}"
        else:
            rule = f"{'>=' if ends[0] == '[' else '>'} {low:g}"
        raise ValueError(f"{name} must be {rule}, got {number!r}")
    return number


def check_shots(shots: object) -> int:
    """`shots` as an int; refuses a non-integer and a count outside [1, MAX_SHOTS]."""
    return check_integer(shots, "shots", 1, MAX_SHOTS)


def _check_n_qubits(n_qubits: object) -> int:
    return check_integer(n_qubits, "n_qubits", 1, MAX_QUBITS)


def _vector_width(vec: np.ndarray, what: str, n_qubits: int | None = None) -> int:
    """N of a vector of 2^N `what`; refuses any other shape, N outside
    [1, MAX_QUBITS] and, unless `n_qubits` is None, N other than `n_qubits`."""
    n = len(vec).bit_length() - 1 if vec.ndim == 1 else 0
    if n < 1 or vec.shape != (2**n,):
        raise ValueError(f"expected 2^N {what} for some N >= 1, got shape {vec.shape}")
    if n_qubits is not None and n != n_qubits:
        raise ValueError(
            f"expected {2**n_qubits} {what} for {n_qubits} qubits, got shape {vec.shape}"
        )
    return _check_n_qubits(n)


def check_counts(counts: np.ndarray, n_qubits: int | None = None) -> int:
    """N of integer counts over 2^N basis states (N >= 1); refuses any other
    dtype or length, N other than `n_qubits` unless it is None, a negative
    count, zero shots and a total over MAX_SHOTS."""
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got {counts.dtype}")
    n = _vector_width(counts, "counts", n_qubits)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if (most := int(counts.max())) == 0:
        raise ValueError("shots must be >= 1, got 0")
    # an int64 sum wraps past MAX_SHOTS, which 2^N counts pass only if one passes MAX_SHOTS / 2^N
    if most > MAX_SHOTS >> n and sum(counts.tolist()) > MAX_SHOTS:
        raise ValueError(f"counts total more than {MAX_SHOTS} shots, the largest int64")
    return n


def _real_array(values: object, name: str) -> np.ndarray:
    """`values` as a float64 array; refuses a complex dtype, whose imaginary
    part a cast to float would drop with only a warning."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def check_params(params: object, count: int) -> np.ndarray:
    """`params` as a float64 vector of `count` angles; refuses a complex
    dtype, any other shape and a NaN or infinite angle."""
    theta = _real_array(params, "parameters")
    if theta.shape != (count,):
        raise ValueError(f"expected {count} parameters, got shape {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError("parameters must be finite")
    return theta


def check_probabilities(probs: object, name: str, n_qubits: int | None = None) -> np.ndarray:
    """`probs` as a float64 vector; refuses a complex one, any shape but 2^N
    entries with N in [1, MAX_QUBITS], N other than `n_qubits` unless it is
    None, a negative entry and a sum more than `_DIST_TOL` from 1."""
    vec = _real_array(probs, name)
    _vector_width(vec, name, n_qubits)
    total = float(vec.sum())
    if vec.min() < 0 or not abs(total - 1.0) <= _DIST_TOL:  # also rejects NaN
        raise ValueError(f"{name} must be non-negative and sum to 1, not {total!r}")
    return vec


def _aligned_vector(size: int) -> tuple[np.ndarray, int]:
    """An uninitialized float64 vector of `size` entries whose data starts on
    a 64-byte boundary, and the address of that data."""
    raw = np.empty(size + _ALIGN_BYTES // 8)
    address = ctypes.addressof(ctypes.c_char.from_buffer(raw))  # a third of raw.ctypes.data's time
    start = (-address % _ALIGN_BYTES) // 8
    return raw[start : start + size], address + 8 * start


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous float64 array of `shape` whose data
    starts on a 64-byte boundary."""
    return _aligned_vector(prod(shape))[0].reshape(shape)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _cpu_ranges(count: int, most: int) -> list[range]:
    """`range(count)` cut into contiguous ranges of near-equal length: one
    per usable CPU, but at most `most` and `count`, and at least one."""
    parts = max(1, min(_usable_cpus(), most, count))
    firsts = [count * i // parts for i in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(firsts, firsts[1:])]


def _run_ranges(body: Callable[[int, range], object], ranges: list[range]) -> list:
    """`body(i, ranges[i])` for each range, in order.  One range runs on the
    calling thread and starts no thread; two or more run on one thread each,
    and what a range raised is raised once every range has stopped."""
    if len(ranges) == 1:
        return [body(0, ranges[0])]
    # imported here, not at the top: its 5 ms would fall on every start
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(ranges)) as pool:  # its exit waits for every range
        done = [pool.submit(body, i, part) for i, part in enumerate(ranges)]
    return [future.result() for future in done]


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


class ProductLayer(NamedTuple):
    """The views of `work` that the first rotation layer on |0...0> writes,
    built once by `product_layer`."""

    steps: tuple[tuple[np.ndarray, np.ndarray], ...]  # per qubit: the state so far, its next layer
    factors: np.ndarray  # scratch for one qubit's (cos(t/2), sin(t/2))
    state: np.ndarray  # the (2,)*n view of row 0 the last step fills


def product_layer(work: np.ndarray) -> ProductLayer:
    """The `ProductLayer` of a C-contiguous float64 (2, 2^n) buffer: the
    growing layers are written alternately into its two rows, so that the
    last one lands in row 0, and row 1 is left as scratch."""
    n = work.shape[1].bit_length() - 1
    steps, column = [], np.ones((1, 1))
    for k in range(n):
        pair = work[(n - 1 - k) % 2, : 2 * len(column)].reshape(len(column), 2)
        steps.append((column, pair))
        column = pair.reshape(-1, 1)
    return ProductLayer(tuple(steps), np.empty(2), work[0].reshape((2,) * n))


def apply_product(layer: ProductLayer, angles: Sequence[float]) -> np.ndarray:
    """Ry(angles[q]) on each qubit q of |0...0>, written into `layer`'s views;
    returns the (2,)*n state.

    Qubit by qubit, the state so far times (cos(t/2), sin(t/2)) along a new
    last axis.  The probabilities equal those of the n `apply_ry` calls it
    replaces, but the sign bit of a zero amplitude can differ from a per-gate
    loop (seen at 9-16 qubits with angles 0, pi and 2*pi).
    """
    factors = layer.factors
    for (column, pair), t in zip(layer.steps, angles):
        factors[0], factors[1] = cos(t / 2.0), sin(t / 2.0)
        # Fortran order runs the long axis innermost, not the length-2 one
        np.multiply(column, factors, out=pair, order="F")
    return layer.state


class RyGate(NamedTuple):
    """The views one Ry reads and writes, built once by `ry_gate`."""

    axis: int
    source: np.ndarray  # the input state as (2^axis, 2, rest); scaled in place
    target: np.ndarray  # the output state in the same shape
    flipped: np.ndarray  # source with each pair swapped, transposed when rows are short
    flipped_target: np.ndarray  # target in flipped's layout
    order: str  # the flip pass's iteration order
    signs: np.ndarray  # scratch for (-sin(t/2), sin(t/2)), one per pair entry


def ry_gate(amp: np.ndarray, axis: int, out: np.ndarray) -> RyGate:
    """The `RyGate` that rotates the qubit on axis `axis` of the (2,)*N state
    `amp` into `out`, a C-contiguous array of the same shape distinct from it."""
    a = amp.reshape(2**axis, 2, -1)
    o = out.reshape(a.shape)
    if a.shape[2] >= min(8, a.shape[0]):
        return RyGate(axis, a, o, a[:, ::-1], o, "K", np.empty((2, 1)))
    # rows this short make a slow innermost loop: run the long axis
    # innermost instead, through the transposed views in C order
    return RyGate(axis, a, o, a.T[:, ::-1], o.T, "C", np.empty((2, 1)))


def apply_ry(gate: RyGate, theta: float) -> None:
    """Rotate the gate's qubit around the y axis by theta, from its source
    state into its target; the source is used as scratch, its contents lost.

    The 2x2 action on the (bit=0, bit=1) amplitude pair is
    [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]].
    """
    _, a, o, flipped, flipped_target, order, signs = gate
    c, s = cos(theta / 2.0), sin(theta / 2.0)
    # out = c*amp + s*(amp with each pair swapped and its bit-0 entry negated):
    # c*a0 + (-s)*a1 and c*a1 + s*a0 are exactly c*a0 - s*a1 and s*a0 + c*a1
    signs[0, 0], signs[1, 0] = -s, s
    np.multiply(flipped, signs, out=flipped_target, order=order)
    np.multiply(a, c, out=a)
    np.add(o, a, out=o)


class CzGate(NamedTuple):
    """The view one CZ negates, built once by `cz_gate`."""

    axes: tuple[int, int]
    quarter: np.ndarray  # the entries with both bits set


def cz_gate(amp: np.ndarray, qa: int, qb: int) -> CzGate:
    """The `CzGate` between the qubits on axes `qa` and `qb` of the (2,)*N
    state `amp`."""
    lo, hi = sorted((qa, qb))
    n = amp.ndim
    blocks = amp.reshape(2**lo, 2, 2 ** (hi - lo - 1), 2, 2 ** (n - 1 - hi))
    return CzGate((qa, qb), blocks[:, 1, :, 1])


def apply_cz(gate: CzGate) -> None:
    """Controlled-Z: negate, in place, the entries with both bits set."""
    np.negative(gate.quarter, out=gate.quarter)


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
    is the same stream of doubles as one `rng.random(shots)`, and counts each
    block sorted: a draw u lands in bin i when cdf[i-1] <= u < cdf[i], as
    ``np.searchsorted(cdf, u, side="right")`` places it.  Deterministic for a
    fixed generator state.  Refuses, before any draw, a shot count that is not
    an integer in [1, MAX_SHOTS] and any `probs` that `check_probabilities`
    refuses, such as a complex vector or one with a NaN, which would put
    every shot in bin 0.
    """
    shots = check_shots(shots)
    probs = check_probabilities(probs, "probabilities")
    cdf = np.cumsum(probs, out=_aligned_empty(probs.shape))
    # rounding can leave the cdf short of 1 where it reaches its last positive
    # bin; a draw above it would land on a zero-probability outcome after it
    cdf[np.flatnonzero(probs)[-1] :] = 1.0
    counts = np.zeros(len(cdf), dtype=np.int64)
    for start in range(0, shots, _BLOCK_DRAWS):
        u = rng.random(min(_BLOCK_DRAWS, shots - start))
        # a search among sorted draws runs without mispredicted branches
        u.sort()
        if len(cdf) <= len(u):
            # the draws below each cdf entry, less those below the one before
            below = np.searchsorted(u, cdf, side="left")
            counts += np.diff(below, prepend=0)
        else:
            counts += np.bincount(np.searchsorted(cdf, u, side="right"), minlength=len(cdf))
    return counts
