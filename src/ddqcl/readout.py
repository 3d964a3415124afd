"""Synthetic readout-assignment noise, its calibration, and linear correction.

The channel flips each read bit independently: p10 = p(read 1 | true 0),
p01 = p(read 0 | true 1) per qubit.  Calibration prepares every basis state,
pushes shots through the channel and tallies columns of the transition
matrix M with p(y|x) in column x; correction solves M P_x = P_y back.
M is held column-major (Fortran order), the layout LAPACK reads, so each
calibration experiment writes one contiguous column.  M is read-only once
built, and `ConfusionMatrix` holds its read-only LU factors from one
`dgesv`; `correct` solves with them by one `dgetrs`.  `np.linalg.solve`
runs that same `dgesv`, which factors M and runs the same `dgetrs`, so the
solution has its bits, without an O(8^N) factorization per call.  A copy
is rebuilt through the constructor, checked and factored again.  Both are
numpy's own LAPACK, called through `ctypes`; on a numpy build that does
not export them, `correct` calls `np.linalg.solve` on every correction.
Probabilities go in and come out as float64 arrays of length 2^N, and
sampled counts as int64 arrays of length 2^N, as `sample` returns them; the
register width is read from the array or from the matrix.

The sampled channel draws its flips in blocks of `_FLIP_BLOCK_DRAWS`
doubles into one buffer per call, compares each block in place, as one
contiguous run, against the model's p10 rates tiled once per shot of a
block, and, when some qubit's two rates differ, against its p01 rates into
a second buffer.  It sums each shot's flips into its flip pattern by one
`np.matmul`; those sums are of distinct powers of two, exact in float64,
so no BLAS path or thread count can change a count.  A shot prepared in
state x reads (f10 & ~x) | (~f01 & x) from its two patterns, f10 ^ x from
one.  The rows are built once per model, at most one block long, and
depend on no state: `calibrate` draws each column by that same step,
`_flip_shots`, for its one prepared state.  With a PCG64
generator it splits its 2^N experiments into contiguous ranges, one per
usable CPU, each run in a thread on a copy of the generator advanced to
the range's first draw.  The matrix and the generator's final state are
those of the sequential loop, bit for bit.
"""

from __future__ import annotations

import ctypes
from copy import deepcopy
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import prod
from typing import Callable

import numpy as np

from .sim import _aligned_vector, _check_n_qubits, _real_array, _usable_cpus, _vector_width
from .sim import check_counts, check_real, check_shots

DEFAULT_CALIBRATION_SHOTS = 10_000
DEFAULT_MAX_CONDITION = 1e8
MAX_CORRECTION_QUBITS = 12  # dense correction holds 2^n x 2^n float64: 128 MiB at 12
# a flip rate lies in [0, MAX_FLIP_RATE): from 0.5 up a bit reads flipped at least as often as not
MAX_FLIP_RATE = 0.5
# uniform doubles per block of the sampled channel (1 MiB): memory stays
# bounded at any shot count.  A 9-qubit calibration at 10,000 shots (2 cores,
# median of 8) took 0.344 / 0.304 / 0.302 s in one range and 0.524 / 0.293 /
# 0.264 s in two for blocks of 2^13 / 2^15 / 2^17; 2^19 was no faster
_FLIP_BLOCK_DRAWS = 2**17


def _lapack_lu() -> tuple[ctypes._CFuncPtr, ctypes._CFuncPtr] | None:
    """numpy's own `dgesv` and `dgetrs` (OpenBLAS, 64-bit integers) with
    their C signatures declared, or None on a numpy build that does not
    export them under these names."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        gesv, getrs = lib.scipy_dgesv_64_, lib.scipy_dgetrs_64_
    except (AttributeError, OSError):
        return None
    # undeclared, a pointer would be passed as a 32-bit int
    int_p, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # n, nrhs, a, lda, ipiv, b, ldb, info
    gesv.argtypes = [int_p, int_p, ptr, int_p, ptr, ptr, int_p, int_p]
    # trans, n, nrhs, a, lda, ipiv, b, ldb, info, and the hidden length of trans
    getrs.argtypes = [ctypes.c_char_p, int_p, int_p, ptr, int_p, ptr, ptr, int_p, int_p,
                      ctypes.c_size_t]
    gesv.restype = getrs.restype = None
    return gesv, getrs


_LAPACK = _lapack_lu()


def _factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The LU factors and row pivots of `m` as one `dgesv` with one zero
    right-hand side leaves them, read-only, and the two arrays' addresses;
    refuses an exactly singular `m` (nonzero info).

    `np.linalg.solve` of a vector runs this same `dgesv`.  A direct
    `dgetrf` gives the same factors at one BLAS thread, but at two it
    splits matrices from 100x100 to about 140x140 over the threads
    otherwise than `dgesv` does, and leaves other last bits.
    """
    lu = np.array(m, dtype=np.float64, order="F")  # overwritten with the factors
    pivots = np.empty(len(lu), dtype=np.int64)
    rhs = np.zeros(len(lu))
    n, nrhs, info = ctypes.c_int64(len(lu)), ctypes.c_int64(1), ctypes.c_int64(0)
    lu_address, pivots_address = lu.ctypes.data, pivots.ctypes.data  # ~3 us each: read once
    _LAPACK[0](n, nrhs, lu_address, n, pivots_address, rhs.ctypes.data, n, info)
    if info.value != 0:
        raise ValueError(f"dgesv could not factor the confusion matrix (info {info.value})")
    lu.setflags(write=False)
    pivots.setflags(write=False)
    return lu, pivots, lu_address, pivots_address


@dataclass(frozen=True)
class PerQubitFlipModel:
    """Independent asymmetric bit-flip probabilities, one pair per qubit."""

    p10: tuple[float, ...]
    p01: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("p10", "p01"):
            rates = tuple(check_real(p, name, 0, MAX_FLIP_RATE, "[)") for p in getattr(self, name))
            object.__setattr__(self, name, rates)
        if len(self.p10) != len(self.p01) or not self.p10:
            raise ValueError("p10 and p01 must be equal-length, non-empty")
        _check_n_qubits(len(self.p10))

    @classmethod
    def uniform(cls, n_qubits: int, p10: float, p01: float | None = None) -> "PerQubitFlipModel":
        """Same flip pair on every qubit; symmetric if p01 is omitted."""
        n = _check_n_qubits(n_qubits)
        return cls((p10,) * n, (p10 if p01 is None else p01,) * n)

    @property
    def n_qubits(self) -> int:
        return len(self.p10)

    @property
    def blocks(self) -> list[np.ndarray]:
        """The per-qubit 2x2 transition blocks [[1 - p10, p01], [p10, 1 - p01]]."""
        return [np.array([[1.0 - a, b], [a, 1.0 - b]]) for a, b in zip(self.p10, self.p01)]

    @property
    def condition_number(self) -> float:
        """The exact channel's 2-norm condition number, in O(n): a Kronecker
        product's singular values multiply, so the blocks' numbers do."""
        return prod(float(np.linalg.cond(b)) for b in self.blocks)

    @cached_property
    def _flip_rows(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The flip step's thresholds, built once: p10 and p01, each tiled
        once per shot of a `_flip_shots` block into a (shots, n) array; p01's
        is None when each qubit's two rates are equal."""
        block = max(1, _FLIP_BLOCK_DRAWS // self.n_qubits)
        p10 = np.tile(self.p10, (block, 1))
        return p10, None if self.p01 == self.p10 else np.tile(self.p01, (block, 1))


@dataclass(frozen=True, eq=False)  # holds arrays: compares and hashes by identity
class ConfusionMatrix:
    """Column-stochastic 2^N x 2^N transition matrix: entry (y, x) = p(read y | true x).

    `entries` is a private, read-only, column-major (F-contiguous) copy of
    the matrix it was built from, checked and factored once, here: `_lu` is
    `_factor`'s, for `correct` (None on a numpy build without the LAPACK
    binding).  A copy or an unpickled matrix is rebuilt, and re-checked, here.
    """

    entries: np.ndarray
    _lu: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        m = np.array(_real_array(self.entries, "entries"), order="F")
        m.setflags(write=False)
        n = len(m).bit_length() - 1 if m.ndim == 2 else 0
        if n < 1 or m.shape != (2**n, 2**n):
            raise ValueError(f"expected a 2^N x 2^N matrix for some N >= 1, got shape {m.shape}")
        _check_n_qubits(n)
        if np.any(m < 0):
            raise ValueError("entries must be non-negative")
        worst = float(np.max(np.abs(m.sum(axis=0) - 1.0)))
        if not worst <= 1e-9:  # also rejects NaN
            raise ValueError(f"columns must sum to 1 (worst deviation {worst:.3e})")
        cond = float(np.linalg.cond(m))  # once per matrix, so `correct` only solves
        if not np.isfinite(cond) or cond > DEFAULT_MAX_CONDITION:
            raise ValueError(f"confusion matrix too ill-conditioned to invert (cond ~ {cond:.3e})")
        object.__setattr__(self, "entries", m)
        if _LAPACK is not None:
            object.__setattr__(self, "_lu", _factor(m))

    def __reduce__(self):
        return type(self), (self.entries,)

    @property
    def n_qubits(self) -> int:
        return len(self.entries).bit_length() - 1


def synth_confusion(model: PerQubitFlipModel) -> ConfusionMatrix:
    """Exact channel matrix: Kronecker product of the per-qubit 2x2 blocks."""
    check_dense_width(model.n_qubits)  # before the product fills a matrix of 4^n entries
    return ConfusionMatrix(reduce(np.kron, model.blocks))


def apply_channel_exact(p: np.ndarray, m: ConfusionMatrix) -> np.ndarray:
    """Push exact probabilities through the channel: P_y = M P_x."""
    _vector_width(p, "probabilities", m.n_qubits)
    return m.entries @ p


def _flip_shots(
    shots: int,
    rows: tuple[np.ndarray, np.ndarray | None],
    rng: np.random.Generator,
    states: Callable[[int, int], np.ndarray | int],
) -> np.ndarray:
    """The int64 read-out counts of `shots` shots, drawn as `apply_channel_sampled` says;
    `rows` are the model's `_flip_rows`, and `states(lo, hi)` gives shots lo..hi-1
    their prepared states, or the one state they all prepare."""
    p10, p01 = rows
    block, n = p10.shape
    size = min(block, shots)
    draws, sums, read = np.empty((size, n)), np.empty(size), np.empty(size, dtype=np.int64)
    if p01 is not None:
        flips01, read01 = np.empty((size, n)), np.empty(size, dtype=np.int64)
    bit_values = 2.0 ** np.arange(n - 1, -1, -1)  # sums of distinct ones are exact in float64
    out = np.zeros(2**n, dtype=np.int64)
    for lo in range(0, shots, block):
        k = min(block, shots - lo)
        u, r = draws[:k], read[:k]
        rng.random(out=u)
        x = states(lo, lo + k)
        if p01 is not None:
            f01 = read01[:k]
            f01[...] = np.matmul(np.less(u, p01[:k], out=flips01[:k]), bit_values, out=sums[:k])
        np.less(u, p10[:k], out=u)  # each draw becomes its flip, 1.0 or 0.0
        r[...] = np.matmul(u, bit_values, out=sums[:k])
        if p01 is None:
            np.bitwise_xor(r, x, out=r)
        else:
            # a 0 bit of x reads as its p10 flip, a 1 bit as 1 unless its p01 flip
            np.bitwise_and(np.invert(f01, out=f01), x, out=f01)
            np.bitwise_or(np.bitwise_and(r, ~x, out=r), f01, out=r)
        out += np.bincount(r, minlength=2**n)
    return out


def apply_channel_sampled(
    counts: np.ndarray, model: PerQubitFlipModel, rng: np.random.Generator
) -> np.ndarray:
    """Corrupt int64 shot counts over the 2^N basis states of `model`'s
    register shot by shot, flipping each bit independently; returns the
    read-out counts.

    Shots are taken in basis-state order and their flips drawn as
    ``rng.random((k, n))`` over consecutive blocks of at most
    ``_FLIP_BLOCK_DRAWS`` doubles: the same stream as one draw per outcome,
    in bounded memory.  Each block is drawn into one buffer, allocated once
    per call, and compared in place against the model's p10 row, and into
    a second buffer against its p01 row when some qubit's two rates differ,
    giving each shot two flip patterns; a shot prepared in state x reads
    (f10 & ~x) | (~f01 & x), which is f10 ^ x when the rows are one.
    """
    n = check_counts(counts, model.n_qubits)
    counts = counts.astype(np.int64, copy=False)  # np.repeat will not cast unsigned counts
    xs = np.flatnonzero(counts)
    ends = np.cumsum(counts[xs])
    starts = ends - counts[xs]

    def states(lo: int, hi: int) -> np.ndarray:
        return np.repeat(xs, np.maximum(np.minimum(ends, hi) - np.maximum(starts, lo), 0))

    return _flip_shots(int(ends[-1]), model._flip_rows, rng, states)


def check_dense_width(n_qubits: int) -> None:
    """Refuse a register too wide for a dense 2^n x 2^n confusion matrix."""
    if n_qubits > MAX_CORRECTION_QUBITS:
        dim = 2**n_qubits
        raise ValueError(
            f"readout correction on {n_qubits} qubits needs a dense {dim}x{dim} float64 matrix "
            f"({8 * dim**2 / 2**30:g} GiB); the cap is {MAX_CORRECTION_QUBITS} qubits"
        )


def _advanced(bit_generator: np.random.PCG64, doubles: int) -> np.random.PCG64:
    """A copy of `bit_generator` that has drawn `doubles` more uniform
    doubles, one 64-bit output each.  `advance` drops a buffered 32-bit
    output, which doubles never touch, so the copy keeps the original's."""
    ahead = deepcopy(bit_generator)
    ahead.advance(doubles)
    kept = bit_generator.state
    ahead.state = {**ahead.state, "has_uint32": kept["has_uint32"], "uinteger": kept["uinteger"]}
    return ahead


def calibrate(
    model: PerQubitFlipModel, shots_per_basis_state: int, rng: np.random.Generator
) -> ConfusionMatrix:
    """Estimate the channel matrix from one preparation experiment per basis state.

    The experiments run in basis-state order on `rng`'s stream.  With a
    PCG64 generator they are split into contiguous ranges, one per usable
    CPU, each run in a thread on a copy of the generator advanced to the
    range's first draw; `rng` is then advanced past all of them.  So the
    matrix and `rng`'s final state are those of one sequential loop.
    """
    shots = check_shots(shots_per_basis_state)
    n = model.n_qubits
    check_dense_width(n)  # before the 2^n experiments and the matrix they fill
    dim = 2**n
    cols = np.empty((dim, dim), order="F")  # each experiment fills one contiguous column
    rows = model._flip_rows

    def run(experiments: range, stream: np.random.Generator) -> None:
        for x in experiments:
            cols[:, x] = _flip_shots(shots, rows, stream, lambda lo, hi: x) / shots

    # The split stays: in one range, `readout-9q-zoo`'s calibration took 0.42 s,
    # not 0.29 s (2 CPUs, slower in 12 of 12 alternated fresh-process pairs).
    parts = min(_usable_cpus(), dim) if type(rng.bit_generator) is np.random.PCG64 else 1
    if parts == 1:
        run(range(dim), rng)
    else:
        draws = shots * n  # per experiment
        firsts = [dim * i // parts for i in range(parts + 1)]
        ranges = [range(lo, hi) for lo, hi in zip(firsts, firsts[1:])]
        bit_generator = rng.bit_generator
        streams = [np.random.Generator(_advanced(bit_generator, r.start * draws)) for r in ranges]
        # imported here, not at the top: its 5 ms would fall on every start
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(parts) as pool:
            list(pool.map(run, ranges, streams))  # raises what a range raised
        bit_generator.state = _advanced(bit_generator, dim * draws).state
    return ConfusionMatrix(cols)


def correct(observed: np.ndarray, m: ConfusionMatrix) -> np.ndarray:
    """Solve M P_x = P_y, clamp negative probabilities to 0, renormalize.

    The solve is one `dgetrs` with M's stored factors, into a fresh vector on
    a 64-byte line that is clamped, renormalized and returned in place; its
    bits are those of `np.linalg.solve(m.entries, observed)`, which runs
    instead when the matrix holds no factors.  Refuses complex `observed`.
    """
    observed = _real_array(observed, "observed")
    _vector_width(observed, "probabilities", m.n_qubits)
    if m._lu is None:
        raw = np.linalg.solve(m.entries, observed)
    else:
        raw, address = _aligned_vector(len(observed))
        raw[...] = observed
        n, nrhs, info = ctypes.c_int64(len(raw)), ctypes.c_int64(1), ctypes.c_int64(0)
        # dgetrs sets info only for an illegal argument, and these are fixed
        _LAPACK[1](b"N", n, nrhs, m._lu[2], n, m._lu[3], address, n, info, 1)
    clamped = np.maximum(raw, 0.0, out=raw)
    total = clamped.sum()
    if not total > 0:  # also rejects NaN
        raise ValueError(f"corrected distribution has no positive mass (total {float(total)})")
    return np.divide(clamped, total, out=clamped)
