"""Synthetic readout-assignment noise, its calibration, and linear correction.

The channel flips each read bit independently: p10 = p(read 1 | true 0),
p01 = p(read 0 | true 1) per qubit.  Calibration prepares every basis state,
pushes shots through the channel and tallies columns of the transition
matrix M with p(y|x) in column x; correction solves M P_x = P_y back.
M is held column-major (Fortran order), the layout LAPACK reads: each
calibration experiment writes one contiguous column, and `np.linalg.solve`
hands M to `dgesv` with contiguous column copies instead of a strided
transpose, on the same input, so the solution has the same bits.
Probabilities go in and come out as float64 arrays of length 2^N, and
sampled counts as int64 arrays of length 2^N, as `sample` returns them; the
register width is read from the array or from the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .sim import _BLOCK_DRAWS, _check_n_qubits, _real_array, check_counts

DEFAULT_CALIBRATION_SHOTS = 10_000
DEFAULT_MAX_CONDITION = 1e8
MAX_CORRECTION_QUBITS = 12  # dense correction holds 2^n x 2^n float64: 128 MiB at 12


@dataclass(frozen=True)
class PerQubitFlipModel:
    """Independent asymmetric bit-flip probabilities, one pair per qubit."""

    p10: tuple[float, ...]
    p01: tuple[float, ...]

    def __post_init__(self) -> None:
        p10 = tuple(float(p) for p in self.p10)
        p01 = tuple(float(p) for p in self.p01)
        if len(p10) != len(p01) or not p10:
            raise ValueError("p10 and p01 must be equal-length, non-empty")
        _check_n_qubits(len(p10))
        for name, probs in (("p10", p10), ("p01", p01)):
            for p in probs:
                if not 0.0 <= p < 0.5:
                    raise ValueError(f"{name} entries must lie in [0, 0.5), got {p}")
        object.__setattr__(self, "p10", p10)
        object.__setattr__(self, "p01", p01)

    @classmethod
    def uniform(cls, n_qubits: int, p10: float, p01: float | None = None) -> "PerQubitFlipModel":
        """Same flip pair on every qubit; symmetric if p01 is omitted."""
        if p01 is None:
            p01 = p10
        return cls((p10,) * n_qubits, (p01,) * n_qubits)

    @property
    def n_qubits(self) -> int:
        return len(self.p10)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic 2^N x 2^N transition matrix: entry (y, x) = p(read y | true x).

    `entries` is a private, read-only, column-major (F-contiguous) copy of
    the matrix it was built from, checked once, here.
    """

    entries: np.ndarray

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

    @property
    def n_qubits(self) -> int:
        return len(self.entries).bit_length() - 1


def synth_confusion(model: PerQubitFlipModel) -> ConfusionMatrix:
    """Exact channel matrix: Kronecker product of the per-qubit 2x2 blocks."""
    blocks = [
        np.array([[1.0 - p10, p01], [p10, 1.0 - p01]])
        for p10, p01 in zip(model.p10, model.p01)
    ]
    return ConfusionMatrix(reduce(np.kron, blocks))


def _check_width(p: np.ndarray, m: ConfusionMatrix) -> None:
    if p.shape != (len(m.entries),):
        raise ValueError(f"expected {len(m.entries)} probabilities, got shape {p.shape}")


def apply_channel_exact(p: np.ndarray, m: ConfusionMatrix) -> np.ndarray:
    """Push exact probabilities through the channel: P_y = M P_x."""
    _check_width(p, m)
    return m.entries @ p


def apply_channel_sampled(
    counts: np.ndarray, model: PerQubitFlipModel, rng: np.random.Generator
) -> np.ndarray:
    """Corrupt int64 shot counts over the 2^N basis states of `model`'s
    register shot by shot, flipping each bit independently; returns the
    read-out counts.

    Shots are taken in basis-state order and their flips drawn as
    ``rng.random((k, n))`` over consecutive blocks of at most ``_BLOCK_DRAWS``
    doubles: the same stream as one draw per outcome, in bounded memory.
    """
    n = model.n_qubits
    if check_counts(counts) != n:
        raise ValueError(f"expected {2**n} counts for {n} qubits, got shape {counts.shape}")
    weights = 1 << np.arange(n - 1, -1, -1)
    bit_values = weights.astype(float)  # sums of distinct powers of two: exact in float64
    xs = np.flatnonzero(counts)
    thresholds = np.where(xs[:, None] & weights, model.p01, model.p10)  # (states, n)
    ends = np.cumsum(counts[xs])
    starts = ends - counts[xs]
    out = np.zeros(2**n, dtype=np.int64)
    block = max(1, _BLOCK_DRAWS // n)
    shots = int(counts.sum())
    for lo in range(0, shots, block):
        hi = min(lo + block, shots)
        in_block = np.maximum(np.minimum(ends, hi) - np.maximum(starts, lo), 0)
        flips = rng.random((hi - lo, n)) < np.repeat(thresholds, in_block, axis=0)
        read = np.repeat(xs, in_block) ^ (flips @ bit_values).astype(np.int64)
        out += np.bincount(read, minlength=2**n)
    return out


def check_dense_width(n_qubits: int) -> None:
    """Refuse a register too wide for a dense 2^n x 2^n confusion matrix."""
    if n_qubits > MAX_CORRECTION_QUBITS:
        dim = 2**n_qubits
        raise ValueError(
            f"readout correction on {n_qubits} qubits needs a dense {dim}x{dim} float64 matrix "
            f"({8 * dim**2 / 2**30:g} GiB); the cap is {MAX_CORRECTION_QUBITS} qubits"
        )


def calibrate(
    model: PerQubitFlipModel, shots_per_basis_state: int, rng: np.random.Generator
) -> ConfusionMatrix:
    """Estimate the channel matrix from one preparation experiment per basis state."""
    if shots_per_basis_state < 1:
        raise ValueError(f"shots must be >= 1, got {shots_per_basis_state}")
    n = model.n_qubits
    check_dense_width(n)  # before the 2^n experiments and the matrix they fill
    dim = 2**n
    cols = np.empty((dim, dim), order="F")  # each experiment fills one contiguous column
    for x in range(dim):
        prepared = np.zeros(dim, dtype=np.int64)
        prepared[x] = shots_per_basis_state
        cols[:, x] = apply_channel_sampled(prepared, model, rng) / shots_per_basis_state
    return ConfusionMatrix(cols)


def correct(observed: np.ndarray, m: ConfusionMatrix) -> np.ndarray:
    """Solve M P_x = P_y, clamp negative probabilities to 0, renormalize."""
    _check_width(observed, m)
    clamped = np.maximum(np.linalg.solve(m.entries, observed), 0.0)
    total = clamped.sum()
    if not total > 0:  # also rejects NaN
        raise ValueError(f"corrected distribution has no positive mass (total {float(total)})")
    return clamped / total
