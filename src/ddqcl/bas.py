"""Bars-and-stripes pattern sets and their uniform target distribution.

An n x m binary image is a bar pattern when every row is constant and a
stripe pattern when every column is constant.  A pattern is its basis-state
index, a plain int in [0, 2^N) with N = n*m: the image flattened row-major,
dark pixels 1, and the top-left pixel qubit 0, the most significant bit.  So
row r is bits [m*(n-1-r), m*(n-r)), and in a 2x3 image the dark top row is
0b111000 and the dark left column 0b100100.  No image is built: a bar is the
all-dark row 2^m - 1 times the sum of the start bits 2^(m*k) of the rows it
darkens, and a stripe a column mask in [0, 2^m) times the sum of all n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import MAX_QUBITS, _aligned_empty, check_integer


@dataclass(frozen=True)
class BasSpec:
    """Image shape for a bars-and-stripes dataset."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        for name in ("rows", "cols"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(
                f"{self.rows}x{self.cols} image needs {self.n_qubits} qubits (max {MAX_QUBITS})"
            )

    @property
    def n_qubits(self) -> int:
        return self.rows * self.cols


def bas_patterns(spec: BasSpec) -> set[int]:
    """All bar (constant-row) and stripe (constant-column) images, as indices."""
    # sums of row start bits over every subset of rows, the last over all
    starts = [0]
    for k in range(spec.rows):
        starts += [s + (1 << spec.cols * k) for s in starts]
    bars = {((1 << spec.cols) - 1) * s for s in starts}
    return bars | {mask * starts[-1] for mask in range(1 << spec.cols)}


def bas_target_distribution(spec: BasSpec) -> np.ndarray:
    """Uniform probabilities over the pattern set, zero elsewhere: a length-2^N
    vector starting on a 64-byte cache line, as the cost loop's buffers do."""
    patterns = bas_patterns(spec)
    probs = _aligned_empty((2**spec.n_qubits,))
    probs.fill(0.0)
    probs[list(patterns)] = 1.0 / len(patterns)
    return probs
