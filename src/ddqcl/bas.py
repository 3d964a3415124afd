"""Bars-and-stripes pattern sets and their uniform target distribution.

An n x m binary image is a bar pattern when every row is constant and a
stripe pattern when every column is constant.  Dark pixels encode as 1,
light as 0, flattened row-major; the top-left pixel is qubit 0.  A pattern
is its basis-state index, a plain int in [0, 2^N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import MAX_QUBITS, Distribution


@dataclass(frozen=True)
class BasSpec:
    """Image shape for a bars-and-stripes dataset."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got ({self.rows}, {self.cols})")
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(
                f"{self.rows}x{self.cols} image needs {self.n_qubits} qubits (max {MAX_QUBITS})"
            )

    @property
    def n_qubits(self) -> int:
        return self.rows * self.cols

    @property
    def n_patterns(self) -> int:
        return 2**self.rows + 2**self.cols - 2


def encode_image(spec: BasSpec, image: np.ndarray) -> int:
    """Flatten a rows x cols binary grid (dark=1) into its basis-state index."""
    grid = np.asarray(image)
    if grid.shape != (spec.rows, spec.cols):
        raise ValueError(f"expected {spec.rows}x{spec.cols} image, got shape {grid.shape}")
    if set(np.unique(grid)) - {0, 1}:
        raise ValueError("image pixels must be 0 or 1")
    value = 0
    for bit in grid.reshape(-1):
        value = (value << 1) | int(bit)
    return value


def decode_image(spec: BasSpec, value: int) -> np.ndarray:
    """Inverse of encode_image: basis-state index back to a rows x cols grid."""
    n = spec.n_qubits
    if not 0 <= value < 2**n:
        raise ValueError(f"pattern {value} out of range for {n} qubits")
    flat = (value >> np.arange(n - 1, -1, -1)) & 1
    return flat.reshape(spec.rows, spec.cols)


def bas_patterns(spec: BasSpec) -> set[int]:
    """All bar (constant-row) and stripe (constant-column) images, as indices."""
    patterns: set[int] = set()
    for mask in range(2**spec.rows):
        rows = [[(mask >> (spec.rows - 1 - r)) & 1] * spec.cols for r in range(spec.rows)]
        patterns.add(encode_image(spec, np.array(rows)))
    for mask in range(2**spec.cols):
        cols = [(mask >> (spec.cols - 1 - c)) & 1 for c in range(spec.cols)]
        patterns.add(encode_image(spec, np.array([cols] * spec.rows)))
    return patterns


def bas_target_distribution(spec: BasSpec) -> Distribution:
    """Uniform distribution over the pattern set, zero elsewhere."""
    patterns = bas_patterns(spec)
    probs = np.zeros(2**spec.n_qubits)
    for p in patterns:
        probs[p] = 1.0 / len(patterns)
    return Distribution(spec.n_qubits, probs)
