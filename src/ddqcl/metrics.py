"""Divergence costs and generator scores.

All logarithms are natural.  Kullback-Leibler is the reporting metric and
needs a clamp because trained models can put exactly zero mass on target
patterns; Jensen-Shannon is the training cost and is finite as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import Distribution

DEFAULT_EPSILON = 1e-8


def _check_widths(a: Distribution, b: Distribution) -> None:
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"width mismatch: {a.n_qubits} vs {b.n_qubits} qubits")


def kl_divergence(x: Distribution, m: Distribution, epsilon: float = DEFAULT_EPSILON) -> float:
    """KL(x || m) = sum x ln(x/m), with 0 ln 0 = 0 and m clamped below at epsilon."""
    _check_widths(x, m)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    p = x.probs
    q = np.maximum(m.probs, epsilon)
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def js_divergence(p: Distribution, q: Distribution) -> float:
    """Jensen-Shannon divergence: mean KL of each input to their average.

    Symmetric, bounded by ln 2, finite without any clamping.
    """
    _check_widths(p, q)
    a, b = p.probs, q.probs
    m = 0.5 * (a + b)
    out = 0.0
    for x in (a, b):
        mask = x > 0
        out += 0.5 * float(np.sum(x[mask] * (np.log(x[mask]) - np.log(m[mask]))))
    return out


def histogram_to_distribution(counts: np.ndarray) -> Distribution:
    """Empirical frequencies of int64 counts over 2^N basis states: counts/shots."""
    shots = int(counts.sum())
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return Distribution(len(counts).bit_length() - 1, counts / shots)


@dataclass(frozen=True)
class QbasScore:
    """Precision/recall/F1 of a sample set against a target pattern set."""

    precision: float
    recall: float
    f1: float


def qbas_score(counts: np.ndarray, patterns: set[int]) -> QbasScore:
    """Score the int64 counts of generated samples, one per basis state of an
    N-qubit register, against the wanted patterns, each a basis-state index.

    Precision: fraction of shots landing on any wanted pattern.  Recall:
    fraction of wanted patterns seen at least once.  F1: their harmonic mean.
    """
    if not patterns:
        raise ValueError("pattern set must be non-empty")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    shots = int(counts.sum())
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    values = list(patterns)
    outside = [v for v in values if not 0 <= v < len(counts)]
    if outside:
        n = len(counts).bit_length() - 1
        raise ValueError(f"patterns {sorted(outside)} lie outside the {n}-qubit register")
    hits = int(counts[values].sum())
    seen = int(np.count_nonzero(counts[values]))
    precision = hits / shots
    recall = seen / len(patterns)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return QbasScore(precision, recall, f1)
