"""Divergence costs and generator scores.

All logarithms are natural.  Kullback-Leibler is the reporting metric and
needs a clamp because trained models can put exactly zero mass on target
patterns; Jensen-Shannon is the training cost and is finite as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import Distribution, Histogram

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


def histogram_to_distribution(h: Histogram) -> Distribution:
    """Empirical frequencies counts/shots."""
    if h.shots < 1:
        raise ValueError(f"shots must be >= 1, got {h.shots}")
    return Distribution(h.n_qubits, h.counts / h.shots)


@dataclass(frozen=True)
class QbasScore:
    """Precision/recall/F1 of a sample set against a target pattern set."""

    precision: float
    recall: float
    f1: float


def qbas_score(h: Histogram, patterns: set[int]) -> QbasScore:
    """Score a histogram of generated samples against the wanted patterns,
    each a basis-state index of the histogram's register.

    Precision: fraction of shots landing on any wanted pattern.  Recall:
    fraction of wanted patterns seen at least once.  F1: their harmonic mean.
    """
    if not patterns:
        raise ValueError("pattern set must be non-empty")
    if h.shots < 1:
        raise ValueError(f"shots must be >= 1, got {h.shots}")
    values = list(patterns)
    outside = [v for v in values if not 0 <= v < len(h.counts)]
    if outside:
        raise ValueError(f"patterns {sorted(outside)} lie outside the {h.n_qubits}-qubit register")
    hits = int(h.counts[values].sum())
    seen = int(np.count_nonzero(h.counts[values]))
    precision = hits / h.shots
    recall = seen / len(patterns)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return QbasScore(precision, recall, f1)
