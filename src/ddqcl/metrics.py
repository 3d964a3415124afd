"""Divergence costs and generator scores.

All logarithms are natural.  Kullback-Leibler is the reporting metric and
needs a clamp because trained models can put exactly zero mass on target
patterns; Jensen-Shannon is the training cost and is finite as-is.  Both take
float64 probability vectors and check only that their two shapes agree.
`js_divergence` runs in a (3, 2^N) scratch buffer that a caller evaluating
many models owns and passes in (see `sim`), so it allocates nothing of the
vectors' size unless an input has exact zeros to leave out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import _aligned_empty, _buffer, check_counts

DEFAULT_EPSILON = 1e-8


def _check_shapes(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def kl_divergence(x: np.ndarray, m: np.ndarray) -> float:
    """KL(x || m) = sum x ln(x/m), with 0 ln 0 = 0 and m clamped below at
    DEFAULT_EPSILON."""
    _check_shapes(x, m)
    q = np.maximum(m, DEFAULT_EPSILON)
    mask = x > 0
    return float(np.sum(x[mask] * (np.log(x[mask]) - np.log(q[mask]))))


def js_divergence(p: np.ndarray, q: np.ndarray, work: np.ndarray | None = None) -> float:
    """Jensen-Shannon divergence: mean KL of each input to their average.

    Symmetric, bounded by ln 2, finite without any clamping.  `work` is
    scratch, a C-contiguous float64 (3, len(p)) array the caller owns
    (allocated when None): row 0 holds the average, and rows 1 and 2 the logs.
    """
    _check_shapes(p, q)
    work = _buffer(work, (3, len(p)), "work")
    m = np.add(p, q, out=work[0])
    np.multiply(0.5, m, out=m)
    out = 0.0
    for x in (p, q):
        mask = x > 0
        # leave out the terms of x's zeros, copying only when there are some
        xs, ms = (x, m) if mask.all() else (x[mask], m[mask])
        terms = np.log(xs, out=work[1, : len(xs)])
        np.subtract(terms, np.log(ms, out=work[2, : len(ms)]), out=terms)
        np.multiply(xs, terms, out=terms)
        out += 0.5 * float(np.sum(terms))
    return out


def histogram_to_distribution(counts: np.ndarray) -> np.ndarray:
    """Empirical frequencies of int64 counts over 2^N basis states: counts/shots,
    in a new vector that starts on a 64-byte line."""
    check_counts(counts)
    return np.divide(counts, int(counts.sum()), out=_aligned_empty(counts.shape))


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
    n = check_counts(counts)
    shots = int(counts.sum())
    values = list(patterns)
    outside = [v for v in values if not 0 <= v < len(counts)]
    if outside:
        raise ValueError(f"patterns {sorted(outside)} lie outside the {n}-qubit register")
    hits = int(counts[values].sum())
    seen = int(np.count_nonzero(counts[values]))
    precision = hits / shots
    recall = seen / len(patterns)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return QbasScore(precision, recall, f1)
