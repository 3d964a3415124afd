"""Derivative-free training loops over a noisy scalar cost.

`run` is the one implementation of the evaluation-budget contract: it draws
the n_ini uniform starts, hands that pool to the solver, and ends the run
when exactly `budget` cost calls are recorded.  The learning curve is those
costs; its best-so-far envelope and improvements are derived from them.  A
solver is only its update rule: a generator that yields its incumbent before
each step, so the last incumbent yielded is the run's final one.

SVHC and the elite-set zeroth-order search are reconstructions from their
one-line descriptions; their hyperparameters are explicit config, not
canonical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from itertools import count
from math import isfinite, pi, tau
from numbers import Integral
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np

from .ansatz import Ansatz, execute
from .metrics import histogram_to_distribution, js_divergence
from .readout import ConfusionMatrix, PerQubitFlipModel, apply_channel_sampled, correct
from .sim import _aligned_empty, _real_array, probabilities, sample


class BudgetExhausted(RuntimeError):
    """Raised by CostContext.evaluate once the evaluation budget is spent."""


# A run holds its initial pool, n_ini x L float64, and its cost record, 32 bytes
# per evaluation (a list slot and a Python float).  1 GiB is a quarter of a 4 GiB
# host, and far more than a run that trains in hours needs (L = 1000: 24 MB).
MAX_RUN_BYTES = 2**30

Pool = list[tuple[float, np.ndarray]]  # (cost, params) per initial draw
_by_cost = itemgetter(0)


@dataclass(frozen=True)
class LearningCurve:
    """One run: its raw cost per evaluation, in order, and two parameter vectors."""

    costs: np.ndarray
    best_params: np.ndarray  # the first evaluation at the lowest cost
    final_params: np.ndarray  # the solver's incumbent when the budget ran out

    @property
    def best_costs(self) -> np.ndarray:
        """Best cost so far after each evaluation."""
        return np.minimum.accumulate(self.costs)

    @property
    def best_cost(self) -> float:
        return float(self.costs.min())

    @property
    def improvements(self) -> np.ndarray:
        """Indices of the evaluations whose cost beats every earlier cost."""
        return np.flatnonzero(np.diff(self.best_costs, prepend=np.inf) < 0)


class CostContext:
    """Budgeted, recording wrapper around a scalar cost function.

    Owns the run's RNG: both cost-side sampling and optimizer proposals draw
    from the same stream, so a (config, seed) pair pins the whole run.
    """

    def __init__(
        self,
        cost_fn: Callable[[np.ndarray], float],
        param_count: int,
        budget: int,
        rng: np.random.Generator,
    ) -> None:
        if param_count < 1:
            raise ValueError(f"param_count must be >= 1, got {param_count}")
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self._cost_fn = cost_fn
        self.param_count = param_count
        self.budget = budget
        self.rng = rng
        self.costs: list[float] = []
        self.best_cost = float("inf")
        self.best_params: np.ndarray | None = None

    @classmethod
    def for_circuit(
        cls,
        ansatz: Ansatz,
        target: np.ndarray,
        budget: int,
        shots: int,
        rng: np.random.Generator,
        exact_mode: bool = False,
        channel: PerQubitFlipModel | None = None,
        confusion: ConfusionMatrix | None = None,
    ) -> "CostContext":
        """Circuit-training cost: run the ansatz, read out, compare to target.

        Shot mode samples `shots` measurements, optionally corrupts them with
        the flip channel, and corrects through the confusion matrix when one
        is supplied.  Exact mode scores the statevector probabilities directly,
        with no sampling, so it refuses a channel or a confusion matrix.

        The context owns the one float64 (4, 2^N) buffer every evaluation
        computes in, allocated here once, on a cache line.  Row 0 holds the
        Born probabilities and rows 1-2 are the two state rows of `execute`;
        once `probabilities` has read the state, rows 1-3 are the scratch
        of `js_divergence`.
        """
        if exact_mode and (channel is not None or confusion is not None):
            raise ValueError("readout noise has no effect in exact mode; drop one of the two")
        if not exact_mode and shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        buf = _aligned_empty((4, 2**ansatz.n_qubits))
        born, state, scratch = buf[0], buf[1:3], buf[1:4]

        if exact_mode:

            def cost_fn(params: np.ndarray) -> float:
                model = probabilities(execute(ansatz, params, state), born)
                return js_divergence(model, target, scratch)

        else:

            def cost_fn(params: np.ndarray) -> float:
                dist = probabilities(execute(ansatz, params, state), born)
                counts = sample(dist, shots, rng)
                if channel is not None:
                    counts = apply_channel_sampled(counts, channel, rng)
                model = histogram_to_distribution(counts)
                if confusion is not None:
                    model = correct(model, confusion)
                return js_divergence(model, target, scratch)

        return cls(cost_fn, ansatz.param_count, budget, rng)

    @property
    def evaluations(self) -> int:
        return len(self.costs)

    def evaluate(self, params: np.ndarray) -> float:
        """Score one parameter vector, recording it against the budget."""
        if self.evaluations >= self.budget:
            raise BudgetExhausted(f"budget of {self.budget} evaluations spent")
        theta = _real_array(params, "parameters")
        if theta.shape != (self.param_count,):
            raise ValueError(f"expected {self.param_count} parameters, got shape {theta.shape}")
        cost = float(self._cost_fn(theta))
        if not isfinite(cost):
            raise ValueError(f"cost function returned {cost} at evaluation {self.evaluations}")
        self.costs.append(cost)
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_params = theta.copy()
        return cost

    def curve(self, final_params: np.ndarray) -> LearningCurve:
        if self.best_params is None:
            raise RuntimeError("no evaluations recorded")
        return LearningCurve(
            costs=np.array(self.costs),
            best_params=self.best_params,
            final_params=np.asarray(final_params, dtype=float).copy(),
        )


def init_search(ctx: CostContext, n_ini: int) -> Pool:
    """Evaluate n_ini uniform random parameter vectors; (cost, params) in draw order."""
    if n_ini < 1:
        raise ValueError(f"n_ini must be >= 1, got {n_ini}")
    pool = []
    for _ in range(n_ini):
        cand = ctx.rng.uniform(0.0, tau, ctx.param_count)
        pool.append((ctx.evaluate(cand), cand))
    return pool


# --- solver configs ---


# Allowed option ranges, keyed by how the error message states them.
_COUNT, _PERIOD = "an integer >= 1", "an integer >= 0"
_RANGES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    _COUNT: lambda v: isinstance(v, Integral) and v >= 1,
    _PERIOD: lambda v: isinstance(v, Integral) and v >= 0,
}


def _check_ranges(cfg: object, **ranges: str) -> None:
    """Raise ValueError for the first named field outside its range; None is unset."""
    for name, rule in ranges.items():
        value = getattr(cfg, name)
        if value is not None and not _RANGES[rule](value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class AdamConfig:
    alpha: float = 0.2
    beta1: float = 0.9
    beta2: float = 0.999
    fd_step: float = pi / 20
    eps: float = 1e-8

    def __post_init__(self) -> None:
        _check_ranges(
            self, alpha="> 0", beta1="in [0, 1)", beta2="in [0, 1)", fd_step="> 0", eps="> 0"
        )


@dataclass(frozen=True)
class SvhcConfig:
    sigma: float = 0.3
    subset_size: int | None = None  # None -> ceil(L/4)
    suppression_period: int = 25

    def __post_init__(self) -> None:
        _check_ranges(self, sigma=">= 0", subset_size=_COUNT, suppression_period=_PERIOD)

    def subset(self, param_count: int) -> int:
        """Coordinates moved per step: subset_size, or ceil(L/4) when unset."""
        return self.subset_size if self.subset_size is not None else -(-param_count // 4)


@dataclass(frozen=True)
class ZooConfig:
    elite_size: int = 8
    elite_prob: float = 0.95
    region_width: float = pi
    region_shrink: float = 0.9
    stall_limit: int = 15
    suppression_period: int = 25

    def __post_init__(self) -> None:
        _check_ranges(
            self, elite_size=_COUNT, elite_prob="in [0, 1]", region_width="> 0",
            region_shrink="in (0, 1]", stall_limit=_COUNT, suppression_period=_PERIOD,
        )


Options = AdamConfig | SvhcConfig | ZooConfig


def check_sizes(options: Options, param_count: int, n_ini: int, budget: int) -> None:
    """Check the solver options, and the budget, memory and SVHC subset for L parameters."""
    if type(options) not in _STEPS:
        names = [t.__name__ for t in _STEPS]
        raise ValueError(f"options must be one of {names}, got {options!r}")
    if budget < n_ini + 1:
        raise ValueError(
            f"budget {budget} too small: initialization alone needs {n_ini} "
            f"evaluations, and the solver needs at least one more"
        )
    held = 8 * n_ini * param_count + 32 * budget
    if held > MAX_RUN_BYTES:
        raise ValueError(
            f"a run of {n_ini} initial draws of {param_count} parameters and {budget} recorded "
            f"costs holds {Decimal(held):.3g} bytes; the cap is {MAX_RUN_BYTES} bytes"
        )
    if isinstance(options, SvhcConfig) and options.subset(param_count) > param_count:
        raise ValueError(f"subset_size must be in [1, {param_count}], got {options.subset_size}")


# --- solvers ---


def adam_steps(ctx: CostContext, a: AdamConfig, pool: Pool) -> Iterator[np.ndarray]:
    """ADAM on a central finite-difference gradient, from the best pool start.

    Each step spends 2L evaluations on the gradient probes plus one on the
    incumbent itself — without the incumbent evaluation the recorded best
    would sit O(h^2) above the model actually trained.
    """
    theta = min(pool, key=_by_cost)[1]
    n = ctx.param_count
    m, v = np.zeros(n), np.zeros(n)
    for t in count(1):
        yield theta
        ctx.evaluate(theta)
        grad = np.zeros(n)
        for i in range(n):
            step = np.zeros(n)
            step[i] = a.fd_step
            diff = ctx.evaluate(theta + step) - ctx.evaluate(theta - step)
            grad[i] = diff / (2.0 * a.fd_step)
        m = a.beta1 * m + (1.0 - a.beta1) * grad
        v = a.beta2 * v + (1.0 - a.beta2) * grad * grad
        m_hat = m / (1.0 - a.beta1**t)
        v_hat = v / (1.0 - a.beta2**t)
        theta = theta - a.alpha * m_hat / (np.sqrt(v_hat) + a.eps)


def svhc_steps(ctx: CostContext, s: SvhcConfig, pool: Pool) -> Iterator[np.ndarray]:
    """Stochastic hill climbing from the best pool start: Gaussian steps on a
    random coordinate subset, accepted on strict improvement; the incumbent's
    cost is refreshed every suppression period to shake off lucky shot-noise
    values.
    """
    fx, x = min(pool, key=_by_cost)
    n = ctx.param_count
    k = s.subset(n)
    for iteration in count(1):
        yield x
        if s.suppression_period > 0 and iteration % s.suppression_period == 0:
            fx = ctx.evaluate(x)
            continue
        y = x.copy()
        idx = ctx.rng.choice(n, size=k, replace=False)
        y[idx] += ctx.rng.normal(0.0, s.sigma, size=k)
        fy = ctx.evaluate(y)
        if fy < fx:
            x, fx = y, fy


def zoo_steps(ctx: CostContext, z: ZooConfig, pool: Pool) -> Iterator[np.ndarray]:
    """Elite-set zeroth-order search over the pool's best elite_size starts:
    sample inside a shrinking box around a random elite with probability
    elite_prob, else uniformly; the box shrinks after stall_limit consecutive
    non-improving candidates, and the best elite's cost is refreshed every
    suppression period.
    """
    elites = sorted(pool, key=_by_cost)[: z.elite_size]
    n = ctx.param_count
    width = z.region_width
    stall = 0
    for iteration in count(1):
        yield elites[0][1]
        if z.suppression_period > 0 and iteration % z.suppression_period == 0:
            best_params = elites[0][1]
            elites[0] = (ctx.evaluate(best_params), best_params)
            elites.sort(key=_by_cost)
            continue
        if ctx.rng.random() < z.elite_prob:
            base = elites[ctx.rng.integers(len(elites))][1]
            cand = base + ctx.rng.uniform(-width, width, n)
        else:
            cand = ctx.rng.uniform(0.0, tau, n)
        c = ctx.evaluate(cand)
        if c < elites[-1][0]:
            elites[-1] = (c, cand)
            elites.sort(key=_by_cost)
            stall = 0
        else:
            stall += 1
            if stall >= z.stall_limit:
                width *= z.region_shrink
                stall = 0


# The one list of solvers: config name -> (options type, step generator).
SOLVERS = {
    "adam": (AdamConfig, adam_steps),
    "svhc": (SvhcConfig, svhc_steps),
    "zoo": (ZooConfig, zoo_steps),
}
_STEPS = dict(SOLVERS.values())  # options type -> step generator


def run(ctx: CostContext, options: Options, n_ini: int) -> LearningCurve:
    """Spend the context's whole budget: n_ini uniform starts, then solver steps.

    `options` is one solver's config, and its type picks the solver.
    """
    check_sizes(options, ctx.param_count, n_ini, ctx.budget)
    pool = init_search(ctx, n_ini)
    steps = _STEPS[type(options)](ctx, options, pool)
    try:
        while True:  # a solver that stops early raises StopIteration, not a short curve
            incumbent = next(steps)
    except BudgetExhausted:
        return ctx.curve(incumbent)
