"""Derivative-free training loops over a noisy scalar cost.

`run` is the one implementation of the evaluation-budget contract: it draws
the n_ini uniform starts, hands that pool to the solver, and ends the run
when exactly `budget` cost calls are recorded.  The learning curve is those
costs; its best-so-far envelope and improvements are derived from them.  A
solver is only its update rule: a generator that yields its incumbent before
each step, so the last incumbent yielded is the run's final one.

Every cost is recorded through `CostContext.evaluate`.  The initial pool and
each ADAM step go through `CostContext.evaluate_many`, which an exact cost
on at least 16 qubits runs on up to two usable CPUs, one thread and one
buffer per CPU, with the costs of row-by-row evaluation: no result depends
on the CPU count.  Shot costs, narrower registers and SVHC and ZOO, which
propose one point at a time, run row by row on the calling thread.

SVHC and the elite-set zeroth-order search are reconstructions from their
one-line descriptions; their hyperparameters are explicit config, not
canonical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, count, islice
from math import inf, isfinite, pi, tau
from operator import itemgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .ansatz import Ansatz, GateProgram, execute
from .metrics import histogram_to_distribution, js_divergence
from .readout import ConfusionMatrix, PerQubitFlipModel, apply_channel_sampled, correct
from .sim import _aligned_empty, _usable_cpus, brief, check_integer, check_params
from .sim import check_probabilities, check_real, check_shots, probabilities, sample


class BudgetExhausted(RuntimeError):
    """Raised by CostContext.evaluate once the evaluation budget is spent."""


# A run holds its initial pool, n_ini x L float64, and its cost record, 32 bytes
# per evaluation (a list slot and a Python float).  1 GiB is a quarter of a 4 GiB
# host, and far more than a run that trains in hours needs (L = 1000: 24 MB).
MAX_RUN_BYTES = 2**30

# An exact cost runs `evaluate_many`'s rows on threads from this many amplitudes
# up, where one numpy operation moves 512 KiB.  46 rows of a one-layer line
# circuit on 2 lanes against 1 (2-core x86-64, one BLAS thread, 12 alternated
# rounds), with `execute` rotating axes from 15 qubits: 14 qubits 0.84x,
# faster in 2 of 12; 15 qubits 0.95x, 2 of 12; 16 qubits 1.43x, 12 of 12.
# Narrower rows lose to the GIL hand-offs around their shorter numpy calls.
_LANE_AMPLITUDES = 2**16
# and on at most this many lanes: scaling past 2 CPUs was never measured, and
# at 2 the GIL hand-offs around numpy calls under ~20 us already limit it
# (a 16-qubit `apply_cz` ran at 0.73x its one-thread throughput on two)
_MAX_LANES = 2

Pool = list[tuple[float, np.ndarray]]  # (cost, params) per evaluated row
_by_cost = itemgetter(0)


@dataclass(frozen=True, eq=False)  # holds arrays: compares and hashes by identity
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
        self._cost_fn = cost_fn
        self.param_count = check_integer(param_count, "param_count")
        self.budget = check_integer(budget, "budget")
        self.rng = rng
        self.costs: list[float] = []
        self.best_cost = float("inf")
        self.best_params: np.ndarray | None = None
        # set by for_circuit when rows may run on threads: a maker of one more
        # lane's cost, each computed in a buffer of its own, and the lanes'
        # costs so far, the first the context's own
        self._new_lane: Callable[[], Callable[[np.ndarray], float]] | None = None
        self._lanes: list[Callable[[np.ndarray], float]] = []
        # evaluate_many's checked next rows and their costs
        self._ahead: Iterator[tuple[np.ndarray, float]] | None = None

    @classmethod
    def for_circuit(
        cls,
        ansatz: Ansatz,
        target: np.ndarray,
        budget: int,
        shots: int | None,
        rng: np.random.Generator,
        channel: PerQubitFlipModel | None = None,
        confusion: ConfusionMatrix | None = None,
    ) -> "CostContext":
        """Circuit-training cost: run the ansatz, read out, compare to target.

        With `shots`, an integer in [1, MAX_SHOTS] (checked here, before any
        draw), the readout samples that many measurements, optionally
        corrupts them with the flip channel, and corrects through the
        confusion matrix when one is supplied.  Exact mode is `shots=None`: it
        scores the statevector probabilities directly, with no sampling, so it
        refuses a channel or a confusion matrix.  The target must be 2^N
        non-negative probabilities summing to 1, for the ansatz's N, and a
        channel or matrix must read N qubits; both are checked here too.

        The context owns the one float64 (4, 2^N) buffer every evaluation
        computes in, allocated here once, on a cache line, and the
        `GateProgram` built on it.  Row 0 holds the Born probabilities and
        rows 1-2 are the two state rows of `execute`; once `probabilities`
        has read the state, rows 1-3 are the scratch of `js_divergence`.
        An exact cost on at least `_LANE_AMPLITUDES` amplitudes may also run
        `evaluate_many`'s rows on threads, each in a buffer and program of
        its own.
        """
        if shots is None and (channel is not None or confusion is not None):
            raise ValueError("readout noise has no effect in exact mode; drop one of the two")
        shots = None if shots is None else check_shots(shots)
        n = ansatz.n_qubits
        target = check_probabilities(target, "target", n)
        for name, readout in (("channel", channel), ("confusion matrix", confusion)):
            if readout is not None and readout.n_qubits != n:
                raise ValueError(f"the {name} reads {readout.n_qubits} qubits, the ansatz has {n}")

        def new_lane() -> Callable[[np.ndarray], float]:
            """The cost, of a vector `check_params` returned, computed in a
            new buffer by a program built on it."""
            buf = _aligned_empty((4, 2**n))
            program = GateProgram(ansatz, buf[1:3])

            def cost(theta: np.ndarray) -> float:
                model = probabilities(execute(program, theta), buf[0])
                if shots is not None:
                    counts = sample(model, shots, rng)
                    if channel is not None:
                        counts = apply_channel_sampled(counts, channel, rng)
                    model = histogram_to_distribution(counts)
                    if confusion is not None:
                        model = correct(model, confusion)
                return js_divergence(model, target, buf[1:4])

            return cost

        cost = new_lane()
        ctx = cls(cost, ansatz.param_count, budget, rng)
        if shots is None and 2**n >= _LANE_AMPLITUDES:
            ctx._new_lane, ctx._lanes = new_lane, [cost]
        return ctx

    @property
    def evaluations(self) -> int:
        return len(self.costs)

    def evaluate(self, params: np.ndarray) -> float:
        """Score one parameter vector, recording it against the budget; a
        vector `check_params` refuses raises before the cost is called.  The
        cost function gets the float64 vector `check_params` returned."""
        if self.evaluations >= self.budget:
            raise BudgetExhausted(f"budget of {self.budget} evaluations spent")
        if self._ahead is None:
            theta = check_params(params, self.param_count)
            cost = float(self._cost_fn(theta))
        else:  # `params` is the next row evaluate_many checked and ran on a lane
            theta, cost = next(self._ahead)
        if not isfinite(cost):
            raise ValueError(f"cost function returned {cost} at evaluation {self.evaluations}")
        self.costs.append(cost)
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_params = theta.copy()
        return cost

    def evaluate_many(self, rows: Iterable[np.ndarray]) -> Pool:
        """Score parameter vectors in row order, exactly as consecutive
        `evaluate` calls would; (cost, row) per row.

        Every row is recorded through `evaluate`, on the calling thread.  An
        exact cost on at least `_LANE_AMPLITUDES` amplitudes, with more than
        one usable CPU, first takes only the rows the remaining budget can
        record, up to the first one `check_params` refuses, checks them once
        and computes their costs on one thread per CPU, up to `_MAX_LANES`,
        each in its own buffer; `evaluate` then takes each row's checked
        vector and cost from them.  Exact rows draw nothing, and each row's
        arithmetic is that of `evaluate`, so the costs and the generator are
        the same bits whatever the CPU count.  Any other cost runs the rows
        one by one, so a shot cost's draws and the rows' own draws from `rng`
        interleave as they would.
        """
        rows = iter(rows)
        lanes = 1 if self._new_lane is None else min(_usable_cpus(), _MAX_LANES)
        pool: Pool = []
        if lanes > 1:
            batch, thetas = [], []
            for row in islice(rows, self.budget - self.evaluations):
                try:
                    thetas.append(check_params(row, self.param_count))
                except ValueError:
                    rows = chain([row], rows)  # refused by `evaluate` in its turn
                    break
                batch.append(row)
            self._ahead = self._lane_costs(thetas, lanes)
            try:
                pool = [(self.evaluate(row), row) for row in batch]
            finally:
                self._ahead.close()  # cancels and waits for the lanes when a row raised
                self._ahead = None
        # with the budget spent, the first row left raises BudgetExhausted
        return pool + [(self.evaluate(row), row) for row in rows]

    def _lane_costs(
        self, thetas: list[np.ndarray], lanes: int
    ) -> Iterator[tuple[np.ndarray, float]]:
        """Each of `thetas`, checked vectors, with its cost, in order,
        computed on up to `lanes` threads, each in a buffer of its own; the
        threads start at the first `next`."""
        lanes = min(lanes, len(thetas))
        # imported here, not at the top: their 8 ms would fall on every start
        from concurrent.futures import ThreadPoolExecutor
        from queue import SimpleQueue

        while len(self._lanes) < lanes:
            self._lanes.append(self._new_lane())
        free = SimpleQueue()  # the lanes' costs no thread holds
        for lane in self._lanes[:lanes]:
            free.put(lane)

        def cost(theta: np.ndarray) -> tuple[np.ndarray, float]:
            lane = free.get()
            try:
                return theta, lane(theta)
            finally:
                free.put(lane)

        # closed early, or past a row that raised, map's iterator cancels the
        # rows not started, and the pool's exit waits for those running
        with ThreadPoolExecutor(lanes) as pool:
            yield from pool.map(cost, thetas)

    def curve(self, final_params: np.ndarray) -> LearningCurve:
        if self.best_params is None:
            raise RuntimeError("no evaluations recorded")
        return LearningCurve(
            costs=np.array(self.costs),
            best_params=self.best_params,
            final_params=np.asarray(final_params, dtype=float).copy(),
        )


def init_search(ctx: CostContext, n_ini: int) -> Pool:
    """Evaluate n_ini uniform random parameter vectors; (cost, params) in draw order.

    The draws feed `evaluate_many` one at a time, so a shot cost's own draws
    interleave with them as in a draw-then-evaluate loop; on lanes, the
    vectors the budget can record are drawn first, as exact costs draw
    nothing.
    """
    n_ini = check_integer(n_ini, "n_ini")
    return ctx.evaluate_many(ctx.rng.uniform(0.0, tau, ctx.param_count) for _ in range(n_ini))


# --- solver configs ---


def _check_ranges(cfg: object, **ranges: int | tuple[float, float, str]) -> None:
    """Raise ValueError for the first named field outside its range, and set
    each field to what its rule returns.  An integer option's range is its
    least value, for `check_integer`; a number's is the (low, high, ends) of
    `check_real`."""
    for name, rule in ranges.items():
        value = getattr(cfg, name)
        if isinstance(rule, int):
            value = check_integer(value, name, rule)
        else:
            value = check_real(value, name, *rule)
        object.__setattr__(cfg, name, value)


_POSITIVE, _FRACTION = (0, inf, "(]"), (0, 1, "[)")  # > 0 and in [0, 1)


@dataclass(frozen=True)
class AdamConfig:
    alpha: float = 0.2
    beta1: float = 0.9
    beta2: float = 0.999
    fd_step: float = pi / 20
    eps: float = 1e-8

    def __post_init__(self) -> None:
        _check_ranges(
            self, alpha=_POSITIVE, beta1=_FRACTION, beta2=_FRACTION, fd_step=_POSITIVE,
            eps=_POSITIVE,
        )


@dataclass(frozen=True)
class SvhcConfig:
    sigma: float = 0.3
    subset_size: int | None = None  # None -> ceil(L/4)
    suppression_period: int = 25

    def __post_init__(self) -> None:
        _check_ranges(self, sigma=(0, inf, "[]"), suppression_period=0)
        if self.subset_size is not None:
            _check_ranges(self, subset_size=1)

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
            self, elite_size=1, elite_prob=(0, 1, "[]"), region_width=_POSITIVE,
            region_shrink=(0, 1, "(]"), stall_limit=1, suppression_period=0,
        )


Options = AdamConfig | SvhcConfig | ZooConfig


def check_sizes(options: Options, param_count: int, n_ini: int, budget: int) -> None:
    """Check the solver options, n_ini, and the budget, memory and SVHC subset
    for L parameters."""
    if type(options) not in _STEPS:
        names = [t.__name__ for t in _STEPS]
        raise ValueError(f"options must be one of {names}, got {brief(options)}")
    n_ini = check_integer(n_ini, "n_ini")
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
    would sit O(h^2) above the model actually trained.  The step is one
    `evaluate_many` call on the incumbent and then, per coordinate i,
    theta + h e_i and theta - h e_i; grad[i] is their cost difference over 2h.
    """
    theta = min(pool, key=_by_cost)[1]
    n = ctx.param_count
    steps = a.fd_step * np.eye(n)  # row i moves coordinate i alone
    m, v = np.zeros(n), np.zeros(n)
    for t in count(1):
        yield theta
        rows = np.empty((2 * n + 1, n))
        rows[0], rows[1::2], rows[2::2] = theta, theta + steps, theta - steps
        costs = np.array([cost for cost, _ in ctx.evaluate_many(rows)])
        grad = (costs[1::2] - costs[2::2]) / (2.0 * a.fd_step)
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
