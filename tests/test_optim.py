"""Solver contract tests: exact budgets, recording, determinism, and toy
convergence for each of the three training loops."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddqcl.optim
from ddqcl.ansatz import Ansatz, Topology, line_topology
from ddqcl.bas import BasSpec, bas_target_distribution
from ddqcl.metrics import js_divergence
from ddqcl.optim import (
    SOLVERS,
    AdamConfig,
    BudgetExhausted,
    CostContext,
    LearningCurve,
    SvhcConfig,
    ZooConfig,
    init_search,
    run,
)
from ddqcl.readout import PerQubitFlipModel, synth_confusion
from ddqcl.sim import probabilities
from ddqcl.ansatz import execute

TAU = 2 * np.pi


def _bowl(x):
    # smooth periodic bowl, global minima at x = 0 mod 2*pi
    return float(np.mean(1.0 - np.cos(x)))


def _quad(x):
    return float(np.mean((x - np.pi) ** 2))


def _angular_dist(x):
    # distance of each coordinate to 0 mod 2*pi
    return np.abs((np.asarray(x) + np.pi) % TAU - np.pi)


def _ctx(fn, n, budget, seed):
    return CostContext(fn, n, budget, np.random.default_rng(seed))


def _run(ctx, kind, **options):
    # the named solver, spending n_ini = 3L as the config's default multiplier does
    return run(ctx, SOLVERS[kind][0](**options), 3 * ctx.param_count)


# --- budget contract ---


def test_evaluate_counts_and_exhausts():
    ctx = _ctx(_bowl, 2, 3, 0)
    for k in range(3):
        ctx.evaluate(np.zeros(2))
        assert ctx.evaluations == k + 1
    with pytest.raises(BudgetExhausted):
        ctx.evaluate(np.zeros(2))
    assert ctx.evaluations == 3


def test_evaluate_rejects_wrong_shape():
    ctx = _ctx(_bowl, 3, 5, 0)
    with pytest.raises(ValueError):
        ctx.evaluate(np.zeros(2))


def test_evaluate_rejects_complex_params():
    # a cast to float would drop the imaginary part with only a warning
    ctx = _ctx(_bowl, 2, 5, 0)
    with pytest.raises(ValueError, match="complex128"):
        ctx.evaluate(np.array([0.5, 1j]))
    assert ctx.evaluations == 0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
def test_non_finite_params_raise_before_the_cost_is_called(value):
    # unchecked, a NaN angle was scored and recorded as the run's best params
    calls = []
    ctx = _ctx(lambda x: calls.append(x) or min(1.0, float(x @ x)), 2, 5, 0)
    with pytest.raises(ValueError, match="parameters must be finite"):
        ctx.evaluate(np.array([value, 0.0]))
    assert calls == []
    assert ctx.evaluations == 0 and ctx.best_params is None


@pytest.mark.parametrize("kind", ["adam", "svhc", "zoo"])
def test_solvers_spend_exact_budget(kind):
    budget = 73
    ctx = _ctx(_bowl, 4, budget, 1)
    curve = _run(ctx, kind)
    assert ctx.evaluations == budget
    assert len(curve.costs) == budget
    assert len(curve.best_costs) == budget


@pytest.mark.parametrize("kind", ["adam", "svhc", "zoo"])
def test_budget_too_small_for_init(kind):
    # n_ini = 3 * 4 = 12, so 12 evaluations leave nothing for the solver
    ctx = _ctx(_bowl, 4, 12, 0)
    with pytest.raises(ValueError, match="too small"):
        _run(ctx, kind)
    assert ctx.evaluations == 0  # checked before the first evaluation


def test_unknown_options_refused_before_evaluating():
    ctx = _ctx(_bowl, 4, 73, 0)
    with pytest.raises(ValueError, match="options must be one of"):
        run(ctx, "spsa", 12)
    # shown in full, a 5000-character value made a 5,072-character message
    with pytest.raises(ValueError, match="options must be one of .*, got 'xxx") as refused:
        run(ctx, "x" * 5000, 12)
    assert len(str(refused.value)) < 200
    assert ctx.evaluations == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cost_raises_before_recording(bad):
    ctx = _ctx(lambda x: bad, 2, 3, 0)
    with pytest.raises(ValueError, match=f"cost function returned {bad}"):
        ctx.evaluate(np.zeros(2))
    assert ctx.evaluations == 0 and ctx.costs == [] and ctx.best_params is None


@pytest.mark.parametrize("kind", ["adam", "svhc", "zoo"])
def test_solver_yields_incumbent_before_each_step(kind):
    # the first yield comes before the solver's first evaluation and is its
    # start: the best pool entry (ZOO's best elite, as elites are sorted)
    ctx = _ctx(_quad, 3, 100, 10)
    pool = init_search(ctx, 9)
    options_type, solver = SOLVERS[kind]
    steps = solver(ctx, options_type(), pool)
    first = next(steps)
    assert ctx.evaluations == 9
    assert first is min(pool, key=lambda t: t[0])[1]
    for _ in range(5):  # every later yield follows at least one evaluation
        before = ctx.evaluations
        next(steps)
        assert ctx.evaluations > before


def test_adam_budget_ending_in_first_step_keeps_start():
    # n_ini = 12 and one evaluation more: ADAM's first step (9 evaluations)
    # is cut short after re-scoring its start, the best initial draw
    ctx = _ctx(_bowl, 4, 13, 11)
    curve = _run(ctx, "adam")
    assert curve.costs[12] == min(curve.costs[:12])
    np.testing.assert_array_equal(curve.final_params, curve.best_params)


def test_envelope_is_running_minimum():
    ctx = _ctx(_bowl, 4, 100, 2)
    curve = _run(ctx, "zoo")
    np.testing.assert_array_equal(curve.best_costs, np.minimum.accumulate(curve.costs))
    assert curve.best_cost == curve.best_costs[-1] == min(curve.costs)


@pytest.mark.parametrize("kind", ["adam", "svhc", "zoo"])
def test_same_seed_same_curve(kind):
    ansatz = Ansatz(line_topology(4), 1)
    target = bas_target_distribution(BasSpec(2, 2))

    def one():
        ctx = CostContext.for_circuit(
            ansatz, target, budget=50, shots=200, rng=np.random.default_rng(5)
        )
        return _run(ctx, kind)

    a, b = one(), one()
    np.testing.assert_array_equal(a.costs, b.costs)
    np.testing.assert_array_equal(a.best_params, b.best_params)
    np.testing.assert_array_equal(a.final_params, b.final_params)


# --- initialization ---


def test_init_search_records_pool_in_draw_order():
    ctx = _ctx(_quad, 3, 50, 3)
    pool = init_search(ctx, 7)
    assert ctx.evaluations == len(pool) == 7
    assert [c for c, _ in pool] == ctx.costs
    rng = np.random.default_rng(3)  # the same stream, drawn again
    for c, p in pool:
        np.testing.assert_array_equal(p, rng.uniform(0.0, TAU, 3))
        assert _quad(p) == c


def test_init_search_single_candidate():
    ctx = _ctx(_quad, 2, 5, 4)
    ((cost, params),) = init_search(ctx, 1)
    assert ctx.evaluations == 1
    assert cost == _quad(params)


def test_init_search_rejects_zero():
    with pytest.raises(ValueError):
        init_search(_ctx(_quad, 2, 5, 0), 0)


# --- evaluate_many ---

_ANSATZ_16 = Ansatz(line_topology(16), 1)
_BAS_4X4 = bas_target_distribution(BasSpec(4, 4))


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _spy_execute(monkeypatch):
    """Patch the `execute` the cost calls; returns a list that gets, per call,
    its thread and the number of threads alive during it."""
    calls = []

    def spy(*args):
        calls.append((threading.get_ident(), threading.active_count()))
        return execute(*args)

    monkeypatch.setattr(ddqcl.optim, "execute", spy)
    return calls


def _ctx_16(budget, seed=0):
    return CostContext.for_circuit(
        _ANSATZ_16, _BAS_4X4, budget=budget, shots=None, rng=np.random.default_rng(seed)
    )


def test_threaded_costs_equal_row_by_row_evaluation(monkeypatch):
    # each lane computes in its own buffer: the costs are those of evaluate,
    # bit for bit, computed off the calling thread
    rows = np.random.default_rng(1).uniform(0.0, TAU, (7, _ANSATZ_16.param_count))
    one_by_one = _ctx_16(7)
    expected = [one_by_one.evaluate(row).hex() for row in rows]
    for cpus in (2, 64):
        _cpus(monkeypatch, cpus)
        calls = _spy_execute(monkeypatch)
        ctx = _ctx_16(7)
        pool = ctx.evaluate_many(rows)
        assert [cost.hex() for cost, _ in pool] == [c.hex() for c in ctx.costs] == expected
        np.testing.assert_array_equal([row for _, row in pool], rows)
        assert len(calls) == 7
        assert threading.get_ident() not in {thread for thread, _ in calls}
        np.testing.assert_array_equal(ctx.best_params, one_by_one.best_params)
        assert len(ctx._lanes) <= 2  # at most two lanes, whatever the CPU count


def test_first_row_enters_evaluate_before_any_cost_is_computed(monkeypatch):
    # a caller timing the first `evaluate` call sees it before any lane works
    _cpus(monkeypatch, 2)
    calls = _spy_execute(monkeypatch)
    ctx = _ctx_16(3)
    seen = []
    evaluate = ctx.evaluate
    ctx.evaluate = lambda params: seen.append(len(calls)) or evaluate(params)
    ctx.evaluate_many(np.zeros((3, _ANSATZ_16.param_count)))
    assert seen[0] == 0 and len(calls) == 3


@pytest.mark.parametrize("cpus", [1, 2])
def test_evaluate_many_computes_only_what_the_budget_records(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    ctx = _ctx_16(5)
    ctx.evaluate(np.zeros(_ANSATZ_16.param_count))
    calls = _spy_execute(monkeypatch)
    rows = np.random.default_rng(2).uniform(0.0, TAU, (9, _ANSATZ_16.param_count))
    with pytest.raises(BudgetExhausted):
        ctx.evaluate_many(rows)
    assert len(calls) == 4
    assert ctx.evaluations == ctx.budget == 5


@pytest.mark.parametrize("cpus", [1, 2])
def test_non_finite_row_raises_where_evaluate_would(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    rows = np.random.default_rng(3).uniform(0.0, TAU, (32, _ANSATZ_16.param_count))
    rows[3, 5] = np.nan
    oracle = _ctx_16(32)
    for row in rows[:3]:
        oracle.evaluate(row)
    with pytest.raises(ValueError, match="parameters must be finite") as expected:
        oracle.evaluate(rows[3])
    threads = threading.active_count()
    ctx = _ctx_16(32)
    calls = _spy_execute(monkeypatch)
    with pytest.raises(ValueError) as raised:
        ctx.evaluate_many(rows)
    assert str(raised.value) == str(expected.value)
    assert ctx.costs == oracle.costs and ctx.evaluations == 3
    assert threading.active_count() == threads  # every lane has stopped
    assert len(calls) < len(rows)  # the rows after the error were dropped
    assert ctx.evaluate(rows[4]) == oracle.evaluate(rows[4])  # row by row again


def _draw_then_evaluate(ctx, n_ini):
    # the initial search as a loop: draw one vector, evaluate it, repeat
    pool = []
    for _ in range(n_ini):
        cand = ctx.rng.uniform(0.0, TAU, ctx.param_count)
        pool.append((ctx.evaluate(cand), cand))
    return pool


@pytest.mark.parametrize(
    "ansatz, target, shots, budget",
    [
        (_ANSATZ_16, _BAS_4X4, None, 20),
        (_ANSATZ_16, _BAS_4X4, None, 4),  # the budget runs out during the search
        (Ansatz(line_topology(4), 1), bas_target_distribution(BasSpec(2, 2)), 50, 20),
    ],
    ids=["exact-16q", "exact-16q-short-budget", "shots-4q"],
)
def test_init_search_leaves_the_generator_as_draw_then_evaluate(
    monkeypatch, ansatz, target, shots, budget
):
    _cpus(monkeypatch, 2)
    results = []
    for search in (_draw_then_evaluate, init_search):
        rng = np.random.default_rng(4)
        ctx = CostContext.for_circuit(ansatz, target, budget=budget, shots=shots, rng=rng)
        try:
            pool = search(ctx, 6)
        except BudgetExhausted:
            pool = None
        results.append((pool, ctx.costs, rng.bit_generator.state))
    (want, want_costs, want_state), (got, got_costs, got_state) = results
    assert got_costs == want_costs and got_state == want_state
    assert (got is None) == (want is None) == (budget < 6)
    for (cost, params), (want_cost, want_params) in zip(got or [], want or []):
        assert cost == want_cost
        np.testing.assert_array_equal(params, want_params)


@pytest.mark.parametrize(
    "ansatz, target, shots",
    [
        (_ANSATZ_16, _BAS_4X4, 100),
        (Ansatz(line_topology(4), 1), bas_target_distribution(BasSpec(2, 2)), None),
    ],
    ids=["shots-16q", "exact-4q"],
)
def test_shot_and_narrow_costs_start_no_thread(monkeypatch, ansatz, target, shots):
    _cpus(monkeypatch, 2)
    calls = _spy_execute(monkeypatch)
    threads = threading.active_count()
    ctx = CostContext.for_circuit(
        ansatz, target, budget=4, shots=shots, rng=np.random.default_rng(5)
    )
    ctx.evaluate_many(np.zeros((4, ansatz.param_count)))
    assert calls == [(threading.get_ident(), threads)] * 4


@pytest.mark.parametrize(
    "ansatz, target, shots, cpus",
    [
        (Ansatz(line_topology(4), 1), bas_target_distribution(BasSpec(2, 2)), 100, 1),
        (_ANSATZ_16, _BAS_4X4, None, 2),
    ],
    ids=["shots-4q", "exact-16q-two-lanes"],
)
def test_each_evaluation_checks_its_parameters_once(monkeypatch, ansatz, target, shots, cpus):
    # `evaluate`, or `evaluate_many` for the rows it runs on lanes, checks a
    # vector once, and the cost's program runs what the check returned
    import ddqcl.ansatz

    _cpus(monkeypatch, cpus)
    checks, real_check = [], ddqcl.optim.check_params

    def check_params(params, count):
        checks.append(threading.get_ident())
        return real_check(params, count)

    monkeypatch.setattr(ddqcl.optim, "check_params", check_params)
    monkeypatch.setattr(ddqcl.ansatz, "check_params", check_params)
    calls = _spy_execute(monkeypatch)
    rng = np.random.default_rng(4)
    ctx = CostContext.for_circuit(ansatz, target, budget=6, shots=shots, rng=rng)
    init_search(ctx, 4)
    ctx.evaluate(np.zeros(ansatz.param_count))
    assert ctx.evaluations == len(checks) == len(calls) == 5
    assert set(checks) == {threading.get_ident()}
    if cpus > 1:  # the pool's rows ran on lanes
        assert threading.get_ident() not in {thread for thread, _ in calls[:4]}


# --- circuit-backed cost ---


def test_exact_cost_of_zero_params():
    # all-zero angles leave the register in |0000>, a delta distribution
    ansatz = Ansatz(line_topology(4), 2)
    target = bas_target_distribution(BasSpec(2, 2))
    ctx = CostContext.for_circuit(
        ansatz, target, budget=1, shots=None, rng=np.random.default_rng(0)
    )
    assert ctx.evaluate(np.zeros(16)) == pytest.approx(0.45391266155837334, abs=1e-12)


def test_exact_16_qubit_evaluation_allocates_less_than_a_state():
    # the context owns one buffer of four state-sized rows for the state,
    # probability and JS arrays, so after one warm-up evaluation nothing of
    # state size is allocated per evaluation
    ansatz = Ansatz(line_topology(16), 1)
    target = bas_target_distribution(BasSpec(4, 4))
    rng = np.random.default_rng(0)
    params = rng.uniform(0.0, TAU, (4, ansatz.param_count))
    state = 2**16 * 8
    tracemalloc.start()
    try:
        ctx = CostContext.for_circuit(ansatz, target, budget=4, shots=None, rng=rng)
        held = tracemalloc.get_traced_memory()[0]
        ctx.evaluate(params[0])
        tracemalloc.reset_peak()
        for theta in params[1:]:
            ctx.evaluate(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.evaluations == 4
    assert 4 * state <= held < 5 * state
    assert peak - held < state


@pytest.mark.parametrize("readout", ["channel", "confusion"])
def test_exact_cost_refuses_readout(readout):
    # exact mode never samples, so a readout channel or correction would be
    # dropped without a word: a 40% channel would give the noiseless cost
    ansatz = Ansatz(line_topology(4), 1)
    target = bas_target_distribution(BasSpec(2, 2))
    channel = PerQubitFlipModel.uniform(4, 0.4)
    noise = {"channel": channel} if readout == "channel" else {"confusion": synth_confusion(channel)}
    with pytest.raises(ValueError, match="no effect in exact mode"):
        CostContext.for_circuit(
            ansatz, target, budget=1, shots=None, rng=np.random.default_rng(0),
            **noise,
        )


def test_exact_cost_draws_nothing_from_the_run_rng():
    # the solver's proposals and the cost share one stream, so an exact
    # evaluation must leave it where it was
    ansatz = Ansatz(line_topology(4), 1)
    target = bas_target_distribution(BasSpec(2, 2))
    rng = np.random.default_rng(3)
    params = np.random.default_rng(4).uniform(0.0, TAU, (5, ansatz.param_count))
    ctx = CostContext.for_circuit(ansatz, target, budget=5, shots=None, rng=rng)
    before = rng.bit_generator.state
    for theta in params:
        ctx.evaluate(theta)
    assert ctx.evaluations == 5
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("shots", [0, -3])
def test_cost_refuses_shots_below_one(shots):
    ansatz = Ansatz(line_topology(4), 1)
    target = bas_target_distribution(BasSpec(2, 2))
    with pytest.raises(ValueError, match=f"shots must be >= 1, got {shots}"):
        CostContext.for_circuit(ansatz, target, budget=1, shots=shots, rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "shots, message",
    [
        (2**63, r"shots must be in \[1, \d+\], got \d+$"),
        (3.0, r"shots must be an integer, got 3\.0$"),
    ],
)
def test_cost_refuses_shots_sample_cannot_take(shots, message):
    # refused where the cost is built, not at its first evaluation
    ansatz = Ansatz(line_topology(4), 1)
    target = bas_target_distribution(BasSpec(2, 2))
    with pytest.raises(ValueError, match=message):
        CostContext.for_circuit(ansatz, target, budget=1, shots=shots, rng=np.random.default_rng(0))


_BAS_2X2 = bas_target_distribution(BasSpec(2, 2))


@pytest.mark.parametrize(
    "target, noise, message",
    [
        (
            bas_target_distribution(BasSpec(3, 3)),
            {},
            r"expected 16 target for 4 qubits, got shape \(512,\)",
        ),
        (np.full(16, 0.5), {}, "target must be non-negative and sum to 1, not 8.0"),
        (np.full(16, -1 / 16), {}, "target must be non-negative and sum to 1, not -1.0"),
        (np.eye(16)[0] * 1.5 - np.eye(16)[1] * 0.5, {}, "target must be non-negative"),
        (_BAS_2X2, {"channel": PerQubitFlipModel.uniform(3, 0.05)}, "the channel reads 3 qubits"),
        (
            _BAS_2X2,
            {"confusion": synth_confusion(PerQubitFlipModel.uniform(3, 0.05))},
            "the confusion matrix reads 3 qubits, the ansatz has 4",
        ),
    ],
    ids=["3x3-target", "sums-to-8", "sums-to-minus-1", "negative-entry", "channel", "confusion"],
)
def test_cost_refuses_target_and_readout_of_another_register(target, noise, message):
    # unchecked, a 512-entry target or a 3-qubit readout raised only at the
    # first evaluation, after `sample` had drawn from the run's generator,
    # and a target summing to 8 or -1 was scored without a word
    ansatz = Ansatz(line_topology(4), 1)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        CostContext.for_circuit(ansatz, target, budget=1, shots=100, rng=rng, **noise)
    assert rng.bit_generator.state == before


def test_exact_cost_reaches_zero():
    # one qubit, no entangling layers: Ry(pi/2) gives the uniform distribution
    ansatz = Ansatz(Topology(1, ()), 0)
    target = probabilities(execute(ansatz, np.array([np.pi / 2])))
    ctx = CostContext.for_circuit(
        ansatz, target, budget=1, shots=None, rng=np.random.default_rng(0)
    )
    assert ctx.evaluate(np.array([np.pi / 2])) < 1e-12


def test_shot_cost_converges_to_exact():
    ansatz = Ansatz(line_topology(4), 1)
    target = bas_target_distribution(BasSpec(2, 2))
    params = np.random.default_rng(6).uniform(0, TAU, 10)

    exact_ctx = CostContext.for_circuit(
        ansatz, target, budget=1, shots=None, rng=np.random.default_rng(0)
    )
    exact = exact_ctx.evaluate(params)

    def shot_cost(shots, seed):
        ctx = CostContext.for_circuit(
            ansatz, target, budget=1, shots=shots, rng=np.random.default_rng(seed)
        )
        return ctx.evaluate(params)

    err_small = np.mean([abs(shot_cost(1_000, s) - exact) for s in range(5)])
    err_large = np.mean([abs(shot_cost(1_000_000, s) - exact) for s in range(5)])
    assert err_large < err_small


def test_improvements_descend_to_replayable_best():
    ansatz = Ansatz(line_topology(4), 1)
    target = bas_target_distribution(BasSpec(2, 2))
    ctx = CostContext.for_circuit(
        ansatz, target, budget=60, shots=None, rng=np.random.default_rng(7)
    )
    curve = _run(ctx, "svhc")
    assert curve.improvements[0] == 0  # the first evaluation improves on +inf
    improved = curve.costs[curve.improvements]
    assert np.all(np.diff(improved) < 0)
    assert improved[-1] == curve.best_cost
    replay = js_divergence(probabilities(execute(ansatz, curve.best_params)), target)
    assert replay == curve.best_cost


def _running_record(costs):
    # the running minimum and improvement loop CostContext.evaluate used to
    # keep, one update per recorded cost
    best, best_costs, improvements = float("inf"), [], []
    for i, cost in enumerate(costs):
        if cost < best:
            best = cost
            improvements.append(i)
        best_costs.append(best)
    return best_costs, best, improvements


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-1e3, 1e3)),
        min_size=1,
        max_size=60,
    )
)
def test_derived_record_matches_running_oracle(costs):
    # few distinct values, so ties and repeated minima are common
    curve = LearningCurve(np.array(costs), np.zeros(1), np.zeros(1))
    best_costs, best, improvements = _running_record(costs)
    np.testing.assert_array_equal(curve.best_costs, best_costs)
    assert curve.best_cost == best
    assert curve.improvements.tolist() == improvements


@pytest.mark.parametrize("kind", ["adam", "svhc", "zoo"])
def test_shot_noise_shows_in_raw_costs(kind):
    ansatz = Ansatz(line_topology(4), 1)
    target = bas_target_distribution(BasSpec(2, 2))
    ctx = CostContext.for_circuit(
        ansatz, target, budget=40, shots=100, rng=np.random.default_rng(8)
    )
    curve = _run(ctx, kind)
    assert np.max(curve.costs) - np.min(curve.costs) > 0


# --- configs ---


def test_svhc_subset_size_default():
    # subset defaults to ceil(L/4); an explicit size is kept as given
    assert [SvhcConfig().subset(n) for n in (1, 4, 5, 8, 9)] == [1, 1, 2, 2, 3]
    assert SvhcConfig(subset_size=3).subset(8) == 3


# (options type, integer option): each is an integer with a least value
_INTEGER_OPTIONS = [
    (SvhcConfig, "subset_size"),
    (SvhcConfig, "suppression_period"),
    (ZooConfig, "elite_size"),
    (ZooConfig, "stall_limit"),
    (ZooConfig, "suppression_period"),
]
# a float, a bool, a numpy float and a string: none of them is a count
_NOT_INTEGERS = [2.5, True, np.float64(2.0), "2"]


@pytest.mark.parametrize("value", _NOT_INTEGERS, ids=repr)
def test_counts_refuse_non_integers(value):
    # before any evaluation: unchecked, 2.5 passed the range checks, and True
    # ran one initial draw
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"^param_count must be an integer, got "):
        CostContext(_bowl, value, 10, rng)
    with pytest.raises(ValueError, match=r"^budget must be an integer, got "):
        CostContext(_bowl, 2, value, rng)
    ctx = _ctx(_bowl, 2, 10, 0)
    with pytest.raises(ValueError, match=r"^n_ini must be an integer, got "):
        init_search(ctx, value)
    with pytest.raises(ValueError, match=r"^n_ini must be an integer, got "):
        run(ctx, AdamConfig(), value)
    assert ctx.evaluations == 0
    ansatz = Ansatz(line_topology(4), 1)
    target = bas_target_distribution(BasSpec(2, 2))
    with pytest.raises(ValueError, match=r"^shots must be an integer, got "):
        CostContext.for_circuit(ansatz, target, budget=1, shots=value, rng=rng)
    with pytest.raises(ValueError, match=r"^budget must be an integer, got "):
        CostContext.for_circuit(ansatz, target, budget=value, shots=None, rng=rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    for options, key in _INTEGER_OPTIONS:
        with pytest.raises(ValueError, match=rf"^{key} must be an integer, got "):
            options(**{key: value})


def test_numpy_integer_counts_are_stored_as_ints():
    ctx = CostContext(_bowl, np.int64(2), np.uint16(10), np.random.default_rng(0))
    assert (ctx.param_count, ctx.budget) == (2, 10)
    assert type(ctx.param_count) is int and type(ctx.budget) is int
    assert len(init_search(ctx, np.int64(3))) == 3
    curve = run(_ctx(_bowl, 2, 10, 0), AdamConfig(), np.int32(3))
    assert len(curve.costs) == 10
    for options, key in _INTEGER_OPTIONS:
        stored = getattr(options(**{key: np.int64(2)}), key)
        assert stored == 2 and type(stored) is int, key


def test_integer_options_state_their_least_value():
    with pytest.raises(ValueError, match=r"^subset_size must be >= 1, got 0$"):
        SvhcConfig(subset_size=0)
    with pytest.raises(ValueError, match=r"^suppression_period must be >= 0, got -1$"):
        ZooConfig(suppression_period=-1)
    assert SvhcConfig(suppression_period=0).suppression_period == 0


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SvhcConfig(subset_size=True), r"^subset_size must be an integer, got True$"),
        (lambda: ZooConfig(stall_limit=True), r"^stall_limit must be an integer, got True$"),
        (lambda: AdamConfig(alpha=True), r"^alpha must be a number, got True$"),
        (lambda: AdamConfig(beta1=False), r"^beta1 must be a number, got False$"),
        (lambda: SvhcConfig(sigma=False), r"^sigma must be a number, got False$"),
        (lambda: ZooConfig(elite_prob=True), r"^elite_prob must be a number, got True$"),
    ],
    ids=["subset_size", "stall_limit", "alpha", "beta1", "sigma", "elite_prob"],
)
def test_options_refuse_bools(make, message):
    # `numbers.Integral` took True as 1, and the number ranges True as 1.0,
    # though the config file reader refuses both
    with pytest.raises(ValueError, match=message):
        make()


# --- toy convergence ---


def test_adam_finds_bowl_minimum():
    for seed in range(5):
        ctx = _ctx(_bowl, 2, 400, seed)
        curve = _run(ctx, "adam")
        assert np.all(_angular_dist(curve.best_params) < 1e-2)
        assert curve.best_cost < 1e-4


def test_svhc_descends_quadratic():
    for seed in range(5):
        ctx = _ctx(_quad, 2, 500, seed)
        curve = _run(ctx, "svhc", sigma=0.05)
        assert curve.best_cost < 1e-3
        assert np.all(np.diff(curve.best_costs) <= 0)


def test_svhc_zero_sigma_never_moves():
    ctx = _ctx(_quad, 2, 60, 9)
    curve = _run(ctx, "svhc", sigma=0.0)
    # after the 6 init draws every proposal equals the incumbent: no improvement
    assert curve.best_cost == min(curve.costs[:6])
    assert np.all(curve.costs[6:] == pytest.approx(curve.best_cost))


def test_zoo_descends_separable_bowl():
    hits = 0
    for seed in range(5):
        ctx = _ctx(_bowl, 10, 2000, seed)
        curve = _run(ctx, "zoo")
        hits += curve.best_cost < 0.05
    assert hits >= 4


def test_adam_config_defaults():
    a = AdamConfig()
    assert (a.alpha, a.beta1, a.beta2) == (0.2, 0.9, 0.999)
    assert a.fd_step == pytest.approx(np.pi / 20)
