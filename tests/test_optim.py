"""Solver contract tests: exact budgets, recording, determinism, and toy
convergence for each of the three training loops."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# --- circuit-backed cost ---


def test_exact_cost_of_zero_params():
    # all-zero angles leave the register in |0000>, a delta distribution
    ansatz = Ansatz(line_topology(4), 2)
    target = bas_target_distribution(BasSpec(2, 2))
    ctx = CostContext.for_circuit(
        ansatz, target, budget=1, shots=1, rng=np.random.default_rng(0), exact_mode=True
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
        ctx = CostContext.for_circuit(ansatz, target, budget=4, shots=1, rng=rng, exact_mode=True)
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
            ansatz, target, budget=1, shots=1, rng=np.random.default_rng(0), exact_mode=True,
            **noise,
        )


def test_exact_cost_reaches_zero():
    # one qubit, no entangling layers: Ry(pi/2) gives the uniform distribution
    ansatz = Ansatz(Topology(1, ()), 0)
    target = probabilities(execute(ansatz, np.array([np.pi / 2])))
    ctx = CostContext.for_circuit(
        ansatz, target, budget=1, shots=1, rng=np.random.default_rng(0), exact_mode=True
    )
    assert ctx.evaluate(np.array([np.pi / 2])) < 1e-12


def test_shot_cost_converges_to_exact():
    ansatz = Ansatz(line_topology(4), 1)
    target = bas_target_distribution(BasSpec(2, 2))
    params = np.random.default_rng(6).uniform(0, TAU, 10)

    exact_ctx = CostContext.for_circuit(
        ansatz, target, budget=1, shots=1, rng=np.random.default_rng(0), exact_mode=True
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
        ansatz, target, budget=60, shots=1, rng=np.random.default_rng(7), exact_mode=True
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
