"""Seeded Monte Carlo rollouts: determinism, substreams, statistical sanity."""

import math
import tracemalloc

import numpy as np
import pytest
import scalar_reference

from dyninfer import (
    Alphabet,
    InvalidParams,
    MarkovStrategy,
    ShapeMismatch,
    evaluate_markov,
    example_section33,
    example_stock,
    example_yield,
    myopic_strategy,
    optimal_strategy,
    problem_from_tables,
    random_problem,
    simulate,
    solve,
)
from dyninfer import evaluate as evaluate_module
from dyninfer.rng import counter_uniforms, uniform_matrix


def test_same_seed_is_bit_identical(stock):
    strategy = optimal_strategy(solve(stock))
    first = simulate(stock, strategy, 5000, seed=42, return_trajectories=True)
    second = simulate(stock, strategy, 5000, seed=42, return_trajectories=True)
    assert first.mean == second.mean
    assert first.variance == second.variance
    assert first.trajectories == second.trajectories


def test_different_seeds_differ(stock):
    strategy = optimal_strategy(solve(stock))
    assert simulate(stock, strategy, 5000, seed=1).mean != simulate(stock, strategy, 5000, seed=2).mean


def fully_deterministic_problem():
    binary = Alphabet(("0", "1"))
    transition = np.zeros((2, 2, 2))
    transition[:, 0, 1] = 1.0  # estimate 0 forces x=1
    transition[:, 1, 0] = 1.0
    quantity = np.array([[1.0, 0.0], [0.0, 1.0]])  # y == x surely
    loss = np.zeros((2, 2, 2))
    loss[:, 0, 1] = 1.0
    loss[:, 1, 0] = 1.0
    return problem_from_tables(4, binary, binary, binary, np.array([1.0, 0.0]), transition[None], quantity[None], loss)


def test_deterministic_model_matches_exact_loss_exactly():
    problem = fully_deterministic_problem()
    strategy = myopic_strategy(problem)
    exact = evaluate_markov(problem, strategy).j
    result = simulate(problem, strategy, rollouts=1, seed=123)
    assert result.mean == exact
    assert result.variance == 0.0


def test_rollout_substreams_are_prefix_stable(stock):
    # rollout k owns its own counter block, so extending the rollout count
    # must not change earlier rollouts
    strategy = myopic_strategy(stock)
    small = simulate(stock, strategy, 50, seed=7, return_trajectories=True)
    large = simulate(stock, strategy, 200, seed=7, return_trajectories=True)
    assert large.trajectories[:50] == small.trajectories


def test_trajectories_are_consistent(stock):
    strategy = optimal_strategy(solve(stock))
    result = simulate(stock, strategy, 100, seed=3, return_trajectories=True)
    assert len(result.trajectories) == 100
    for trajectory in result.trajectories[:10]:
        assert len(trajectory.xs) == len(trajectory.ys) == len(trajectory.yhats) == stock.n
        xis = [stock.x_space.index(x) for x in trajectory.xs]
        ais = [stock.yhat_space.index(yhat) for yhat in trajectory.yhats]
        recomputed = sum(
            stock.loss[xi, stock.y_space.index(y), ai]
            for xi, y, ai in zip(xis, trajectory.ys, ais)
        )
        assert trajectory.loss == recomputed
        for k, (xi, ai) in enumerate(zip(xis, ais)):
            assert ai == strategy.choices[k, xi]
    assert result.trajectories[0].id == "3:0"


def test_trajectory_cap(stock):
    strategy = myopic_strategy(stock)
    result = simulate(stock, strategy, 500, seed=1, return_trajectories=True, trajectory_cap=20)
    assert len(result.trajectories) == 20
    assert simulate(stock, strategy, 500, seed=1).trajectories is None


def test_statistical_consistency(stock):
    strategy = optimal_strategy(solve(stock))
    exact = evaluate_markov(stock, strategy).j
    result = simulate(stock, strategy, 10_000, seed=2024)
    sigma = math.sqrt(result.variance / result.rollouts)
    assert abs(result.mean - exact) <= 4 * sigma


def test_bad_rollout_count(stock):
    for rollouts in (0, True, False):
        with pytest.raises(InvalidParams):
            simulate(stock, myopic_strategy(stock), rollouts, seed=1)


def test_strategy_shape_is_checked(stock):
    with pytest.raises(ShapeMismatch):
        simulate(stock, myopic_strategy(example_stock(3)), 10, seed=1)


def test_uniform_source_is_platform_independent():
    # frozen values from the scalar SplitMix64 reference implementation
    values = counter_uniforms(42, np.arange(4, dtype=np.uint64))
    reference = [0.7415648787718233, 0.1599103928769201, 0.27860113025513866, 0.34419071652363753]
    assert values.tolist() == reference
    matrix = uniform_matrix(42, 2, 2)
    assert matrix.shape == (2, 2)
    assert matrix.flatten().tolist() == values.tolist()
    assert np.all((values >= 0.0) & (values < 1.0))
    # a call from a later first stream returns the matching rows of one larger call
    for streams, draws, first in ((1, 2, 1), (3, 5, 4), (2, 7, 0), (4, 1, 9)):
        whole = uniform_matrix(42, first + streams, draws)
        assert np.array_equal(uniform_matrix(42, streams, draws, first), whole[first:])


def _random_case(seed, n, nx, ny, nyhat):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n, nx, ny, nyhat)
    choices = rng.integers(0, nyhat, (n, nx))
    return problem, MarkovStrategy(n, problem.x_space.labels, problem.yhat_space.labels, choices)


def _optimal_case(problem):
    return problem, optimal_strategy(solve(problem))


SIMULATE_CASES = {
    "random-40-3-2-2": lambda: _random_case(1, 40, 3, 2, 2),
    "random-25-5-4-3": lambda: _random_case(2, 25, 5, 4, 3),
    "random-33-1-3-5": lambda: _random_case(3, 33, 1, 3, 5),
    "stock-30": lambda: _optimal_case(example_stock(30)),
    "section33-40": lambda: _optimal_case(example_section33(40)),
    "yield-50": lambda: _optimal_case(example_yield(50)),
}


def _assert_matches_reference(problem, strategy, rollouts, seed, cap):
    result = simulate(problem, strategy, rollouts, seed, return_trajectories=True, trajectory_cap=cap)
    mean, variance, trajectories = scalar_reference.simulate(
        problem, strategy.choices, rollouts, seed, min(rollouts, cap)
    )
    assert result.mean == mean
    assert result.variance == variance
    assert [(t.id, t.xs, t.ys, t.yhats, t.loss) for t in result.trajectories] == trajectories


@pytest.mark.parametrize("case", SIMULATE_CASES)
def test_streamed_simulate_matches_whole_matrix_reference(case):
    problem, strategy = SIMULATE_CASES[case]()
    block = evaluate_module.BLOCK_DRAWS // (2 * problem.n)
    cap = block + block // 2  # the kept trajectories end inside the second block
    for rollouts in (1, block - 1, block, block + 1, 2 * block + 13):
        _assert_matches_reference(problem, strategy, rollouts, 7 + rollouts, cap)


def test_small_blocks_match_whole_matrix_reference(monkeypatch):
    # one rollout per block when 2n draws exceed the block size, and many short blocks
    rng = np.random.default_rng(5)
    for block_draws, n in ((8, 5), (64, 3), (100, 1)):
        monkeypatch.setattr(evaluate_module, "BLOCK_DRAWS", block_draws)
        problem = random_problem(rng, n, 3, 2, 3)
        choices = rng.integers(0, 3, (n, 3))
        strategy = MarkovStrategy(n, problem.x_space.labels, problem.yhat_space.labels, choices)
        for rollouts in (1, 2, 37, 250):
            _assert_matches_reference(problem, strategy, rollouts, 2**64 - rollouts, 29)


def test_memory_is_one_loss_per_rollout_plus_a_block():
    problem = example_yield(50)
    strategy = optimal_strategy(solve(problem))
    rollouts = 100_000
    tracemalloc.start()
    try:
        simulate(problem, strategy, rollouts, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # whole-matrix simulation reached about 300 MB here
    assert peak < 8 * rollouts + 24 * 2**20
