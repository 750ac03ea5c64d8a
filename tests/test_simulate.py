"""Seeded Monte Carlo rollouts: determinism, substreams, statistical sanity."""

import math

import numpy as np
import pytest

from dyninfer import (
    Alphabet,
    ContextualLoss,
    Distribution,
    InvalidParams,
    ShapeMismatch,
    evaluate_markov,
    example_stock,
    make_stationary_problem,
    myopic_strategy,
    optimal_strategy,
    simulate,
    solve,
)
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
    return make_stationary_problem(
        4,
        Distribution.point_mass(binary, "0"),
        transition,
        quantity,
        ContextualLoss(binary, binary, binary, loss),
    )


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
            stock.loss.table[xi, stock.y_space.index(y), ai]
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
    with pytest.raises(InvalidParams):
        simulate(stock, myopic_strategy(stock), 0, seed=1)


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
