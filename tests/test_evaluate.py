"""Exact strategy evaluation: inference loss and loss-to-go tables."""

import dataclasses

import numpy as np
import pytest

from dyninfer import (
    MarkovStrategy,
    ShapeMismatch,
    UnknownLabel,
    bar_loss_table,
    evaluate_markov,
    example_stock,
    minimum_inference_loss,
    myopic_strategy,
    optimal_strategy,
    random_problem,
    solve,
)


def constant_strategy(problem, label):
    ai = problem.yhat_space.index(label)
    return MarkovStrategy(
        problem.n,
        problem.x_space.labels,
        problem.yhat_space.labels,
        np.full((problem.n, len(problem.x_space)), ai, dtype=np.int64),
    )


def test_optimal_strategy_reproduces_v_star(section33):
    result = solve(section33)
    evaluated = evaluate_markov(section33, optimal_strategy(result))
    assert np.all(np.abs(evaluated.v - result.v_star) <= 1e-12)
    assert evaluated.j == pytest.approx(minimum_inference_loss(section33, result), abs=1e-12)


def test_stock_myopic_versus_dynamic(stock):
    myopic_j = evaluate_markov(stock, myopic_strategy(stock)).j
    assert myopic_j == pytest.approx(2.4, abs=1e-12)  # the chain parks at x=0, six rounds of 0.4
    optimal_j = evaluate_markov(stock, optimal_strategy(solve(stock))).j
    assert optimal_j == pytest.approx(2.1, abs=1e-12)
    assert optimal_j < myopic_j


def test_loss_to_go_base_case(stock):
    strategy = myopic_strategy(stock)
    result = evaluate_markov(stock, strategy)
    bar = bar_loss_table(stock).values
    for xi in range(len(stock.x_space)):
        assert result.v[-1, xi] == pytest.approx(bar[-1, xi, strategy.choices[-1, xi]], abs=1e-12)


def test_loss_to_go_known_values(section33):
    one = section33.x_space.index("1")
    optimal = evaluate_markov(section33, optimal_strategy(solve(section33)))
    assert optimal.v[0, one] == pytest.approx(2.1, abs=1e-9)
    constant = evaluate_markov(section33, constant_strategy(section33, "1"))
    # estimating 1 holds the chain at x=1, so two rounds of 0.4 remain
    assert constant.v[4, one] == pytest.approx(0.8, abs=1e-12)


def test_shape_mismatch(section33):
    foreign = myopic_strategy(example_stock(5))
    with pytest.raises(ShapeMismatch):
        evaluate_markov(section33, foreign)


def test_strategy_wire_round_trip(stock):
    strategy = optimal_strategy(solve(stock))
    rows = strategy.to_rows()
    assert rows[0] == {"0": "1", "1": "1"}
    assert MarkovStrategy.from_rows(stock, rows) == strategy
    with pytest.raises(ShapeMismatch):
        MarkovStrategy.from_rows(stock, rows[:-1])
    with pytest.raises(ShapeMismatch):
        MarkovStrategy.from_rows(stock, [{"0": "1"}] * 6)
    with pytest.raises(UnknownLabel):
        MarkovStrategy.from_rows(stock, [{"0": "up", "1": "1"}] * 6)


def test_eval_j_is_initial_expectation_of_v():
    rng = np.random.default_rng(23)
    for _ in range(10):
        problem = random_problem(rng, n=int(rng.integers(1, 5)), nx=3, ny=2, nyhat=2)
        strategy = myopic_strategy(problem)
        result = evaluate_markov(problem, strategy)
        expected = float(np.dot(problem.init, result.v[0]))
        assert result.j == pytest.approx(expected, abs=1e-12)


def test_dominance_against_all_markov_strategies():
    from dyninfer import enumerate_markov_strategies, example_section33

    problem = example_section33(3)
    v_star = solve(problem).v_star
    for strategy in enumerate_markov_strategies(problem):
        v = evaluate_markov(problem, strategy).v
        assert np.all(v >= v_star - 1e-9)


def test_dominance_against_random_strategies_on_larger_models():
    rng = np.random.default_rng(71)
    for problem in (example_stock(12), random_problem(rng, n=8, nx=3, ny=2, nyhat=3)):
        v_star = solve(problem).v_star
        nx, na = len(problem.x_space), len(problem.yhat_space)
        for _ in range(200):
            choices = rng.integers(na, size=(problem.n, nx))
            strategy = MarkovStrategy(
                problem.n, problem.x_space.labels, problem.yhat_space.labels, choices
            )
            assert np.all(evaluate_markov(problem, strategy).v >= v_star - 1e-9)


def test_equality_when_suffix_matches_optimal(stock):
    result = solve(stock)
    best = optimal_strategy(result)
    # perturb only round 1: rounds >= 2 still match the optimum
    choices = best.choices.copy()
    choices[0, 0] = 1 - choices[0, 0]
    perturbed = MarkovStrategy(stock.n, best.x_labels, best.yhat_labels, choices)
    v = evaluate_markov(stock, perturbed).v
    assert np.all(np.abs(v[1:] - result.v_star[1:]) <= 1e-9)


def test_evaluate_is_init_independent_except_j(stock):
    strategy = myopic_strategy(stock)
    base = evaluate_markov(stock, strategy)
    shifted = dataclasses.replace(stock, init=np.array([0.25, 0.75]))
    moved = evaluate_markov(shifted, strategy)
    assert np.array_equal(base.v, moved.v)
    assert moved.j == pytest.approx(0.25 * base.v[0, 0] + 0.75 * base.v[0, 1], abs=1e-12)
