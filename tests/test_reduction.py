"""Observation-estimate loss table, myopic estimates, and the MDP dynamics."""

import dataclasses

import numpy as np
import pytest
import scalar_reference

from dyninfer import (
    ContextualLoss,
    bar_loss_table,
    example_section33,
    example_stock,
    random_problem,
    solve,
)


def brute_expected_loss(problem, i, x, yhat):
    """Independent recomputation straight from the tables."""
    xi, ai = problem.x_space.index(x), problem.yhat_space.index(yhat)
    total = 0.0
    for yi in range(len(problem.y_space)):
        total += problem.quantities[i - 1, xi, yi] * problem.loss.table[xi, yi, ai]
    return total


def bar_value(problem, i, x, yhat):
    """The bar-loss entry of round ``i`` at labels ``x`` and ``yhat``."""
    return bar_loss_table(problem).values[i - 1, problem.x_space.index(x), problem.yhat_space.index(yhat)]


def test_known_entries(section33, stock):
    for i in (1, 3, 6):
        assert bar_value(section33, i, "0", "1") == pytest.approx(0.9, abs=1e-12)
        assert bar_value(section33, i, "1", "1") == pytest.approx(0.4, abs=1e-12)
    assert bar_value(stock, 1, "1", "0") == pytest.approx(0.7, abs=1e-12)


def test_stock_slice_matches_brute_force(stock):
    expected = {("0", "0"): 0.4, ("0", "1"): 0.6, ("1", "0"): 0.7, ("1", "1"): 0.3}
    for (x, yhat), value in expected.items():
        assert bar_value(stock, 1, x, yhat) == pytest.approx(value, abs=1e-12)
        assert brute_expected_loss(stock, 1, x, yhat) == pytest.approx(value, abs=1e-12)


def test_stationary_model_has_identical_slices(section33):
    table = bar_loss_table(section33).values
    for k in range(1, 6):
        assert np.array_equal(table[k], table[0])


def test_n1_problem_has_single_slice():
    table = bar_loss_table(example_section33(1))
    assert table.values.shape == (1, 2, 2)


def test_table_matches_pointwise_operation_and_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(10):
        problem = random_problem(rng, n=3, nx=2, ny=3, nyhat=2)
        table = bar_loss_table(problem).values
        for i in range(1, problem.n + 1):
            for xi, x in enumerate(problem.x_space):
                for ai, yhat in enumerate(problem.yhat_space):
                    entry = table[i - 1, xi, ai]
                    assert entry == scalar_reference.bar_entry(problem, i, xi, ai)
                    assert entry == pytest.approx(brute_expected_loss(problem, i, x, yhat), abs=1e-12)


def test_table_is_strategy_independent(section33):
    before = bar_loss_table(section33).values
    solve(section33)  # solving must not perturb the reduction
    after = bar_loss_table(section33).values
    assert np.array_equal(before, after)


def test_zero_one_loss_identity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        problem = example_stock(n)  # 0-1 loss with matching y/yhat alphabets
        table = bar_loss_table(problem).values
        for i in range(1, n + 1):
            for xi in range(len(problem.x_space)):
                for ai, yhat in enumerate(problem.yhat_space):
                    complement = 1.0 - problem.quantities[i - 1, xi, problem.y_space.index(yhat)]
                    assert table[i - 1, xi, ai] == pytest.approx(complement, abs=1e-12)


def myopic_label(problem, i, x):
    """The single-round optimal estimate label of round ``i`` at observation ``x``."""
    return problem.yhat_space.labels[bar_loss_table(problem).myopic[i - 1, problem.x_space.index(x)]]


def test_myopic_estimates(section33, stock):
    assert myopic_label(section33, 1, "1") == "1"
    assert myopic_label(section33, 1, "0") == "0"
    assert myopic_label(stock, 1, "0") == "0"


def test_myopic_tie_set_detects_flat_rows():
    # with n = 1, Q* is the bar-loss table, so the solver's tie sets are the myopic ones
    assert solve(example_stock(1)).tie_sets[0][0] == (0,)
    flat = random_problem(np.random.default_rng(1), n=1)
    # force an exact tie by zeroing the loss table
    tied = dataclasses.replace(
        flat, loss=ContextualLoss(flat.x_space, flat.y_space, flat.yhat_space, np.zeros((2, 2, 2)))
    )
    assert solve(tied).tie_sets[0][0] == (0, 1)
    assert myopic_label(tied, 1, "0") == "0"  # smallest index on ties


def test_problem_arrays_are_the_mdp_dynamics(section33, stock):
    # the MDP's per-step cost is the bar-loss table, its dynamics the transition array
    assert section33.transitions.shape == (5, 2, 2, 2)
    assert bar_loss_table(section33).values.shape == (6, 2, 2)
    assert example_section33(1).transitions.shape == (0, 2, 2, 2)
    for xi in range(2):
        for ai in range(2):
            # deterministic dynamics: the next observation equals the action label
            assert np.all(stock.transitions[:, xi, ai, ai] == 1.0)
