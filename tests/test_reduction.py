"""Observation-estimate loss table, myopic estimates, and the MDP dynamics."""

import numpy as np
import pytest
import reference

from dyninfer import (
    RoundOutOfRange,
    UnknownLabel,
    bar_loss_table,
    example_section33,
    example_stock,
    myopic_bayes_estimate,
    myopic_tie_set,
    random_problem,
    solve,
)


def brute_expected_loss(problem, i, x, yhat):
    """Independent recomputation straight from the tables."""
    total = 0.0
    for y in problem.y_space:
        quantity = problem.quantities[i - 1, problem.x_space.index(x), problem.y_space.index(y)]
        total += quantity * problem.loss.value(x, y, yhat)
    return total


def test_known_entries(section33, stock):
    table = bar_loss_table(section33)
    for i in (1, 3, 6):
        assert table.value(i, "0", "1") == pytest.approx(0.9, abs=1e-12)
        assert table.value(i, "1", "1") == pytest.approx(0.4, abs=1e-12)
    assert bar_loss_table(stock).value(1, "1", "0") == pytest.approx(0.7, abs=1e-12)


def test_stock_slice_matches_brute_force(stock):
    expected = {("0", "0"): 0.4, ("0", "1"): 0.6, ("1", "0"): 0.7, ("1", "1"): 0.3}
    table = bar_loss_table(stock)
    for (x, yhat), value in expected.items():
        assert table.value(1, x, yhat) == pytest.approx(value, abs=1e-12)
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
        table = bar_loss_table(problem)
        for i in range(1, problem.n + 1):
            for x in problem.x_space:
                for yhat in problem.yhat_space:
                    entry = table.value(i, x, yhat)
                    xi, ai = problem.x_space.index(x), problem.yhat_space.index(yhat)
                    assert entry == reference.bar_entry(problem, i, xi, ai)
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
        table = bar_loss_table(problem)
        for i in range(1, n + 1):
            for x in problem.x_space:
                for yhat in problem.yhat_space:
                    xi, yi = problem.x_space.index(x), problem.y_space.index(yhat)
                    complement = 1.0 - problem.quantities[i - 1, xi, yi]
                    assert table.value(i, x, yhat) == pytest.approx(complement, abs=1e-12)


def test_myopic_estimates(section33, stock):
    assert myopic_bayes_estimate(section33, 1, "1") == "1"
    assert myopic_bayes_estimate(section33, 1, "0") == "0"
    assert myopic_bayes_estimate(stock, 1, "0") == "0"


def test_myopic_tie_set_detects_flat_rows():
    problem = example_stock(2)
    assert myopic_tie_set(problem, 1, "0") == ("0",)
    flat = random_problem(np.random.default_rng(1), n=1)
    # force an exact tie by zeroing the loss table
    import dataclasses

    from dyninfer import ContextualLoss

    tied = dataclasses.replace(
        flat, loss=ContextualLoss(flat.x_space, flat.y_space, flat.yhat_space, np.zeros((2, 2, 2)))
    )
    assert myopic_tie_set(tied, 1, "0") == ("0", "1")
    assert myopic_bayes_estimate(tied, 1, "0") == "0"  # smallest index on ties


def test_errors(section33):
    table = bar_loss_table(section33)
    with pytest.raises(RoundOutOfRange):
        table.value(7, "0", "0")
    with pytest.raises(RoundOutOfRange):
        myopic_bayes_estimate(section33, 0, "0")
    with pytest.raises(UnknownLabel):
        table.value(1, "2", "0")


def test_problem_arrays_are_the_mdp_dynamics(section33, stock):
    # the MDP's per-step cost is the bar-loss table, its dynamics the transition array
    assert section33.transitions.shape == (5, 2, 2, 2)
    assert bar_loss_table(section33).values.shape == (6, 2, 2)
    assert example_section33(1).transitions.shape == (0, 2, 2, 2)
    for xi in range(2):
        for ai in range(2):
            # deterministic dynamics: the next observation equals the action label
            assert np.all(stock.transitions[:, xi, ai, ai] == 1.0)
