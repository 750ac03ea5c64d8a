"""Backward induction: value tables, tie handling, deviations from the myopic estimate.

Numeric targets were computed by hand with exact rational arithmetic and
cross-checked against the brute-force search over history strategies (see
test_oracle.py); the solver must reproduce them to tight tolerance.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from dyninfer import (
    TieBreakRule,
    bar_loss_table,
    evaluate_markov,
    example_section33,
    example_stock,
    export_trellis,
    minimum_inference_loss,
    optimal_strategy,
    random_problem,
    solve,
)

# horizon-6 optimal remaining losses, rounds 1..6 (rational-arithmetic oracle)
SECTION33_V = {"0": [1.9, 1.5, 1.2, 0.8, 0.5, 0.1], "1": [2.1, 1.8, 1.4, 1.1, 0.7, 0.4]}
STOCK_V = {"0": [2.1, 1.8, 1.5, 1.2, 0.8, 0.4], "1": [1.8, 1.5, 1.2, 0.9, 0.6, 0.3]}


def v(result, i, x):
    return result.v_star[i - 1, result.problem.x_space.index(x)]


def chosen(result, i, x):
    problem = result.problem
    return problem.yhat_space.labels[result.policy[i - 1, problem.x_space.index(x)]]


def ties(result, i, x):
    problem = result.problem
    return tuple(problem.yhat_space.labels[ai] for ai in result.tie_sets[i - 1][problem.x_space.index(x)])


def deviations(r):
    x_labels = r.problem.x_space.labels
    return {(k + 1, x_labels[xi]) for k, xi in np.argwhere(r.policy != r.myopic).tolist()}


def test_section33_policy_and_values(section33):
    result = solve(section33)
    for x, values in SECTION33_V.items():
        for i, value in enumerate(values, start=1):
            assert v(result, i, x) == pytest.approx(value, abs=1e-9)
    for i in (1, 3, 5):
        assert chosen(result, i, "1") == "0"
    assert deviations(result) == {(1, "1"), (3, "1"), (5, "1")}
    assert v(result, 6, "0") == pytest.approx(0.1, abs=1e-12)
    assert v(result, 6, "1") == pytest.approx(0.4, abs=1e-12)


def test_section33_exact_ties_resolve_to_myopic(section33):
    result = solve(section33)
    assert ties(result, 2, "1") == ("0", "1")
    assert ties(result, 4, "1") == ("0", "1")
    assert chosen(result, 2, "1") == "1"
    assert chosen(result, 4, "1") == "1"
    first = solve(section33, TieBreakRule.FIRST_INDEX)
    assert chosen(first, 2, "1") == "0"
    assert ties(first, 2, "1") == ("0", "1")


def test_stock_policy_and_values(stock):
    result = solve(stock)
    for x, values in STOCK_V.items():
        for i, value in enumerate(values, start=1):
            assert v(result, i, x) == pytest.approx(value, abs=1e-9)
    assert deviations(result) == {(1, "0"), (2, "0"), (3, "0")}
    assert ties(result, 4, "0") == ("0", "1")
    assert chosen(result, 4, "0") == "0"  # the myopic choice


def test_q_star_final_round_equals_bar_loss(stock):
    result = solve(stock)
    assert np.array_equal(result.q_star[-1], bar_loss_table(stock).values[-1])


def test_v_star_is_row_minimum_and_policy_in_ties(stock):
    result = solve(stock)
    for k in range(stock.n):
        for xi in range(2):
            assert result.v_star[k, xi] == result.q_star[k, xi].min()
            assert result.policy[k, xi] in result.tie_sets[k][xi]


def test_tie_sets_are_the_tie_mask_read_on_demand(section33):
    result = solve(section33)
    assert result.tied.shape == result.q_star.shape and not result.tied.flags.writeable
    for format in ("dot", "text"):
        export_trellis(result, format)
    assert "tie_sets" not in vars(result)  # no writer builds the nested tuples
    expected = tuple(tuple(tuple(np.flatnonzero(row).tolist()) for row in rows) for rows in result.tied)
    assert result.tie_sets == expected
    assert result.tie_sets is result.tie_sets  # made once


def test_solve_allocates_a_few_times_its_result():
    # the result's arrays and a few round-sized temporaries; the nested tie sets it held
    # before the tie mask peaked at about 6 times the arrays here
    problem = example_stock(10**5)
    tracemalloc.start()
    try:
        result = solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (result.v_star, result.q_star, result.policy, result.tied, result.myopic)
    assert peak < 3 * sum(table.nbytes for table in arrays)
    assert "tie_sets" not in vars(result)


def test_bellman_consistency_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(15):
        problem = random_problem(rng, n=int(rng.integers(1, 5)), nx=3, ny=2, nyhat=3)
        result = solve(problem)
        bar = bar_loss_table(problem).values
        for i in range(1, problem.n + 1):
            for xi in range(3):
                best = np.inf
                for ai in range(3):
                    value = bar[i - 1, xi, ai]
                    if i < problem.n:
                        value += float(
                            np.dot(problem.transitions[i - 1, xi, ai], result.v_star[i])
                        )
                    best = min(best, value)
                assert result.v_star[i - 1, xi] == pytest.approx(best, abs=1e-12)


def test_monotone_horizon_on_worked_examples(section33, stock):
    for problem in (section33, stock):
        result = solve(problem)
        diffs = np.diff(result.v_star, axis=0)
        assert np.all(diffs <= 1e-12)


def test_policy_invariant_under_positive_affine_rescaling(section33):
    base = solve(section33)
    scaled = solve(dataclasses.replace(section33, loss=3.0 * section33.loss + 0.25))
    assert scaled.tie_sets == base.tie_sets
    assert np.array_equal(scaled.policy, base.policy)
    # a constant per-round shift accumulates (n - i + 1) times on top of the scale
    for i in range(1, 7):
        remaining = 7 - i
        for x in "01":
            assert v(scaled, i, x) == pytest.approx(3.0 * v(base, i, x) + 0.25 * remaining, abs=1e-9)


def test_argmin_unchanged_by_affine_row_transform(stock):
    # the tie-set computation itself is affine-invariant at the row level
    from dyninfer.solver import TIE_TOLERANCE

    result = solve(stock)
    for k in range(stock.n):
        for xi in range(2):
            row = result.q_star[k, xi]
            ties = result.tie_sets[k][xi]
            transformed = 2.0 * row
            best = transformed.min()
            assert tuple(ai for ai in range(2) if transformed[ai] <= best + TIE_TOLERANCE) == ties


def test_tie_break_rule_does_not_change_the_loss():
    rng = np.random.default_rng(17)
    for _ in range(10):
        problem = random_problem(rng, n=3)
        reference = None
        for rule in TieBreakRule:
            result = solve(problem, rule)
            j = evaluate_markov(problem, optimal_strategy(result)).j
            assert j == pytest.approx(minimum_inference_loss(result), abs=1e-12)
            reference = j if reference is None else reference
            assert j == pytest.approx(reference, abs=1e-12)


def test_minimum_inference_loss_values(section33):
    result = solve(section33)
    assert minimum_inference_loss(result) == pytest.approx(1.9, abs=1e-12)

    uniform = dataclasses.replace(section33, init=np.array([0.5, 0.5]))
    assert minimum_inference_loss(solve(uniform)) == pytest.approx((1.9 + 2.1) / 2, abs=1e-12)

    one_round = example_section33(1)
    assert minimum_inference_loss(solve(one_round)) == pytest.approx(0.1, abs=1e-12)


def test_deviation_counts(section33, stock):
    for problem in (section33, stock):
        result = solve(problem)
        assert np.count_nonzero(result.policy != result.myopic) == 3
    one_round = example_stock(1)
    result = solve(one_round)
    assert result.policy.shape == (1, 2)
    assert deviations(result) == set()
    assert result.q_star[0, 0].tolist() == [pytest.approx(0.4, abs=1e-12), pytest.approx(0.6, abs=1e-12)]
    labels = one_round.yhat_space.labels
    assert labels[result.policy[0, 0]] == labels[result.myopic[0, 0]] == "0"
