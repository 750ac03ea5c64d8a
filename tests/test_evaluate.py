"""Exact strategy evaluation: inference loss and loss-to-go tables."""

import dataclasses
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_properties import problems

from dyninfer import (
    DynamicInferenceError,
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
from dyninfer import evaluate as evaluate_module
from dyninfer.cli import run


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
    assert evaluated.j == pytest.approx(minimum_inference_loss(result), abs=1e-12)


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
    own = myopic_strategy(section33)
    # a strategy differing from its problem in n, x labels or estimate labels
    for foreign in (
        myopic_strategy(example_stock(5)),
        dataclasses.replace(own, x_labels=("a", "b")),
        dataclasses.replace(own, yhat_labels=("a", "b")),
    ):
        with pytest.raises(ShapeMismatch):
            evaluate_markov(section33, foreign)


def test_strategy_wire_round_trip(tmp_path, stock):
    model, out = tmp_path / "stock.json", tmp_path / "solve.json"
    assert run(["example", "stock", "--n", "6", "-o", str(model)]) == 0
    assert run(["solve", "-m", str(model), "-o", str(out)]) == 0
    rows = json.loads(out.read_text())["policy"]  # the policy as `dyninfer solve` writes it
    assert rows[0] == {"0": "1", "1": "1"}
    assert MarkovStrategy.from_rows(stock, rows) == optimal_strategy(solve(stock))
    with pytest.raises(ShapeMismatch):
        MarkovStrategy.from_rows(stock, rows[:-1])
    with pytest.raises(ShapeMismatch):
        MarkovStrategy.from_rows(stock, [{"0": "1"}] * 6)
    with pytest.raises(UnknownLabel):
        MarkovStrategy.from_rows(stock, [{"0": "up", "1": "1"}] * 6)


def test_strategy_rows_are_read_in_one_pass(monkeypatch, stock):
    rows = [{"0": "1", "1": "0"}] * 6

    def refused(*args):
        raise AssertionError("plain strategy rows reached the per-round reader")

    monkeypatch.setattr(evaluate_module, "_checked_choices", refused)
    assert MarkovStrategy.from_rows(stock, rows).choices.tolist() == [[1, 0]] * 6


def test_strategy_label_lists_are_bounded(stock):
    extra = {f"z{k}": "0" for k in range(7)}
    with pytest.raises(ShapeMismatch) as raised:
        MarkovStrategy.from_rows(stock, [{"0": "1", "1": "0", **extra}] * 6)
    assert str(raised.value) == "strategy round 1 has unknown observations ['z0', 'z1', 'z2', 'z3', 'z4', ...] (7 labels)"
    with pytest.raises(ShapeMismatch, match=r"missing observations \['0'\]$"):
        MarkovStrategy.from_rows(stock, [{"1": "0"}] * 6)


def _strategy_outcome(problem, rows):
    try:
        return MarkovStrategy.from_rows(problem, rows)
    except DynamicInferenceError as exc:
        return type(exc), str(exc)


# faults injected into a round: an observation deleted or added, an estimate replaced, the round retyped
BAD_ESTIMATES = ("zz", ["a0"], None, 0, True, "")


@settings(max_examples=300, deadline=None)
@given(problems(max_labels=3, max_n=3), st.integers(0, 2), st.data())
def test_strategy_faults_read_the_same_through_both_readers(problem, faults, data):
    labels = problem.yhat_space.labels
    rows = [
        {x: data.draw(st.sampled_from(labels)) for x in problem.x_space.labels} for _ in range(problem.n)
    ]
    for _ in range(faults):
        k = data.draw(st.integers(0, problem.n - 1))
        row = rows[k]
        kind = data.draw(st.sampled_from(("delete", "add", "estimate", "list", "mapping")))
        if kind == "delete" and isinstance(row, dict) and row:
            del row[data.draw(st.sampled_from(list(row)))]
        elif kind == "add" and isinstance(row, dict):
            row[data.draw(st.sampled_from(("zz", "x9")))] = labels[0]
        elif kind == "estimate" and isinstance(row, dict) and row:
            row[data.draw(st.sampled_from(list(row)))] = data.draw(st.sampled_from(BAD_ESTIMATES))
        elif kind == "list":
            rows[k] = list(row.values()) if isinstance(row, dict) else row
        elif kind == "mapping" and isinstance(row, dict):
            rows[k] = types.MappingProxyType(row)  # a Mapping, but no plain dict
    checked = _strategy_outcome(problem, rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_module, "_plain_stack", lambda *args: None)
        assert _strategy_outcome(problem, rows) == checked


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
