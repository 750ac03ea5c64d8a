"""Property tests: the array kernels and oracle walks against the scalar reference, and model round trips."""

import dataclasses

import numpy as np
import pytest
import scalar_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyninfer import (
    Alphabet,
    HistoryMode,
    InvalidParams,
    MarkovStrategy,
    TieBreakRule,
    bar_loss_table,
    brute_force_optimum,
    evaluate_markov,
    exact_loss_history,
    myopic_strategy,
    optimal_strategy,
    problem_from_tables,
    problem_to_dict,
    random_history_strategy,
    random_problem,
    solve,
    validate_problem,
    verify_lemma1,
)
from dyninfer import cli

SETTINGS = settings(max_examples=150, deadline=None)

# few distinct values, so that exact ties between estimates are common
LOSS_VALUES = (0.0, 0.1, 0.25, 0.5, 1.0, 3.0)
# values 4e-10 apart: near ties, inside the solver's tie tolerance but not equal
NEAR_TIE_VALUES = (0.5, 0.5 + 4e-10)


def _rows(draw, shape, exact):
    """Probability rows over the last axis, with exact zeros and exact ties.

    Exact rows are multiples of 1/8 that sum to exactly 1, so normalizing
    them changes nothing; other rows are small integer weights divided by
    their sum, which may miss 1 by rounding, as in ``random_problem``.
    """
    if exact:
        cuts = draw(hnp.arrays(np.int64, shape[:-1] + (shape[-1] - 1,), elements=st.integers(0, 8)))
        edges = np.concatenate(
            [np.zeros(shape[:-1] + (1,)), np.sort(cuts, axis=-1), np.full(shape[:-1] + (1,), 8)], axis=-1
        )
        return np.diff(edges, axis=-1) / 8.0
    weights = draw(hnp.arrays(np.float64, shape, elements=st.integers(0, 4).map(float)))
    weights[..., 0] += weights.sum(axis=-1) == 0.0  # no all-zero row
    return weights / weights.sum(axis=-1, keepdims=True)


@st.composite
def problems(draw, exact=None, max_labels=6, max_n=5):
    """Problems with 1 to ``max_labels`` labels per alphabet and 1 to ``max_n`` rounds, stationary or not."""
    n = draw(st.integers(1, max_n))
    nx, ny, na = (draw(st.integers(1, max_labels)) for _ in range(3))
    exact = draw(st.booleans()) if exact is None else exact
    rounds = 1 if draw(st.booleans()) else None  # one table for every round
    x_space, y_space, yhat_space = (
        Alphabet(tuple(f"{prefix}{k}" for k in range(size))) for prefix, size in zip("xya", (nx, ny, na))
    )
    init = _rows(draw, (nx,), exact)
    transitions = _rows(draw, (rounds or n - 1, nx, na, nx), exact) if n > 1 else np.empty((0, nx, na, nx))
    quantities = _rows(draw, (rounds or n, nx, ny), exact)
    values = NEAR_TIE_VALUES if draw(st.booleans()) else LOSS_VALUES
    loss = draw(hnp.arrays(np.float64, (nx, ny, na), elements=st.sampled_from(values)))
    return problem_from_tables(n, x_space, y_space, yhat_space, init, transitions, quantities, loss)


@SETTINGS
@given(problems())
def test_bar_loss_matches_scalar_reference(problem):
    table = bar_loss_table(problem)
    assert np.array_equal(table.values, scalar_reference.bar_loss(problem))
    expected_myopic = [
        [scalar_reference.myopic_index(problem, i, xi) for xi in range(len(problem.x_space))]
        for i in range(1, problem.n + 1)
    ]
    assert np.array_equal(table.myopic, expected_myopic)


@SETTINGS
@given(problems())
def test_solve_matches_scalar_reference(problem):
    for rule in TieBreakRule:
        result = solve(problem, rule)
        q_star, v_star, policy, tie_sets = scalar_reference.solve(problem, rule is TieBreakRule.MYOPIC_PREFERRED)
        assert np.array_equal(result.q_star, q_star)
        assert np.array_equal(result.v_star, v_star)
        assert np.array_equal(result.policy, policy)
        assert result.tie_sets == tie_sets


@SETTINGS
@given(problems(), st.data())
def test_evaluate_matches_scalar_reference(problem, data):
    shape = (problem.n, len(problem.x_space))
    drawn = MarkovStrategy(
        problem.n,
        problem.x_space.labels,
        problem.yhat_space.labels,
        data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, len(problem.yhat_space) - 1))),
    )
    for strategy in (myopic_strategy(problem), optimal_strategy(solve(problem)), drawn):
        result = evaluate_markov(problem, strategy)
        v, j = scalar_reference.evaluate_markov(problem, strategy.choices)
        assert np.array_equal(result.v, v)
        assert result.j == j


# small shapes of either kind: drawn tables with exact zeros and tied losses, or
# ``random_problem`` floats, on which the order of every sum shows in the bits
SMALL_SHAPES = st.tuples(*(st.integers(1, k) for k in (4, 3, 3, 3)))
SMALL_PROBLEMS = st.one_of(
    problems(max_labels=3, max_n=4),
    st.builds(
        lambda seed, shape: random_problem(np.random.default_rng(seed), *shape),
        st.integers(0, 2**32 - 1),
        SMALL_SHAPES,
    ),
)


@SETTINGS
@given(SMALL_PROBLEMS, st.integers(0, 2**32 - 1))
def test_oracle_matches_scalar_reference(problem, seed):
    for mode in HistoryMode:
        report = brute_force_optimum(problem, mode, limit=10**10_000)  # no limit
        brute_min, decisions = scalar_reference.brute_force(problem, mode)
        assert report.brute_min == brute_min
        assert abs(report.gap) <= cli.GAP_TOLERANCE
        # the reference keys each round's decisions by history tuple; sorted keys are rank order
        assert list(report.witness.tables) == [tuple(table[key] for key in sorted(table)) for table in decisions]
        assert report.lemma1_pairs == (scalar_reference.lemma1(problem, report.witness),)
        drawn = random_history_strategy(problem, mode, np.random.default_rng(seed))
        assert exact_loss_history(problem, drawn) == scalar_reference.exact_loss_history(problem, drawn)
        assert verify_lemma1(problem, drawn) == scalar_reference.lemma1(problem, drawn)


@SETTINGS
@given(problems(exact=True))
def test_document_round_trip(problem):
    stationary = all(
        np.array_equal(stack, np.broadcast_to(stack[:1], stack.shape))
        for stack in (problem.transitions, problem.quantities)
    )
    for mode in (True, False, "auto"):
        if mode is True and not stationary:
            # the compact form keeps only the first round's tables
            with pytest.raises(InvalidParams):
                problem_to_dict(problem, mode)
            continue
        assert validate_problem(problem_to_dict(problem, mode)) == problem


def test_replace_keeps_kernels_bit_identical():
    problem = random_problem(np.random.default_rng(4), n=4, nx=5, ny=3, nyhat=4)
    replaced = dataclasses.replace(problem, init=np.eye(5)[2])
    assert replaced.transitions.tobytes() == problem.transitions.tobytes()
    assert replaced.quantities.tobytes() == problem.quantities.tobytes()
