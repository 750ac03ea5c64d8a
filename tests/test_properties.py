"""Property tests: the array kernels and oracle walks against the scalar reference, and model round trips.

The kernels are checked on single problems and on stacks of problems of one shape.
"""

import dataclasses
from fractions import Fraction

import exact_reference
import numpy as np
import pytest
import scalar_reference
from enumeration_reference import strategy_count
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyninfer import (
    Alphabet,
    HistoryMode,
    HistoryStrategy,
    InvalidParams,
    MarkovStrategy,
    NotStochastic,
    TieBreakRule,
    bar_loss_table,
    brute_force_optimum,
    evaluate_markov,
    exact_loss_history,
    minimum_inference_loss,
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
from dyninfer import oracle, walks
from dyninfer.oracle import _history_binding, _stack_reports
from dyninfer.reduction import bar_loss_values
from dyninfer.solver import TIE_TOLERANCE, value_tables

SETTINGS = settings(max_examples=150, deadline=None)

# few distinct values, so that exact ties between estimates are common
LOSS_VALUES = (0.0, 0.1, 0.25, 0.5, 1.0, 3.0)
# signed values: negative losses and -0.0 reach every sum, so terms of both signs meet in it
SIGNED_LOSS_VALUES = (-0.0, 0.0, -0.5, 0.25, -1.0, 3.0)
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
def problems(draw, exact=None, max_labels=6, max_n=5, shape=None):
    """Problems with 1 to ``max_labels`` labels per alphabet and 1 to ``max_n`` rounds, stationary or not.

    ``shape`` = (n, |X|, |Y|, |Yhat|) fixes the sizes instead.
    """
    if shape is None:
        n = draw(st.integers(1, max_n))
        nx, ny, na = (draw(st.integers(1, max_labels)) for _ in range(3))
    else:
        n, nx, ny, na = shape
    exact = draw(st.booleans()) if exact is None else exact
    rounds = 1 if draw(st.booleans()) else None  # one table for every round
    x_space, y_space, yhat_space = (
        Alphabet(tuple(f"{prefix}{k}" for k in range(size))) for prefix, size in zip("xya", (nx, ny, na))
    )
    init = _rows(draw, (nx,), exact)
    transitions = _rows(draw, (rounds or n - 1, nx, na, nx), exact) if n > 1 else np.empty((0, nx, na, nx))
    quantities = _rows(draw, (rounds or n, nx, ny), exact)
    values = draw(st.sampled_from((LOSS_VALUES, SIGNED_LOSS_VALUES, NEAR_TIE_VALUES)))
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


@st.composite
def problems_and_choices(draw):
    """A problem from :func:`problems` and a strategy table drawn for it."""
    problem = draw(problems())
    shape = (problem.n, len(problem.x_space))
    return problem, draw(hnp.arrays(np.int64, shape, elements=st.integers(0, len(problem.yhat_space) - 1)))


def _negative_zero_row_problem():
    """Two rounds whose loss entries at (x0, a0) are all -0.0: their bar-loss is the 0.0 a sum from 0.0 gives."""
    labels = [Alphabet((f"{prefix}0", f"{prefix}1")) for prefix in "xya"]
    loss = np.array([[[-0.0, 1.0], [-0.0, 0.5]], [[0.25, -1.0], [3.0, -0.0]]])
    return problem_from_tables(2, *labels, [0.5, 0.5], [np.full((2, 2, 2), 0.5)], [np.full((2, 2), 0.5)], loss)


@SETTINGS
@given(problems_and_choices())
@example((_negative_zero_row_problem(), np.zeros((2, 2), dtype=np.int64)))
def test_evaluate_matches_scalar_reference(case):
    problem, choices = case
    drawn = MarkovStrategy(problem.n, problem.x_space.labels, problem.yhat_space.labels, choices)
    for strategy in (myopic_strategy(problem), optimal_strategy(solve(problem)), drawn):
        result = evaluate_markov(problem, strategy)
        v, j = scalar_reference.evaluate_markov(problem, strategy.choices)
        assert _same_bits(result.v, v)
        assert _same_bits(result.j, j)


def _same_bits(a, b) -> bool:
    """Equal floats, told apart by sign of zero too."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
        assert abs(report.gap) <= report.gap_bound
        # the reference keys each round's decisions by history tuple; sorted keys are rank order
        assert list(report.witness.tables) == [tuple(table[key] for key in sorted(table)) for table in decisions]
        assert _same_bits((report.lhs, report.rhs), scalar_reference.lemma1(problem, report.witness))
        drawn = random_history_strategy(problem, mode, np.random.default_rng(seed))
        assert _same_bits(exact_loss_history(problem, drawn), scalar_reference.exact_loss_history(problem, drawn))
        assert _same_bits(verify_lemma1(problem, drawn), scalar_reference.lemma1(problem, drawn))


@st.composite
def problem_stacks(draw):
    """1 to 5 problems of one shape, each drawn by ``problems``."""
    first = draw(problems(max_labels=3, max_n=3))
    shape = (first.n, len(first.x_space), len(first.y_space), len(first.yhat_space))
    return [first, *draw(st.lists(problems(shape=shape), max_size=4))]


@SETTINGS
@given(problem_stacks())
def test_stacked_oracle_and_solver_match_each_problem(problems):
    # the sweep's draws never hold a zero: only these stacks reach the zero-probability masks
    first = problems[0]
    spaces = (first.x_space, first.y_space, first.yhat_space)
    init, transitions, quantities, loss = (
        np.stack([getattr(problem, name) for problem in problems])
        for name in ("init", "transitions", "quantities", "loss")
    )
    bar = bar_loss_values(quantities, loss)
    q_star, v_star = value_tables(bar, transitions)
    for mode in HistoryMode:
        stack = _stack_reports(first.n, spaces, mode, 10**10_000, init, transitions, quantities, loss)
        assert stack.instances.tolist() == list(range(len(problems)))
        assert all(table.shape[0] == len(problems) for table in stack.decisions)
        for b, problem in enumerate(problems):
            alone = solve(problem)  # a stack of one
            assert _same_bits(bar[b], bar_loss_table(problem).values)
            assert _same_bits(q_star[b], alone.q_star) and _same_bits(v_star[b], alone.v_star)
            assert _same_bits(stack.dp_min[b], minimum_inference_loss(alone))
            brute_min, decisions = scalar_reference.brute_force(problem, mode)
            assert _same_bits(stack.brute_min[b], brute_min)
            witness = [tuple(table[b].tolist()) for table in stack.decisions]
            assert witness == [tuple(table[key] for key in sorted(table)) for table in decisions]
            strategy = HistoryStrategy(mode, *_history_binding(problem), witness)
            expected_lhs, expected_rhs = scalar_reference.lemma1(problem, strategy)
            assert _same_bits(stack.lhs[b], expected_lhs) and _same_bits(stack.rhs[b], expected_rhs)
            assert len(problem.yhat_space) ** stack.histories == strategy_count(problem, mode)


# binary shapes with more than 10^6 strategies but at most 10^6 histories, all inside the default limit
PAST_A_MILLION_STRATEGIES = [(HistoryMode.UNREVEALED, n) for n in range(4, 8)]
PAST_A_MILLION_STRATEGIES += [(HistoryMode.REVEALED, n) for n in range(3, 6)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PAST_A_MILLION_STRATEGIES), st.data())
def test_brute_force_equals_the_solver_past_a_million_strategies(case, data):
    mode, n = case
    problem = data.draw(problems(shape=(n, 2, 2, 2)))
    report = brute_force_optimum(problem, mode)
    assert report.strategies_searched == strategy_count(problem, mode) > 10**6
    assert abs(report.brute_min - report.dp_min) <= report.gap_bound
    assert abs(report.lhs - report.rhs) <= report.gap_bound


# fewer examples: each runs both walks at every block size, in both modes
@settings(max_examples=50, deadline=None)
@given(problem_stacks(), st.integers(0, 2**32 - 1))
def test_tiny_blocks_split_the_walks_and_keep_their_bits(problems, seed):
    # blocks this small split stacks between problems and problems between subtrees, mid-tree,
    # and each round of the history DP into runs of prefixes and y-ranks
    first = problems[0]
    init, transitions, quantities, loss = (
        np.stack([getattr(problem, name) for problem in problems])
        for name in ("init", "transitions", "quantities", "loss")
    )
    bar = bar_loss_values(quantities, loss)
    rng = np.random.default_rng(seed)
    spaces = (first.x_space, first.y_space, first.yhat_space)
    for mode in HistoryMode:
        strategies = [random_history_strategy(problem, mode, rng) for problem in problems]
        decisions = [np.array([strategy.tables[i] for strategy in strategies]) for i in range(first.n)]
        expected = [scalar_reference.lemma1(problem, strategy) for problem, strategy in zip(problems, strategies)]
        # the stacked record's pair was walked in whole blocks, on its witnesses' decisions
        stack = _stack_reports(first.n, spaces, mode, 10**10_000, init, transitions, quantities, loss)
        for block in (1, 2, 3, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(walks, "BLOCK_ENTRIES", block)
                patch.setattr(oracle, "_DP_BLOCK", block)
                brute_min, tables = oracle._history_optimum(mode, init, transitions, quantities, bar)
                revealed = mode is HistoryMode.REVEALED
                lhs = walks.loss_sums(revealed, decisions, init, transitions, quantities, loss)
                rhs = walks.bar_sums(revealed, decisions, init, transitions, quantities, bar)
                alone = [
                    (exact_loss_history(problem, strategy), verify_lemma1(problem, strategy))
                    for problem, strategy in zip(problems, strategies)
                ]
                witness_lhs = walks.loss_sums(revealed, stack.decisions, init, transitions, quantities, loss)
                witness_rhs = walks.bar_sums(revealed, stack.decisions, init, transitions, quantities, bar)
            assert _same_bits(np.stack([lhs, rhs], axis=1), expected)
            for (loss_sum, pair), pair_expected in zip(alone, expected):
                assert _same_bits(loss_sum, pair_expected[0]) and _same_bits(pair, pair_expected)
            assert _same_bits(witness_lhs, stack.lhs) and _same_bits(witness_rhs, stack.rhs)
            assert _same_bits(brute_min, stack.brute_min)
            assert all(np.array_equal(table, expected) for table, expected in zip(tables, stack.decisions))


def _tables(problem):
    return (problem.init, problem.transitions, problem.quantities, problem.loss)


def _spaces(problem):
    return (problem.x_space, problem.y_space, problem.yhat_space)


# Each transform builds its problem with problem_from_tables, and is compared with ``_rebuilt``, built
# the same way from the original tables: a rebuild divides each row by its sum again, which can move bits.


def _rebuilt(problem):
    return problem_from_tables(problem.n, *_spaces(problem), *_tables(problem))


def _static(problem):
    """``problem`` with every estimate's transitions those of the first: no estimate steers the next observation."""
    init, transitions, quantities, loss = _tables(problem)
    static_transitions = np.repeat(transitions[:, :, :1], len(problem.yhat_space), axis=2)
    return problem_from_tables(problem.n, *_spaces(problem), init, static_transitions, quantities, loss)


def _duplicated(problem, a):
    """``problem`` with one more estimate, ``"copy"``, that repeats estimate ``a``'s transitions and losses."""
    init, transitions, quantities, loss = _tables(problem)
    return problem_from_tables(
        problem.n,
        problem.x_space,
        problem.y_space,
        Alphabet((*problem.yhat_space.labels, "copy")),
        init,
        np.concatenate([transitions, transitions[:, :, a : a + 1]], axis=2),
        quantities,
        np.concatenate([loss, loss[:, :, a : a + 1]], axis=2),
    )


def _permuted(problem, px, py, pa):
    """``problem`` with its alphabets reordered: new index j of X, Y and Yhat is old index px[j], py[j] and pa[j]."""
    init, transitions, quantities, loss = _tables(problem)
    spaces = (Alphabet(tuple(space.labels[k] for k in p)) for space, p in zip(_spaces(problem), (px, py, pa)))
    return problem_from_tables(
        problem.n,
        *spaces,
        init[px],
        transitions[np.ix_(range(problem.n - 1), px, pa, px)],
        quantities[np.ix_(range(problem.n), px, py)],
        loss[np.ix_(px, py, pa)],
    )


def _rounding_bound(problem, shift=0.0):
    """4 n^2 eps (max|loss| + |shift|): how far a value may move when a transform reorders or shifts its sums."""
    return 4 * problem.n**2 * np.finfo(np.float64).eps * (float(np.abs(problem.loss).max()) + abs(shift))


def _clear_rows(q_star, bound):
    """Mask of the (round, observation) rows whose best Q leads the next by more than TIE_TOLERANCE + 2 * bound."""
    if q_star.shape[-1] == 1:
        return np.ones(q_star.shape[:-1], dtype=bool)
    best, second = np.sort(q_star, axis=-1)[..., :2].transpose(2, 0, 1)
    return second - best > TIE_TOLERANCE + 2 * bound


@SETTINGS
@given(problems())
def test_static_inference_makes_the_myopic_estimate_optimal(problem):
    # the paper's static special case: when no estimate steers the next observation, the future adds
    # the same value to every estimate of a row, so the single-round optimum is optimal in every round
    static = _static(problem)
    result = solve(static, TieBreakRule.MYOPIC_PREFERRED)
    assert np.array_equal(result.policy, bar_loss_table(static).myopic)
    assert evaluate_markov(static, myopic_strategy(static)).j == minimum_inference_loss(result)


@SETTINGS
@given(problems(), st.data())
def test_a_duplicated_estimate_changes_no_value(problem, data):
    # an estimate that repeats column ``a`` of the transitions and the loss is as good as ``a``
    # everywhere: the values keep their bits and every tie set holding ``a`` gains the copy
    na = len(problem.yhat_space)
    a = data.draw(st.integers(0, na - 1))
    original, duplicated = _rebuilt(problem), _duplicated(problem, a)
    for rule in TieBreakRule:
        before, after = solve(original, rule), solve(duplicated, rule)
        assert _same_bits(minimum_inference_loss(after), minimum_inference_loss(before))
        assert _same_bits(after.v_star, before.v_star)
        assert after.tie_sets == tuple(
            tuple(tie + (na,) * (a in tie) for tie in round_ties) for round_ties in before.tie_sets
        )


@SETTINGS
@given(problems(), st.data())
def test_permuting_the_estimates_permutes_the_solution_bit_for_bit(problem, data):
    # each sum runs over observations or quantities, never over estimates, so no sum changes order
    pa = np.array(data.draw(st.permutations(range(len(problem.yhat_space)))), dtype=np.intp)
    identity_x, identity_y = np.arange(len(problem.x_space)), np.arange(len(problem.y_space))
    before, after = solve(_rebuilt(problem)), solve(_permuted(problem, identity_x, identity_y, pa))
    assert _same_bits(after.q_star, before.q_star[..., pa])
    assert _same_bits(after.v_star, before.v_star)
    new_index = np.argsort(pa).tolist()
    assert after.tie_sets == tuple(
        tuple(tuple(sorted(new_index[ai] for ai in tie)) for tie in round_ties) for round_ties in before.tie_sets
    )


@SETTINGS
@given(problems(), st.data())
def test_permuting_every_alphabet_permutes_the_solution(problem, data):
    # reordered observations and quantities reorder the sums, so values match within a rounding bound,
    # and the policy matches where the best estimate leads the next by more than the tie tolerance and that bound
    px, py, pa = (
        np.array(data.draw(st.permutations(range(len(space)))), dtype=np.intp) for space in _spaces(problem)
    )
    original, permuted = _rebuilt(problem), _permuted(problem, px, py, pa)
    bound = _rounding_bound(original)
    new_index = np.argsort(pa)
    for rule in TieBreakRule:
        before, after = solve(original, rule), solve(permuted, rule)
        assert np.abs(after.q_star - before.q_star[:, px][..., pa]).max() <= bound
        assert np.abs(after.v_star - before.v_star[:, px]).max() <= bound
        assert abs(minimum_inference_loss(after) - minimum_inference_loss(before)) <= bound
        clear = _clear_rows(after.q_star, bound)
        assert np.array_equal(after.policy[clear], new_index[before.policy[:, px]][clear])


@SETTINGS
@given(problems(), st.sampled_from((-7.0, -1.0, -0.1, 0.25, 0.5, 3.0, 1e3)))
def test_a_loss_shift_shifts_every_value(problem, c):
    # c more loss in every round adds (n - i + 1) c to the values from round i on, and n c to J
    original = _rebuilt(problem)
    init, transitions, quantities, loss = _tables(problem)
    shifted = problem_from_tables(problem.n, *_spaces(problem), init, transitions, quantities, loss + c)
    bound = _rounding_bound(original, c)
    remaining = c * np.arange(problem.n, 0, -1.0)[:, None]  # (n - i + 1) c for rounds i = 1..n
    for rule in TieBreakRule:
        before, after = solve(original, rule), solve(shifted, rule)
        assert np.abs(after.q_star - (before.q_star + remaining[..., None])).max() <= bound
        assert np.abs(after.v_star - (before.v_star + remaining)).max() <= bound
        assert abs(minimum_inference_loss(after) - (minimum_inference_loss(before) + problem.n * c)) <= bound
        clear = _clear_rows(after.q_star, bound)
        assert np.array_equal(after.policy[clear], before.policy[clear])


@SETTINGS
@given(SMALL_PROBLEMS, st.data())
def test_brute_force_equals_the_solver_on_transformed_problems(problem, data):
    # the static and the duplicated-estimate transforms keep brute force = solver in both history modes
    a = data.draw(st.integers(0, len(problem.yhat_space) - 1))
    for transformed in (_static(problem), _duplicated(problem, a)):
        dp_min = minimum_inference_loss(solve(transformed))
        for mode in HistoryMode:
            report = brute_force_optimum(transformed, mode, limit=10**10_000)  # no limit
            assert _same_bits(report.dp_min, dp_min)
            assert abs(report.gap) <= report.gap_bound


# a loss scale of 2^k multiplies exactly, and even the smallest keeps every product far from
# underflow, which the bounds of exact_reference assume; few examples, as fractions are slow
EXACT_SETTINGS = settings(max_examples=30, deadline=None)
LOSS_SCALES = st.integers(-60, 60).map(lambda k: 2.0**k)


def _scaled(problem, scale):
    init, transitions, quantities, loss = _tables(problem)
    return problem_from_tables(problem.n, *_spaces(problem), init, transitions, quantities, loss * scale)


@EXACT_SETTINGS
@given(problems(), LOSS_SCALES)
def test_q_star_is_within_its_bound_of_the_exact_q(problem, scale):
    problem = _scaled(problem, scale)
    error = np.abs(exact_reference.exact(solve(problem).q_star) - exact_reference.solve(problem)[0])
    assert (error.max(axis=(1, 2)) <= exact_reference.q_star_bound(problem)).all()


@EXACT_SETTINGS
@given(SMALL_PROBLEMS, LOSS_SCALES)
def test_both_minima_are_within_their_bound_of_the_exact_j(problem, scale):
    problem = _scaled(problem, scale)
    j_star, bound = exact_reference.minimum_loss(problem), exact_reference.minimum_bound(problem)
    for mode in HistoryMode:
        report = brute_force_optimum(problem, mode, limit=10**10_000)  # no limit
        assert abs(Fraction(report.brute_min) - j_star) <= bound
        assert abs(Fraction(report.dp_min) - j_star) <= bound


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
