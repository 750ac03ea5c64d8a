"""Seeded Monte Carlo rollouts: determinism, substreams, statistical sanity."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scalar_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from dyninfer.evaluate import _rollout_losses
from dyninfer.rng import counter_uniforms, uniform_matrix


def test_same_seed_is_bit_identical(stock):
    strategy = optimal_strategy(solve(stock))
    first = simulate(stock, strategy, 5000, seed=42)
    second = simulate(stock, strategy, 5000, seed=42)
    assert first.mean == second.mean
    assert first.variance == second.variance
    assert _rollout_losses(stock, strategy, 5000, 42).tobytes() == _rollout_losses(stock, strategy, 5000, 42).tobytes()


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
    small = _rollout_losses(stock, strategy, 50, 7)
    large = _rollout_losses(stock, strategy, 200, 7)
    assert large[:50].tobytes() == small.tobytes()


def _one_rollout_loss(problem, choices, seed, r):
    """The loss of rollout ``r`` drawn alone from substream ``r``, one round and one draw at a time."""
    draws = iter(uniform_matrix(seed, 1, 2 * problem.n, r)[0].tolist())

    def pick(row):
        # inverse CDF in label-index order, with the last cumulative entry read as 1.0
        u = next(draws)
        cdf = list(itertools.accumulate(row.tolist()))
        return next((m for m, c in enumerate(cdf[:-1]) if u < c), len(cdf) - 1)

    loss = 0.0
    x = pick(problem.init)
    for k in range(problem.n):
        y = pick(problem.quantities[k, x])
        estimate = int(choices[k, x])
        loss += float(problem.loss[x, y, estimate])
        if k < problem.n - 1:
            x = pick(problem.transitions[k, x, estimate])
    return loss


def test_trajectories_are_consistent(stock):
    # each rollout follows the strategy along the trajectory its own substream draws
    strategy = optimal_strategy(solve(stock))
    losses = _rollout_losses(stock, strategy, 100, 3).tolist()
    assert losses == [_one_rollout_loss(stock, strategy.choices, 3, r) for r in range(100)]


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


def _assert_matches_reference(problem, strategy, rollouts, seed):
    result = simulate(problem, strategy, rollouts, seed)
    mean, variance, losses = scalar_reference.simulate(problem, strategy.choices, rollouts, seed)
    assert result.mean == mean
    assert result.variance == variance
    assert _rollout_losses(problem, strategy, rollouts, seed).tobytes() == losses.tobytes()


@pytest.mark.parametrize("case", SIMULATE_CASES)
def test_streamed_simulate_matches_whole_matrix_reference(case):
    problem, strategy = SIMULATE_CASES[case]()
    block = evaluate_module.BLOCK_DRAWS // (2 * problem.n)
    for rollouts in (1, block - 1, block, block + 1, 2 * block + 13):
        _assert_matches_reference(problem, strategy, rollouts, 7 + rollouts)


def test_small_blocks_match_whole_matrix_reference(monkeypatch):
    # one rollout per block when 2n draws exceed the block size, and many short blocks
    rng = np.random.default_rng(5)
    for block_draws, n in ((8, 5), (64, 3), (100, 1)):
        monkeypatch.setattr(evaluate_module, "BLOCK_DRAWS", block_draws)
        problem = random_problem(rng, n, 3, 2, 3)
        choices = rng.integers(0, 3, (n, 3))
        strategy = MarkovStrategy(n, problem.x_space.labels, problem.yhat_space.labels, choices)
        for rollouts in (1, 2, 37, 250):
            _assert_matches_reference(problem, strategy, rollouts, 2**64 - rollouts)


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


# zero steps repeat a running sum, 0.7 and 1.0 push it past 1.0 before the pinned end, and 5e-324 is subnormal
ENTRIES = st.one_of(st.sampled_from([0.0, 5e-324, 2.5e-310, 1e-300, 0.1, 1 / 3, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0))


@st.composite
def rows_and_uniforms(draw):
    """1 to 3 rows of 1 to 17 non-negative entries, and uniforms at, just below and just above each running sum."""
    width = draw(st.integers(1, 17))
    rows = draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)), width), elements=ENTRIES))
    sums = scalar_reference.row_cdfs(rows).ravel()
    free = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4))
    ends = [0.0, np.nextafter(1.0, 0.0)]
    points = np.concatenate([sums, np.nextafter(sums, 0.0), np.nextafter(sums, 1.0), ends, free])
    return rows, np.unique(points[(points >= 0.0) & (points < 1.0)])


@settings(max_examples=300, deadline=None)
@given(rows_and_uniforms())
@example((np.array([[0.7, 0.7, 0.0, 0.3]]), np.array([0.0, 0.7, np.nextafter(0.7, 0.0), np.nextafter(1.0, 0.0)])))
@example((np.array([[5e-324, 0.0, 5e-324, 1.0], [0.0, 0.0, 0.0, 1.0]]), np.array([0.0, 5e-324, 1e-323, 0.5])))
@example((np.array([[1.0]]), np.array([0.0, 0.5])))
def test_binary_search_draws_what_the_row_gather_draws(case):
    rows, uniforms = case
    table, width = evaluate_module._search_table(rows)
    row_index = np.repeat(np.arange(len(rows)), len(uniforms))
    u = np.tile(uniforms, len(rows))
    expected = scalar_reference.sample(scalar_reference.row_cdfs(rows)[row_index], u)
    assert evaluate_module._draw(table, width, row_index, u).tolist() == expected.tolist()


def test_long_horizon_tables_hold_only_the_strategy_rows(monkeypatch):
    problem = example_stock(10**5)
    strategy = myopic_strategy(problem)
    search_table = evaluate_module._search_table
    table_bytes = []

    def recording(rows):
        table, width = search_table(rows)
        table_bytes.append(table.nbytes)
        return table, width

    monkeypatch.setattr(evaluate_module, "_search_table", recording)
    tracemalloc.start()
    try:
        simulate(problem, strategy, 3, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # CDFs of every estimate's transition rows and of the quantities peaked at 16.8 MiB here
    assert peak <= 16.8 * 2**20
    assert sum(table_bytes) < 8 * problem.transitions.size  # the full transition cumsum alone
