"""Seeded Monte Carlo rollouts: determinism, substreams, statistical sanity."""

import itertools
import math
import os
import struct
import sys
import threading
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
    # a tile of streams and consecutive draws returns the matching block of one call over every draw
    whole = uniform_matrix(42, 6, 10)
    for streams, draws, first, first_draw in ((2, 3, 1, 4), (6, 10, 0, 0), (1, 1, 5, 9), (3, 7, 2, 3)):
        tile = uniform_matrix(42, streams, draws, first, first_draw, 10)
        assert np.array_equal(tile, whole[first : first + streams, first_draw : first_draw + draws])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    streams=st.integers(1, 6),
    draws=st.integers(1, 6),
    first_stream=st.one_of(st.integers(0, 50), st.integers(0, 2**62)),
    first_draw=st.integers(0, 40),
    draws_per_stream=st.one_of(st.none(), st.integers(1, 50), st.integers(1, 2**62)),
)
@example(seed=2**64 - 1, streams=3, draws=2, first_stream=2**40, first_draw=5, draws_per_stream=2**30)
@example(seed=0, streams=1, draws=1, first_stream=2**62, first_draw=0, draws_per_stream=2**62)
def test_uniform_matrix_is_the_counter_stream(seed, streams, draws, first_stream, first_draw, draws_per_stream):
    # entry [k, t] is counter (first_draw + t) + (first_stream + k) * d of the reference stream, with the
    # counters formed in Python integers mod 2**64 (first_stream * d may pass 2**64)
    d = draws if draws_per_stream is None else draws_per_stream
    counters = [
        [(first_draw + t + (first_stream + k) * d) % 2**64 for t in range(draws)] for k in range(streams)
    ]
    expected = counter_uniforms(seed, np.array(counters, dtype=np.uint64))
    tile = uniform_matrix(seed, streams, draws, first_stream, first_draw, draws_per_stream)
    assert tile.tobytes(order="C") == expected.tobytes()
    # given buffers, longer than the tile and holding other bits, take the states and then the output
    buffers = np.full(streams * draws + 3, 2**64 - 1, dtype=np.uint64), np.arange(streams * draws + 5, dtype=np.uint64)
    tile = uniform_matrix(seed, streams, draws, first_stream, first_draw, draws_per_stream, buffers=buffers)
    assert tile.tobytes(order="C") == expected.tobytes() and np.shares_memory(tile, buffers[1])


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
    # 9 and 17 labels: search tables of widths 8 and 16 with no padding, so a guide's scan can reach a row's end
    "random-20-9-17-3": lambda: _random_case(5, 20, 9, 17, 3),
}


def _assert_matches_reference(problem, strategy, rollouts, seed):
    result = simulate(problem, strategy, rollouts, seed)
    mean, variance, losses = scalar_reference.simulate(problem, strategy.choices, rollouts, seed)
    assert result.mean == mean
    assert result.variance == variance
    assert _rollout_losses(problem, strategy, rollouts, seed).tobytes() == losses.tobytes()


@pytest.mark.parametrize("case", SIMULATE_CASES)
def test_streamed_simulate_matches_whole_matrix_reference(case):
    # a tile holds R = rollouts (below BLOCK_DRAWS) by BLOCK_DRAWS // R draws: up to ``whole``
    # rollouts that covers all 2n draws, and past it the tiles split the rounds
    problem, strategy = SIMULATE_CASES[case]()
    whole = evaluate_module.BLOCK_DRAWS // (2 * problem.n)
    for rollouts in (1, whole - 1, whole, whole + 1, 2 * whole + 13):
        _assert_matches_reference(problem, strategy, rollouts, 7 + rollouts)


def test_full_tiles_match_whole_matrix_reference():
    # from R = BLOCK_DRAWS rollouts on, a tile is one draw of R rollouts and the last tile is
    # partial; a short horizon keeps the whole-matrix reference small
    problem, strategy = _random_case(4, 3, 3, 2, 3)
    tile = evaluate_module.BLOCK_DRAWS
    for rollouts in (tile - 1, tile, tile + 1, 2 * tile + 13):
        _assert_matches_reference(problem, strategy, rollouts, rollouts)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    block_draws=st.integers(1, 64),
    # an integer, or (a, b) for a * R + b rollouts with R = BLOCK_DRAWS: R - 1, R, R + 1 and 2R + 13
    rollouts=st.one_of(st.integers(1, 150), st.sampled_from([(1, -1), (1, 0), (1, 1), (2, 13)])),
    problem_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
)
@example(n=5, block_draws=8, rollouts=(2, 13), problem_seed=0, seed=2**64 - 1)
@example(n=12, block_draws=64, rollouts=3, problem_seed=1, seed=0)
@example(n=1, block_draws=1, rollouts=(1, 1), problem_seed=2, seed=1)
def test_tiles_over_rollouts_and_rounds_match_whole_matrix_reference(n, block_draws, rollouts, problem_seed, seed):
    # small blocks split both the rollouts (R = min(rollouts, BLOCK_DRAWS)) and the 2n draws of each
    # rollout (BLOCK_DRAWS // R per tile), at and around the tile boundaries
    if isinstance(rollouts, tuple):
        a, b = rollouts
        rollouts = max(1, a * block_draws + b)  # R - 1 is no rollout at R = 1
    problem, strategy = _random_case(problem_seed, n, 3, 2, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_module, "BLOCK_DRAWS", block_draws)
        _assert_matches_reference(problem, strategy, rollouts, seed)


def test_long_horizon_tiles_of_many_rollouts_match_whole_matrix_reference():
    # 64 rollouts of 4000 draws: every tile holds all 64 rollouts and a fraction of the rounds
    problem = example_stock(2000)
    strategy = myopic_strategy(problem)
    assert 64 < evaluate_module.BLOCK_DRAWS < 64 * 2 * problem.n
    _assert_matches_reference(problem, strategy, 64, 11)


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


def _recording_tiles(monkeypatch):
    """Patch ``uniform_matrix`` to record, per tile made, whether the main thread made it."""
    made_on_main = []
    original = evaluate_module.uniform_matrix

    def recording(*args, **kwargs):
        made_on_main.append(threading.current_thread() is threading.main_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluate_module, "uniform_matrix", recording)
    return made_on_main


@pytest.mark.parametrize("case", ["yield-50", "stock-30", "random-40-3-2-2", "random-25-5-4-3", "random-20-9-17-3"])
def test_losses_are_the_same_with_and_without_the_producer(monkeypatch, case):
    # one CPU makes every tile on the calling thread, two make them on a producer thread ahead of the draws
    problem, strategy = SIMULATE_CASES[case]()
    made_on_main = _recording_tiles(monkeypatch)
    for block_draws, rollouts in [(evaluate_module.BLOCK_DRAWS, 3000), *((block, 13) for block in range(1, 9))]:
        monkeypatch.setattr(evaluate_module, "BLOCK_DRAWS", block_draws)
        texts = []
        for cpus in (1, 2):
            monkeypatch.setattr(evaluate_module, "_cpu_count", lambda cpus=cpus: cpus)
            made_on_main.clear()
            texts.append([loss.hex() for loss in _rollout_losses(problem, strategy, rollouts, 5).tolist()])
            assert len(made_on_main) > 1 and made_on_main == [cpus == 1] * len(made_on_main)
        assert texts[0] == texts[1]
        _, _, losses = scalar_reference.simulate(problem, strategy.choices, rollouts, 5)
        assert texts[0] == [loss.hex() for loss in losses.tolist()]
    # one tile is made on the calling thread, with no producer
    monkeypatch.setattr(evaluate_module, "BLOCK_DRAWS", 2**16)
    made_on_main.clear()
    _rollout_losses(problem, strategy, 1, 5)
    assert made_on_main == [True]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_fault_making_a_tile_propagates_and_leaves_no_thread(monkeypatch, cpus):
    problem, strategy = SIMULATE_CASES["yield-50"]()
    made = []
    original = evaluate_module.uniform_matrix

    def failing(*args, **kwargs):
        made.append(args)
        if len(made) == 3:
            raise MemoryError("the third tile")
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluate_module, "uniform_matrix", failing)
    monkeypatch.setattr(evaluate_module, "_cpu_count", lambda: cpus)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="the third tile"):
        simulate(problem, strategy, 20000, 3)  # 34 tiles
    assert threading.active_count() == threads
    assert len(made) == 3  # no tile is made after the fault


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_interrupt_while_drawing_stops_the_producer(monkeypatch, cpus):
    problem, strategy = SIMULATE_CASES["yield-50"]()
    made_on_main = _recording_tiles(monkeypatch)
    columns = []
    sampler = evaluate_module._sampler

    def interrupted_sampler(rows):
        draw = sampler(rows)

        def interrupted(*args):
            columns.append(None)
            if len(columns) == 20:  # in tile 7, which holds draw columns 19 to 21
                raise KeyboardInterrupt
            return draw(*args)

        return interrupted

    # every draw column calls one of the samplers
    monkeypatch.setattr(evaluate_module, "_sampler", interrupted_sampler)
    monkeypatch.setattr(evaluate_module, "_cpu_count", lambda: cpus)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        simulate(problem, strategy, 20000, 3)  # 34 tiles
    assert threading.active_count() == threads
    # the producer is at most two tiles ahead of the draws, and stops with them
    assert 7 <= len(made_on_main) <= 7 + 2


def test_concurrent_calls_with_a_short_switch_interval_keep_their_bits(monkeypatch):
    # four calling threads on two CPUs, each with its own producer, hand over 250 tiles of 8 draws a call
    problem, strategy = SIMULATE_CASES["random-25-5-4-3"]()
    monkeypatch.setattr(evaluate_module, "BLOCK_DRAWS", 8)
    monkeypatch.setattr(evaluate_module, "_cpu_count", lambda: 1)
    expected = {seed: _rollout_losses(problem, strategy, 40, seed).tobytes() for seed in range(4)}
    monkeypatch.setattr(evaluate_module, "_cpu_count", lambda: 2)
    results = {seed: [] for seed in range(4)}

    def calls(seed):
        for _ in range(5):
            results[seed].append(_rollout_losses(problem, strategy, 40, seed).tobytes())

    callers = [threading.Thread(target=calls, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == {seed: [expected[seed]] * 5 for seed in range(4)}


def test_cpu_count_falls_back_to_the_machine_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert evaluate_module._cpu_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined
    assert evaluate_module._cpu_count() == 1


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


def _python_square(d):
    """Python's ``d ** 2``, or inf where it raises ``OverflowError``."""
    try:
        return d**2
    except OverflowError:
        return math.inf


def _double(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


ROOT_MAX = math.sqrt(sys.float_info.max)  # the squares of larger doubles are past the float64 range
DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite),
    st.integers(0, 2**52 - 1).map(lambda mantissa: _double(0x3FF << 52 | mantissa)),  # [1, 2), any mantissa
    st.floats(-2.3e-308, 2.3e-308),  # subnormals among them
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.builds(math.copysign, st.floats(ROOT_MAX * (1 - 1e-12), ROOT_MAX * (1 + 1e-12)), st.sampled_from([1.0, -1.0])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(DOUBLES, min_size=1, max_size=64))
@example([ROOT_MAX, math.nextafter(ROOT_MAX, math.inf), -math.nextafter(ROOT_MAX, math.inf), sys.float_info.max, -0.0])
@example([0.3493787908695549, -0.803434124030634, -0.39464743475060593])  # where d * d is not d ** 2
def test_float_power_squares_as_python_does(values):
    # simulate's variance squares deviations with float_power, which calls C pow as ``**`` does;
    # d * d and np.square round differently on about 0.08% of doubles
    squares = np.array(values)
    with np.errstate(over="ignore"):
        np.float_power(squares, 2.0, out=squares)
    assert squares.tobytes() == np.array([_python_square(d) for d in values]).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    block_draws=st.integers(1, 8),
)
@example(values=[1e308, 1e308, -1e308], block_draws=2)  # the sum passes the float64 range, and so the mean
@example(values=[-1.7e308, 1.7e308, 1.7e308], block_draws=1)  # a deviation passes it
@example(values=[1e200, -1e200], block_draws=8)  # a square passes it
@example(values=[0.3493787908695549, -0.3493787908695549], block_draws=1)  # d * d is not d ** 2 here
def test_ordered_sums_are_the_python_loops(values, block_draws):
    total = 0.0
    for value in values:
        total += value
    mean = total / len(values)
    square_sum = 0.0
    for value in values:
        square_sum += _python_square(value - mean)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_module, "BLOCK_DRAWS", block_draws)
        losses = np.array(values)
        assert evaluate_module._ordered_sum(losses).hex() == total.hex()
        assert evaluate_module._ordered_sum(losses, mean).hex() == square_sum.hex()
        assert losses.tolist() == values  # the losses are read, not written


# zero steps repeat a running sum, 0.7 and 1.0 push it past 1.0 before the pinned end, 5e-324 is subnormal,
# and multiples of 1/64 put running sums on and between the guide's bucket edges b / K (K <= 32 here)
ENTRIES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.5e-310, 1e-300, 0.1, 1 / 3, 0.5, 0.7, 1.0]),
    st.integers(0, 64).map(lambda k: k / 64),
    st.floats(0.0, 1.0),
)


@st.composite
def rows_and_uniforms(draw):
    """1 to 3 rows of 1 to 17 non-negative entries, and uniforms at, just below and just above each running sum.

    The uniforms also hold each guide bucket's edge ``b / K`` and its two
    neighbours, for the ``K`` of the rows' search table.
    """
    width = draw(st.integers(1, 17))
    rows = draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)), width), elements=ENTRIES))
    sums = scalar_reference.row_cdfs(rows).ravel()
    buckets = 2 * evaluate_module._search_table(rows)[1]
    edges = np.arange(buckets) / buckets
    free = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4))
    ends = [0.0, np.nextafter(1.0, 0.0)]
    near = np.concatenate([sums, edges])
    points = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, 1.0), ends, free])
    return rows, np.unique(points[(points >= 0.0) & (points < 1.0)])


@settings(max_examples=300, deadline=None)
@given(rows_and_uniforms())
@example((np.array([[0.7, 0.7, 0.0, 0.3]]), np.array([0.0, 0.7, np.nextafter(0.7, 0.0), np.nextafter(1.0, 0.0)])))
@example((np.array([[5e-324, 0.0, 5e-324, 1.0], [0.0, 0.0, 0.0, 1.0]]), np.array([0.0, 5e-324, 1e-323, 0.5])))
@example((np.array([[1.0]]), np.array([0.0, 0.5])))
# rows of 5, 9 and 17 labels fill tables of width 4, 8 and 16: uniforms in the split bucket of a row's last
# running sum (0.8 with 8 buckets, 8/9 with 16, 16/17 with 32) draw the last label, and the scan ends at the
# row's end; the second row's first entry is <= u, so a read past the first row's end draws a wrong label
@example((np.array([[0.2] * 5, [0.05, 0.05, 0.3, 0.3, 0.3]]), np.array([0.1, 0.8, 0.85, 0.875, 1 - 2**-53])))
@example((np.array([[1 / 9] * 9, [0.05] + [0.1] * 7 + [0.25]]), np.array([0.05, 8 / 9, 0.9, 0.9375, 1 - 2**-53])))
@example((np.array([[1 / 17] * 17, [0.01] * 16 + [0.84]]), np.array([0.9, 16 / 17, 0.95, 0.96875, 1 - 2**-53])))
# four running sums in the first of 8 buckets: more than the binary search's 3 reads, so it keeps the search
@example((np.array([[0.1, 0.001, 0.001, 0.001, 0.897]]), np.array([0.0, 0.1, 0.1005, 0.103, 0.12, 1 - 2**-53])))
def test_binary_search_draws_what_the_row_gather_draws(case):
    rows, uniforms = case
    table, width = evaluate_module._search_table(rows)
    row_index = np.repeat(np.arange(len(rows)), len(uniforms))
    u = np.tile(uniforms, len(rows))
    expected = scalar_reference.sample(scalar_reference.row_cdfs(rows)[row_index], u)
    assert evaluate_module._draw(table, width, row_index, u).tolist() == expected.tolist()
    # the guide decides the draw of each uniform in an unsplit bucket, and a scan from the bucket's start the rest
    guide, passes = evaluate_module._guide_table(table, width)
    assert guide.nbytes == 2 * table.nbytes
    assert evaluate_module._guided_draw(table, width, guide, passes, row_index, u).tolist() == expected.tolist()
    # past log2(width) + 1 steps, the split draws go to the binary search instead of the scan
    binary = evaluate_module._guided_draw(table, width, guide, width.bit_length() + 1, row_index, u)
    assert binary.tolist() == expected.tolist()
    assert evaluate_module._sampler(rows)(row_index, u).tolist() == expected.tolist()


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
