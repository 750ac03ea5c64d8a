"""Brute-force ground truth: enumeration, exact losses, and solver cross-checks."""

import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from enumeration_reference import (
    build_history_strategy,
    enumerate_history_strategies,
    enumeration_minimum,
    strategy_count,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_reference import decision

from dyninfer import (
    HistoryMode,
    HistoryStrategy,
    InvalidModelError,
    MarkovStrategy,
    SearchSpaceTooLarge,
    ShapeMismatch,
    brute_force_optimum,
    enumerate_markov_strategies,
    evaluate_markov,
    exact_loss_history,
    example_section33,
    example_stock,
    minimum_inference_loss,
    myopic_strategy,
    random_history_strategy,
    random_problem,
    solve,
    verify_lemma1,
)
from dyninfer import oracle
from dyninfer.oracle import (
    _sweep_draws,
    _sweep_layout,
    checked_shape_space,
    history_count,
    random_sweep,
    shape_history_count,
)

BOTH_MODES = (HistoryMode.REVEALED, HistoryMode.UNREVEALED)


# ---- exact_loss_history ----


def test_one_round_closed_form():
    problem = example_section33(1)
    for label in ("0", "1"):
        ai = problem.yhat_space.index(label)
        strategy = build_history_strategy(problem, HistoryMode.UNREVEALED, lambda i, xs, ys: ai)
        expected = 0.0
        for xi in range(len(problem.x_space)):
            for yi in range(len(problem.y_space)):
                weight = problem.init[xi] * problem.quantities[0, xi, yi]
                expected += weight * problem.loss[xi, yi, ai]
        assert exact_loss_history(problem, strategy) == pytest.approx(expected, abs=1e-15)


def lift(problem, strategy: MarkovStrategy, mode=HistoryMode.UNREVEALED):
    """A per-observation strategy as a total history strategy."""
    return build_history_strategy(problem, mode, lambda i, xs, ys: int(strategy.choices[i - 1, xs[-1]]))


def test_markov_lift_agrees_with_evaluate():
    problem = example_section33(2)
    best = solve(problem)
    from dyninfer import optimal_strategy

    markov = optimal_strategy(best)
    lifted = lift(problem, markov)
    assert exact_loss_history(problem, lifted) == pytest.approx(
        evaluate_markov(problem, markov).j, abs=1e-12
    )


def test_stock_myopic_lift_is_2_4(stock):
    lifted = lift(stock, myopic_strategy(stock))
    assert exact_loss_history(stock, lifted) == pytest.approx(2.4, abs=1e-12)


def test_markov_lift_agrees_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(10):
        problem = random_problem(rng, n=int(rng.integers(1, 4)))
        strategy = myopic_strategy(problem)
        for mode in BOTH_MODES:
            lifted = lift(problem, strategy, mode)
            assert exact_loss_history(problem, lifted) == pytest.approx(
                evaluate_markov(problem, strategy).j, abs=1e-12
            )


def _section33_strategy(tables):
    problem = example_section33(2)
    labels = problem.x_space.labels, problem.y_space.labels, problem.yhat_space.labels
    return HistoryStrategy(HistoryMode.UNREVEALED, 2, *labels, tables)


def test_missing_history_entry_raises():
    # unrevealed, round i has 2^i histories: a missing round or entry is rejected when the strategy is built
    for tables in (((), ()), ((0, 1),), ((0, 1), (0, 1, 0)), ((0, 1), (0, 1, 0, 1, 0))):
        with pytest.raises(ShapeMismatch):
            _section33_strategy(tables)
    strategy = _section33_strategy([[0, 1], [1, 0, 0, 1]])
    assert strategy.tables == ((0, 1), (1, 0, 0, 1))
    assert decision(strategy, 2, (1, 0), (1,)) == 0  # rank 0b10 = 2; y is not revealed


def test_strategy_for_another_problem_is_refused():
    strategy = _section33_strategy([[0, 1], [1, 0, 0, 1]])
    problem = example_section33(2)
    exact_loss_history(problem, strategy)
    # every field the strategy takes from its problem is compared
    others = [dataclasses.replace(strategy, **{field: ("a", "b")}) for field in ("x_labels", "y_labels", "yhat_labels")]
    with pytest.raises(ShapeMismatch, match="different problem"):
        exact_loss_history(example_section33(3), strategy)
    for other in others:
        with pytest.raises(ShapeMismatch, match="different problem"):
            exact_loss_history(problem, other)


def test_out_of_range_estimate_is_rejected():
    for ai in (-1, 2):
        with pytest.raises(ShapeMismatch, match="out-of-range"):
            _section33_strategy(((0, ai), (0, 0, 0, 0)))


# ---- enumeration ----


def test_strategy_counts():
    assert strategy_count(example_section33(1), HistoryMode.REVEALED) == 4
    assert strategy_count(example_section33(1), HistoryMode.UNREVEALED) == 4
    # round 1: 2 histories, round 2: |X|^2 * |Y| = 8 histories
    assert strategy_count(example_section33(2), HistoryMode.REVEALED) == 2 ** 10
    assert strategy_count(example_section33(2), HistoryMode.UNREVEALED) == 2 ** 6
    assert strategy_count(example_section33(3), HistoryMode.REVEALED) == 2 ** 42


def test_enumeration_is_exhaustive_and_distinct():
    problem = example_section33(1)
    strategies = list(enumerate_history_strategies(problem, HistoryMode.UNREVEALED, limit=10))
    assert len(strategies) == 4
    assert {s.tables for s in strategies} == {((a, b),) for a in range(2) for b in range(2)}


def test_enumeration_count_matches_closed_form():
    problem = example_section33(2)
    count = sum(1 for _ in enumerate_history_strategies(problem, HistoryMode.REVEALED, limit=2048))
    assert count == strategy_count(problem, HistoryMode.REVEALED) == 1024


def test_search_space_limit():
    problem = example_section33(5)
    with pytest.raises(SearchSpaceTooLarge) as excinfo:
        enumerate_history_strategies(problem, HistoryMode.UNREVEALED, limit=10 ** 6)
    assert str(strategy_count(problem, HistoryMode.UNREVEALED)) in str(excinfo.value)
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_optimum(problem, HistoryMode.UNREVEALED, limit=10 ** 6)
    # one estimate means one strategy at any horizon, so only the history count bounds the work
    problem = random_problem(np.random.default_rng(3), 8, 2, 2, 1)
    assert strategy_count(problem, HistoryMode.REVEALED) == 1
    assert history_count(problem, HistoryMode.REVEALED) == 43690
    with pytest.raises(SearchSpaceTooLarge, match="43690 histories"):
        brute_force_optimum(problem, HistoryMode.REVEALED, limit=1000)


def test_search_space_limit_without_huge_integers():
    # 16382 unrevealed histories: the strategy count 2^16382 has 4932 digits and is never formed
    stock = example_stock(13)
    expected = r"^2\^16382 history strategies \(unrevealed mode\) exceed the limit of 1000000$"
    with pytest.raises(SearchSpaceTooLarge, match=expected):
        brute_force_optimum(stock, HistoryMode.UNREVEALED)
    with pytest.raises(SearchSpaceTooLarge, match=expected):
        enumerate_history_strategies(stock, HistoryMode.UNREVEALED)
    with pytest.raises(SearchSpaceTooLarge, match=expected):
        enumeration_minimum(stock, HistoryMode.UNREVEALED)
    with pytest.raises(SearchSpaceTooLarge, match=r"^2\^44739242 history strategies \(revealed mode\)"):
        brute_force_optimum(stock, HistoryMode.REVEALED)
    # one estimate, 2^15001 - 2 histories: too many digits to write out
    problem = random_problem(np.random.default_rng(0), 15000, 2, 1, 1)
    with pytest.raises(SearchSpaceTooLarge, match=r"^at least 2\^15000 histories \(unrevealed mode\)"):
        brute_force_optimum(problem, HistoryMode.UNREVEALED)


def test_trajectory_count_bounds_the_identity_walk():
    # 524286 unrevealed histories, inside the default limit, but 4^18 trajectories for the walk
    problem = random_problem(np.random.default_rng(0), 18, 2, 2, 1)
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge, match=r"^68719476736 trajectories exceed the limit of 10000000$"):
        brute_force_optimum(problem, HistoryMode.UNREVEALED)
    assert time.perf_counter() - start < 2.0
    # the strategy and history bounds are checked first, so their messages are unchanged
    with pytest.raises(SearchSpaceTooLarge, match=r"^524286 histories \(unrevealed mode\)"):
        brute_force_optimum(problem, HistoryMode.UNREVEALED, limit=1000)
    # 4^11 trajectories are within the bound, 4^12 are not
    assert checked_shape_space(11, 2, 2, 1, HistoryMode.UNREVEALED, 10**6) == (4094, 1)
    with pytest.raises(SearchSpaceTooLarge, match=r"^16777216 trajectories"):
        checked_shape_space(12, 2, 2, 1, HistoryMode.UNREVEALED, 10**6)
    # the public walks are bounded too: 40 unrevealed histories, one per round, but 2^40 trajectories
    problem = random_problem(np.random.default_rng(0), 40, 1, 2, 2)
    strategy = HistoryStrategy(HistoryMode.UNREVEALED, 40, ("0",), ("0", "1"), ("0", "1"), [(1,)] * 40)
    start = time.perf_counter()
    for walk in (exact_loss_history, verify_lemma1):
        with pytest.raises(SearchSpaceTooLarge, match=r"^1099511627776 trajectories exceed the limit of 10000000$"):
            walk(problem, strategy)
    assert time.perf_counter() - start < 2.0
    # and a random strategy the walks would refuse is refused before its first draw
    rng = np.random.default_rng(1)
    for mode in BOTH_MODES:
        with pytest.raises(SearchSpaceTooLarge, match=r"^1099511627776 trajectories exceed the limit of 10000000$"):
            random_history_strategy(problem, mode, rng)
    assert rng.random() == np.random.default_rng(1).random()


def test_history_count_closed_form_equals_the_summed_definition():
    for mode in BOTH_MODES:
        for n, nx, ny in itertools.product(range(1, 7), range(1, 5), range(1, 4)):
            span = ny if mode is HistoryMode.REVEALED else 1
            summed = sum(nx**i * span ** (i - 1) for i in range(1, n + 1))
            assert shape_history_count(n, nx, ny, mode) == summed


def test_long_horizon_is_rejected_quickly():
    # 2·(4^100000 − 1)/3 revealed histories, a 200000-bit count formed with a single power
    stock = example_stock(10**5)
    start = time.perf_counter()
    with pytest.raises(
        SearchSpaceTooLarge, match=r"^at least 2\^\(2\^199999\) history strategies \(revealed mode\) exceed"
    ):
        brute_force_optimum(stock, HistoryMode.REVEALED)
    assert time.perf_counter() - start < 5.0


# ---- brute force optimum ----


def test_tree_search_equals_literal_enumeration():
    """Dual route inside the oracle: the history-tree optimum must equal the
    minimum over literally enumerated strategy functions."""
    rng = np.random.default_rng(101)
    cases = [(example_section33(2), HistoryMode.REVEALED), (example_stock(2), HistoryMode.REVEALED)]
    cases += [(random_problem(rng, 2), HistoryMode.REVEALED) for _ in range(3)]
    cases += [(random_problem(rng, 1), HistoryMode.UNREVEALED) for _ in range(3)]
    cases += [(random_problem(rng, 2), HistoryMode.UNREVEALED) for _ in range(3)]
    for problem, mode in cases:
        report = brute_force_optimum(problem, mode, limit=2 ** 11)
        literal, literal_witness = enumeration_minimum(problem, mode, limit=2 ** 11)
        assert report.brute_min == pytest.approx(literal, abs=1e-12)
        assert exact_loss_history(problem, literal_witness) == literal


def test_witness_achieves_the_minimum():
    rng = np.random.default_rng(7)
    for _ in range(5):
        problem = random_problem(rng, n=int(rng.integers(1, 4)))
        for mode in BOTH_MODES:
            report = brute_force_optimum(problem, mode, limit=2 ** 50)
            assert exact_loss_history(problem, report.witness) == pytest.approx(
                report.brute_min, abs=1e-12
            )
            assert report.strategies_searched == strategy_count(problem, mode)
            assert report.gap == report.brute_min - report.dp_min


def test_history_gives_no_advantage_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(12):
        problem = random_problem(rng, n=int(rng.integers(1, 4)))
        for mode in BOTH_MODES:
            report = brute_force_optimum(problem, mode, limit=2 ** 50)
            assert abs(report.gap) <= 1e-9


def test_history_gives_no_advantage_beyond_binary():
    rng = np.random.default_rng(77)
    for _ in range(6):
        problem = random_problem(
            rng,
            n=int(rng.integers(1, 4)),
            nx=int(rng.integers(2, 4)),
            ny=int(rng.integers(2, 4)),
            nyhat=int(rng.integers(2, 4)),
        )
        for mode in BOTH_MODES:
            report = brute_force_optimum(problem, mode, limit=3 ** 400)
            assert abs(report.gap) <= 1e-9
            assert exact_loss_history(problem, report.witness) == pytest.approx(
                report.brute_min, abs=1e-12
            )


def test_one_round_brute_equals_myopic_bayes_risk():
    rng = np.random.default_rng(41)
    problem = random_problem(rng, n=1)
    report = brute_force_optimum(problem, HistoryMode.UNREVEALED, limit=100)
    myopic_j = evaluate_markov(problem, myopic_strategy(problem)).j
    assert report.brute_min == pytest.approx(myopic_j, abs=1e-12)


def test_truncated_model_matches_v_star():
    truncated = example_section33(3)
    pinned = dataclasses.replace(truncated, init=np.array([0.0, 1.0]))
    result = solve(pinned)
    for mode in BOTH_MODES:
        report = brute_force_optimum(pinned, mode, limit=2 ** 50)
        assert report.brute_min == pytest.approx(result.v_star[0, pinned.x_space.index("1")], abs=1e-9)
        assert report.brute_min == pytest.approx(1.1, abs=1e-9)  # horizon-3 value at x=1
        assert report.dp_min == pytest.approx(minimum_inference_loss(result), abs=1e-12)


def _report_bits(report):
    """Every number of a report as float hex strings, its witness decisions, and what the witness is shaped for."""
    floats = (report.brute_min, report.dp_min, report.gap, report.lhs, report.rhs, report.gap_bound)
    witness = report.witness
    shape = (witness.mode, witness.n, witness.x_labels, witness.y_labels, witness.yhat_labels)
    return [value.hex() for value in floats], witness.tables, report.strategies_searched, shape


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("mode", BOTH_MODES)
def test_sweep_reports_are_those_of_each_replayed_random_problem(seed, mode):
    # the sweep builds no Problem; replaying its draws through random_problem runs every model check
    stacks = random_sweep(seed, 200, mode, 2**50)
    assert [stack.n for stack in stacks] == [1, 2, 3]  # one stack per horizon, in horizon order
    rows = {k: (stack, b) for stack in stacks for b, k in enumerate(stack.instances.tolist())}
    assert sorted(rows) == list(range(200)) and sum(len(stack.instances) for stack in stacks) == 200
    rng = np.random.default_rng(seed)
    for k in range(200):
        problem = random_problem(rng, int(rng.integers(1, 4)))
        stack, b = rows[k]
        assert _report_bits(brute_force_optimum(problem, mode, 2**50)) == _report_bits(stack.report(b))


# the words each horizon's tables take: init, transitions, quantities and loss of a binary instance
SWEEP_SIZES = {1: 14, 2: 26, 3: 38}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 300))
def test_sweep_draws_are_those_of_default_rng(seed, instances):
    # the decoder's reference: per instance, integers(1, 4) and then random(size) of default_rng(seed)
    rows = {}
    for n, members, draws in _sweep_draws(seed, instances):
        assert draws.shape == (len(members), SWEEP_SIZES[n])
        rows.update((k, (n, row)) for k, row in zip(members.tolist(), draws))
    assert sorted(rows) == list(range(instances))
    rng = np.random.default_rng(seed)
    for k in range(instances):
        n = int(rng.integers(1, 4))
        assert rows[k][0] == n and rows[k][1].tobytes() == rng.random(SWEEP_SIZES[n]).tobytes()


def test_sweep_layout_redraws_zero_halves():
    # numpy draws no zero half on demand. Word 0's zero low half is redrawn from its high half 2^32 - 1 (n = 3);
    # word 4 gives n = 1 from its low half 1 and holds its zero high half, which instance 2 redraws from word 6
    low, high = [0, 1, 2**31], [2**32 - 1, 0, 0x55555556]
    words = np.zeros(11, dtype=np.uint64)
    words[[0, 4, 6]] = [h << 32 | lo for lo, h in zip(low, high)]
    sizes = {1: 1, 2: 2, 3: 3}
    assert _sweep_layout(words, 4, sizes) == ([3, 1, 2, 2], [1, 5, 7, 9])
    assert _sweep_layout(words[:10], 4, sizes) is None  # the last instance's tables run past the block
    assert _sweep_layout(words[:6], 3, sizes) is None  # a horizon half past the block


def test_a_short_sweep_block_is_extended_from_the_same_stream(monkeypatch):
    # only redrawn halves can overrun the first block; refusing it once must not change a draw
    decode, sizes = oracle._sweep_layout, []

    def refuse_the_first_block(words, instances, table_sizes):
        sizes.append(len(words))
        return None if len(sizes) == 1 else decode(words, instances, table_sizes)

    expected = _sweep_draws(7, 50)
    monkeypatch.setattr(oracle, "_sweep_layout", refuse_the_first_block)
    extended = _sweep_draws(7, 50)
    assert sizes == [50 * 39, 51 * 39]
    assert [(n, members.tolist(), draws.tobytes()) for n, members, draws in extended] == [
        (n, members.tolist(), draws.tobytes()) for n, members, draws in expected
    ]


def test_random_problem_rejects_a_horizon_below_one():
    # the tables are cut from one draw, so a horizon that no table shape can hold is refused before drawing
    for n in (0, -1):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidModelError, match=f"n must be an integer >= 1, got {n}"):
            random_problem(rng, n)
        assert rng.random() == np.random.default_rng(0).random()


def test_deep_horizon_memory_is_bounded():
    # one label per alphabet: 3000 histories, one per round; tuple keys of length i cost 141.6 MB here
    problem = random_problem(np.random.default_rng(0), 3000, 1, 1, 1)
    tracemalloc.start()
    try:
        report = brute_force_optimum(problem, HistoryMode.REVEALED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(report.gap) <= 1e-9
    assert peak < 16 * 2**20


# ---- loss-marginalization identity ----


def test_identity_walk_memory_is_bounded():
    # 4^10 trajectories: the walks run in blocks, not over every trajectory at once
    problem = random_problem(np.random.default_rng(1), 10, 2, 2, 2)
    rng = np.random.default_rng(2)
    for mode in BOTH_MODES:
        spans = [2**i * (2 ** (i - 1) if mode is HistoryMode.REVEALED else 1) for i in range(1, 11)]
        tables = [rng.integers(2, size=span).tolist() for span in spans]
        strategy = HistoryStrategy(mode, 10, ("0", "1"), ("0", "1"), ("0", "1"), tables)
        tracemalloc.start()
        try:
            lhs, rhs = verify_lemma1(problem, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(lhs - rhs) <= 1e-12
        assert peak <= 16 * 2**20


def test_marginalization_identity_one_round():
    problem = example_stock(1)
    for strategy in enumerate_history_strategies(problem, HistoryMode.UNREVEALED, limit=10):
        lhs, rhs = verify_lemma1(problem, strategy)
        assert lhs == pytest.approx(rhs, abs=1e-15)


def test_marginalization_identity_random_sweep():
    rng = np.random.default_rng(99)
    for _ in range(50):
        problem = random_problem(rng, n=3)
        for mode in BOTH_MODES:
            strategy = random_history_strategy(problem, mode, rng)
            lhs, rhs = verify_lemma1(problem, strategy)
            assert abs(lhs - rhs) <= 1e-12


def test_random_history_strategy_draws_are_pinned():
    # one rng.integers(|Yhat|) per history, by round, then by rank; recorded before the tables were drawn directly
    problem = example_section33(2)
    revealed = ((1, 1), (1, 0, 0, 0, 0, 0, 0, 1))
    unrevealed = ((1, 1), (1, 0, 0, 0))
    assert random_history_strategy(problem, HistoryMode.REVEALED, np.random.default_rng(0)).tables == revealed
    assert random_history_strategy(problem, HistoryMode.UNREVEALED, np.random.default_rng(0)).tables == unrevealed
    rng = np.random.default_rng(0)
    drawn = [random_history_strategy(problem, mode, rng).tables for mode in BOTH_MODES]
    assert drawn == [revealed, ((1, 1), (1, 1, 1, 1))]


@pytest.mark.parametrize("nyhat", [1, 2, 3, 5])
def test_random_history_strategy_is_one_scalar_draw_per_history(nyhat):
    # one rng.integers(|Yhat|) per history, by round, then by rank, and the rng state they leave
    problem = random_problem(np.random.default_rng(nyhat), 3, 3, 2, nyhat)
    for mode in BOTH_MODES:
        drawn, scalar = np.random.default_rng(7), np.random.default_rng(7)
        tables = random_history_strategy(problem, mode, drawn).tables
        spans = [3**i * (2 ** (i - 1) if mode is HistoryMode.REVEALED else 1) for i in (1, 2, 3)]
        assert tables == tuple(tuple(int(scalar.integers(nyhat)) for _ in range(span)) for span in spans)
        assert drawn.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("nyhat", [1, 2, 3, 5, 7, 12, 255, 256, 65537, 2**31 + 1, 2**32, 2**32 + 1])
def test_a_round_of_draws_is_the_scalar_draws(nyhat):
    # random_history_strategy draws a round as rng.integers(|Yhat|, size=span); numpy's bounded draws
    # switch from 32-bit to 64-bit words past 2**32, where no alphabet fits in memory
    for span in (1, 2, 7, 1000):
        batch, scalar = np.random.default_rng(span), np.random.default_rng(span)
        assert batch.integers(nyhat, size=span).tolist() == [int(scalar.integers(nyhat)) for _ in range(span)]
        assert batch.bit_generator.state == scalar.bit_generator.state


def test_marginalization_identity_with_y_dependent_strategy():
    problem = example_section33(2)

    def decide(i, xs, ys):
        if i == 1:
            return 0
        return ys[0]  # round 2 reacts to the revealed quantity

    strategy = build_history_strategy(problem, HistoryMode.REVEALED, decide)
    lhs, rhs = verify_lemma1(problem, strategy)
    assert abs(lhs - rhs) <= 1e-12
    # sanity: the strategy really is non-Markov, different decisions for y=0/1
    assert decision(strategy, 2, (0, 0), (0,)) != decision(strategy, 2, (0, 0), (1,))


def test_report_identity_pairs_hold():
    rng = np.random.default_rng(55)
    problem = random_problem(rng, 2)
    report = brute_force_optimum(problem, HistoryMode.REVEALED, limit=2 ** 50)
    assert abs(report.lhs - report.rhs) <= 1e-12


# ---- markov enumeration ----


def test_markov_enumeration_count():
    problem = example_section33(2)
    strategies = list(enumerate_markov_strategies(problem))
    assert len(strategies) == 2 ** 4
    assert len({tuple(s.choices.flatten()) for s in strategies}) == 2 ** 4


def test_markov_minimum_matches_dp():
    problem = example_stock(3)
    best = min(evaluate_markov(problem, s).j for s in enumerate_markov_strategies(problem))
    assert best == pytest.approx(minimum_inference_loss(solve(problem)), abs=1e-12)
