"""Brute-force ground truth on small instances.

Everything here works from first principles on the joint distribution of the
process: exact losses are plain sums over complete trajectories, and the
optimum over history-dependent strategies is found by exhausting the decision
at every syntactically possible history. None of it reuses the solver's
value recursion, which is exactly what makes it a useful cross-check.

Strategy spaces grow as a double exponential, so every search is gated by a
limit on the number of strategy functions in the space; the brute-force
optimum also bounds the number of histories, its actual work, by the same
limit.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import HistoryIncomplete, SearchSpaceTooLarge, ShapeMismatch
from .evaluate import MarkovStrategy
from .model import Alphabet, ContextualLoss, Distribution, Problem, problem_from_tables
from .reduction import bar_loss_table
from .solver import TieBreakRule, minimum_inference_loss, solve

DEFAULT_STRATEGY_LIMIT = 10**6
DEFAULT_PAIR_LIMIT = 10**7

Key = tuple[int, ...]


class HistoryMode(enum.Enum):
    """Whether past quantities are revealed to the estimator after each round."""

    REVEALED = "revealed"
    UNREVEALED = "unrevealed"


def _history_key(mode: HistoryMode, xs: tuple[int, ...], ys: tuple[int, ...]) -> Key:
    """The decision-table key of a history: past quantities count only when revealed."""
    return xs if mode is HistoryMode.UNREVEALED else xs + ys


@dataclass(frozen=True, eq=False)
class HistoryStrategy:
    """A per-round decision table over full histories.

    In REVEALED mode the round-``i`` key is the index tuple
    ``(x_1..x_i, y_1..y_{i-1})`` flattened; in UNREVEALED mode it is
    ``(x_1..x_i)``. ``tables[i-1]`` must cover every history the caller will
    ask about; missing entries raise :class:`HistoryIncomplete`.
    """

    mode: HistoryMode
    n: int
    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    yhat_labels: tuple[str, ...]
    tables: tuple[Mapping[Key, int], ...]

    def decision(self, i: int, xs: tuple[int, ...], ys: tuple[int, ...]) -> int:
        try:
            return self.tables[i - 1][_history_key(self.mode, xs, ys)]
        except KeyError:
            raise HistoryIncomplete(
                f"no decision for round {i} history x={xs!r}, y={ys!r} ({self.mode.value} mode)"
            ) from None


def _round_histories(problem: Problem, mode: HistoryMode, i: int) -> Iterator[tuple[Key, Key]]:
    """All syntactic (x-history, y-history) index pairs of round ``i``, in lexicographic order."""
    nx, ny = len(problem.x_space), len(problem.y_space)
    y_len = i - 1 if mode is HistoryMode.REVEALED else 0
    for xs in itertools.product(range(nx), repeat=i):
        for ys in itertools.product(range(ny), repeat=y_len):
            yield xs, ys


def build_history_strategy(
    problem: Problem,
    mode: HistoryMode,
    decide: Callable[[int, tuple[int, ...], tuple[int, ...]], int],
) -> HistoryStrategy:
    """Materialize a total history strategy from a decision function."""
    tables = []
    for i in range(1, problem.n + 1):
        table = {}
        for xs, ys in _round_histories(problem, mode, i):
            table[_history_key(mode, xs, ys)] = decide(i, xs, ys)
        tables.append(table)
    return HistoryStrategy(
        mode,
        problem.n,
        problem.x_space.labels,
        problem.y_space.labels,
        problem.yhat_space.labels,
        tuple(tables),
    )


def random_history_strategy(
    problem: Problem, mode: HistoryMode, rng: np.random.Generator
) -> HistoryStrategy:
    na = len(problem.yhat_space)
    return build_history_strategy(problem, mode, lambda i, xs, ys: int(rng.integers(na)))


def _check_history_strategy(problem: Problem, strategy: HistoryStrategy) -> None:
    if (
        strategy.n != problem.n
        or strategy.x_labels != problem.x_space.labels
        or strategy.y_labels != problem.y_space.labels
        or strategy.yhat_labels != problem.yhat_space.labels
    ):
        raise ShapeMismatch("history strategy is shaped for a different problem")


def _roots(problem: Problem) -> list[tuple[int, float]]:
    """The round-1 observations of positive probability, last first.

    The walks below visit histories in pre-order with an explicit stack:
    pushing the roots, and each node's children, in reverse order makes them
    pop in lexicographic order, so every sum is taken in the order of a
    recursive walk.
    """
    return [(x1, p) for x1, p in reversed(list(enumerate(problem.init.probs.tolist()))) if p > 0.0]


def exact_loss_history(problem: Problem, strategy: HistoryStrategy) -> float:
    """Expected accumulated loss by plain summation over complete trajectories.

    Enumerates every (x-sequence, y-sequence) with positive probability in
    lexicographic order, weighting the accumulated loss of each by its exact
    probability under the strategy. No sampling, no value recursion. The walk
    keeps its own stack, so the horizon is not bounded by Python's recursion
    limit.
    """
    _check_history_strategy(problem, strategy)
    n, nx, ny = problem.n, len(problem.x_space), len(problem.y_space)
    quantities, transitions = problem.quantities.tolist(), problem.transitions.tolist()
    loss = problem.loss.table.tolist()
    total = 0.0

    stack = [(1, (x1,), (), prob, 0.0) for x1, prob in _roots(problem)]
    while stack:
        i, xs, ys, prob, acc = stack.pop()
        x = xs[-1]
        ai = strategy.decision(i, xs, ys)
        quantity = quantities[i - 1][x]
        if i == n:
            for yi in range(ny):
                p_y = quantity[yi]
                if p_y != 0.0:
                    total += prob * p_y * (acc + loss[x][yi][ai])
            continue
        transition = transitions[i - 1][x][ai]
        for yi in reversed(range(ny)):
            p_y = quantity[yi]
            if p_y == 0.0:
                continue
            step = acc + loss[x][yi][ai]
            for xn in reversed(range(nx)):
                p_x = transition[xn]
                if p_x != 0.0:
                    stack.append((i + 1, xs + (xn,), ys + (yi,), prob * p_y * p_x, step))
    return total


def history_count(problem: Problem, mode: HistoryMode) -> int:
    """Number of syntactic histories across all rounds (exact integer)."""
    return shape_history_count(problem.n, len(problem.x_space), len(problem.y_space), mode)


def shape_history_count(n: int, nx: int, ny: int, mode: HistoryMode) -> int:
    """Number of syntactic histories of any problem with ``n`` rounds, |X| = nx and |Y| = ny."""
    total = 0
    for i in range(1, n + 1):
        histories = nx**i
        if mode is HistoryMode.REVEALED:
            histories *= ny ** (i - 1)
        total += histories
    return total


def strategy_count(problem: Problem, mode: HistoryMode) -> int:
    """Size of the deterministic history-strategy space (exact integer)."""
    return len(problem.yhat_space) ** history_count(problem, mode)


def enumerate_history_strategies(
    problem: Problem, mode: HistoryMode, limit: int = DEFAULT_STRATEGY_LIMIT
) -> Iterator[HistoryStrategy]:
    """Yield every deterministic history strategy exactly once.

    Order is lexicographic over the vector of decisions, with histories
    ordered round-by-round and lexicographically within each round, and the
    last history's decision varying fastest. The limit check happens at call
    time, before the first strategy is produced.
    """
    count = strategy_count(problem, mode)
    if count > limit:
        raise SearchSpaceTooLarge(
            f"{count} history strategies ({mode.value} mode) exceed the limit of {limit}"
        )
    keyed: list[tuple[int, Key]] = []
    for i in range(1, problem.n + 1):
        for xs, ys in _round_histories(problem, mode, i):
            keyed.append((i, _history_key(mode, xs, ys)))

    def generate() -> Iterator[HistoryStrategy]:
        for assignment in itertools.product(range(len(problem.yhat_space)), repeat=len(keyed)):
            tables: list[dict[Key, int]] = [dict() for _ in range(problem.n)]
            for (i, key), ai in zip(keyed, assignment):
                tables[i - 1][key] = ai
            yield HistoryStrategy(
                mode,
                problem.n,
                problem.x_space.labels,
                problem.y_space.labels,
                problem.yhat_space.labels,
                tuple(tables),
            )

    return generate()


def enumeration_minimum(
    problem: Problem,
    mode: HistoryMode,
    limit: int = DEFAULT_STRATEGY_LIMIT,
    pair_limit: int = DEFAULT_PAIR_LIMIT,
) -> tuple[float, HistoryStrategy]:
    """Literal brute force: evaluate every enumerated strategy, keep the best.

    Feasible only on tiny instances; besides the strategy-space ``limit`` it
    enforces ``pair_limit`` on strategy-trajectory pairs, since every strategy
    is priced by full trajectory enumeration. Ties keep the strategy yielded
    first, i.e. the lexicographically first minimizer.
    """
    count = strategy_count(problem, mode)
    trajectories = (len(problem.x_space) * len(problem.y_space)) ** problem.n
    if count * trajectories > pair_limit:
        raise SearchSpaceTooLarge(
            f"{count * trajectories} strategy-trajectory pairs exceed the limit of {pair_limit}"
        )
    best: tuple[float, HistoryStrategy] | None = None
    for strategy in enumerate_history_strategies(problem, mode, limit):
        loss = exact_loss_history(problem, strategy)
        if best is None or loss < best[0]:
            best = (loss, strategy)
    assert best is not None  # the strategy space is never empty
    return best


def verify_lemma1(problem: Problem, strategy: HistoryStrategy) -> tuple[float, float]:
    """Both sides of the loss-marginalization identity for one strategy.

    The left side sums the raw contextual loss over complete (x, y)
    trajectories; the right side sums the observation-estimate loss over
    histories, with the current round's quantity marginalized analytically.
    They must agree for every strategy, history-dependent or not.
    """
    _check_history_strategy(problem, strategy)
    lhs = exact_loss_history(problem, strategy)

    bar = bar_loss_table(problem).values.tolist()
    n, nx, ny = problem.n, len(problem.x_space), len(problem.y_space)
    quantities, transitions = problem.quantities.tolist(), problem.transitions.tolist()
    revealed = strategy.mode is HistoryMode.REVEALED
    rhs = 0.0

    stack = [(1, (x1,), (), prob) for x1, prob in _roots(problem)]
    while stack:
        i, xs, ys, prob = stack.pop()
        x = xs[-1]
        ai = strategy.decision(i, xs, ys)
        rhs += prob * bar[i - 1][x][ai]
        if i == n:
            continue
        transition = transitions[i - 1][x][ai]
        if revealed:
            quantity = quantities[i - 1][x]
            for yi in reversed(range(ny)):
                p_y = quantity[yi]
                if p_y == 0.0:
                    continue
                for xn in reversed(range(nx)):
                    p_x = transition[xn]
                    if p_x > 0.0:
                        stack.append((i + 1, xs + (xn,), ys + (yi,), prob * p_y * p_x))
        else:
            for xn in reversed(range(nx)):
                p_x = transition[xn]
                if p_x > 0.0:
                    stack.append((i + 1, xs + (xn,), ys, prob * p_x))
    return lhs, rhs


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Outcome of one brute-force-vs-solver comparison."""

    brute_min: float
    dp_min: float
    gap: float
    witness: HistoryStrategy
    strategies_searched: int
    lemma1_pairs: tuple[tuple[float, float], ...]


def brute_force_optimum(
    problem: Problem, mode: HistoryMode, limit: int = DEFAULT_STRATEGY_LIMIT
) -> OracleReport:
    """Exact minimum over every deterministic history strategy.

    The whole strategy space is exhausted by optimizing the decision at each
    syntactic history bottom-up over the history tree, which covers the same
    function space as enumerating the ``strategy_count`` individual
    strategies (the enumeration view is cross-checked in the test suite on
    instances small enough to enumerate literally). Decisions at ties go to
    the smallest estimate index, so the witness is the lexicographically
    first minimizer. ``lemma1_pairs`` holds the loss-marginalization pair for
    the witness.

    Raises SearchSpaceTooLarge when the strategy space, or the number of
    histories (which bounds the work, and exceeds the strategy count only
    when there is a single estimate), exceeds ``limit``.
    """
    count = strategy_count(problem, mode)
    if count > limit:
        raise SearchSpaceTooLarge(
            f"{count} history strategies ({mode.value} mode) exceed the limit of {limit}"
        )
    histories = history_count(problem, mode)
    if histories > limit:
        raise SearchSpaceTooLarge(f"{histories} histories ({mode.value} mode) exceed the limit of {limit}")
    n = problem.n
    nx, ny, na = len(problem.x_space), len(problem.y_space), len(problem.yhat_space)
    quantities, transitions = problem.quantities.tolist(), problem.transitions.tolist()
    loss = problem.loss.table.tolist()
    revealed = mode is HistoryMode.REVEALED

    values: dict[tuple[int, Key, Key], float] = {}
    decisions: list[dict[Key, int]] = [dict() for _ in range(n)]
    for i in range(n, 0, -1):
        quantity = quantities[i - 1]
        # the immediate cost depends on the history only through its last observation
        stage = []
        for x in range(nx):
            costs = []
            for ai in range(na):
                cost = 0.0
                for yi in range(ny):
                    cost += quantity[x][yi] * loss[x][yi][ai]
                costs.append(cost)
            stage.append(costs)
        transition = transitions[i - 1] if i < n else None
        for xs, ys in _round_histories(problem, mode, i):
            x = xs[-1]
            # the successors' values, grouped by the quantity that leads to them
            # with its probability; unrevealed histories form one group of
            # weight 1.0, which changes no product: 1.0 * p_x == p_x
            if i == n:
                groups = []
            elif revealed:
                groups = [
                    (p_y, [values[(i + 1, xs + (xn,), ys + (yi,))] for xn in range(nx)])
                    for yi, p_y in enumerate(quantity[x])
                    if p_y != 0.0
                ]
            else:
                groups = [(1.0, [values[(i + 1, xs + (xn,), ys)] for xn in range(nx)])]
            best_value = None
            best_action = 0
            for ai in range(na):
                value = stage[x][ai]
                for p_y, successors in groups:
                    for p_x, successor in zip(transition[x][ai], successors):
                        if p_x != 0.0:
                            value += p_y * p_x * successor
                if best_value is None or value < best_value:
                    best_value, best_action = value, ai
            values[(i, xs, ys)] = best_value
            decisions[i - 1][_history_key(mode, xs, ys)] = best_action

    brute_min = 0.0
    for x1, p in enumerate(problem.init.probs.tolist()):
        brute_min += p * values[(1, (x1,), ())]

    witness = HistoryStrategy(
        mode, n, problem.x_space.labels, problem.y_space.labels, problem.yhat_space.labels, tuple(decisions)
    )
    dp_min = minimum_inference_loss(problem, solve(problem, TieBreakRule.MYOPIC_PREFERRED))
    return OracleReport(
        brute_min=brute_min,
        dp_min=dp_min,
        gap=brute_min - dp_min,
        witness=witness,
        strategies_searched=count,
        lemma1_pairs=(verify_lemma1(problem, witness),),
    )


def enumerate_markov_strategies(problem: Problem) -> Iterator[MarkovStrategy]:
    """Every deterministic per-observation strategy, lexicographically."""
    n, nx, na = problem.n, len(problem.x_space), len(problem.yhat_space)
    for assignment in itertools.product(range(na), repeat=n * nx):
        choices = np.asarray(assignment, dtype=np.int64).reshape(n, nx)
        yield MarkovStrategy(n, problem.x_space.labels, problem.yhat_space.labels, choices)


def random_problem(
    rng: np.random.Generator, n: int, nx: int = 2, ny: int = 2, nyhat: int = 2
) -> Problem:
    """A random instance with strictly positive kernels and losses in [0, 1]."""
    x_space = Alphabet(tuple(str(k) for k in range(nx)))
    y_space = Alphabet(tuple(str(k) for k in range(ny)))
    yhat_space = Alphabet(tuple(str(k) for k in range(nyhat)))

    def random_rows(*shape: int) -> np.ndarray:
        rows = rng.random(shape) + 1e-3
        return rows / rows.sum(axis=-1, keepdims=True)

    init = Distribution(x_space, random_rows(nx))
    transitions = random_rows(n - 1, nx, nyhat, nx)
    quantities = random_rows(n, nx, ny)
    loss = ContextualLoss(x_space, y_space, yhat_space, rng.random((nx, ny, nyhat)))
    return problem_from_tables(n, init, transitions, quantities, loss)
