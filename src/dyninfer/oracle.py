"""Brute-force ground truth on small instances.

Everything here works from first principles on the joint distribution of the
process: exact losses are plain sums over complete trajectories, and the
optimum over history-dependent strategies is found by exhausting the decision
at every syntactically possible history. None of it reuses the solver's
value recursion, which is exactly what makes it a useful cross-check.

A history is named by its rank alone: its position among the histories of
its round in lexicographic order. The x-history (x_1..x_i) is read as
base-|X| digits and, in REVEALED mode only, followed by the y-history
(y_1..y_{i-1}) as base-|Y| digits, so the rank is ``rx * |Y|^(i-1) + ry``.
The walks carry ``(rx, ry)`` and find a successor at ``rx * |X| + x_next``
and ``ry * |Y| + y``.

Strategy spaces grow as a double exponential, so every search is gated by a
limit on the number of strategy functions in the space; the brute-force
optimum also bounds the number of histories, its actual work, by the same
limit.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import SearchSpaceTooLarge, ShapeMismatch
from .evaluate import MarkovStrategy
from .model import Alphabet, Problem, problem_from_tables
from .reduction import bar_loss_table
from .solver import TieBreakRule, minimum_inference_loss, solve

DEFAULT_STRATEGY_LIMIT = 10**6
DEFAULT_PAIR_LIMIT = 10**7
# a count that may need more bits than this is not written out in decimal in an error message
_COUNT_BITS = 1024


class HistoryMode(enum.Enum):
    """Whether past quantities are revealed to the estimator after each round."""

    REVEALED = "revealed"
    UNREVEALED = "unrevealed"


def _spans(nx: int, ny: int, mode: HistoryMode, i: int) -> tuple[int, int]:
    """The numbers of round-``i`` x-histories and y-histories; the round has their product of histories."""
    return nx**i, (ny ** (i - 1) if mode is HistoryMode.REVEALED else 1)


def _round_histories(
    nx: int, ny: int, mode: HistoryMode, i: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All syntactic (x-history, y-history) index pairs of round ``i``, in rank order."""
    y_len = i - 1 if mode is HistoryMode.REVEALED else 0
    for xs in itertools.product(range(nx), repeat=i):
        for ys in itertools.product(range(ny), repeat=y_len):
            yield xs, ys


@dataclass(frozen=True, eq=False)
class HistoryStrategy:
    """A per-round decision table over full histories.

    ``tables[i-1][r]`` is the estimate index used in round ``i`` at the
    history of rank ``r`` (see the module docstring); every table covers all
    histories of its round, so a strategy is total by construction.
    """

    mode: HistoryMode
    n: int
    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    yhat_labels: tuple[str, ...]
    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        nx, ny, na = len(self.x_labels), len(self.y_labels), len(self.yhat_labels)
        tables = tuple(tuple(table) for table in self.tables)
        if len(tables) != self.n:
            raise ShapeMismatch(f"history strategy has {len(tables)} decision tables, expected {self.n}")
        for i, table in enumerate(tables, start=1):
            size = math.prod(_spans(nx, ny, self.mode, i))
            if len(table) != size:
                raise ShapeMismatch(
                    f"round {i} decision table has {len(table)} entries, expected {size} ({self.mode.value} mode)"
                )
            if min(table) < 0 or max(table) >= na:
                raise ShapeMismatch(f"round {i} decision table contains an out-of-range estimate index")
        object.__setattr__(self, "tables", tables)

    def decision(self, i: int, xs: tuple[int, ...], ys: tuple[int, ...]) -> int:
        """The estimate index in round ``i`` after observations ``xs`` and, when revealed, quantities ``ys``."""
        rank = 0
        for x in xs:
            rank = rank * len(self.x_labels) + x
        if self.mode is HistoryMode.REVEALED:
            for y in ys:
                rank = rank * len(self.y_labels) + y
        return self.tables[i - 1][rank]

    def rows(self) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], int]]:
        """``(round, x-history, y-history, estimate index)`` for every history, by round, then by rank."""
        nx, ny = len(self.x_labels), len(self.y_labels)
        for i, table in enumerate(self.tables, start=1):
            for (xs, ys), ai in zip(_round_histories(nx, ny, self.mode, i), table):
                yield i, xs, ys, ai


def build_history_strategy(
    problem: Problem,
    mode: HistoryMode,
    decide: Callable[[int, tuple[int, ...], tuple[int, ...]], int],
) -> HistoryStrategy:
    """Materialize a total history strategy from a decision function."""
    nx, ny = len(problem.x_space), len(problem.y_space)
    tables = tuple(
        tuple(decide(i, xs, ys) for xs, ys in _round_histories(nx, ny, mode, i)) for i in range(1, problem.n + 1)
    )
    return HistoryStrategy(
        mode,
        problem.n,
        problem.x_space.labels,
        problem.y_space.labels,
        problem.yhat_space.labels,
        tables,
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
    recursive walk. A round-1 history's x-rank is its observation.
    """
    return [(x1, p) for x1, p in reversed(list(enumerate(problem.init.tolist()))) if p > 0.0]


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
    loss = problem.loss.tolist()
    tables = strategy.tables
    y_spans = [_spans(nx, ny, strategy.mode, i)[1] for i in range(1, n + 1)]  # the x-rank's multipliers
    revealed = strategy.mode is HistoryMode.REVEALED
    total = 0.0

    stack = [(1, x1, 0, prob, 0.0) for x1, prob in _roots(problem)]
    while stack:
        i, rx, ry, prob, acc = stack.pop()
        x = rx % nx
        ai = tables[i - 1][rx * y_spans[i - 1] + ry]
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
            ry_next = ry * ny + yi if revealed else 0
            for xn in reversed(range(nx)):
                p_x = transition[xn]
                if p_x != 0.0:
                    stack.append((i + 1, rx * nx + xn, ry_next, prob * p_y * p_x, step))
    return total


def history_count(problem: Problem, mode: HistoryMode) -> int:
    """Number of syntactic histories across all rounds (exact integer)."""
    return shape_history_count(problem.n, len(problem.x_space), len(problem.y_space), mode)


def shape_history_count(n: int, nx: int, ny: int, mode: HistoryMode) -> int:
    """Number of syntactic histories of any problem with ``n`` rounds, |X| = nx and |Y| = ny.

    Round ``i`` has ``nx * r**(i - 1)`` histories, with ``r = nx * ny``
    revealed and ``r = nx`` unrevealed, so the geometric sum over the rounds
    is formed with a single power.
    """
    r = nx * ny if mode is HistoryMode.REVEALED else nx
    return n * nx if r == 1 else nx * (r**n - 1) // (r - 1)


def strategy_count(problem: Problem, mode: HistoryMode) -> int:
    """Size of the deterministic history-strategy space (exact integer)."""
    return len(problem.yhat_space) ** history_count(problem, mode)


def _count_text(count: int) -> str:
    """``count`` in decimal, or a power of two below it when the decimal form would be too long."""
    if count.bit_length() <= _COUNT_BITS:
        return str(count)
    return f"at least 2^{count.bit_length() - 1}"


def _checked_count(what: str, limit: int, base: int, exponent: int, factor: int = 1) -> int:
    """``factor * base**exponent``, or SearchSpaceTooLarge when that exceeds ``limit``.

    ``factor`` is at least 1. With ``base >= 2`` the count is at least
    ``2**exponent``, so an exponent of ``limit.bit_length()`` or more settles
    the question without forming the power. An error names the count in
    decimal when it has at most ``_COUNT_BITS`` bits, else as
    ``base^exponent`` when the exponent has at most that many, and as
    ``at least 2^(2^k)`` otherwise.
    """
    short = factor.bit_length() + exponent * base.bit_length() <= _COUNT_BITS  # bounds the count's bits
    if short or base < 2 or exponent < limit.bit_length():
        count = factor * base**exponent
        if count <= limit:
            return count
        if short or base < 2:
            raise SearchSpaceTooLarge(f"{count} {what} exceed the limit of {limit}")
    if exponent.bit_length() > _COUNT_BITS:
        text = f"at least 2^(2^{exponent.bit_length() - 1})"
    else:
        text = f"{base}^{exponent}" if factor == 1 else f"{factor}*{base}^{exponent}"
    raise SearchSpaceTooLarge(f"{text} {what} exceed the limit of {limit}")


def enumerate_history_strategies(
    problem: Problem, mode: HistoryMode, limit: int = DEFAULT_STRATEGY_LIMIT
) -> Iterator[HistoryStrategy]:
    """Yield every deterministic history strategy exactly once.

    Order is lexicographic over the vector of decisions, with histories
    ordered round-by-round and by rank within each round, and the last
    history's decision varying fastest. The limit check happens at call
    time, before the first strategy is produced.
    """
    histories = history_count(problem, mode)
    _checked_count(f"history strategies ({mode.value} mode)", limit, len(problem.yhat_space), histories)
    nx, ny = len(problem.x_space), len(problem.y_space)
    ends = list(itertools.accumulate(math.prod(_spans(nx, ny, mode, i)) for i in range(1, problem.n + 1)))

    def generate() -> Iterator[HistoryStrategy]:
        for assignment in itertools.product(range(len(problem.yhat_space)), repeat=histories):
            yield HistoryStrategy(
                mode,
                problem.n,
                problem.x_space.labels,
                problem.y_space.labels,
                problem.yhat_space.labels,
                tuple(assignment[start:end] for start, end in zip([0, *ends], ends)),
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
    histories = history_count(problem, mode)
    count = _checked_count(f"history strategies ({mode.value} mode)", limit, len(problem.yhat_space), histories)
    trajectory_base = len(problem.x_space) * len(problem.y_space)
    _checked_count("strategy-trajectory pairs", pair_limit, trajectory_base, problem.n, factor=count)
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
    tables = strategy.tables
    y_spans = [_spans(nx, ny, strategy.mode, i)[1] for i in range(1, n + 1)]  # the x-rank's multipliers
    revealed = strategy.mode is HistoryMode.REVEALED
    rhs = 0.0

    stack = [(1, x1, 0, prob) for x1, prob in _roots(problem)]
    while stack:
        i, rx, ry, prob = stack.pop()
        x = rx % nx
        ai = tables[i - 1][rx * y_spans[i - 1] + ry]
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
                        stack.append((i + 1, rx * nx + xn, ry * ny + yi, prob * p_y * p_x))
        else:
            for xn in reversed(range(nx)):
                p_x = transition[xn]
                if p_x > 0.0:
                    stack.append((i + 1, rx * nx + xn, 0, prob * p_x))
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
    the witness. Values are kept, by rank, for two adjacent rounds only.

    Raises SearchSpaceTooLarge when the strategy space, or the number of
    histories (which bounds the work, and exceeds the strategy count only
    when there is a single estimate), exceeds ``limit``.
    """
    histories = history_count(problem, mode)
    count = _checked_count(f"history strategies ({mode.value} mode)", limit, len(problem.yhat_space), histories)
    if histories > limit:
        raise SearchSpaceTooLarge(
            f"{_count_text(histories)} histories ({mode.value} mode) exceed the limit of {limit}"
        )
    n = problem.n
    nx, ny, na = len(problem.x_space), len(problem.y_space), len(problem.yhat_space)
    quantities, transitions = problem.quantities.tolist(), problem.transitions.tolist()
    loss = problem.loss.tolist()
    revealed = mode is HistoryMode.REVEALED

    later: list[float] = []  # the optimal values of round i + 1, by rank
    decisions: list[tuple[int, ...]] = []
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
        x_span, y_span = _spans(nx, ny, mode, i)
        # revealed, the successor (rx·nx + xn, ry·ny + yi) has rank
        # (rx·nx + xn)·stride + ry·ny + yi: successors that differ only in xn
        # lie ``stride`` apart in ``later``
        stride = y_span * ny
        values: list[float] = []
        table: list[int] = []
        for rx in range(x_span):
            x = rx % nx
            for ry in range(y_span):
                # the successors' values, grouped by the quantity that leads to them
                # with its probability; unrevealed histories form one group of
                # weight 1.0, which changes no product: 1.0 * p_x == p_x
                if i == n:
                    groups = []
                elif revealed:
                    first = rx * nx * stride + ry * ny
                    groups = [
                        (p_y, later[first + yi : first + nx * stride : stride])
                        for yi, p_y in enumerate(quantity[x])
                        if p_y != 0.0
                    ]
                else:
                    groups = [(1.0, later[rx * nx : rx * nx + nx])]
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
                values.append(best_value)
                table.append(best_action)
        later = values
        decisions.append(tuple(table))
    decisions.reverse()

    brute_min = 0.0
    for x1, p in enumerate(problem.init.tolist()):
        brute_min += p * later[x1]

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

    init = random_rows(nx)
    transitions = random_rows(n - 1, nx, nyhat, nx)
    quantities = random_rows(n, nx, ny)
    loss = rng.random((nx, ny, nyhat))
    return problem_from_tables(n, x_space, y_space, yhat_space, init, transitions, quantities, loss)
