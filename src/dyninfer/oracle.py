"""Brute-force ground truth on small instances.

Everything here works from first principles on the joint distribution of the
process: exact losses are plain sums over complete trajectories, and the
optimum over history-dependent strategies is found by exhausting the decision
at every syntactically possible history. None of it reuses the solver's
value recursion, which is called only for the minimum the brute force is
compared with; that is exactly what makes it a useful cross-check.

A history is named by its rank alone: its position among the histories of
its round in lexicographic order. The x-history (x_1..x_i) is read as
base-|X| digits and, in REVEALED mode only, followed by the y-history
(y_1..y_{i-1}) as base-|Y| digits, so the rank is ``rx * |Y|^(i-1) + ry``.
The walks carry ``(rx, ry)`` and find a successor at ``rx * |X| + x_next``
and ``ry * |Y| + y``. In UNREVEALED mode a history's successors do not
depend on the quantity, so its quantity branches merge into one: the walks
over histories read it as a single quantity digit of base 1 and weight
exactly 1.0, which leaves every product unchanged (``1.0 * p == p``). This is
the marginalization behind the loss identity checked by :func:`verify_lemma1`.

The brute-force optimum is one dynamic program over a stack of problems of
one shape, with a leading instance axis B; :func:`brute_force_optimum` runs
a stack of one, and :func:`random_sweep` one stack per horizon. The values
of a round are an array by rank. As a rank is ``(prefix * |X| + x) *
y_span + ry``, the next round's values reshape to (B, |X|^(i-1), |X|, |X|,
y_span, y_base), so every history's successors are broadcast slices and no
index arrays are gathered: memory stays of the order of the histories times
|Yhat|. A Python loop runs only over the successor's digits (yi, xn), in the
order a loop over one history's successors sums them; a term of zero
probability is masked out with ``np.where``, never multiplied by 0.0, so
signed zeros come out as in that loop; and ``argmin`` takes the first
minimizer. The walks behind :func:`exact_loss_history` and
:func:`verify_lemma1` stay scalar pre-order walks over a problem's tables in
list form; they are the independent check of the identity.

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
from .evaluate import MarkovStrategy, _markov_binding
from .model import Alphabet, Problem, problem_from_tables, stack_from_tables
from .reduction import bar_loss_table, bar_loss_values
from .solver import initial_value, value_tables
# unused here: perfbench/tracing.py hooks this name, and every name it hooks must resolve
from .solver import solve  # noqa: F401

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


def _history_binding(problem: Problem) -> tuple[int, tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The fields a HistoryStrategy takes from its problem, in constructor order after ``mode``."""
    return problem.n, problem.x_space.labels, problem.y_space.labels, problem.yhat_space.labels


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
    return HistoryStrategy(mode, *_history_binding(problem), tables)


def random_history_strategy(
    problem: Problem, mode: HistoryMode, rng: np.random.Generator
) -> HistoryStrategy:
    na = len(problem.yhat_space)
    return build_history_strategy(problem, mode, lambda i, xs, ys: int(rng.integers(na)))


def _check_history_strategy(problem: Problem, strategy: HistoryStrategy) -> None:
    if (strategy.n, strategy.x_labels, strategy.y_labels, strategy.yhat_labels) != _history_binding(problem):
        raise ShapeMismatch("history strategy is shaped for a different problem")


def _roots(init: list[float]) -> list[tuple[int, float]]:
    """The round-1 observations of positive probability, last first.

    The walks below visit histories in pre-order with an explicit stack:
    pushing the roots, and each node's children, in reverse order makes them
    pop in lexicographic order, so every sum is taken in the order of a
    recursive walk. A round-1 history's x-rank is its observation.
    """
    return [(x1, p) for x1, p in reversed(list(enumerate(init))) if p > 0.0]


def _tables_as_lists(problem: Problem) -> tuple[list, list, list, list]:
    """The problem's init, transitions, quantities and loss in the list form the walks read."""
    return problem.init.tolist(), problem.transitions.tolist(), problem.quantities.tolist(), problem.loss.tolist()


def _loss_walk(mode: HistoryMode, tables: tuple, init: list, transitions: list, quantities: list, loss: list) -> float:
    """:func:`exact_loss_history` of the strategy with decision ``tables`` on a problem's tables in list form."""
    n, nx, ny = len(tables), len(init), len(loss[0])
    y_spans = [_spans(nx, ny, mode, i)[1] for i in range(1, n + 1)]  # the x-rank's multipliers
    revealed = mode is HistoryMode.REVEALED
    total = 0.0

    stack = [(1, x1, 0, prob, 0.0) for x1, prob in _roots(init)]
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


def _bar_walk(mode: HistoryMode, tables: tuple, init: list, transitions: list, quantities: list, bar: list) -> float:
    """The right side of :func:`verify_lemma1` for decision ``tables``, on a problem's tables and bar-loss as lists."""
    n, nx, ny = len(tables), len(init), len(quantities[0][0])
    y_spans = [_spans(nx, ny, mode, i)[1] for i in range(1, n + 1)]  # the x-rank's multipliers
    if mode is HistoryMode.REVEALED:
        y_base, weights = ny, quantities
    else:  # one quantity digit of weight 1.0 (see the module docstring)
        y_base, weights = 1, [[[1.0]] * nx] * n
    total = 0.0

    stack = [(1, x1, 0, prob) for x1, prob in _roots(init)]
    while stack:
        i, rx, ry, prob = stack.pop()
        x = rx % nx
        ai = tables[i - 1][rx * y_spans[i - 1] + ry]
        total += prob * bar[i - 1][x][ai]
        if i == n:
            continue
        transition = transitions[i - 1][x][ai]
        weight = weights[i - 1][x]
        for yi in reversed(range(y_base)):
            p_y = weight[yi]
            if p_y == 0.0:
                continue
            for xn in reversed(range(nx)):
                p_x = transition[xn]
                if p_x > 0.0:
                    stack.append((i + 1, rx * nx + xn, ry * y_base + yi, prob * p_y * p_x))
    return total


def exact_loss_history(problem: Problem, strategy: HistoryStrategy) -> float:
    """Expected accumulated loss by plain summation over complete trajectories.

    Enumerates every (x-sequence, y-sequence) with positive probability in
    lexicographic order, weighting the accumulated loss of each by its exact
    probability under the strategy. No sampling, no value recursion. The walk
    keeps its own stack, so the horizon is not bounded by Python's recursion
    limit.
    """
    _check_history_strategy(problem, strategy)
    return _loss_walk(strategy.mode, strategy.tables, *_tables_as_lists(problem))


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


def _checked_space(problem: Problem, mode: HistoryMode, limit: int) -> tuple[int, int]:
    return checked_shape_space(
        problem.n, len(problem.x_space), len(problem.y_space), len(problem.yhat_space), mode, limit
    )


def checked_shape_space(n: int, nx: int, ny: int, na: int, mode: HistoryMode, limit: int) -> tuple[int, int]:
    """The numbers of histories and of history strategies, or SearchSpaceTooLarge when either exceeds ``limit``.

    They are those of any problem with ``n`` rounds and ``nx``, ``ny`` and
    ``na`` labels in its observation, quantity and estimate alphabets.

    The last round alone has ``nx * r**(n - 1) >= 2**k`` histories (``r`` as in
    :func:`shape_history_count`; ``k`` below is exact when nx and r are powers
    of two). Once ``2**k`` exceeds the limit and is too long to write out, the
    closed form, whose size grows with ``n``, is not formed.
    """
    r = nx * ny if mode is HistoryMode.REVEALED else nx
    k = nx.bit_length() - 1 + (n - 1) * (r.bit_length() - 1)
    what = f"history strategies ({mode.value} mode)"
    if k >= max(_COUNT_BITS, limit.bit_length()):
        if na > 1:
            raise SearchSpaceTooLarge(f"at least 2^(2^{k}) {what} exceed the limit of {limit}")
        raise SearchSpaceTooLarge(f"at least 2^{k} histories ({mode.value} mode) exceed the limit of {limit}")
    histories = shape_history_count(n, nx, ny, mode)
    count = _checked_count(what, limit, na, histories)
    if histories > limit:
        raise SearchSpaceTooLarge(
            f"{_count_text(histories)} histories ({mode.value} mode) exceed the limit of {limit}"
        )
    return histories, count


def enumerate_history_strategies(
    problem: Problem, mode: HistoryMode, limit: int = DEFAULT_STRATEGY_LIMIT
) -> Iterator[HistoryStrategy]:
    """Yield every deterministic history strategy exactly once.

    Order is lexicographic over the vector of decisions, with histories
    ordered round-by-round and by rank within each round, and the last
    history's decision varying fastest. The limit, on strategies and on
    histories, is checked at call time, before the first strategy is produced.
    """
    histories, _ = _checked_space(problem, mode, limit)
    nx, ny = len(problem.x_space), len(problem.y_space)
    ends = list(itertools.accumulate(math.prod(_spans(nx, ny, mode, i)) for i in range(1, problem.n + 1)))
    binding = _history_binding(problem)

    def generate() -> Iterator[HistoryStrategy]:
        for assignment in itertools.product(range(len(problem.yhat_space)), repeat=histories):
            yield HistoryStrategy(
                mode, *binding, tuple(assignment[start:end] for start, end in zip([0, *ends], ends))
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
    _, count = _checked_space(problem, mode, limit)
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
    init, transitions, quantities, loss = _tables_as_lists(problem)
    bar = bar_loss_table(problem).values.tolist()
    mode, tables = strategy.mode, strategy.tables
    return (
        _loss_walk(mode, tables, init, transitions, quantities, loss),
        _bar_walk(mode, tables, init, transitions, quantities, bar),
    )


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
    the witness. The problem is solved as a stack of one (see the module
    docstring); values are kept, by rank, for two adjacent rounds only.

    Raises SearchSpaceTooLarge when the strategy space, or the number of
    histories (which bounds the work, and exceeds the strategy count only
    when there is a single estimate), exceeds ``limit``.
    """
    spaces = (problem.x_space, problem.y_space, problem.yhat_space)
    stack = (problem.init, problem.transitions, problem.quantities, problem.loss)
    return _stack_reports(problem.n, spaces, mode, limit, *(table[None] for table in stack))[0]


def _history_optimum(
    mode: HistoryMode, init: np.ndarray, transitions: np.ndarray, quantities: np.ndarray, bar: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The minimum over history strategies, and the first minimizer's decisions, of each problem of a stack.

    ``init`` (B, |X|), ``transitions`` (B, n-1, |X|, |Yhat|, |X|) and
    ``quantities`` (B, n, |X|, |Y|) stack the tables of B problems of one
    shape, and ``bar`` (B, n, |X|, |Yhat|) their bar-loss tables. Returns the
    B minima and, for each round, the (B, histories) array of decisions by
    rank. Each round is a few array steps, with a Python loop only over the
    successor's digits (yi, xn), so every value is summed in the order of a
    loop over one history's successors.
    """
    batch, n, nx, na = bar.shape
    ny = quantities.shape[-1]
    # one quantity digit of weight 1.0 when unrevealed (see the module docstring)
    weights = quantities if mode is HistoryMode.REVEALED else np.ones((batch, n, nx, 1))
    y_base = weights.shape[-1]
    later = None  # the optimal values of round i + 1, by rank
    tables = []
    for i in range(n, 0, -1):
        x_span, y_span = _spans(nx, ny, mode, i)
        # a history's x-rank is prefix·|X| + x, its last observation: values have
        # axes (batch, prefix, x, y-rank, estimate), the immediate cost broadcast over the rest
        values = bar[:, i - 1, None, :, None, :]
        if later is not None:
            # the successor (rx·|X| + xn, ry·y_base + yi) of (rx, ry) has axes (batch, prefix, x, xn, y-rank, yi)
            successors = later.reshape(batch, x_span // nx, nx, nx, y_span, y_base)
            for yi in range(y_base):
                p_y = weights[:, i - 1, :, yi, None]
                for xn in range(nx):
                    p_x = transitions[:, i - 1, :, :, xn]
                    # a zero weight skips its term, so that no 0.0 is added to a -0.0
                    skip = ((p_y == 0.0) | (p_x == 0.0))[:, None, :, None, :]
                    term = (p_y * p_x)[:, None, :, None, :] * successors[:, :, :, xn, :, yi, None]
                    values = np.where(skip, values, values + term)
        values = np.broadcast_to(values, (batch, x_span // nx, nx, y_span, na))
        tables.append(values.argmin(axis=-1).reshape(batch, -1))  # the first minimizer
        later = values.min(axis=-1).reshape(batch, -1)
    tables.reverse()
    brute_min = 0.0
    for x1 in range(nx):
        brute_min = brute_min + init[:, x1] * later[:, x1]
    return brute_min, tables


def enumerate_markov_strategies(problem: Problem) -> Iterator[MarkovStrategy]:
    """Every deterministic per-observation strategy, lexicographically."""
    n, nx, na = problem.n, len(problem.x_space), len(problem.yhat_space)
    for assignment in itertools.product(range(na), repeat=n * nx):
        choices = np.asarray(assignment, dtype=np.int64).reshape(n, nx)
        yield MarkovStrategy(*_markov_binding(problem), choices)


def _random_tables(
    rng: np.random.Generator, n: int, nx: int, ny: int, nyhat: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One random instance's draws, in the order taken: init, transitions, quantities, loss."""
    return rng.random(nx), rng.random((n - 1, nx, nyhat, nx)), rng.random((n, nx, ny)), rng.random((nx, ny, nyhat))


def _positive_rows(draws: np.ndarray) -> np.ndarray:
    """Drawn rows moved away from 0 and divided by their sums."""
    rows = draws + 1e-3
    return rows / rows.sum(axis=-1, keepdims=True)


def _digit_spaces(nx: int, ny: int, nyhat: int) -> tuple[Alphabet, Alphabet, Alphabet]:
    return tuple(Alphabet(tuple(str(k) for k in range(size))) for size in (nx, ny, nyhat))


def random_problem(
    rng: np.random.Generator, n: int, nx: int = 2, ny: int = 2, nyhat: int = 2
) -> Problem:
    """A random instance with strictly positive kernels and losses in [0, 1]."""
    init, transitions, quantities, loss = _random_tables(rng, n, nx, ny, nyhat)
    rows = (_positive_rows(table) for table in (init, transitions, quantities))
    return problem_from_tables(n, *_digit_spaces(nx, ny, nyhat), *rows, loss)


def random_sweep(
    rng: np.random.Generator,
    instances: int,
    mode: HistoryMode,
    limit: int,
    max_n: int,
    nx: int,
    ny: int,
    nyhat: int,
) -> list[OracleReport]:
    """:func:`brute_force_optimum` on ``instances`` random problems, in draw order.

    Each instance draws its horizon from 1..``max_n``, then its tables as
    :func:`random_problem` does; every instance is drawn before any is
    solved, so the rng stream is that of one such draw after another. The
    problems of each horizon are then solved as one stack: one history DP,
    one bar-loss table and one backward induction over a leading instance
    axis, and the identity walks per instance. The limit is checked on the
    largest horizon before the first draw.
    """
    checked_shape_space(max_n, nx, ny, nyhat, mode, limit)
    drawn = []
    for _ in range(instances):
        n = int(rng.integers(1, max_n + 1))
        drawn.append((n, _random_tables(rng, n, nx, ny, nyhat)))
    spaces = _digit_spaces(nx, ny, nyhat)
    reports: list[OracleReport] = [None] * instances  # type: ignore[list-item]
    for n in sorted({n for n, _ in drawn}):
        members = [k for k, (m, _) in enumerate(drawn) if m == n]
        init, transitions, quantities, loss = (np.stack(tables) for tables in zip(*(drawn[k][1] for k in members)))
        rows = (_positive_rows(table) for table in (init, transitions, quantities))
        stack = stack_from_tables(n, *spaces, *rows, loss)
        for k, report in zip(members, _stack_reports(n, spaces, mode, limit, *stack)):
            reports[k] = report
    return reports


def _stack_reports(
    n: int,
    spaces: tuple[Alphabet, Alphabet, Alphabet],
    mode: HistoryMode,
    limit: int,
    init: np.ndarray,
    transitions: np.ndarray,
    quantities: np.ndarray,
    loss: np.ndarray,
) -> list[OracleReport]:
    """:func:`brute_force_optimum` on each problem of a stack (see :func:`stack_from_tables`).

    The limit is checked first. The solver's minimum comes from its array core
    (``solve`` on one problem runs the same core), and the identity pair from
    the walks of :func:`verify_lemma1`.
    """
    _, count = checked_shape_space(n, *(len(space) for space in spaces), mode, limit)
    bar = bar_loss_values(quantities, loss)
    brute_min, tables = _history_optimum(mode, init, transitions, quantities, bar)
    dp_min = initial_value(init, value_tables(bar, transitions)[1])
    binding = (n, *(space.labels for space in spaces))
    lists = [table.tolist() for table in (init, transitions, quantities, loss, bar)]
    tables = [table.tolist() for table in tables]
    reports = []
    for b, (brute, dp) in enumerate(zip(brute_min.tolist(), dp_min.tolist())):
        init_b, transitions_b, quantities_b, loss_b, bar_b = (table[b] for table in lists)
        witness = HistoryStrategy(mode, *binding, tuple(table[b] for table in tables))
        pair = (
            _loss_walk(mode, witness.tables, init_b, transitions_b, quantities_b, loss_b),
            _bar_walk(mode, witness.tables, init_b, transitions_b, quantities_b, bar_b),
        )
        reports.append(OracleReport(brute, dp, brute - dp, witness, count, (pair,)))
    return reports
