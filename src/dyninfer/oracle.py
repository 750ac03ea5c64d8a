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
minimizer. A stack's outcome is one :class:`OracleStack`: (B,) arrays of
minima, bounds and identity pairs, and one (B, histories) array of the
witnesses' decisions per round. ``verify`` keeps its stacks as they are up
to the writer, for a sweep and for one model (``-m``) alike; only
:meth:`OracleStack.report` reads a row into an :class:`OracleReport` with a
:class:`HistoryStrategy` witness, as :func:`brute_force_optimum` returns it.

The identity pair of :func:`verify_lemma1` and the loss of
:func:`exact_loss_history` come from :mod:`dyninfer.walks`: forward array
passes over a stack that read only a strategy's decisions and the problem's
tables, never the history DP's values or the solver's, so they stay the
independent check of the identity.

Strategy spaces grow as a double exponential, so every search is gated by a
limit on the number of strategy functions in the space; the brute-force
optimum also bounds the number of histories, its actual work, by the same
limit. A third bound, ``TRAJECTORY_LIMIT``, caps the complete (x, y)
trajectories of the identity walks, which grow as (|X|·|Y|)^n even in
unrevealed mode, where the histories grow only as |X|^n; it is checked
before every walk, and before :func:`random_history_strategy` draws.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SearchSpaceTooLarge, ShapeMismatch
from .evaluate import MarkovStrategy, _markov_binding
from .model import Alphabet, Problem, _check_horizon, problem_from_tables
from .reduction import _label_sum, bar_loss_table, bar_loss_values
from .solver import value_tables
from .walks import bar_sums, loss_sums
# unused here: perfbench/tracing.py hooks this name, and every name it hooks must resolve
from .solver import solve  # noqa: F401

DEFAULT_STRATEGY_LIMIT = 10**6
# a brute-force and a solver minimum may differ by rounding alone by up to
# about n·ε·max|loss| (ε = 2^-52); a gap within GAP_RTOL·n·max|loss| passes
GAP_RTOL = 1e-9
# the identity walk's trajectories, which grow as (|X|·|Y|)^n even where the histories do not
TRAJECTORY_LIMIT = 10**7
# a count that may need more bits than this is not written out in decimal in an error message
_COUNT_BITS = 1024


class HistoryMode(enum.Enum):
    """Whether past quantities are revealed to the estimator after each round."""

    REVEALED = "revealed"
    UNREVEALED = "unrevealed"


def _spans(nx: int, ny: int, mode: HistoryMode, i: int) -> tuple[int, int]:
    """The numbers of round-``i`` x-histories and y-histories; the round has their product of histories."""
    return nx**i, (ny ** (i - 1) if mode is HistoryMode.REVEALED else 1)


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


def _history_binding(problem: Problem) -> tuple[int, tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The fields a HistoryStrategy takes from its problem, in constructor order after ``mode``."""
    return problem.n, problem.x_space.labels, problem.y_space.labels, problem.yhat_space.labels


def random_history_strategy(
    problem: Problem, mode: HistoryMode, rng: np.random.Generator
) -> HistoryStrategy:
    """A history strategy whose decisions are drawn by one ``rng.integers(|Yhat|)`` per history, by round, then by rank.

    A strategy the identity walks would refuse, with more than
    ``TRAJECTORY_LIMIT`` trajectories, raises SearchSpaceTooLarge before the
    first draw, so the refusal is quick and leaves ``rng`` as it was.
    """
    nx, ny, na = len(problem.x_space), len(problem.y_space), len(problem.yhat_space)
    _checked_count("trajectories", TRAJECTORY_LIMIT, nx * ny, problem.n)
    tables = tuple(
        tuple(int(rng.integers(na)) for _ in range(math.prod(_spans(nx, ny, mode, i))))
        for i in range(1, problem.n + 1)
    )
    return HistoryStrategy(mode, *_history_binding(problem), tables)


def _check_history_strategy(problem: Problem, strategy: HistoryStrategy) -> None:
    if (strategy.n, strategy.x_labels, strategy.y_labels, strategy.yhat_labels) != _history_binding(problem):
        raise ShapeMismatch("history strategy is shaped for a different problem")


def _walk_arguments(problem: Problem, strategy: HistoryStrategy) -> tuple:
    """The identity walks' leading arguments for one problem and strategy, as a stack of one.

    The strategy must fit the problem, and its trajectories must be within
    ``TRAJECTORY_LIMIT``, checked before any walk.
    """
    _check_history_strategy(problem, strategy)
    _checked_count("trajectories", TRAJECTORY_LIMIT, len(problem.x_space) * len(problem.y_space), problem.n)
    decisions = [np.array(table)[None] for table in strategy.tables]
    revealed = strategy.mode is HistoryMode.REVEALED
    return revealed, decisions, problem.init[None], problem.transitions[None], problem.quantities[None]


def exact_loss_history(problem: Problem, strategy: HistoryStrategy) -> float:
    """Expected accumulated loss by plain summation over complete trajectories.

    Sums the accumulated loss of every (x-sequence, y-sequence) with positive
    probability in lexicographic order, each weighted by its exact
    probability under the strategy. No sampling, no value recursion. The walk
    goes forward round by round, so the horizon is not bounded by Python's
    recursion limit. Raises SearchSpaceTooLarge when there are more than
    ``TRAJECTORY_LIMIT`` trajectories.
    """
    return float(loss_sums(*_walk_arguments(problem, strategy), problem.loss[None])[0])


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


def _count_text(count: int) -> str:
    """``count`` in decimal, or a power of two below it when the decimal form would be too long."""
    if count.bit_length() <= _COUNT_BITS:
        return str(count)
    return f"at least 2^{count.bit_length() - 1}"


def _checked_count(what: str, limit: int, base: int, exponent: int) -> int:
    """``base**exponent``, or SearchSpaceTooLarge when that exceeds ``limit``.

    With ``base >= 2`` the count is at least ``2**exponent``, so an exponent
    of ``limit.bit_length()`` or more settles the question without forming
    the power. An error names the count in decimal when it has fewer than
    ``_COUNT_BITS`` bits, else as ``base^exponent`` when the exponent has at
    most that many, and as ``at least 2^(2^k)`` otherwise.
    """
    short = exponent * base.bit_length() < _COUNT_BITS  # bounds the count's bits
    if short or base < 2 or exponent < limit.bit_length():
        count = base**exponent
        if count <= limit:
            return count
        if short or base < 2:
            raise SearchSpaceTooLarge(f"{count} {what} exceed the limit of {limit}")
    if exponent.bit_length() > _COUNT_BITS:
        text = f"at least 2^(2^{exponent.bit_length() - 1})"
    else:
        text = f"{base}^{exponent}"
    raise SearchSpaceTooLarge(f"{text} {what} exceed the limit of {limit}")


def checked_shape_space(n: int, nx: int, ny: int, na: int, mode: HistoryMode, limit: int) -> tuple[int, int]:
    """The numbers of histories and of history strategies, or SearchSpaceTooLarge when either exceeds ``limit``.

    They are those of any problem with ``n`` rounds and ``nx``, ``ny`` and
    ``na`` labels in its observation, quantity and estimate alphabets. The
    identity walk of :func:`exact_loss_history` visits up to ``(nx * ny)**n``
    complete trajectories, in either mode, so more than ``TRAJECTORY_LIMIT``
    of them are refused too, after the strategies and histories.

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
    _checked_count("trajectories", TRAJECTORY_LIMIT, nx * ny, n)
    return histories, count


def verify_lemma1(problem: Problem, strategy: HistoryStrategy) -> tuple[float, float]:
    """Both sides of the loss-marginalization identity for one strategy.

    The left side sums the raw contextual loss over complete (x, y)
    trajectories; the right side sums the observation-estimate loss over
    histories, with the current round's quantity marginalized analytically.
    They must agree for every strategy, history-dependent or not. Raises
    SearchSpaceTooLarge as :func:`exact_loss_history` does.
    """
    arguments = _walk_arguments(problem, strategy)
    bar = bar_loss_table(problem).values[None]
    return float(loss_sums(*arguments, problem.loss[None])[0]), float(bar_sums(*arguments, bar)[0])


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Outcome of one brute-force-vs-solver comparison: one row of an :class:`OracleStack`.

    ``gap_bound`` is ``GAP_RTOL · n · max|loss|`` of the compared problem:
    the comparison passes when ``|gap| <= gap_bound``, so a gap of exactly 0
    always passes, and the verdict does not change when the loss is scaled.
    ``lhs`` and ``rhs`` are the witness's sides of the loss-marginalization
    identity (see :func:`verify_lemma1`).
    """

    brute_min: float
    dp_min: float
    gap_bound: float
    lhs: float
    rhs: float
    witness: HistoryStrategy
    strategies_searched: int

    @property
    def gap(self) -> float:
        return self.brute_min - self.dp_min


@dataclass(frozen=True, eq=False)
class OracleStack:
    """The comparison of :class:`OracleReport` for each problem of a stack of B problems of one shape, as arrays.

    Row ``b`` holds what the report of the stack's ``b``-th problem holds:
    ``brute_min``, ``dp_min``, ``gap_bound`` and the identity pair ``lhs`` and
    ``rhs`` are (B,) float arrays, and the witnesses' decisions are one
    (B, histories) array per round, by rank. ``instances`` numbers the rows,
    in a sweep by draw order.
    """

    mode: HistoryMode
    n: int
    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    yhat_labels: tuple[str, ...]
    strategies_searched: int
    brute_min: np.ndarray
    dp_min: np.ndarray
    gap_bound: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    decisions: list[np.ndarray]
    instances: np.ndarray

    @property
    def gap(self) -> np.ndarray:
        return self.brute_min - self.dp_min

    def report(self, b: int) -> OracleReport:
        """Row ``b`` as an :class:`OracleReport`, its witness a :class:`HistoryStrategy`."""
        labels = (self.x_labels, self.y_labels, self.yhat_labels)
        witness = HistoryStrategy(self.mode, self.n, *labels, tuple(table[b].tolist() for table in self.decisions))
        floats = (float(column[b]) for column in (self.brute_min, self.dp_min, self.gap_bound, self.lhs, self.rhs))
        return OracleReport(*floats, witness, self.strategies_searched)


def brute_force_optimum(
    problem: Problem, mode: HistoryMode, limit: int = DEFAULT_STRATEGY_LIMIT
) -> OracleReport:
    """Exact minimum over every deterministic history strategy.

    The whole strategy space is exhausted by optimizing the decision at each
    syntactic history bottom-up over the history tree, which covers the same
    function space as enumerating every individual strategy (the enumeration
    view is cross-checked in the test suite on instances small enough to
    enumerate literally). Decisions at ties go to the smallest estimate
    index, so the witness is the lexicographically first minimizer.
    ``lhs`` and ``rhs`` hold the loss-marginalization pair for the witness.
    The report is row 0 of :func:`_problem_stack`; values are kept, by rank,
    for two adjacent rounds only.

    Raises SearchSpaceTooLarge when the strategy space, or the number of
    histories (which bounds the work, and exceeds the strategy count only
    when there is a single estimate), exceeds ``limit``, or when the
    identity pair's walk would visit more than ``TRAJECTORY_LIMIT``
    trajectories.
    """
    return _problem_stack(problem, mode, limit).report(0)


def _problem_stack(problem: Problem, mode: HistoryMode, limit: int) -> OracleStack:
    """:func:`brute_force_optimum`'s comparison for ``problem`` as a stack of one, its row numbered 0."""
    spaces = (problem.x_space, problem.y_space, problem.yhat_space)
    stack = (problem.init, problem.transitions, problem.quantities, problem.loss)
    return _stack_reports(problem.n, spaces, mode, limit, *(table[None] for table in stack))


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
    return _label_sum(init, later), tables


def enumerate_markov_strategies(problem: Problem) -> Iterator[MarkovStrategy]:
    """Every deterministic per-observation strategy, lexicographically."""
    n, nx, na = problem.n, len(problem.x_space), len(problem.yhat_space)
    for assignment in itertools.product(range(na), repeat=n * nx):
        choices = np.asarray(assignment, dtype=np.int64).reshape(n, nx)
        yield MarkovStrategy(*_markov_binding(problem), choices)


def _table_shapes(n: int, nx: int, ny: int, nyhat: int) -> tuple[tuple[int, ...], ...]:
    """The shapes of one random instance's tables, in the order drawn: init, transitions, quantities, loss."""
    return (nx,), (n - 1, nx, nyhat, nx), (n, nx, ny), (nx, ny, nyhat)


def _cut_tables(draws: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> list[np.ndarray]:
    """The last axis of ``draws`` cut into consecutive tables of ``shapes``, as views."""
    tables, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        tables.append(draws[..., start:stop].reshape(*draws.shape[:-1], *shape))
        start = stop
    return tables


def _positive_rows(draws: np.ndarray) -> np.ndarray:
    """Drawn rows moved away from 0 and divided by their sums."""
    rows = draws + 1e-3
    return rows / rows.sum(axis=-1, keepdims=True)


def _digit_spaces(nx: int, ny: int, nyhat: int) -> tuple[Alphabet, Alphabet, Alphabet]:
    return tuple(Alphabet(tuple(str(k) for k in range(size))) for size in (nx, ny, nyhat))


def random_problem(
    rng: np.random.Generator, n: int, nx: int = 2, ny: int = 2, nyhat: int = 2
) -> Problem:
    """A random instance with strictly positive kernels and losses in [0, 1].

    Its tables are cut from one ``rng.random`` draw, which fills them in the
    order of :func:`_table_shapes` as one draw per table would. A horizon
    below 1 raises InvalidModelError before anything is drawn.
    """
    _check_horizon(n)
    shapes = _table_shapes(n, nx, ny, nyhat)
    init, transitions, quantities, loss = _cut_tables(rng.random(sum(map(math.prod, shapes))), shapes)
    rows = (_positive_rows(table) for table in (init, transitions, quantities))
    return problem_from_tables(n, *_digit_spaces(nx, ny, nyhat), *rows, loss)


# `verify --instances` draws instances with horizons 1..SWEEP_MAX_N and binary alphabets: (|X|, |Y|, |Yhat|)
SWEEP_MAX_N = 3
SWEEP_SHAPE = (2, 2, 2)


def random_sweep(rng: np.random.Generator, instances: int, mode: HistoryMode, limit: int) -> list[OracleStack]:
    """:func:`brute_force_optimum` on ``instances`` random problems, one stack per horizon drawn.

    Each instance draws its horizon from 1..``SWEEP_MAX_N``, then its tables
    of shape ``SWEEP_SHAPE`` as :func:`random_problem` does, in one
    ``rng.random`` call; every instance is drawn before any is solved, so the
    rng stream is that of one such draw after another. The problems of each
    horizon are then solved as one stack: one history DP, one bar-loss table
    and one backward induction over a leading instance axis, and the identity
    walks over the whole stack. The stacks come in horizon order, and each
    numbers its rows by draw order. The limit is checked on the largest
    horizon before the first draw.

    Each probability row is divided by its sum once more, elementwise, as
    :func:`problem_from_tables` divides the rows of :func:`random_problem`,
    so every instance's tables are those of its random problem bit for bit.
    Nothing else of ``Problem``'s checks is run: the rows are positive and
    normalized by construction, and the losses lie in [0, 1).
    """
    checked_shape_space(SWEEP_MAX_N, *SWEEP_SHAPE, mode, limit)
    shapes = {n: _table_shapes(n, *SWEEP_SHAPE) for n in range(1, SWEEP_MAX_N + 1)}
    sizes = {n: sum(map(math.prod, shape)) for n, shape in shapes.items()}
    horizons, draws = [], []
    for _ in range(instances):
        n = int(rng.integers(1, SWEEP_MAX_N + 1))
        horizons.append(n)
        draws.append(rng.random(sizes[n]))
    spaces = _digit_spaces(*SWEEP_SHAPE)
    horizons = np.array(horizons)
    stacks = []
    for n in np.unique(horizons).tolist():
        members = np.flatnonzero(horizons == n)
        init, transitions, quantities, loss = _cut_tables(np.stack([draws[k] for k in members.tolist()]), shapes[n])
        rows = (_positive_rows(table) for table in (init, transitions, quantities))
        stack = (*(table / table.sum(axis=-1, keepdims=True) for table in rows), loss)
        stacks.append(_stack_reports(n, spaces, mode, limit, *stack, instances=members))
    return stacks


def _stack_reports(
    n: int,
    spaces: tuple[Alphabet, Alphabet, Alphabet],
    mode: HistoryMode,
    limit: int,
    init: np.ndarray,
    transitions: np.ndarray,
    quantities: np.ndarray,
    loss: np.ndarray,
    instances: np.ndarray | None = None,
) -> OracleStack:
    """:func:`brute_force_optimum` on each problem of a stack of B problems of one shape, as one record.

    ``init``, ``transitions``, ``quantities`` and ``loss`` have shapes
    (B, |X|), (B, n-1, |X|, |Yhat|, |X|), (B, n, |X|, |Y|) and
    (B, |X|, |Y|, |Yhat|), and hold each problem's tables as a ``Problem``
    stores them: :func:`brute_force_optimum` passes one problem's, and
    :func:`random_sweep` divides its drawn rows by their sums once more, as
    ``problem_from_tables`` does. The tables are not checked again. The
    limit is checked first. The solver's minimum comes from its array core
    (``solve`` on one problem runs the same core), and the identity pair from
    the walks of :func:`verify_lemma1`, run once over the whole stack on the
    witnesses' decisions. ``instances`` numbers the rows, 0..B-1 if not given.
    """
    _, count = checked_shape_space(n, *(len(space) for space in spaces), mode, limit)
    bar = bar_loss_values(quantities, loss)
    brute_min, tables = _history_optimum(mode, init, transitions, quantities, bar)
    dp_min = _label_sum(init, value_tables(bar, transitions)[1][:, 0])
    revealed = mode is HistoryMode.REVEALED
    lhs = loss_sums(revealed, tables, init, transitions, quantities, loss)
    rhs = bar_sums(revealed, tables, init, transitions, quantities, bar)
    bound = GAP_RTOL * n * np.abs(loss).max(axis=(1, 2, 3))
    rows = np.arange(len(init)) if instances is None else instances
    labels = (space.labels for space in spaces)
    return OracleStack(mode, n, *labels, count, brute_min, dp_min, bound, lhs, rhs, tables, rows)
