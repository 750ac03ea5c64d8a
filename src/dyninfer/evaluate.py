"""Exact evaluation of per-round estimation strategies, plus a rollout simulator.

``evaluate_markov`` computes the expected accumulated loss of a strategy that
maps each round's observation to an estimate, together with the full table of
expected remaining losses from every (round, observation). ``simulate`` draws
seeded Monte Carlo rollouts of the same process; it is a deterministic
function of (problem, strategy, rollouts, seed) regardless of scheduling.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidParams, ShapeMismatch
from .model import _MAX_ARRAY_BYTES, Problem, _fields_equal, _labels_text, _plain_stack
from .reduction import _label_sum, bar_loss_table
from .rng import check_seed, stream_offsets, uniform_matrix
from .solver import SolveResult

# draws per tile of rollouts and rounds in ``simulate`` (512 KiB per 8-byte temporary)
BLOCK_DRAWS = 2**16
# tiles of uniforms a producer thread holds: the one being drawn and at most two made ahead of it
RING_TILES = 3


def _markov_binding(problem: Problem) -> tuple[int, tuple[str, ...], tuple[str, ...]]:
    """The fields a MarkovStrategy takes from its problem, in constructor order."""
    return problem.n, problem.x_space.labels, problem.yhat_space.labels


@dataclass(frozen=True, eq=False)
class MarkovStrategy:
    """A deterministic per-round map from observations to estimates.

    ``choices[i-1, xi]`` is the estimate index used in round ``i`` when the
    observation has index ``xi``.
    """

    n: int
    x_labels: tuple[str, ...]
    yhat_labels: tuple[str, ...]
    choices: np.ndarray  # (n, |X|) of estimate indices

    def __post_init__(self) -> None:
        choices = np.asarray(self.choices, dtype=np.int64)
        if choices.shape != (self.n, len(self.x_labels)):
            raise ShapeMismatch(
                f"strategy table has shape {choices.shape}, expected {(self.n, len(self.x_labels))}"
            )
        if choices.size and (choices.min() < 0 or choices.max() >= len(self.yhat_labels)):
            raise ShapeMismatch("strategy table contains an out-of-range estimate index")
        choices.setflags(write=False)
        object.__setattr__(self, "choices", choices)

    @classmethod
    def from_rows(cls, problem: Problem, rows: Sequence[Mapping[str, str]]) -> "MarkovStrategy":
        """Build from the wire form: one {x label -> estimate label} object per round."""
        if len(rows) != problem.n:
            raise ShapeMismatch(f"strategy has {len(rows)} rounds, problem has {problem.n}")
        # plain rows are gathered in one pass; a missing observation or an unknown estimate goes to the checked reader
        index = problem.yhat_space._index.__getitem__
        choices = _plain_stack(rows, [problem.x_space.labels], lambda labels: np.fromiter(map(index, labels), np.int64))
        if choices is None:
            choices = _checked_choices(problem, rows)
        return cls(*_markov_binding(problem), choices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkovStrategy):
            return NotImplemented
        return _fields_equal(self, other, ("n", "x_labels", "yhat_labels", "choices"))


def _checked_choices(problem: Problem, rows: Sequence) -> np.ndarray:
    """The estimate indices of ``rows``, read one round at a time and raising on the first fault."""
    x_labels = set(problem.x_space.labels)
    choices = np.empty((problem.n, len(problem.x_space)), dtype=np.int64)
    for k, row in enumerate(rows):
        if not isinstance(row, Mapping):
            raise ShapeMismatch(f"strategy round {k + 1} is not an object of observation labels")
        unknown = set(row) - x_labels
        if unknown:
            raise ShapeMismatch(f"strategy round {k + 1} has unknown observations {_labels_text(sorted(unknown))}")
        missing = x_labels - set(row)
        if missing:
            raise ShapeMismatch(f"strategy round {k + 1} is missing observations {_labels_text(sorted(missing))}")
        for xi, x in enumerate(problem.x_space):
            choices[k, xi] = problem.yhat_space.index(row[x])
    return choices


def optimal_strategy(result: SolveResult) -> MarkovStrategy:
    """The solved policy as a strategy object."""
    return MarkovStrategy(*_markov_binding(result.problem), result.policy.copy())


def myopic_strategy(problem: Problem) -> MarkovStrategy:
    """The round-by-round single-round optimal strategy (ignores the future)."""
    return MarkovStrategy(*_markov_binding(problem), bar_loss_table(problem).myopic)


def _check_strategy(problem: Problem, strategy: MarkovStrategy) -> None:
    if (strategy.n, strategy.x_labels, strategy.yhat_labels) != _markov_binding(problem):
        raise ShapeMismatch("strategy is shaped for a different problem")


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Exact inference loss ``j`` and per-(round, x) loss-to-go table ``v``."""

    j: float
    v: np.ndarray  # (n, |X|)


def _chosen_rows(problem: Problem, strategy: MarkovStrategy) -> tuple[np.ndarray, np.ndarray]:
    """The transition rows (n-1, |X|, |X|) and loss rows (n, |X|, |Y|) at the estimate each (round, x) chooses."""
    transitions = np.take_along_axis(problem.transitions, strategy.choices[:-1, :, None, None], axis=2)[:, :, 0]
    return transitions, problem.loss.transpose(2, 0, 1)[strategy.choices, np.arange(len(problem.x_space))]


def evaluate_markov(problem: Problem, strategy: MarkovStrategy) -> EvalResult:
    """Exact expected accumulated loss of a strategy, by backward recursion.

    ``v[i-1, xi]`` is the expected loss accumulated from round ``i`` through
    the final round given the round-``i`` observation; ``j`` is its initial
    expectation.
    """
    _check_strategy(problem, strategy)
    transitions, loss = _chosen_rows(problem, strategy)
    v = _label_sum(problem.quantities, loss)
    for k in range(problem.n - 2, -1, -1):
        v[k] += _label_sum(transitions[k], v[k + 1])
    j = float(_label_sum(problem.init, v[0]))
    v.setflags(write=False)
    return EvalResult(j, v)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """The sample mean and sample variance (0.0 for one rollout) of ``rollouts`` seeded rollouts' accumulated losses."""

    mean: float
    variance: float
    rollouts: int
    seed: int


def _search_table(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """The rows' inverse-CDF search table, flattened, and its power-of-two row width.

    Table row ``r`` holds the running sums of probability row ``r`` in label
    order, without the last one (a draw reads it as 1.0), padded with 2.0 to
    the width: at least 1 and at least the row length less one.
    """
    m = rows.shape[-1]
    width = 1 << max(m - 2, 0).bit_length()
    table = np.full(rows.shape[:-1] + (width,), 2.0)
    np.cumsum(rows[..., :-1], axis=-1, out=table[..., : m - 1])
    return table.reshape(-1), width


def _draw(table: np.ndarray, width: int, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: for each table row in ``rows``, how many of its entries are ``<= u``.

    That count is the smallest label index ``m`` with ``u < cdf[m]``. A
    branchless binary search finds it, reading ``log2(width) + 1`` entries
    per draw: running sums of non-negative entries never decrease, and an
    entry past 1.0 or the 2.0 padding is never ``<= u < 1``. It draws the
    rows of 3 labels, and the split draws of a guide whose buckets are too
    crowded to scan (see :func:`_sampler`).
    """
    base = rows * width
    pos = base.copy()
    step = width // 2
    while step:
        pos += step * (table[pos + (step - 1)] <= u)
        step //= 2
    pos += table[pos] <= u
    pos -= base
    return pos


def _threshold_draw(table: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The draws of :func:`_draw` from a search table of width 1 (rows of 1 or 2 labels), as bools.

    The count of the row's one entry ``<= u`` is that comparison; a bool
    adds to an integer as 0 or 1.
    """
    return table[rows] <= u


def _guide_table(table: np.ndarray, width: int) -> tuple[np.ndarray, int]:
    """An exact guide to a search table (Chen and Asau's indexed search), flattened, and its scan length.

    Table row ``r`` gets ``K = 2 * width`` buckets; bucket ``b`` covers the
    uniforms in ``[b / K, (b + 1) / K)``. ``guide[r * K + b]`` is the draw of
    every uniform in the bucket, the count ``c`` of the row's entries ``<=
    b / K``, unless an entry lies strictly inside ``(b / K, (b + 1) / K)``:
    then the draw depends on the uniform, and the bucket is split. ``P``,
    the scan length, is the most entries strictly inside one bucket of the
    table, and a split bucket holds ``-1 - s`` with ``s = min(c, width -
    P)``. The draw of ``u`` in it is ``s`` plus how many of the ``P``
    entries from position ``s`` on are ``<= u``: the entries before ``s``
    are ``<= b / K <= u``, those after the ``P`` are past the bucket, and
    the ``P`` lie inside the row, which matters for rows of 5, 9 or 17
    labels, whose tables have no padding. Scaling by the power of two
    ``K`` is exact, so ``e <= b / K`` is ``ceil(e * K) <= b``. The guide
    holds two 8-byte entries per table entry, twice the table's bytes.
    """
    buckets = 2 * width
    scaled = table.reshape(-1, width) * buckets
    lows = np.floor(scaled)
    # row r's histogram of min(ceil(e * K), K) over its entries e; its running sums are the counts
    keys = np.minimum(np.ceil(scaled), buckets).astype(np.intp)
    keys += np.arange(len(scaled))[:, None] * (buckets + 1)
    counts = np.bincount(keys.reshape(-1), minlength=len(scaled) * (buckets + 1)).reshape(-1, buckets + 1)
    np.cumsum(counts, axis=1, out=counts)
    rows, entries = np.nonzero((lows < scaled) & (scaled < buckets))
    split = rows, lows[rows, entries].astype(np.intp)  # the bucket of each entry strictly inside one
    passes = int(np.bincount(split[0] * buckets + split[1]).max(initial=0))
    counts[split] = -1 - np.minimum(counts[split], width - passes)
    # the slice is not contiguous, so reshape copies it, marks included
    return counts[:, :buckets].reshape(-1), passes


def _guided_draw(
    table: np.ndarray, width: int, guide: np.ndarray, passes: int, rows: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """The draws of :func:`_draw`, read from the guide where a bucket decides them.

    A uniform ``u = k * 2**-53`` falls in bucket ``floor(u * K)``, exactly.
    A draw in a split bucket advances from the bucket's start ``s`` once
    per entry ``<= u`` in ``passes`` steps of one read each (see
    :func:`_guide_table`); the steps stop advancing at the first entry past
    ``u``. A table whose most crowded bucket holds more entries than the
    binary search reads, ``log2(width) + 1``, sends its split draws to
    :func:`_draw` instead, so no table draws slower than by binary search.
    """
    buckets = 2 * width
    draws = (u * buckets).astype(np.intp)
    draws += rows * buckets
    draws = guide[draws]
    misses = np.flatnonzero(draws < 0)
    if not misses.size:
        return draws
    rows, u = rows[misses], u[misses]
    if passes > width.bit_length():
        draws[misses] = _draw(table, width, rows, u)
    else:
        base = rows * width
        pos = base - draws[misses]
        pos -= 1  # base + s
        for _ in range(passes):
            pos += table[pos] <= u
        draws[misses] = pos - base
    return draws


def _sampler(rows: np.ndarray):
    """The inverse-CDF draw ``(table rows, uniforms) -> label indices`` for the probability rows ``rows``.

    Rows of 1 or 2 labels (a search table of width 1) draw by one
    comparison, rows of 4 or more labels (width 4 or more) through a
    guide; the binary search of rows of 3 labels reads 2 entries.
    """
    table, width = _search_table(rows)
    if width == 1:
        return functools.partial(_threshold_draw, table)
    if width < 4:
        return functools.partial(_draw, table, width)
    return functools.partial(_guided_draw, table, width, *_guide_table(table, width))


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _tiles(rollouts: int, draws: int, tile_rollouts: int, tile_draws: int):
    """``(first rollout, rollouts, first draw, draws)`` of each tile, rollouts outermost."""
    for start in range(0, rollouts, tile_rollouts):
        for first in range(0, draws, tile_draws):
            yield start, min(tile_rollouts, rollouts - start), first, min(tile_draws, draws - first)


def _uniform_tiles(seed: int, rollouts: int, draws: int):
    """``(first rollout, first draw, columns)`` of each tile in order; ``columns[t, k]`` is draw ``first + t`` of rollout ``start + k``.

    A tile's columns are valid until the next one is asked for. With more
    than one tile and more than one CPU, a producer thread makes them into
    a ring of ``RING_TILES`` buffers, ahead of the caller by at most two
    tiles; otherwise each tile is made when it is asked for, into one
    buffer. Each tile is a pure function of the seed and its place, so the
    draws are the same either way. Closing the generator stops and joins
    the producer, and a fault in the producer is raised here.
    """
    tile_rollouts = min(rollouts, BLOCK_DRAWS)
    tile_draws = min(max(1, BLOCK_DRAWS // tile_rollouts), draws)
    tiles = functools.partial(_tiles, rollouts, draws, tile_rollouts, tile_draws)
    size = tile_rollouts * tile_draws
    states = np.empty(size, dtype=np.uint64)
    offsets = stream_offsets(tile_rollouts, draws)  # made once; a last, shorter block of rollouts reads a prefix
    one_tile = rollouts == tile_rollouts and draws == tile_draws
    if one_tile or _cpu_count() < 2:
        output = np.empty(size, dtype=np.uint64)
        for start, streams, first, count in tiles():
            tile = uniform_matrix(seed, streams, count, start, first, draws, offsets=offsets, buffers=(states, output))
            yield start, first, tile.T
        return

    ring = [np.empty(size, dtype=np.uint64) for _ in range(RING_TILES)]
    made: list = [None] * RING_TILES
    free, ready = threading.Semaphore(RING_TILES), threading.Semaphore(0)
    halt = threading.Event()
    fault: list[BaseException] = []

    def produce() -> None:
        try:
            for k, (start, streams, first, count) in enumerate(tiles()):
                free.acquire()
                if halt.is_set():
                    return
                slot = ring[k % RING_TILES]
                made[k % RING_TILES] = uniform_matrix(
                    seed, streams, count, start, first, draws, offsets=offsets, buffers=(states, slot)
                )
                ready.release()
        except BaseException as error:  # handed to the caller's thread, which raises it
            fault.append(error)
            ready.release()

    producer = threading.Thread(target=produce, name="dyninfer-uniforms", daemon=True)
    producer.start()
    try:
        for k, (start, _, first, _) in enumerate(tiles()):
            ready.acquire()
            if fault:
                raise fault[0]
            yield start, first, made[k % RING_TILES].T
            free.release()
    finally:
        halt.set()
        free.release()  # a producer waiting for a free buffer wakes and sees the halt
        producer.join()


def _rollout_losses(problem: Problem, strategy: MarkovStrategy, rollouts: int, seed: int) -> np.ndarray:
    """The accumulated loss of each rollout, in rollout order, drawn tile by tile as :func:`simulate` describes."""
    nx, ny = len(problem.x_space), len(problem.y_space)
    transitions, loss = _chosen_rows(problem, strategy)
    draw_init, draw_quantity, draw_transition = map(_sampler, (problem.init, problem.quantities, transitions))
    chosen_loss = loss.reshape(-1)

    losses = np.zeros(rollouts)
    tiles = _uniform_tiles(seed, rollouts, 2 * problem.n)
    try:
        for start, first, columns in tiles:
            tile_losses = losses[start : start + columns.shape[1]]
            for t, u in enumerate(columns, first):
                if t == 0:  # the initial observation
                    xs = draw_init(np.zeros(len(u), dtype=np.intp), u)
                elif t % 2:  # the quantity of round t // 2, and its loss
                    rows = xs + (t // 2) * nx
                    ys = draw_quantity(rows, u)
                    tile_losses += chosen_loss[rows * ny + ys]
                else:  # the next observation, after the estimate chosen at ``rows``
                    xs = draw_transition(rows, u)
    finally:
        tiles.close()  # on a fault in the draws, this stops and joins the producer
    return losses


def _ordered_sum(values: np.ndarray, mean: float | None = None) -> float:
    """``0.0 + values[0] + values[1] + ...`` in index order, or the same sum of ``(values[k] - mean) ** 2``.

    Each square is C ``pow(d, 2)``, as Python's ``d ** 2`` is. A sum or a
    square past the float64 range is inf.
    """
    total = 0.0
    buffer = np.empty(min(len(values), BLOCK_DRAWS) + 1)
    with np.errstate(over="ignore"):
        for start in range(0, len(values), BLOCK_DRAWS):
            # the running sums of [total, *terms] are the left-to-right adds of a loop over the terms
            block = buffer[: min(BLOCK_DRAWS, len(values) - start) + 1]
            block[0] = total
            terms = block[1:]
            terms[:] = values[start : start + BLOCK_DRAWS]
            if mean is not None:
                np.float_power(np.subtract(terms, mean, out=terms), 2.0, out=terms)
            total = float(np.add.accumulate(block, out=block)[-1])
    return total


def simulate(problem: Problem, strategy: MarkovStrategy, rollouts: int, seed: int) -> SimulationResult:
    """Seeded Monte Carlo rollouts of the estimation process.

    Rollout ``k`` consumes substream ``k`` of the SplitMix64 counter stream
    for ``seed`` (see :mod:`dyninfer.rng`), with ``2 n`` draws per rollout in
    the order: initial observation, then per round the quantity and (except
    in the final round) the next observation. Categorical draws invert the
    row CDF in label-index order: by one comparison for rows of 2 labels,
    by binary search for rows of 3, and through an exact guide table for
    rows of 4 or more (see :func:`_guide_table`). The mean and the
    variance are sums over rollouts in index order (see
    :func:`_ordered_sum`), taken once all rollouts are complete, so the
    result does not depend on how the rollouts were scheduled.

    The draws are made in tiles of ``R = min(rollouts, BLOCK_DRAWS)``
    rollouts by ``max(1, BLOCK_DRAWS // R)`` consecutive draws, so a tile
    holds at most ``BLOCK_DRAWS`` draws. Each draw is one array step over
    the tile's rollouts, whether the tiles split the rollouts, the rounds
    or both. With more than one tile and more than one CPU, a second
    thread makes the uniforms of the next tiles, at most two ahead, while
    this one draws; the tiles are drawn in the same order either way.
    Memory is 8 bytes per rollout (its loss) plus two tile buffers of
    uniforms (four with the second thread) and the strategy's search
    tables, each guide at most twice its table, and the result is
    bit-identical to drawing every rollout at once.
    """
    _check_strategy(problem, strategy)
    if isinstance(rollouts, bool) or not isinstance(rollouts, int) or rollouts < 1:
        raise InvalidParams(f"rollouts must be an integer >= 1, got {rollouts!r}")
    if rollouts * 8 > _MAX_ARRAY_BYTES:  # one float64 loss per rollout
        raise InvalidParams(f"{rollouts} rollouts are more than an array of their losses can index")
    check_seed(seed)
    losses = _rollout_losses(problem, strategy, rollouts, seed)

    mean = _ordered_sum(losses) / rollouts
    variance = _ordered_sum(losses, mean) / (rollouts - 1) if rollouts > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise InvalidParams(f"the mean or variance of {rollouts} rollouts' losses is past the float64 range")
    return SimulationResult(mean, variance, rollouts, seed)
