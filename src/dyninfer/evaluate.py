"""Exact evaluation of per-round estimation strategies, plus a rollout simulator.

``evaluate_markov`` computes the expected accumulated loss of a strategy that
maps each round's observation to an estimate, together with the full table of
expected remaining losses from every (round, observation). ``simulate`` draws
seeded Monte Carlo rollouts of the same process; it is a deterministic
function of (problem, strategy, rollouts, seed) regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidParams, ShapeMismatch
from .model import _MAX_ARRAY_BYTES, Problem, _fields_equal
from .reduction import bar_loss_table
from .rng import check_seed, uniform_matrix
from .solver import SolveResult

# draws per block of rollouts in ``simulate`` (2 MB per float64 temporary)
BLOCK_DRAWS = 2**18


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
        x_labels = set(problem.x_space.labels)
        choices = np.empty((problem.n, len(problem.x_space)), dtype=np.int64)
        for k, row in enumerate(rows):
            if not isinstance(row, Mapping):
                raise ShapeMismatch(f"strategy round {k + 1} is not an object of observation labels")
            unknown = set(row) - x_labels
            if unknown:
                raise ShapeMismatch(f"strategy round {k + 1} has unknown observations {sorted(unknown)}")
            missing = x_labels - set(row)
            if missing:
                raise ShapeMismatch(f"strategy round {k + 1} is missing observations {sorted(missing)}")
            for xi, x in enumerate(problem.x_space):
                choices[k, xi] = problem.yhat_space.index(row[x])
        return cls(*_markov_binding(problem), choices)

    def to_rows(self) -> list[dict[str, str]]:
        return [
            {x: self.yhat_labels[self.choices[k, xi]] for xi, x in enumerate(self.x_labels)}
            for k in range(self.n)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkovStrategy):
            return NotImplemented
        return _fields_equal(self, other, ("n", "x_labels", "yhat_labels", "choices"))


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


def evaluate_markov(problem: Problem, strategy: MarkovStrategy) -> EvalResult:
    """Exact expected accumulated loss of a strategy, by backward recursion.

    ``v[i-1, xi]`` is the expected loss accumulated from round ``i`` through
    the final round given the round-``i`` observation; ``j`` is its initial
    expectation.
    """
    _check_strategy(problem, strategy)
    bar = bar_loss_table(problem).values
    choices = strategy.choices
    v = np.take_along_axis(bar, choices[..., None], axis=-1)[..., 0]
    for k in range(problem.n - 2, -1, -1):
        # row xi is the law of the next observation after the estimate chosen at xi
        transition = problem.transitions[k][np.arange(len(problem.x_space)), choices[k]]
        expected = 0.0
        for xn in range(len(problem.x_space)):
            expected = expected + transition[:, xn] * v[k + 1, xn]
        v[k] += expected
    j = 0.0
    for xi in range(len(problem.x_space)):
        j += problem.init[xi] * v[0, xi]
    v.setflags(write=False)
    return EvalResult(float(j), v)


@dataclass(frozen=True, eq=False)
class SimulationResult:
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
    entry past 1.0 or the 2.0 padding is never ``<= u < 1``.
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


def _in_blocks(values: np.ndarray, rows: int):
    """The entries of ``values`` as Python floats in index order, one block of ``rows`` at a time."""
    for start in range(0, len(values), rows):
        yield from values[start : start + rows].tolist()


def _block_rows(n: int) -> int:
    """Rollouts per block: about ``BLOCK_DRAWS`` draws of ``2 n`` each, and at least one rollout."""
    return max(1, BLOCK_DRAWS // (2 * n))


def _rollout_losses(problem: Problem, strategy: MarkovStrategy, rollouts: int, seed: int) -> np.ndarray:
    """The accumulated loss of each rollout, in rollout order, drawn block by block as :func:`simulate` describes."""
    n = problem.n
    nx, ny = len(problem.x_space), len(problem.y_space)
    block_rows = _block_rows(n)
    choices = strategy.choices
    # one table row per (round, observation), holding the strategy's own transition rows and losses
    init_table, init_width = _search_table(problem.init)
    quantity_table, quantity_width = _search_table(problem.quantities)
    transition_table, transition_width = _search_table(
        np.take_along_axis(problem.transitions, choices[:-1, :, None, None], axis=2)[:, :, 0]
    )
    chosen_loss = problem.loss.transpose(2, 0, 1)[choices, np.arange(nx)].reshape(-1)

    losses = np.zeros(rollouts)
    for start in range(0, rollouts, block_rows):
        stop = min(start + block_rows, rollouts)
        uniforms = uniform_matrix(seed, stop - start, 2 * n, start)
        block_losses = losses[start:stop]
        xs = _draw(init_table, init_width, np.zeros(stop - start, dtype=np.intp), uniforms[:, 0])
        for k in range(n):
            rows = xs + k * nx
            ys = _draw(quantity_table, quantity_width, rows, uniforms[:, 2 * k + 1])
            block_losses += chosen_loss[rows * ny + ys]
            if k < n - 1:
                xs = _draw(transition_table, transition_width, rows, uniforms[:, 2 * k + 2])
    return losses


def simulate(problem: Problem, strategy: MarkovStrategy, rollouts: int, seed: int) -> SimulationResult:
    """Seeded Monte Carlo rollouts of the estimation process.

    Rollout ``k`` consumes substream ``k`` of the SplitMix64 counter stream
    for ``seed`` (see :mod:`dyninfer.rng`), with ``2 n`` draws per rollout in
    the order: initial observation, then per round the quantity and (except
    in the final round) the next observation. Categorical draws invert the
    row CDF in label-index order. The mean is accumulated over rollouts in
    index order once all rollouts are complete, so the result does not depend
    on how the rollouts were scheduled.

    Rollouts run in consecutive blocks of about ``BLOCK_DRAWS`` draws, so
    memory is 8 bytes per rollout (its loss) plus one block of draws, and the
    result is bit-identical to drawing every rollout at once.
    """
    _check_strategy(problem, strategy)
    if isinstance(rollouts, bool) or not isinstance(rollouts, int) or rollouts < 1:
        raise InvalidParams(f"rollouts must be an integer >= 1, got {rollouts!r}")
    if rollouts * 8 > _MAX_ARRAY_BYTES:  # one float64 loss per rollout
        raise InvalidParams(f"{rollouts} rollouts are more than an array of their losses can index")
    check_seed(seed)
    losses = _rollout_losses(problem, strategy, rollouts, seed)
    block_rows = _block_rows(problem.n)

    total = 0.0
    for value in _in_blocks(losses, block_rows):
        total += value
    mean = total / rollouts
    variance = 0.0
    if rollouts > 1:
        square_sum = 0.0
        try:
            for value in _in_blocks(losses, block_rows):
                square_sum += (value - mean) ** 2
        except OverflowError:  # a float power past the float64 range raises rather than giving inf
            square_sum = math.inf
        variance = square_sum / (rollouts - 1)
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise InvalidParams(f"the mean or variance of {rollouts} rollouts' losses is past the float64 range")
    return SimulationResult(mean, variance, rollouts, seed)
