"""Exact evaluation of per-round estimation strategies, plus a rollout simulator.

``evaluate_markov`` computes the expected accumulated loss of a strategy that
maps each round's observation to an estimate, together with the full table of
expected remaining losses from every (round, observation). ``simulate`` draws
seeded Monte Carlo rollouts of the same process; it is a deterministic
function of (problem, strategy, rollouts, seed) regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidParams, ShapeMismatch
from .model import Problem
from .reduction import bar_loss_table
from .rng import check_seed, uniform_matrix
from .solver import SolveResult

DEFAULT_TRAJECTORY_CAP = 10_000
# draws per block of rollouts in ``simulate`` (2 MB per float64 temporary)
BLOCK_DRAWS = 2**18


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
        return cls(problem.n, problem.x_space.labels, problem.yhat_space.labels, choices)

    def to_rows(self) -> list[dict[str, str]]:
        return [
            {x: self.yhat_labels[self.choices[k, xi]] for xi, x in enumerate(self.x_labels)}
            for k in range(self.n)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkovStrategy):
            return NotImplemented
        return (
            self.n == other.n
            and self.x_labels == other.x_labels
            and self.yhat_labels == other.yhat_labels
            and np.array_equal(self.choices, other.choices)
        )


def optimal_strategy(result: SolveResult) -> MarkovStrategy:
    """The solved policy as a strategy object."""
    problem = result.problem
    return MarkovStrategy(
        problem.n, problem.x_space.labels, problem.yhat_space.labels, result.policy.copy()
    )


def myopic_strategy(problem: Problem) -> MarkovStrategy:
    """The round-by-round single-round optimal strategy (ignores the future)."""
    return MarkovStrategy(
        problem.n, problem.x_space.labels, problem.yhat_space.labels, bar_loss_table(problem).myopic
    )


def _check_strategy(problem: Problem, strategy: MarkovStrategy) -> None:
    if (
        strategy.n != problem.n
        or strategy.x_labels != problem.x_space.labels
        or strategy.yhat_labels != problem.yhat_space.labels
    ):
        raise ShapeMismatch("strategy is shaped for a different problem")


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Exact inference loss ``j`` and per-(round, x) loss-to-go table ``v``."""

    problem: Problem
    strategy: MarkovStrategy
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
    return EvalResult(problem, strategy, float(j), v)


@dataclass(frozen=True)
class Trajectory:
    """One realized rollout: labels per round plus its accumulated loss."""

    id: str
    xs: tuple[str, ...]
    ys: tuple[str, ...]
    yhats: tuple[str, ...]
    loss: float


@dataclass(frozen=True, eq=False)
class SimulationResult:
    mean: float
    variance: float
    rollouts: int
    seed: int
    trajectories: tuple[Trajectory, ...] | None


def _row_cdfs(table: np.ndarray) -> np.ndarray:
    """Cumulative rows with the last entry pinned to 1.0 for inverse-CDF draws."""
    cdf = np.cumsum(table, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _sample(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    # smallest index m with u < cdf[m], i.e. inverse CDF in label-index order
    return (u[:, None] >= cdf_rows).sum(axis=1)


def _in_blocks(values: np.ndarray, rows: int):
    """The entries of ``values`` as Python floats in index order, one block of ``rows`` at a time."""
    for start in range(0, len(values), rows):
        yield from values[start : start + rows].tolist()


def _trajectories(
    problem: Problem, seed: int, start: int, history: list, losses: np.ndarray
) -> list[Trajectory]:
    """Rollouts ``start, start + 1, ...`` from their per-round (xs, ys, yhats) index arrays."""
    x_labels = problem.x_space.labels
    y_labels = problem.y_space.labels
    yhat_labels = problem.yhat_space.labels
    # per label kind, one row of round-by-round indices per rollout
    xs, ys, yhats = (np.stack(column, axis=1).tolist() for column in zip(*history))
    return [
        Trajectory(
            id=f"{seed}:{start + r}",
            xs=tuple(x_labels[v] for v in xs[r]),
            ys=tuple(y_labels[v] for v in ys[r]),
            yhats=tuple(yhat_labels[v] for v in yhats[r]),
            loss=loss,
        )
        for r, loss in enumerate(losses.tolist())
    ]


def simulate(
    problem: Problem,
    strategy: MarkovStrategy,
    rollouts: int,
    seed: int,
    *,
    return_trajectories: bool = False,
    trajectory_cap: int = DEFAULT_TRAJECTORY_CAP,
) -> SimulationResult:
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
    check_seed(seed)
    n = problem.n
    block_rows = max(1, BLOCK_DRAWS // (2 * n))

    init_cdf = _row_cdfs(problem.init[None, :])[0]
    quantity_cdfs = _row_cdfs(problem.quantities)
    transition_cdfs = _row_cdfs(problem.transitions)

    losses = np.zeros(rollouts)
    keep = min(rollouts, max(trajectory_cap, 0)) if return_trajectories else 0
    trajectories: list[Trajectory] = []
    for start in range(0, rollouts, block_rows):
        stop = min(start + block_rows, rollouts)
        uniforms = uniform_matrix(seed, stop - start, 2 * n, start)
        block_losses = losses[start:stop]
        kept = max(0, min(stop, keep) - start)
        history = []  # per round: (xs, ys, yhats) of the block's kept rollouts
        xs = (uniforms[:, 0][:, None] >= init_cdf[None, :]).sum(axis=1)
        for i in range(1, n + 1):
            k = i - 1
            ys = _sample(quantity_cdfs[k][xs], uniforms[:, 2 * k + 1])
            yhats = strategy.choices[k, xs]
            block_losses += problem.loss[xs, ys, yhats]
            if kept:
                history.append((xs[:kept], ys[:kept], yhats[:kept]))
            if i < n:
                xs = _sample(transition_cdfs[k][xs, yhats], uniforms[:, 2 * k + 2])
        if kept:
            trajectories += _trajectories(problem, seed, start, history, block_losses[:kept])

    total = 0.0
    for value in _in_blocks(losses, block_rows):
        total += value
    mean = total / rollouts
    if rollouts > 1:
        square_sum = 0.0
        for value in _in_blocks(losses, block_rows):
            square_sum += (value - mean) ** 2
        variance = square_sum / (rollouts - 1)
    else:
        variance = 0.0

    kept_trajectories = tuple(trajectories) if return_trajectories else None
    return SimulationResult(mean, variance, rollouts, seed, kept_trajectories)
