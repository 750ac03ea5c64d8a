"""Built-in example models.

Three small instances exercise the whole toolkit: a binary model whose state
flips unless the estimate "holds" it, a binary trend-prediction model whose
next observation equals the previous estimate, and a parameterized
vehicle-yield model on a distance grid with asymmetric contextual losses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams
from .model import Alphabet, Problem, problem_from_tables

_BINARY = Alphabet(("0", "1"))


def _binary_problem(n: int, transition: np.ndarray, quantity: np.ndarray) -> Problem:
    """A stationary binary model with 0-1 loss that starts at observation "0"."""
    zero_one = 1.0 - np.eye(2)  # [y, yhat]
    return problem_from_tables(
        n,
        _BINARY,
        _BINARY,
        _BINARY,
        np.array([1.0, 0.0]),
        transition[None],
        quantity[None],
        np.broadcast_to(zero_one, (2, 2, 2)),
    )


def example_section33(n: int) -> Problem:
    """Binary model where estimating 0 flips the observation and 1 holds it.

    Quantities follow P(Y=1 | X=0) = 0.1 and P(Y=1 | X=1) = 0.6 with 0-1
    loss. The initial observation defaults to a point mass at "0" (the model
    leaves it free; value tables and the policy do not depend on it).
    """
    transition = np.zeros((2, 2, 2))
    for x in (0, 1):
        transition[x, 0, 1 - x] = 1.0  # estimate 0: observation flips
        transition[x, 1, x] = 1.0  # estimate 1: observation persists
    return _binary_problem(n, transition, np.array([[0.9, 0.1], [0.4, 0.6]]))


def example_stock(n: int) -> Problem:
    """Binary trend prediction where the next market signal equals the estimate.

    Quantities follow P(Y=1 | X=0) = 0.4 and P(Y=1 | X=1) = 0.7 with 0-1
    loss; initial observation defaults to a point mass at "0".
    """
    transition = np.zeros((2, 2, 2))
    for x in (0, 1):
        for a in (0, 1):
            transition[x, a, a] = 1.0
    return _binary_problem(n, transition, np.array([[0.6, 0.4], [0.3, 0.7]]))


class PlannerStyle(enum.Enum):
    """How the ego planner's reaction moves the gap after each prediction."""

    PERSIST = "persist"
    FALL_BACK = "fall_back"


def _grid_labels(grid: np.ndarray) -> tuple[str, ...]:
    """The grid points at the fewest significant digits from 6 (``format(v, "g")``) that keep them distinct.

    17 digits always do: they tell any two distinct floats apart.
    """
    candidates = (tuple(format(float(v), f".{digits}g") for v in grid) for digits in range(6, 18))
    return next(labels for labels in candidates if len(set(labels)) == len(labels))


@dataclass(frozen=True)
class YieldParams:
    """Parameters of the yield-prediction model.

    ``beta`` is the logistic slope (per meter), ``d_c`` the critical distance
    at which yielding becomes even odds, ``grid`` the discretized
    bumper-to-bumper distances forming the observation space, ``c_missed``
    the per-meter penalty for predicting not-yield when the vehicle would
    have yielded, and ``c_danger`` the scale of the penalty for predicting
    yield when it will not, which ramps up as the gap drops below ``d_c``.
    """

    beta: float = 1.0
    d_c: float = 10.0
    grid: tuple[float, ...] = field(default_factory=lambda: tuple(float(v) for v in range(0, 21, 2)))
    c_missed: float = 0.05
    c_danger: float = 1.0
    planner: PlannerStyle = PlannerStyle.PERSIST

    def __post_init__(self) -> None:
        grid = tuple(float(v) for v in self.grid)
        object.__setattr__(self, "grid", grid)
        # a message names one value or pair, as a grid may hold millions
        if len(grid) < 2:
            raise InvalidParams(f"grid must be strictly increasing with >= 2 values, got {grid}")
        k = next((k for k, (a, b) in enumerate(zip(grid, grid[1:])) if b <= a), None)
        if k is not None:
            raise InvalidParams(
                f"grid must be strictly increasing with >= 2 values, got grid[{k}] = {grid[k]!r} "
                f"and grid[{k + 1}] = {grid[k + 1]!r}"
            )
        # a finite span bounds every difference of grid values and of d_c and a grid value
        k = next((k for k, v in enumerate(grid) if not math.isfinite(v)), None)
        if k is not None:
            raise InvalidParams(f"grid values and their span must be finite, got grid[{k}] = {grid[k]!r}")
        if not math.isfinite(grid[-1] - grid[0]):
            raise InvalidParams(f"grid values and their span must be finite, got {grid[0]!r} to {grid[-1]!r}")
        for name in ("beta", "d_c", "c_missed", "c_danger"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.beta > 0:
            raise InvalidParams(f"beta must be > 0, got {self.beta!r}")
        if not grid[0] <= self.d_c <= grid[-1]:
            raise InvalidParams(f"critical distance {self.d_c!r} lies outside the grid range")
        if self.c_missed < 0 or self.c_danger < 0:
            raise InvalidParams("loss scales must be >= 0")
        # the largest loss of each kind in example_yield's table, checked before the table is built
        missed = self.c_missed * max(abs(grid[0]), abs(grid[-1]))
        danger = self.c_danger * (1.0 + (self.d_c - grid[0]) / (grid[-1] - grid[0]))
        if not (math.isfinite(missed) and math.isfinite(danger)):
            raise InvalidParams(
                f"the largest losses, c_missed * max|grid| = {missed!r} and "
                f"c_danger * (1 + (d_c - grid[0]) / span) = {danger!r}, must be finite"
            )
        if not isinstance(self.planner, PlannerStyle):
            raise InvalidParams(f"planner must be a PlannerStyle, got {self.planner!r}")


def example_yield(n: int, params: YieldParams | None = None) -> Problem:
    """Yield prediction on a distance grid.

    The probability that the following vehicle yields is logistic in the gap,
    ``1 / (1 + exp(-beta * (x - d_c)))``. Predicting yield when the vehicle
    does not costs ``c_danger * max(0, 1 + (d_c - x) / span)``; predicting
    not-yield when it would have yielded costs ``c_missed * x``; correct
    predictions are free. Transitions follow the planner style: under
    PERSIST a yield prediction shifts the gap one step down with probability
    0.7 (the follower closes in) and a not-yield prediction shifts it one
    step up with probability 0.7, saturating at the grid ends; under
    FALL_BACK a not-yield prediction resets the gap to the largest grid value
    instead. The initial observation is the grid point nearest ``d_c``.
    """
    params = params or YieldParams()
    grid = np.asarray(params.grid)
    m = len(grid)
    # the largest table first: a grid too large for it fails here, before any per-point work
    transition = np.zeros((m, 2, m))
    x_space = Alphabet(_grid_labels(grid))
    outcome = Alphabet(("yield", "not_yield"))

    with np.errstate(over="ignore"):  # a slope past the float range gives z = +-inf, whose logistic is 1 or 0
        z = params.beta * (grid - params.d_c)
    t = np.exp(-np.abs(z))  # stable logistic: the exponent never overflows
    p_yield = np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    quantity = np.column_stack([p_yield, 1.0 - p_yield])

    span = grid[-1] - grid[0]
    loss = np.zeros((m, 2, 2))
    for xi, x in enumerate(grid):
        loss[xi, 0, 1] = params.c_missed * x  # would yield, predicted not: wasted chance
        loss[xi, 1, 0] = params.c_danger * max(0.0, 1.0 + (params.d_c - x) / span)

    for xi in range(m):
        down, up = max(xi - 1, 0), min(xi + 1, m - 1)
        transition[xi, 0, down] += 0.7
        transition[xi, 0, xi] += 0.3
        if params.planner is PlannerStyle.FALL_BACK:
            transition[xi, 1, m - 1] += 1.0
        else:
            transition[xi, 1, up] += 0.7
            transition[xi, 1, xi] += 0.3

    init = np.zeros(m)
    init[np.argmin(np.abs(grid - params.d_c))] = 1.0
    return problem_from_tables(n, x_space, outcome, outcome, init, transition[None], quantity[None], loss)
