"""Observation-estimate loss and myopic single-round estimates.

With the quantity marginalized out, the expected loss of estimating ``yhat``
under observation ``x`` in round ``i`` depends only on the loss table and the
round-``i`` quantity kernel. That reduced table is the per-step cost of a
finite-horizon MDP whose states are the observations and whose actions are
the estimates; the controlled dynamics are the problem's transition kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Problem

MYOPIC_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class BarLossTable:
    """Observation-estimate loss for every (round, x, yhat), materialized.

    ``myopic[i-1, xi]`` is the single-round optimal estimate index, the
    smallest one on ties.
    """

    problem: Problem
    values: np.ndarray  # shape (n, |X|, |Yhat|)
    myopic: np.ndarray  # shape (n, |X|)

    def value(self, i: int, x: str, yhat: str) -> float:
        self.problem.check_round(i)
        return float(
            self.values[i - 1, self.problem.x_space.index(x), self.problem.yhat_space.index(yhat)]
        )


def bar_loss_table(problem: Problem) -> BarLossTable:
    """Materialize the observation-estimate loss for all rounds and labels.

    Entries depend only on the loss table and the per-round quantity kernels,
    never on any strategy. Each entry is summed over quantities in label
    order, so it is the same float for every round and layout.
    """
    quantities, loss = problem.quantities, problem.loss.table
    values = 0.0
    for yi in range(len(problem.y_space)):
        values = values + quantities[:, :, yi, None] * loss[None, :, yi, :]
    myopic = values.argmin(axis=-1)
    values.setflags(write=False)
    myopic.setflags(write=False)
    return BarLossTable(problem, values, myopic)


def myopic_bayes_estimate(problem: Problem, i: int, x: str) -> str:
    """Single-round optimal estimate at observation ``x`` in round ``i``.

    Minimizes the expected posterior loss for that round alone; ties resolve
    to the smallest estimate index (see :func:`myopic_tie_set` to detect them).
    """
    problem.check_round(i)
    return problem.yhat_space.labels[bar_loss_table(problem).myopic[i - 1, problem.x_space.index(x)]]


def myopic_tie_set(problem: Problem, i: int, x: str, tolerance: float = MYOPIC_TIE_TOLERANCE) -> tuple[str, ...]:
    """Estimate labels within ``tolerance`` of the single-round minimum."""
    problem.check_round(i)
    row = bar_loss_table(problem).values[i - 1, problem.x_space.index(x)]
    tied = (row <= row.min() + tolerance).tolist()
    return tuple(label for label, is_tied in zip(problem.yhat_space, tied) if is_tied)
