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


@dataclass(frozen=True, eq=False)
class BarLossTable:
    """Observation-estimate loss for every (round, x, yhat), materialized.

    Read by index: ``values[i-1, xi, ai]`` is the loss of estimate index
    ``ai`` at observation index ``xi`` in round ``i``, and ``myopic[i-1, xi]``
    the single-round optimal estimate index, the smallest one on ties.
    """

    values: np.ndarray  # shape (n, |X|, |Yhat|)
    myopic: np.ndarray  # shape (n, |X|)


def bar_loss_table(problem: Problem) -> BarLossTable:
    """Materialize the observation-estimate loss for all rounds and labels.

    Entries depend only on the loss table and the per-round quantity kernels,
    never on any strategy. Each entry is summed over quantities in label
    order, so it is the same float for every round and layout.
    """
    quantities, loss = problem.quantities, problem.loss
    values = 0.0
    for yi in range(len(problem.y_space)):
        values = values + quantities[:, :, yi, None] * loss[None, :, yi, :]
    myopic = values.argmin(axis=-1)
    values.setflags(write=False)
    myopic.setflags(write=False)
    return BarLossTable(values, myopic)

