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
    values = bar_loss_values(problem.quantities, problem.loss)
    myopic = values.argmin(axis=-1)
    values.setflags(write=False)
    myopic.setflags(write=False)
    return BarLossTable(values, myopic)


def bar_loss_values(quantities: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """:func:`bar_loss_table`'s values from quantity stacks and loss tables.

    ``quantities`` has shape (..., n, |X|, |Y|) and ``loss`` shape
    (..., |X|, |Y|, |Yhat|); the result has shape (..., n, |X|, |Yhat|).
    Leading axes index problems of one shape; each problem's entries are
    the floats its own table holds.
    """
    return _label_sum(quantities[..., None, :], loss[..., None, :, :, :].swapaxes(-1, -2))


def _label_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray | float:
    """``weights[..., k] * values[..., k]`` summed over the last axis, from 0.0 in label order.

    The two arrays broadcast against each other once their last (label) axis
    is indexed. Every expectation of the solver, ``evaluate_markov`` and the
    oracle is this one sum, so each of them is the float a scalar loop over
    the labels gives.
    """
    total = 0.0
    for k in range(weights.shape[-1]):
        total = total + weights[..., k] * values[..., k]
    return total
