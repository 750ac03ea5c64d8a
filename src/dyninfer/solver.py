"""Backward-induction solver for the optimal estimation strategy.

Solves the finite-horizon MDP view of a problem exactly: the final-round
action values are the observation-estimate losses, and each earlier round
adds the expected optimal value of the next observation under the controlled
transition kernel. Every expectation is :func:`dyninfer.reduction._label_sum`,
a plain sum in label-index order, so outputs are reproducible bit for bit.
Ties are kept as one boolean mask over (round, x, yhat); the nested tie sets
are derived from it only when read.
A :class:`SolveResult` carries the problem it was solved for, so its readers
(:func:`minimum_inference_loss`, :func:`dyninfer.export_trellis`) take the
result alone.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .model import Problem
from .reduction import _label_sum, bar_loss_table

TIE_TOLERANCE = 1e-9


class TieBreakRule(enum.Enum):
    """How to pick an estimate when several minimize the action-value row.

    MYOPIC_PREFERRED picks the single-round optimal estimate whenever it is
    among the minimizers, else the smallest index; FIRST_INDEX always picks
    the smallest index.
    """

    MYOPIC_PREFERRED = "myopic"
    FIRST_INDEX = "first"


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Value tables, optimal policy and tie diagnostics from one solve of ``problem``.

    ``v_star[i-1, xi]`` is the minimum expected remaining loss from round
    ``i`` at observation index ``xi``; ``q_star`` the per-estimate values;
    ``policy`` the chosen estimate indices; ``tied[i-1, xi, ai]`` whether
    estimate index ``ai`` is within ``TIE_TOLERANCE`` of the row minimum;
    ``myopic`` the single-round optimal estimate indices of the bar-loss
    table. Every array is read-only.
    """

    problem: Problem
    rule: TieBreakRule
    v_star: np.ndarray  # (n, |X|)
    q_star: np.ndarray  # (n, |X|, |Yhat|)
    policy: np.ndarray  # (n, |X|) estimate indices
    tied: np.ndarray  # (n, |X|, |Yhat|) bool
    myopic: np.ndarray  # (n, |X|) estimate indices

    @functools.cached_property
    def tie_sets(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``tie_sets[i-1][xi]``: the tied estimate indices of a node, increasing, made from ``tied`` on first read."""
        return tuple(
            tuple(tuple(ai for ai, is_tied in enumerate(row) if is_tied) for row in round_rows)
            for round_rows in self.tied.tolist()
        )


def solve(problem: Problem, rule: TieBreakRule = TieBreakRule.MYOPIC_PREFERRED) -> SolveResult:
    """Compute optimal value tables and a deterministic optimal policy.

    Each round is one array step over (x, yhat); the expectation over the
    next observation is summed in label order, as a scalar loop would. The
    result holds the tie mask, not the tie sets, so its size is a few times
    that of ``q_star``.
    """
    bar = bar_loss_table(problem)
    q_star, v_star = value_tables(bar.values, problem.transitions)
    tied = q_star <= v_star[..., None] + TIE_TOLERANCE
    policy = tied.argmax(axis=-1)  # the smallest tied index
    if rule is TieBreakRule.MYOPIC_PREFERRED:
        myopic_tied = np.take_along_axis(tied, bar.myopic[..., None], axis=-1)[..., 0]
        policy = np.where(myopic_tied, bar.myopic, policy)
    for table in (q_star, v_star, policy, tied):
        table.setflags(write=False)
    return SolveResult(problem, rule, v_star, q_star, policy, tied, bar.myopic)


def value_tables(bar: np.ndarray, transitions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward induction on bar-loss tables and transition stacks.

    ``bar`` has shape (..., n, |X|, |Yhat|) and ``transitions`` shape
    (..., n-1, |X|, |Yhat|, |X|). Returns the action values and their row minima, shapes (..., n, |X|,
    |Yhat|) and (..., n, |X|). Leading axes index problems of one shape; each
    problem's values are the floats a solve of it alone gives.
    """
    q_star = bar.copy()
    v_star = q_star.min(axis=-1)
    for k in range(q_star.shape[-3] - 2, -1, -1):
        q_star[..., k, :, :] += _label_sum(transitions[..., k, :, :, :], v_star[..., k + 1, None, None, :])
        v_star[..., k, :] = q_star[..., k, :, :].min(axis=-1)
    return q_star, v_star


def minimum_inference_loss(result: SolveResult) -> float:
    """Minimum expected accumulated loss: the initial expectation of round-1 values, J* = E[V*_1(X_1)]."""
    return float(_label_sum(result.problem.init, result.v_star[0]))
