"""Backward-induction solver for the optimal estimation strategy.

Solves the finite-horizon MDP view of a problem exactly: the final-round
action values are the observation-estimate losses, and each earlier round
adds the expected optimal value of the next observation under the controlled
transition kernel. Expectations are plain sums in label-index order, so
outputs are reproducible bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedResult
from .model import Problem, _fields_equal
from .reduction import bar_loss_table

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
    """Value tables, optimal policy and tie diagnostics from one solve.

    ``v_star[i-1, xi]`` is the minimum expected remaining loss from round
    ``i`` at observation index ``xi``; ``q_star`` the per-estimate values;
    ``policy`` the chosen estimate indices; ``tie_sets[i-1][xi]`` every
    estimate index within ``TIE_TOLERANCE`` of the row minimum; ``myopic``
    the single-round optimal estimate indices of the bar-loss table.
    """

    problem: Problem
    rule: TieBreakRule
    v_star: np.ndarray  # (n, |X|)
    q_star: np.ndarray  # (n, |X|, |Yhat|)
    policy: np.ndarray  # (n, |X|) estimate indices
    tie_sets: tuple[tuple[tuple[int, ...], ...], ...]
    myopic: np.ndarray  # (n, |X|) estimate indices


def solve(problem: Problem, rule: TieBreakRule = TieBreakRule.MYOPIC_PREFERRED) -> SolveResult:
    """Compute optimal value tables and a deterministic optimal policy.

    Each round is one array step over (x, yhat); the expectation over the
    next observation is summed in label order, as a scalar loop would.
    """
    bar = bar_loss_table(problem)
    q_star, v_star = value_tables(bar.values, problem.transitions)
    tied = q_star <= v_star[..., None] + TIE_TOLERANCE
    policy = tied.argmax(axis=-1)  # the smallest tied index
    if rule is TieBreakRule.MYOPIC_PREFERRED:
        myopic_tied = np.take_along_axis(tied, bar.myopic[..., None], axis=-1)[..., 0]
        policy = np.where(myopic_tied, bar.myopic, policy)
    tie_sets = tuple(
        tuple(tuple(ai for ai, is_tied in enumerate(row) if is_tied) for row in round_rows)
        for round_rows in tied.tolist()
    )
    q_star.setflags(write=False)
    v_star.setflags(write=False)
    policy.setflags(write=False)
    return SolveResult(problem, rule, v_star, q_star, policy, tie_sets, bar.myopic)


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
        expected = 0.0
        for xn in range(q_star.shape[-2]):
            expected = expected + transitions[..., k, :, :, xn] * v_star[..., k + 1, xn, None, None]
        q_star[..., k, :, :] += expected
        v_star[..., k, :] = q_star[..., k, :, :].min(axis=-1)
    return q_star, v_star


def initial_value(init: np.ndarray, v_star: np.ndarray) -> np.ndarray:
    """The expectation of round-1 values ``v_star[..., 0, :]`` under ``init`` (..., |X|), summed in label order."""
    total = 0.0
    for xi in range(init.shape[-1]):
        total = total + init[..., xi] * v_star[..., 0, xi]
    return total


def ensure_result_matches(problem: Problem, result: SolveResult) -> None:
    """Raise MismatchedResult unless ``result`` was solved for this model.

    The initial distribution is deliberately ignored: value tables and the
    policy do not depend on it, which is what makes ``--init`` overrides safe.
    A result checked against the very problem it was solved for passes at once.
    """
    source = result.problem
    if source is problem:
        return
    fields = ("n", "x_space", "y_space", "yhat_space", "transitions", "quantities", "loss")
    if not _fields_equal(source, problem, fields):
        raise MismatchedResult("solve result was produced from a different problem")


def minimum_inference_loss(problem: Problem, result: SolveResult) -> float:
    """Minimum expected accumulated loss: the initial expectation of round-1 values."""
    ensure_result_matches(problem, result)
    return float(initial_value(problem.init, result.v_star))


@dataclass(frozen=True)
class ReportRow:
    """One (round, observation) line of a solution report."""

    round: int
    x: str
    v_star: float
    q_row: tuple[float, ...]
    chosen: str
    tie: bool
    tie_labels: tuple[str, ...]
    myopic: str
    differs_from_myopic: bool


def solution_report(result: SolveResult) -> tuple[ReportRow, ...]:
    """Flatten a solve result into per-(round, x) rows, fit for trellis export."""
    problem = result.problem
    yhat_labels = problem.yhat_space.labels
    v_star, q_star = result.v_star.tolist(), result.q_star.tolist()
    policy, myopic = result.policy.tolist(), result.myopic.tolist()
    rows = []
    for k in range(problem.n):
        for xi, x in enumerate(problem.x_space):
            chosen = yhat_labels[policy[k][xi]]
            myopic_label = yhat_labels[myopic[k][xi]]
            ties = tuple(yhat_labels[ai] for ai in result.tie_sets[k][xi])
            rows.append(
                ReportRow(
                    round=k + 1,
                    x=x,
                    v_star=v_star[k][xi],
                    q_row=tuple(q_star[k][xi]),
                    chosen=chosen,
                    tie=len(ties) > 1,
                    tie_labels=ties,
                    myopic=myopic_label,
                    differs_from_myopic=chosen != myopic_label,
                )
            )
    return tuple(rows)
