"""Scalar reference versions of the array kernels, for bit-identity tests.

The library computes the bar-loss table, backward induction and strategy
evaluation as array operations over (x, yhat), with a Python loop left only
over the label being summed. These are the entry-by-entry loops they
replaced. Both add the same products in the same order, so the tests require
equal floats, not close ones.
"""

import numpy as np

from dyninfer.solver import TIE_TOLERANCE


def bar_entry(problem, i, xi, ai):
    """Expected loss over the round-i quantity kernel, summed in label order."""
    quantity = problem.quantities[i - 1]
    loss = problem.loss.table
    total = 0.0
    for yi in range(len(problem.y_space)):
        total += quantity[xi, yi] * loss[xi, yi, ai]
    return total


def bar_loss(problem):
    nx, na = len(problem.x_space), len(problem.yhat_space)
    values = np.empty((problem.n, nx, na))
    for i in range(1, problem.n + 1):
        for xi in range(nx):
            for ai in range(na):
                values[i - 1, xi, ai] = bar_entry(problem, i, xi, ai)
    return values


def myopic_index(problem, i, xi):
    """Single-round optimal estimate index; smallest index on ties."""
    best_ai = 0
    best = bar_entry(problem, i, xi, 0)
    for ai in range(1, len(problem.yhat_space)):
        value = bar_entry(problem, i, xi, ai)
        if value < best:
            best, best_ai = value, ai
    return best_ai


def solve(problem, myopic_preferred=True):
    """Backward induction one entry at a time: (q_star, v_star, policy, tie_sets)."""
    bar = bar_loss(problem)
    n, nx, na = problem.n, len(problem.x_space), len(problem.yhat_space)
    q_star = np.empty((n, nx, na))
    v_star = np.empty((n, nx))
    policy = np.empty((n, nx), dtype=np.int64)
    tie_sets = [()] * n
    for i in range(n, 0, -1):
        k = i - 1
        transition = problem.transitions[k] if i < n else None  # kernel for round i+1
        round_ties = []
        for xi in range(nx):
            for ai in range(na):
                value = bar[k, xi, ai]
                if transition is not None:
                    expected = 0.0
                    for xn in range(nx):
                        expected += transition[xi, ai, xn] * v_star[k + 1, xn]
                    value = value + expected
                q_star[k, xi, ai] = value
            row = q_star[k, xi]
            v_star[k, xi] = row.min()
            ties = tuple(ai for ai in range(na) if row[ai] <= v_star[k, xi] + TIE_TOLERANCE)
            round_ties.append(ties)
            if myopic_preferred:
                myopic = myopic_index(problem, i, xi)
                policy[k, xi] = myopic if myopic in ties else ties[0]
            else:
                policy[k, xi] = ties[0]
        tie_sets[k] = tuple(round_ties)
    return q_star, v_star, policy, tuple(tie_sets)


def evaluate_markov(problem, choices):
    """Exact loss-to-go table and inference loss of a per-round strategy: (v, j)."""
    bar = bar_loss(problem)
    n, nx = problem.n, len(problem.x_space)
    v = np.empty((n, nx))
    for i in range(n, 0, -1):
        k = i - 1
        transition = problem.transitions[k] if i < n else None
        for xi in range(nx):
            ai = choices[k, xi]
            value = bar[k, xi, ai]
            if transition is not None:
                expected = 0.0
                for xn in range(nx):
                    expected += transition[xi, ai, xn] * v[k + 1, xn]
                value = value + expected
            v[k, xi] = value
    j = 0.0
    for xi in range(nx):
        j += problem.init.probs[xi] * v[0, xi]
    return v, float(j)
