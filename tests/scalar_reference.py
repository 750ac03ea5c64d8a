"""Scalar reference versions of the array kernels, for bit-identity tests.

The library computes the bar-loss table, backward induction and strategy
evaluation as array operations over (x, yhat), with a Python loop left only
over the label being summed. These are the entry-by-entry loops they
replaced. Both add the same products in the same order, so the tests require
equal floats, not close ones. ``simulate`` is the whole-matrix rollout loop
that the block-streamed simulator replaced; it draws every rollout at once,
each draw by ``sample``, which compares ``u`` with every entry of a gathered
CDF row where the simulator binary-searches its own table.
``brute_force`` is the history DP as a recursion over numpy scalars, with
the immediate cost summed again at every history. ``exact_loss_history`` and
``lemma1`` are the identity walks as recursions in pre-order, adding one term
at a time to a total that starts at 0.0 and skipping every branch of zero
weight; the blocked forward passes of ``dyninfer.walks`` must give their
bits. All three read a history strategy's decisions through ``decision``, by
history tuple.
"""

import itertools

import numpy as np

from dyninfer.oracle import HistoryMode
from dyninfer.reduction import bar_loss_table
from dyninfer.rng import counter_uniforms
from dyninfer.solver import TIE_TOLERANCE


def bar_entry(problem, i, xi, ai):
    """Expected loss over the round-i quantity kernel, summed in label order."""
    quantity = problem.quantities[i - 1]
    loss = problem.loss
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
        j += problem.init[xi] * v[0, xi]
    return v, float(j)


def row_cdfs(table):
    """Cumulative rows with the last entry pinned to 1.0 for inverse-CDF draws."""
    cdf = np.cumsum(table, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def sample(cdf_rows, u):
    """The row-gather draw: each ``u`` against its own gathered CDF row, counting the entries at or below it.

    That count is the smallest index ``m`` with ``u < cdf[m]``, i.e. the
    inverse CDF in label-index order.
    """
    return (u[:, None] >= cdf_rows).sum(axis=1)


def simulate(problem, choices, rollouts, seed):
    """All rollouts from one uniform matrix: (mean, variance, per-rollout losses)."""
    n = problem.n
    # rollout k's draws are counters [2nk, 2n(k + 1)) of the seed's stream
    uniforms = counter_uniforms(seed, np.arange(rollouts * 2 * n, dtype=np.uint64)).reshape(rollouts, 2 * n)
    init_cdf = row_cdfs(problem.init[None, :])[0]
    quantity_cdfs = row_cdfs(problem.quantities)
    transition_cdfs = row_cdfs(problem.transitions)

    xs = (uniforms[:, 0][:, None] >= init_cdf[None, :]).sum(axis=1)
    losses = np.zeros(rollouts)
    for i in range(1, n + 1):
        k = i - 1
        ys = sample(quantity_cdfs[k][xs], uniforms[:, 2 * k + 1])
        yhats = choices[k, xs]
        losses += problem.loss[xs, ys, yhats]
        if i < n:
            xs = sample(transition_cdfs[k][xs, yhats], uniforms[:, 2 * k + 2])

    total = 0.0
    for value in losses.tolist():
        total += value
    mean = total / rollouts
    variance = 0.0
    if rollouts > 1:
        square_sum = 0.0
        for value in losses.tolist():
            square_sum += (value - mean) ** 2
        variance = square_sum / (rollouts - 1)
    return mean, variance, losses


def _round_histories(problem, mode, i):
    nx, ny = len(problem.x_space), len(problem.y_space)
    y_len = i - 1 if mode is HistoryMode.REVEALED else 0
    for xs in itertools.product(range(nx), repeat=i):
        for ys in itertools.product(range(ny), repeat=y_len):
            yield xs, ys


def decision(strategy, i, xs, ys):
    """The estimate index of a history strategy in round ``i`` after observations ``xs`` and quantities ``ys``.

    The history's rank reads ``xs`` as base-|X| digits followed, in revealed
    mode, by ``ys`` as base-|Y| digits.
    """
    rank = 0
    for x in xs:
        rank = rank * len(strategy.x_labels) + x
    if strategy.mode is HistoryMode.REVEALED:
        for y in ys:
            rank = rank * len(strategy.y_labels) + y
    return strategy.tables[i - 1][rank]


def brute_force(problem, mode):
    """Bottom-up optimum over every history strategy: (brute_min, per-round decision tables)."""
    n = problem.n
    nx, ny, na = len(problem.x_space), len(problem.y_space), len(problem.yhat_space)
    loss = problem.loss
    revealed = mode is HistoryMode.REVEALED
    values = {}
    decisions = [dict() for _ in range(n)]
    for i in range(n, 0, -1):
        quantity = problem.quantities[i - 1]
        transition = problem.transitions[i - 1] if i < n else None
        for xs, ys in _round_histories(problem, mode, i):
            x = xs[-1]
            best_value = None
            best_action = 0
            for ai in range(na):
                value = 0.0
                for yi in range(ny):
                    value += quantity[x, yi] * loss[x, yi, ai]
                if transition is not None:
                    if revealed:
                        for yi in range(ny):
                            p_y = quantity[x, yi]
                            if p_y == 0.0:
                                continue
                            for xn in range(nx):
                                p_x = transition[x, ai, xn]
                                if p_x != 0.0:
                                    value += p_y * p_x * values[(i + 1, xs + (xn,), ys + (yi,))]
                    else:
                        for xn in range(nx):
                            p_x = transition[x, ai, xn]
                            if p_x != 0.0:
                                value += p_x * values[(i + 1, xs + (xn,), ys)]
                if best_value is None or value < best_value:
                    best_value, best_action = value, ai
            values[(i, xs, ys)] = best_value
            decisions[i - 1][xs if not revealed else xs + ys] = best_action
    brute_min = 0.0
    for x1 in range(nx):
        brute_min += problem.init[x1] * values[(1, (x1,), ())]
    return float(brute_min), decisions


def exact_loss_history(problem, strategy):
    """Expected accumulated loss of a history strategy, by recursion over trajectories."""
    n, nx, ny = problem.n, len(problem.x_space), len(problem.y_space)
    loss = problem.loss
    init = problem.init
    total = 0.0

    def visit(i, xs, ys, prob, acc):
        nonlocal total
        x = xs[-1]
        ai = decision(strategy, i, xs, ys)
        quantity = problem.quantities[i - 1]
        for yi in range(ny):
            p_y = quantity[x, yi]
            if p_y == 0.0:
                continue
            step = acc + loss[x, yi, ai]
            if i == n:
                total += prob * p_y * step
            else:
                transition = problem.transitions[i - 1]
                for xn in range(nx):
                    p_x = transition[x, ai, xn]
                    if p_x == 0.0:
                        continue
                    visit(i + 1, xs + (xn,), ys + (yi,), prob * p_y * p_x, step)

    for x1 in range(nx):
        if init[x1] > 0.0:
            visit(1, (x1,), (), float(init[x1]), 0.0)
    return float(total)


def lemma1(problem, strategy):
    """Both sides of the loss-marginalization identity, by recursion over histories."""
    lhs = exact_loss_history(problem, strategy)
    bar = bar_loss_table(problem).values
    n, nx, ny = problem.n, len(problem.x_space), len(problem.y_space)
    revealed = strategy.mode is HistoryMode.REVEALED
    rhs = 0.0

    def visit(i, xs, ys, prob):
        nonlocal rhs
        x = xs[-1]
        ai = decision(strategy, i, xs, ys)
        rhs += prob * bar[i - 1, x, ai]
        if i == n:
            return
        transition = problem.transitions[i - 1]
        if revealed:
            quantity = problem.quantities[i - 1]
            for yi in range(ny):
                p_y = quantity[x, yi]
                if p_y == 0.0:
                    continue
                for xn in range(nx):
                    p_x = transition[x, ai, xn]
                    if p_x > 0.0:
                        visit(i + 1, xs + (xn,), ys + (yi,), prob * p_y * p_x)
        else:
            for xn in range(nx):
                p_x = transition[x, ai, xn]
                if p_x > 0.0:
                    visit(i + 1, xs + (xn,), ys, prob * p_x)

    for x1 in range(nx):
        if problem.init[x1] > 0.0:
            visit(1, (x1,), (), float(problem.init[x1]))
    return lhs, float(rhs)
