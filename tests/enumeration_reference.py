"""The literal brute force over history strategies, for cross-checks on tiny instances.

``brute_force_optimum`` exhausts the strategy space by one decision per
history over the history tree. This module enumerates the strategy functions
themselves, one at a time, and prices each by full trajectory enumeration, so
the tests can check that both views of the space give the same minimum. The
enumeration is gated by the oracle's own limit check.
"""

import itertools
import math

from scalar_reference import _round_histories

from dyninfer.oracle import (
    DEFAULT_STRATEGY_LIMIT,
    HistoryStrategy,
    _history_binding,
    _spans,
    checked_shape_space,
    exact_loss_history,
    history_count,
)


def strategy_count(problem, mode):
    """Size of the deterministic history-strategy space (exact integer)."""
    return len(problem.yhat_space) ** history_count(problem, mode)


def build_history_strategy(problem, mode, decide):
    """A total history strategy from ``decide(i, x-history, y-history) -> estimate index``."""
    tables = tuple(
        tuple(decide(i, xs, ys) for xs, ys in _round_histories(problem, mode, i)) for i in range(1, problem.n + 1)
    )
    return HistoryStrategy(mode, *_history_binding(problem), tables)


def enumerate_history_strategies(problem, mode, limit=DEFAULT_STRATEGY_LIMIT):
    """Every deterministic history strategy exactly once.

    Order is lexicographic over the vector of decisions, with histories
    ordered round-by-round and by rank within each round, and the last
    history's decision varying fastest. The limit is checked at call time,
    before the first strategy is produced, by the oracle's own check.
    """
    nx, ny, na = len(problem.x_space), len(problem.y_space), len(problem.yhat_space)
    histories, _ = checked_shape_space(problem.n, nx, ny, na, mode, limit)
    ends = list(itertools.accumulate(math.prod(_spans(nx, ny, mode, i)) for i in range(1, problem.n + 1)))
    binding = _history_binding(problem)

    def generate():
        for assignment in itertools.product(range(na), repeat=histories):
            yield HistoryStrategy(mode, *binding, tuple(assignment[start:end] for start, end in zip([0, *ends], ends)))

    return generate()


def enumeration_minimum(problem, mode, limit=DEFAULT_STRATEGY_LIMIT):
    """Evaluate every enumerated strategy and keep the best: (loss, strategy).

    Ties keep the strategy yielded first, i.e. the lexicographically first
    minimizer.
    """
    best = None
    for strategy in enumerate_history_strategies(problem, mode, limit):
        loss = exact_loss_history(problem, strategy)
        if best is None or loss < best[0]:
            best = (loss, strategy)
    return best
