"""The two sides of the loss-marginalization identity, as forward array passes over a stack of problems.

:func:`loss_sums` sums the raw contextual loss over complete (x, y)
trajectories and :func:`bar_sums` the quantity-marginalized bar-loss over
histories, for each problem of a stack of B problems of one shape under one
history strategy each. They read only the strategies' decisions and the
problems' tables, never the values of the oracle's history DP or of the
solver, which is what makes them an independent check of the identity. They
add the same terms in the same order as a pre-order walk over the
trajectories or the histories, so they give that walk's bits.

Each round's nodes are flat arrays in lexicographic order of their paths:
the node's problem in the stack, its history's ranks ``(rx, ry)`` (as in
:mod:`dyninfer.oracle`), its path's probability, formed as ``(prob * p_y) *
p_x`` round by round, and whether it is alive. A branch of zero weight kills
its child and the child's subtree, which a walk down the tree skips. The loss
walk's terms are the leaves', and leaves in C order over (x1, y1, ..., xn,
yn) are in a pre-order walk's order; the bar walk's terms are every node's,
scattered to their pre-order places. Each problem's terms are summed by one
``np.cumsum`` seeded with 0.0, the same left-to-right sum as ``total +=
term``; a dead term is -0.0, which leaves any sum's bits as they are.

The walks run in blocks of about ``BLOCK_ENTRIES`` entries: whole problems
of the stack while they fit, else runs of subtrees of one problem, each
block's sums starting from the totals the last one left. A problem's terms
grow as (|X|·|Y|)^n, so the callers bound the trajectories before a walk.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# the walks work in blocks of at most this many entries per array (64 KB per float64 array)
BLOCK_ENTRIES = 2**13


def _root_nodes(init: np.ndarray) -> tuple[np.ndarray, ...]:
    """Round 1's nodes of a stack: ``(b, rx, ry, prob, alive)``, by problem, then by observation."""
    batch, nx = init.shape
    prob = init.ravel()
    rx = np.tile(np.arange(nx), batch)
    return np.repeat(np.arange(batch), nx), rx, np.zeros_like(rx), prob, prob > 0.0


def _rows(decisions: np.ndarray, y_span: int, nx: int, na: int, b, rx, ry) -> tuple[np.ndarray, np.ndarray]:
    """The flat rows of each node's (problem, x) and (problem, x, estimate) in the walks' tables.

    ``decisions`` (B, histories) holds the round's decisions by rank, and a
    history's rank is ``rx * y_span + ry``. With flat rows, each table is
    read by one ``take``.
    """
    node = b * nx + rx % nx
    choice = node * na + decisions.reshape(-1).take(b * decisions.shape[1] + rx * y_span + ry)
    return node, choice


def _children(revealed: bool, ny: int, b, rx, ry, prob, alive, p_y: np.ndarray, p_x: np.ndarray):
    """The next round's ``(b, rx, ry, prob, alive)``: each node's children (yi, xn), lexicographically.

    ``p_y`` (nodes, y digits) and ``p_x`` (nodes, |X|) weigh each node's
    branches. A child's probability is ``(prob * p_y) * p_x``, the product a
    walk down the tree forms, and a branch of zero weight leaves the child and
    its whole subtree dead: such a walk never enters them.
    """
    (m, y_base), nx = p_y.shape, p_x.shape[1]
    branches = np.arange(y_base * nx)  # yi * |X| + xn
    prob = ((prob[:, None] * p_y)[:, :, None] * p_x[:, None, :]).ravel()
    alive = ((alive[:, None] & (p_y != 0.0))[:, :, None] & (p_x != 0.0)[:, None, :]).ravel()
    rx = (rx[:, None] * nx + branches % nx).ravel()
    ry = (ry[:, None] * ny + branches // nx).ravel() if revealed else np.zeros(m * y_base * nx, dtype=rx.dtype)
    return b.repeat(y_base * nx), rx, ry, prob, alive


def _unit_round(sizes: list[int]) -> int:
    """The first round whose nodes' subtrees hold at most ``BLOCK_ENTRIES`` entries each, else the last round.

    ``sizes[i - 1]`` is the number of entries a round-``i`` node's subtree adds to its walk's sum.
    """
    return next((i for i, size in enumerate(sizes, start=1) if size <= BLOCK_ENTRIES), len(sizes))


def _blocks(batch: int, units: int, size: int) -> list[tuple[int, int]]:
    """Each block's run ``[s, e)`` of a stack's round-k nodes: ``units`` per problem, of ``size`` entries each.

    A block holds as many whole problems as fit in ``BLOCK_ENTRIES`` entries,
    and at least one; a larger problem is split into runs of consecutive
    nodes, at least one per block.
    """
    per = max(1, BLOCK_ENTRIES // size)
    total = batch * units
    if per >= units:
        step = per // units * units
        return [(s, min(s + step, total)) for s in range(0, total, step)]
    return [
        (s, min(s + per, start + units)) for start in range(0, total, units) for s in range(start, start + units, per)
    ]


def _accumulate(totals: np.ndarray, units: int, s: int, e: int, terms: np.ndarray) -> None:
    """Add a block's terms to the running totals of the problems it covers, in order, as ``total += term`` does.

    ``np.cumsum`` adds left to right. The leading column holds each total so
    far, 0.0 before the first term, so a first term of -0.0 gives 0.0 as
    ``0.0 + -0.0`` does.
    """
    b0, b1 = s // units, (e - 1) // units + 1
    rows = np.concatenate((totals[b0:b1, None], terms.reshape(b1 - b0, -1)), axis=1)
    totals[b0:b1] = np.cumsum(rows, axis=1)[:, -1]


def loss_sums(
    revealed: bool,
    decisions: Sequence[np.ndarray],
    init: np.ndarray,
    transitions: np.ndarray,
    quantities: np.ndarray,
    loss: np.ndarray,
) -> np.ndarray:
    """The expected accumulated loss of each problem of a stack, summed over its complete trajectories.

    ``decisions`` holds each round's (B, histories) decisions by rank;
    ``init`` (B, |X|), ``transitions`` (B, n-1, |X|, |Yhat|, |X|),
    ``quantities`` (B, n, |X|, |Y|) and ``loss`` (B, |X|, |Y|, |Yhat|) stack
    the problems' tables. The terms are the trajectories' ``(prob * p_y) *
    (acc + loss)``, one per (x1, y1, ..., xn, yn) in C order.
    """
    batch, nx = init.shape
    n, ny, na = quantities.shape[1], quantities.shape[-1], loss.shape[-1]
    loss_rows = loss.transpose(0, 1, 3, 2).reshape(-1, ny)  # by (problem, x, estimate): the losses over y

    def advance(i, b, rx, ry, prob, alive, acc):
        """Round ``i``'s nodes: their terms when ``i == n``, else the next round's nodes."""
        node, choice = _rows(decisions[i - 1], ny ** (i - 1) if revealed else 1, nx, na, b, rx, ry)
        p_y = quantities[:, i - 1].reshape(-1, ny).take(node, axis=0)
        step = acc[:, None] + loss_rows.take(choice, axis=0)  # the loss accumulated through each (node, y)
        if i == n:
            return np.where(alive[:, None] & (p_y != 0.0), (prob[:, None] * p_y) * step, -0.0).ravel()
        p_x = transitions[:, i - 1].reshape(-1, nx).take(choice, axis=0)
        return (*_children(revealed, ny, b, rx, ry, prob, alive, p_y, p_x), step.ravel().repeat(nx))

    sizes = [ny * (nx * ny) ** (n - i) for i in range(1, n + 1)]
    k = _unit_round(sizes)
    nodes = (*_root_nodes(init), np.zeros(batch * nx))
    for i in range(1, k):
        nodes = advance(i, *nodes)
    units = len(nodes[0]) // batch
    totals = np.zeros(batch)
    for s, e in _blocks(batch, units, sizes[k - 1]):
        block = tuple(array[s:e] for array in nodes)
        for i in range(k, n + 1):
            block = advance(i, *block)
        _accumulate(totals, units, s, e, block)
    return totals


def bar_sums(
    revealed: bool,
    decisions: Sequence[np.ndarray],
    init: np.ndarray,
    transitions: np.ndarray,
    quantities: np.ndarray,
    bar: np.ndarray,
) -> np.ndarray:
    """The bar-loss of each problem of a stack, summed over its histories; arguments as in :func:`loss_sums`.

    ``bar`` (B, n, |X|, |Yhat|) stacks the bar-loss tables. The terms are the
    histories' ``prob * bar`` in pre-order: a node, then each child's subtree
    in (yi, xn) order. A child's subtree follows the node and its elder
    siblings' subtrees, so the child of branch ``c`` has place ``pos + 1 + c
    * S``, with ``S`` the size of a next-round subtree. Unrevealed, a node's
    quantity branches merge into one digit of weight 1.0 (see
    :mod:`dyninfer.oracle`).
    """
    batch, nx = init.shape
    n, ny, na = quantities.shape[1], quantities.shape[-1], bar.shape[-1]
    weights = quantities if revealed else np.ones((batch, n, nx, 1))
    fanout = weights.shape[-1] * nx
    sizes = [1]  # a round-i node's subtree holds sizes[i - 1] nodes
    for _ in range(n - 1):
        sizes.append(1 + fanout * sizes[-1])
    sizes.reverse()

    def advance(i, b, rx, ry, prob, alive, pos):
        """Round ``i``'s terms, and the next round's nodes (None when ``i == n``)."""
        node, choice = _rows(decisions[i - 1], ny ** (i - 1) if revealed else 1, nx, na, b, rx, ry)
        terms = np.where(alive, prob * bar[:, i - 1].reshape(-1).take(choice), -0.0)
        if i == n:
            return terms, None
        p_y = weights[:, i - 1].reshape(-1, weights.shape[-1]).take(node, axis=0)
        p_x = transitions[:, i - 1].reshape(-1, nx).take(choice, axis=0)
        children = _children(revealed, ny, b, rx, ry, prob, alive, p_y, p_x)
        return terms, (*children, (pos[:, None] + 1 + np.arange(fanout) * sizes[i]).ravel())

    k = _unit_round(sizes)
    nodes = (*_root_nodes(init), np.zeros(batch * nx, dtype=np.int64))
    above = []  # the terms of rounds 1..k-1
    for i in range(1, k):
        terms, nodes = advance(i, *nodes)
        above.append(terms)
    units = len(nodes[0]) // batch
    # a round-j node comes right before the subtree of its first round-k descendant,
    # so each round-k node carries one place per earlier round: the ancestor's term, or -0.0
    index = np.arange(batch * units)  # of each round-k node in the stack
    lead = np.empty((batch * units, k - 1))
    for j, terms in enumerate(above, start=1):
        span = fanout ** (k - j)  # round-k descendants per round-j node
        lead[:, j - 1] = np.where(index % span == 0, terms[index // span], -0.0)
    width = k - 1 + sizes[k - 1]
    totals = np.zeros(batch)
    for s, e in _blocks(batch, units, width):
        sequence = np.empty((e - s, width))
        sequence[:, : k - 1] = lead[s:e]
        flat = sequence.reshape(-1)
        block = (*(array[s:e] for array in nodes[:-1]), np.arange(e - s) * width + k - 1)
        for i in range(k, n + 1):
            terms, children = advance(i, *block)
            flat[block[-1]] = terms
            block = children
        _accumulate(totals, units, s, e, sequence)
    return totals
