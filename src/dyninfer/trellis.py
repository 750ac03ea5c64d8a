"""Unrolled round-by-round diagrams of a solved model (DOT and text).

The trellis has one node per (round, observation) annotated with the optimal
remaining loss, and one edge per (estimate, successor) pair with positive
probability. Chosen estimates are drawn solid, others dashed; a chosen edge
is colored blue where the dynamic optimum departs from the single-round
optimum. Both renderers read the solve result alone, its arrays and the
problem it was solved for: nodes in (round, observation index) order, edges
in (round, x, yhat, next x) index order. Each fills all its node lines in
one ``%`` pass.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .errors import InvalidParams
from .solver import SolveResult


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _render_dot(result: SolveResult) -> str:
    """The DOT digraph, with each text made once: one id per node, one probability text per distinct value.

    An edge line is spliced from the text of its source, its target, its
    estimate, its probability and its style, and every line is joined once.
    """
    problem = result.problem
    n, nx = problem.n, len(problem.x_space)
    # node "r<round>_x<index>"; escaping maps each character alone, so a label is escaped once and spliced in
    rounds = np.array([f'"r{i}_x' for i in range(1, n + 1)], dtype=object)
    ids = (rounds[:, None] + np.array([f'{xi}"' for xi in range(nx)], dtype=object)).ravel()
    x_text = [_escape(x) for x in problem.x_space] * n
    node_fields = chain.from_iterable(zip(ids, x_text, result.v_star.ravel().tolist()))
    nodes = ('  %s [label="x=%s\\nV*=%.4f"];\n' * len(ids)) % tuple(node_fields)
    ranks = ["  { rank=same; " + "; ".join(ids[k : k + nx]) + "; }\n" for k in range(0, len(ids), nx)]
    positive = problem.transitions > 0.0
    k, xi, ai, ni = np.argwhere(positive).T
    policy = result.policy[k, xi]
    chosen = ai == policy
    # 0 dashed, 1 chosen, 2 chosen and off the myopic estimate; a bool sum would be a logical or
    style = chosen.astype(np.intp) + (chosen & (policy != result.myopic[k, xi]))
    styles = np.array(['", style=dashed];\n', '", style=solid];\n', '", style=solid, color=blue];\n'], dtype=object)
    distinct, p = np.unique(problem.transitions[positive], return_inverse=True)
    p_text = np.array((("%.4f\n" * len(distinct)) % tuple(distinct.tolist())).split(), dtype=object)
    yhat_text = np.array([f' [label="yhat={_escape(yhat)} p=' for yhat in problem.yhat_space], dtype=object)
    source = k * nx + xi
    edges = (("  " + ids + " -> ")[source], ids[source + nx + (ni - xi)], yhat_text[ai], p_text[p], styles[style])
    lines = chain.from_iterable(zip(*(column.tolist() for column in edges)))
    head = "digraph trellis {\n  rankdir=LR;\n  node [shape=ellipse];\n"
    return "".join(chain([head], ranks, [nodes], lines, ["}\n"]))


def _text_label(label: str) -> str:
    # a label that starts with '"' is written as JSON too, so no bare label reads as another's JSON string
    return label if label.isprintable() and not label.startswith('"') else json.dumps(label)


def _render_text(result: SolveResult) -> str:
    """One line per node: a round's lines, the x labels spliced in with each ``%`` doubled, repeated once per round."""
    problem = result.problem
    # a label holding a line end or another unprintable character is written as its JSON string, so a node is one line
    x_labels = [_text_label(x).replace("%", "%%") for x in problem.x_space]
    yhat_labels = np.array([_text_label(yhat) for yhat in problem.yhat_space], dtype=object)
    tie = np.array(["no", "yes"], dtype=object)[(np.count_nonzero(result.tied, axis=-1) > 1).astype(np.intp)]
    rounds = np.broadcast_to(np.arange(1, problem.n + 1)[:, None], tie.shape)
    columns = (rounds, result.v_star, yhat_labels[result.policy], yhat_labels[result.myopic], tie)
    fields = chain.from_iterable(zip(*(column.ravel().tolist() for column in columns)))
    template = "".join([f"round %d: x={x} V*=%.4f chosen=%s myopic=%s tie=%s\n" for x in x_labels])
    return (template * problem.n) % tuple(fields)


def export_trellis(result: SolveResult, format: str = "dot") -> str:
    """Render the trellis of ``result.problem`` as a DOT digraph or a per-round text table."""
    if format == "dot":
        return _render_dot(result)
    if format == "text":
        return _render_text(result)
    raise InvalidParams(f"unknown trellis format {format!r}; expected 'dot' or 'text'")
