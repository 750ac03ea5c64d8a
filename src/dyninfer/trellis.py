"""Unrolled round-by-round diagrams of a solved model (DOT and text).

The trellis has one node per (round, observation) annotated with the optimal
remaining loss, and one edge per (estimate, successor) pair with positive
probability. Chosen estimates are drawn solid, others dashed; a chosen edge
is colored blue where the dynamic optimum departs from the single-round
optimum. Both renderers read the solve result alone, its arrays and the
problem it was solved for: nodes in (round, observation index) order, edges
in (round, x, yhat, next x) index order.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidParams
from .solver import SolveResult


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _render_dot(result: SolveResult) -> str:
    problem = result.problem
    # node "r<round>_x<index>"; escaping maps each character alone, so a label is escaped once and spliced in
    x_text = [_escape(x) for x in problem.x_space]
    yhat_text = [_escape(yhat) for yhat in problem.yhat_space]
    lines = ["digraph trellis {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for i in range(1, problem.n + 1):
        ids = " ".join(f'"r{i}_x{xi}";' for xi in range(len(x_text)))
        lines.append(f"  {{ rank=same; {ids} }}")
    for i, row in enumerate(result.v_star.tolist(), start=1):
        lines.extend(f'  "r{i}_x{xi}" [label="x={x_text[xi]}\\nV*={v:.4f}"];' for xi, v in enumerate(row))
    positive = problem.transitions > 0.0
    k, xi, ai, ni = np.argwhere(positive).T
    policy = result.policy[k, xi]
    chosen = ai == policy
    # 0 dashed, 1 chosen, 2 chosen and off the myopic estimate; a bool sum would be a logical or
    style = chosen.astype(np.intp) + (chosen & (policy != result.myopic[k, xi]))
    styles = ("style=dashed", "style=solid", "style=solid, color=blue")
    probabilities = problem.transitions[positive]
    edges = zip((k + 1).tolist(), xi.tolist(), ai.tolist(), ni.tolist(), probabilities.tolist(), style.tolist())
    for i, x, yhat, next_x, probability, s in edges:
        lines.append(
            f'  "r{i}_x{x}" -> "r{i + 1}_x{next_x}" [label="yhat={yhat_text[yhat]} p={probability:.4f}", {styles[s]}];'
        )
    lines.append("}\n")  # the last line ends the text, so the joined text is not copied to append it
    return "\n".join(lines)


def _text_label(label: str) -> str:
    # a label that starts with '"' is written as JSON too, so no bare label reads as another's JSON string
    return label if label.isprintable() and not label.startswith('"') else json.dumps(label)


def _render_text(result: SolveResult) -> str:
    # a label holding a line end or another unprintable character is written as its JSON string, so a node is one line
    x_labels = [_text_label(x) for x in result.problem.x_space]
    yhat_labels = [_text_label(yhat) for yhat in result.problem.yhat_space]
    tie = np.count_nonzero(result.tied, axis=-1) > 1
    rounds = zip(result.v_star.tolist(), result.policy.tolist(), result.myopic.tolist(), tie.tolist())
    lines = []
    for i, (v_row, policy_row, myopic_row, tie_row) in enumerate(rounds, start=1):
        for xi, x in enumerate(x_labels):
            lines.append(
                f"round {i}: x={x} V*={v_row[xi]:.4f} chosen={yhat_labels[policy_row[xi]]} "
                f"myopic={yhat_labels[myopic_row[xi]]} tie={'yes' if tie_row[xi] else 'no'}\n"
            )
    return "".join(lines)


def export_trellis(result: SolveResult, format: str = "dot") -> str:
    """Render the trellis of ``result.problem`` as a DOT digraph or a per-round text table."""
    if format == "dot":
        return _render_dot(result)
    if format == "text":
        return _render_text(result)
    raise InvalidParams(f"unknown trellis format {format!r}; expected 'dot' or 'text'")
