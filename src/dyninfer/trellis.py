"""Unrolled round-by-round diagrams of a solved model (DOT and text).

The trellis has one node per (round, observation) annotated with the optimal
remaining loss, and one edge per (estimate, successor) pair with positive
probability. Chosen estimates are drawn solid, others dashed; a chosen edge
is colored blue where the dynamic optimum departs from the single-round
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Problem
from .solver import ReportRow, SolveResult, ensure_result_matches, solution_report


class TrellisEdge(NamedTuple):
    """A transition of positive probability: from ``x`` in ``round``, under estimate ``yhat``, to ``next_x``.

    A named tuple: its fields are read as attributes, and it compares and
    unpacks as the tuple of its fields in this order.
    """

    round: int
    x: str
    yhat: str
    next_x: str
    probability: float
    chosen: bool
    deviation: bool


@dataclass(frozen=True)
class TrellisDocument:
    """A solved trellis over ``n`` rounds.

    ``nodes`` are the :func:`solution_report` rows, one per (round,
    observation) in round-major order; ``edges`` hold every transition with
    positive probability, as :class:`TrellisEdge` named tuples, in (round, x,
    yhat, next x) order.
    """

    n: int
    nodes: tuple[ReportRow, ...]
    edges: tuple[TrellisEdge, ...]


def build_trellis(problem: Problem, result: SolveResult) -> TrellisDocument:
    ensure_result_matches(problem, result)
    # positive entries in (round, x, yhat, next x) order: the edge order of the document
    positive = problem.transitions > 0.0
    k, xi, ai, ni = np.argwhere(positive).T
    policy = result.policy[k, xi]
    chosen = ai == policy
    deviation = chosen & (policy != result.myopic[k, xi])
    x_labels, yhat_labels = problem.x_space.labels, problem.yhat_space.labels
    edges = map(
        TrellisEdge,
        (k + 1).tolist(),
        [x_labels[i] for i in xi.tolist()],
        [yhat_labels[i] for i in ai.tolist()],
        [x_labels[i] for i in ni.tolist()],
        problem.transitions[positive].tolist(),
        chosen.tolist(),
        deviation.tolist(),
    )
    return TrellisDocument(problem.n, solution_report(result), tuple(edges))


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _render_dot(problem: Problem, doc: TrellisDocument) -> str:
    # node "r<round>_x<index>"; escaping maps each character alone, so a label is escaped once and spliced in
    x_index = {x: xi for xi, x in enumerate(problem.x_space)}
    x_text = [_escape(x) for x in problem.x_space]
    yhat_text = {yhat: _escape(yhat) for yhat in problem.yhat_space}
    lines = ["digraph trellis {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for i in range(1, doc.n + 1):
        ids = " ".join(f'"r{i}_x{xi}";' for xi in range(len(x_text)))
        lines.append(f"  {{ rank=same; {ids} }}")
    for node in doc.nodes:
        xi = x_index[node.x]
        lines.append(f'  "r{node.round}_x{xi}" [label="x={x_text[xi]}\\nV*={node.v_star:.4f}"];')
    style = {(False, False): "style=dashed", (True, False): "style=solid", (True, True): "style=solid, color=blue"}
    for i, x, yhat, next_x, probability, chosen, deviation in doc.edges:
        lines.append(
            f'  "r{i}_x{x_index[x]}" -> "r{i + 1}_x{x_index[next_x]}" '
            f'[label="yhat={yhat_text[yhat]} p={probability:.4f}", {style[chosen, deviation]}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_text(doc: TrellisDocument) -> str:
    lines = []
    for node in doc.nodes:
        lines.append(
            f"round {node.round}: x={node.x} V*={node.v_star:.4f} "
            f"chosen={node.chosen} myopic={node.myopic} tie={'yes' if node.tie else 'no'}"
        )
    return "\n".join(lines) + "\n"


def export_trellis(problem: Problem, result: SolveResult, format: str = "dot") -> str:
    """Render the solved trellis as a DOT digraph or a per-round text table."""
    doc = build_trellis(problem, result)
    if format == "dot":
        return _render_dot(problem, doc)
    if format == "text":
        return _render_text(doc)
    raise ValueError(f"unknown trellis format {format!r}; expected 'dot' or 'text'")
