"""Unrolled round-by-round diagrams of a solved model (DOT and text).

The trellis has one node per (round, observation) annotated with the optimal
remaining loss, and one edge per (estimate, successor) pair with positive
probability. Chosen estimates are drawn solid, others dashed; a chosen edge
is colored blue where the dynamic optimum departs from the single-round
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Problem
from .solver import ReportRow, SolveResult, ensure_result_matches, solution_report


@dataclass(frozen=True)
class TrellisEdge:
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
    positive probability, in (round, x, yhat, next x) order.
    """

    n: int
    nodes: tuple[ReportRow, ...]
    edges: tuple[TrellisEdge, ...]


def build_trellis(problem: Problem, result: SolveResult) -> TrellisDocument:
    ensure_result_matches(problem, result)
    nodes = solution_report(result)
    # positive entries in (round, x, yhat, next x) order: the edge order of the document
    positive = problem.transitions > 0.0
    edges = []
    x_labels, yhat_labels = problem.x_space.labels, problem.yhat_space.labels
    for (k, xi, ai, ni), probability in zip(
        np.argwhere(positive).tolist(), problem.transitions[positive].tolist()
    ):
        node = nodes[k * len(x_labels) + xi]
        is_chosen = yhat_labels[ai] == node.chosen
        edges.append(
            TrellisEdge(
                round=k + 1,
                x=node.x,
                yhat=yhat_labels[ai],
                next_x=x_labels[ni],
                probability=probability,
                chosen=is_chosen,
                deviation=is_chosen and node.differs_from_myopic,
            )
        )
    return TrellisDocument(problem.n, nodes, tuple(edges))


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_id(problem: Problem, i: int, x: str) -> str:
    return f"r{i}_x{problem.x_space.index(x)}"


def _render_dot(problem: Problem, doc: TrellisDocument) -> str:
    lines = ["digraph trellis {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for i in range(1, doc.n + 1):
        ids = " ".join(f'"{_node_id(problem, i, x)}";' for x in problem.x_space)
        lines.append(f"  {{ rank=same; {ids} }}")
    for node in doc.nodes:
        label = _escape(f"x={node.x}") + "\\n" + _escape(f"V*={node.v_star:.4f}")
        lines.append(f'  "{_node_id(problem, node.round, node.x)}" [label="{label}"];')
    for edge in doc.edges:
        attrs = [
            f'label="{_escape(f"yhat={edge.yhat} p={edge.probability:.4f}")}"',
            f"style={'solid' if edge.chosen else 'dashed'}",
        ]
        if edge.deviation:
            attrs.append("color=blue")
        lines.append(
            f'  "{_node_id(problem, edge.round, edge.x)}" -> '
            f'"{_node_id(problem, edge.round + 1, edge.next_x)}" [{", ".join(attrs)}];'
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
