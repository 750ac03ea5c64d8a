"""Trellis construction and DOT/text rendering."""

import pytest

from dyninfer import (
    MismatchedResult,
    build_trellis,
    example_section33,
    example_stock,
    export_trellis,
    solve,
)


def test_document_shape(stock):
    doc = build_trellis(stock, solve(stock))
    assert doc.n == 6
    assert len(doc.nodes) == 12  # every (round, observation) pair
    # deterministic transitions: one successor per estimate, two estimates, 5 transition rounds
    assert len(doc.edges) == 2 * 2 * 5
    assert sum(edge.deviation for edge in doc.edges) == 3
    assert {(e.round, e.x) for e in doc.edges if e.deviation} == {(1, "0"), (2, "0"), (3, "0")}


def test_dot_labels_final_round_value(section33):
    dot = export_trellis(section33, solve(section33), "dot")
    assert '"r6_x0" [label="x=0\\nV*=0.1000"];' in dot
    assert dot.startswith("digraph trellis {")
    assert dot.count("rank=same") == 6


def test_dot_blue_edges(stock):
    dot = export_trellis(stock, solve(stock), "dot")
    blue = [line for line in dot.splitlines() if "color=blue" in line]
    assert len(blue) == 3
    for line in blue:
        assert "style=solid" in line
    assert all(f'"r{i}_x0"' in line for i, line in zip((1, 2, 3), blue))


def test_section33_blue_edges(section33):
    dot = export_trellis(section33, solve(section33), "dot")
    blue = [line for line in dot.splitlines() if "color=blue" in line]
    assert len(blue) == 3


def test_single_round_trellis():
    problem = example_stock(1)
    doc = build_trellis(problem, solve(problem))
    assert len(doc.nodes) == 2
    assert doc.edges == ()


def test_text_format(stock):
    text = export_trellis(stock, solve(stock), "text")
    lines = text.strip().splitlines()
    assert len(lines) == 12
    assert lines[0] == "round 1: x=0 V*=2.1000 chosen=1 myopic=0 tie=no"
    assert lines[6] == "round 4: x=0 V*=1.2000 chosen=0 myopic=0 tie=yes"


def test_unknown_format(stock):
    with pytest.raises(ValueError):
        export_trellis(stock, solve(stock), "svg")


def test_mismatched_result(section33, stock):
    with pytest.raises(MismatchedResult):
        export_trellis(stock, solve(section33), "dot")


def test_edges_cover_positive_probability_pairs():
    problem = example_section33(4)
    doc = build_trellis(problem, solve(problem))
    kernel = problem.transitions[0]
    for edge in doc.edges:
        xi = problem.x_space.index(edge.x)
        ai = problem.yhat_space.index(edge.yhat)
        ni = problem.x_space.index(edge.next_x)
        assert kernel[xi, ai, ni] == pytest.approx(edge.probability)
        assert edge.probability > 0
