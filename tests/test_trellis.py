"""Trellis rendering to DOT and text."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from writer_reference import trellis_edges, trellis_text

from dyninfer import (
    Alphabet,
    InvalidParams,
    example_section33,
    example_stock,
    export_trellis,
    random_problem,
    solve,
)

NODE = re.compile(r'  "r(\d+)_x(\d+)" \[label="x=')
EDGE = re.compile(r'  "r(\d+)_x(\d+)" -> "r(\d+)_x(\d+)" \[label="yhat=(.*) p=([0-9.]+)", ([^\]]*)\];')


def _edges(dot):
    return [match.groups() for match in map(EDGE.fullmatch, dot.splitlines()) if match]


def test_document_shape(stock):
    result = solve(stock)
    dot = export_trellis(result, "dot")
    assert dot.count("rank=same") == 6
    nodes = [match.groups() for match in map(NODE.match, dot.splitlines()) if match]
    assert nodes == [(str(i), str(xi)) for i in range(1, 7) for xi in range(2)]  # every (round, observation) pair
    # deterministic transitions: one successor per estimate, two estimates, 5 transition rounds
    edges = _edges(dot)
    assert len(edges) == len(trellis_edges(stock, result)) == 2 * 2 * 5
    deviations = {(int(i), stock.x_space.labels[int(xi)]) for i, xi, *_, style in edges if "color=blue" in style}
    assert deviations == {(1, "0"), (2, "0"), (3, "0")}
    assert {edge[:2] for edge in trellis_edges(stock, result) if edge[6]} == deviations


def test_dot_labels_final_round_value(section33):
    dot = export_trellis(solve(section33), "dot")
    assert '"r6_x0" [label="x=0\\nV*=0.1000"];' in dot
    assert dot.startswith("digraph trellis {")
    assert dot.count("rank=same") == 6


def test_dot_blue_edges(stock):
    dot = export_trellis(solve(stock), "dot")
    blue = [line for line in dot.splitlines() if "color=blue" in line]
    assert len(blue) == 3
    for line in blue:
        assert "style=solid" in line
    assert all(f'"r{i}_x0"' in line for i, line in zip((1, 2, 3), blue))


def test_section33_blue_edges(section33):
    dot = export_trellis(solve(section33), "dot")
    blue = [line for line in dot.splitlines() if "color=blue" in line]
    assert len(blue) == 3


def test_single_round_trellis():
    problem = example_stock(1)
    result = solve(problem)
    dot = export_trellis(result, "dot")
    assert [match.groups() for match in map(NODE.match, dot.splitlines()) if match] == [("1", "0"), ("1", "1")]
    assert " -> " not in dot and trellis_edges(problem, result) == []


def test_text_format(stock):
    text = export_trellis(solve(stock), "text")
    lines = text.strip().splitlines()
    assert len(lines) == 12
    assert lines[0] == "round 1: x=0 V*=2.1000 chosen=1 myopic=0 tie=no"
    assert lines[6] == "round 4: x=0 V*=1.2000 chosen=0 myopic=0 tie=yes"


def test_text_writes_one_line_per_node(stock):
    # a label that is not printable is written as its JSON string, so no label breaks a node's line
    labels = Alphabet(("a\nb", "c d"))
    problem = dataclasses.replace(stock, x_space=labels, yhat_space=labels)
    lines = export_trellis(solve(problem), "text").splitlines()
    assert len(lines) == problem.n * 2
    assert lines[0] == 'round 1: x="a\\nb" V*=2.1000 chosen=c d myopic="a\\nb" tie=no'
    assert lines[1].startswith("round 1: x=c d V*=")


def test_text_labels_are_one_to_one():
    # a printable label spelled like a JSON string is written as JSON too, so it does not read as the unprintable one
    quoted, unprintable = '"a\\nb"', "a\nb"
    lines = []
    for label in (quoted, unprintable):
        problem = dataclasses.replace(example_stock(1), x_space=Alphabet((label, "c")))
        lines.append(export_trellis(solve(problem), "text").splitlines()[0])
    assert lines[0].startswith('round 1: x="\\"a\\\\nb\\"" V*=')
    assert lines[1].startswith('round 1: x="a\\nb" V*=')
    assert lines[0] != lines[1]


def test_text_labels_may_hold_percent_signs():
    # every line is filled from one % template: the observation labels are spliced into it, the estimates filled in
    labels = Alphabet(("100%", "%s", "%(x)d", "%%"))
    problem = dataclasses.replace(random_problem(np.random.default_rng(2), 3, 4, 2, 4), x_space=labels, yhat_space=labels)
    result = solve(problem)
    text = export_trellis(result, "text")
    assert text == trellis_text(result)
    assert [line.split(" V*=")[0] for line in text.splitlines()[:4]] == [f"round 1: x={x}" for x in labels]
    assert {line.split(" chosen=")[1].split(" myopic=")[0] for line in text.splitlines()} <= set(labels.labels)


def test_unknown_format(stock):
    with pytest.raises(InvalidParams, match="unknown trellis format 'svg'"):
        export_trellis(solve(stock), "svg")


def test_edges_cover_positive_probability_pairs():
    problem = example_section33(4)
    result = solve(problem)
    edges = trellis_edges(problem, result)
    assert len(edges) == (problem.transitions > 0).sum()
    kernel = problem.transitions[0]
    x_index, yhat_index = problem.x_space.index, problem.yhat_space.index
    for i, x, yhat, next_x, probability, *_ in edges:
        assert kernel[x_index(x), yhat_index(yhat), x_index(next_x)] == probability > 0
    # the DOT edges are the same transitions, in the same order, with their probabilities to 4 decimals
    styles = {(False, False): "style=dashed", (True, False): "style=solid", (True, True): "style=solid, color=blue"}
    assert _edges(export_trellis(result, "dot")) == [
        (str(i), str(x_index(x)), str(i + 1), str(x_index(next_x)), yhat, f"{p:.4f}", styles[chosen, deviation])
        for i, x, yhat, next_x, p, chosen, deviation in edges
    ]


@pytest.mark.parametrize("format", ["dot", "text"])
def test_export_allocates_a_few_times_its_output(format):
    # rendering from the solve arrays holds the lines and the text; a record per node and per edge
    # built before the first line would take 7 (DOT) to 17 (text) times the output here
    problem = example_stock(3000)
    result = solve(problem)
    tracemalloc.start()
    try:
        text = export_trellis(result, format)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text)
