"""The dict-based writers of ``solve``, ``evaluate``, ``verify`` and ``export-trellis``, kept as the byte reference.

Each output is built whole: nested dicts of Python lists, rounded to 12
significant digits by a recursive copy, then one ``json.dumps(sort_keys=True,
indent=2)`` (one ``json.dumps(sort_keys=True)`` per ``verify`` line, from one
report per instance); the trellis is one record per edge with positive
probability, rendered with a label lookup per node id. The CLI writes the same
bytes round by round, or stack by stack, from the result arrays; the tests
compare the two.
"""

import itertools
import json

import numpy as np


def _round12(value):
    return float(format(value, ".12g"))


def _canonical(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {key: _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(value) for value in obj]
    return obj


def dump_json(obj):
    return json.dumps(_canonical(obj), sort_keys=True, indent=2) + "\n"


def verify_lines(reports, instances):
    """The ``verify`` output for one report per instance, with ``instances`` the values of the lines' ``instance``."""
    lines = []
    for report, instance in zip(reports, instances):
        witness = report.witness
        rows = []
        for i, table in enumerate(witness.tables, start=1):
            y_length = i - 1 if witness.mode.value == "revealed" else 0
            histories = itertools.product(
                itertools.product(witness.x_labels, repeat=i), itertools.product(witness.y_labels, repeat=y_length)
            )
            for (xs, ys), ai in zip(histories, table, strict=True):
                rows.append({"round": i, "x_history": list(xs), "y_history": list(ys), "yhat": witness.yhat_labels[ai]})
        payload = {
            "brute_min": report.brute_min,
            "dp_min": report.dp_min,
            "gap": report.gap,
            "instance": instance,
            "lemma1_pairs": report.lemma1_pairs,
            "mode": witness.mode.value,
            "n": witness.n,
            "strategies_searched": report.strategies_searched,
            "witness": rows,
        }
        lines.append(json.dumps(_canonical(payload), sort_keys=True) + "\n")
    verdict = "PASS" if all(abs(report.gap) <= report.gap_bound for report in reports) else "FAIL"
    gap_max = max(abs(report.gap) for report in reports)
    return "".join(lines) + f"{verdict} gap_max={gap_max:.3e}\n"


def _per_round(table, *labels):
    """One object per round of ``table``, keyed by ``labels[0]``, with any further axes nested below it."""

    def keyed(rows, depth):
        if depth == len(labels) - 1:
            return dict(zip(labels[depth], rows))
        return {label: keyed(row, depth + 1) for label, row in zip(labels[depth], rows)}

    return [keyed(rows, 0) for rows in table.tolist()]


def solve_text(problem, result, min_loss):
    """The ``solve`` output for ``result``, with ``min_loss`` as given: J under an ``--init`` override, if any."""
    x_labels = problem.x_space.labels
    yhat_labels = problem.yhat_space.labels
    payload = {
        "n": problem.n,
        "tie_break": result.rule.value,
        "min_loss": min_loss,
        "v_star": _per_round(result.v_star, x_labels),
        "q_star": _per_round(result.q_star, x_labels, yhat_labels),
        "policy": [{x: yhat_labels[ai] for x, ai in zip(x_labels, row)} for row in result.policy.tolist()],
        "ties": [
            {x: [yhat_labels[ai] for ai in result.tie_sets[k][xi]] for xi, x in enumerate(x_labels)}
            for k in range(problem.n)
        ],
    }
    return dump_json(payload)


def evaluate_text(problem, result):
    return dump_json({"j": result.j, "v": _per_round(result.v, problem.x_space.labels)})


def trellis_edges(problem, result):
    """``(round, x, yhat, next x, probability, chosen, deviation)`` per positive transition, one at a time."""
    policy, myopic = result.policy.tolist(), result.myopic.tolist()
    positive = problem.transitions > 0.0
    x_labels, yhat_labels = problem.x_space.labels, problem.yhat_space.labels
    edges = []
    for (k, xi, ai, ni), probability in zip(np.argwhere(positive).tolist(), problem.transitions[positive].tolist()):
        is_chosen = ai == policy[k][xi]
        deviation = is_chosen and policy[k][xi] != myopic[k][xi]
        edges.append((k + 1, x_labels[xi], yhat_labels[ai], x_labels[ni], probability, is_chosen, deviation))
    return edges


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_id(problem, i, x):
    return f"r{i}_x{problem.x_space.index(x)}"


def dot_text(problem, result):
    lines = ["digraph trellis {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for i in range(1, problem.n + 1):
        ids = " ".join(f'"{_node_id(problem, i, x)}";' for x in problem.x_space)
        lines.append(f"  {{ rank=same; {ids} }}")
    for i, row in enumerate(result.v_star.tolist(), start=1):
        for x, v_star in zip(problem.x_space.labels, row):
            label = _escape(f"x={x}") + "\\n" + _escape(f"V*={v_star:.4f}")
            lines.append(f'  "{_node_id(problem, i, x)}" [label="{label}"];')
    for i, x, yhat, next_x, probability, chosen, deviation in trellis_edges(problem, result):
        attrs = [
            f'label="{_escape(f"yhat={yhat} p={probability:.4f}")}"',
            f"style={'solid' if chosen else 'dashed'}",
        ]
        if deviation:
            attrs.append("color=blue")
        lines.append(f'  "{_node_id(problem, i, x)}" -> "{_node_id(problem, i + 1, next_x)}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _text_label(label):
    return label if label.isprintable() and not label.startswith('"') else json.dumps(label)


def trellis_text(result):
    x_labels, yhat_labels = result.problem.x_space.labels, result.problem.yhat_space.labels
    policy, myopic = result.policy.tolist(), result.myopic.tolist()
    lines = []
    for k, row in enumerate(result.v_star.tolist()):
        for xi, v_star in enumerate(row):
            chosen, myopic_label = yhat_labels[policy[k][xi]], yhat_labels[myopic[k][xi]]
            tie = len(result.tie_sets[k][xi]) > 1
            lines.append(
                f"round {k + 1}: x={_text_label(x_labels[xi])} V*={v_star:.4f} "
                f"chosen={_text_label(chosen)} myopic={_text_label(myopic_label)} tie={'yes' if tie else 'no'}"
            )
    return "\n".join(lines) + "\n"
