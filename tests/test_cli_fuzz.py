"""Fuzzed CLI inputs: mutated model, strategy and ``--init`` documents through every reading command.

Each example mutates one of three valid inputs (replace, delete, duplicate or
rename a node of the JSON tree, or cut or splice the text) and runs ``solve``,
``solve --init``, ``evaluate``, ``simulate``, ``verify -m``,
``export-trellis`` and ``export bar-loss`` on them in process. Whatever the
input, the exit code is 0, 1 or 2; exit 1 writes one JSON error line to
stderr; a failing run leaves an existing ``-o`` file as it was; and JSON
written on exit 0 holds no ``NaN`` or ``Infinity``. Horizons stay small: a mutation never
writes an ``n`` between 4 and 2^63, so no input asks for a large allocation.
"""

import contextlib
import copy
import io
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cli import _strict_json

from dyninfer import (
    YieldParams,
    example_section33,
    example_stock,
    example_yield,
    problem_to_dict,
    random_problem,
    solve,
)
from dyninfer.cli import run

ATOMS = (
    None, True, False, 0, 1, -1, 2, 3, 0.5, -0.0, 1e-300, 1e308, float("nan"), float("inf"), 2**63, 10**400,
    "", "0", "1", "0|1", "a\nb", "\ud800", [], {}, [[]], {"0": 1}, {"0": {"0": 1.0}},
)
KEYS = tuple(atom for atom in ATOMS if isinstance(atom, str))
SPLICES = ("", "{", "}", "]", ",", '"', "0", "-", "e9", "\\", "\x00", "NaN", "null")
EARLIER = b"an earlier output\n"


def _bases():
    """(model document, strategy document, x labels) of a few small valid models, stationary and not."""
    yield_params = YieldParams(d_c=2.0, grid=(0.0, 2.0, 4.0))
    problems = (example_section33(3), example_stock(2), example_yield(2, yield_params))
    docs = [(problem_to_dict(problem), problem) for problem in problems]
    random = random_problem(np.random.default_rng(5), 2, 3, 2, 2)
    docs.append((problem_to_dict(random, False), random))
    bases = []
    for model, problem in docs:
        x_labels, yhat_labels = problem.x_space.labels, problem.yhat_space.labels
        policy = [{x: yhat_labels[ai] for x, ai in zip(x_labels, row)} for row in solve(problem).policy.tolist()]
        bases.append((model, {"policy": policy}, x_labels))
    return bases


BASES = _bases()


def _mutate_node(draw, node):
    """``node`` with one mutation at a node drawn by walking down from the root."""
    keys = list(node) if isinstance(node, dict) else list(range(len(node))) if isinstance(node, list) else []
    if keys and draw(st.integers(0, 3)) > 0:  # mostly a node below the root, where the checks are finer
        key = draw(st.sampled_from(keys))
        node[key] = _mutate_node(draw, node[key])
        return node
    action = draw(st.sampled_from(("replace", "delete", "duplicate", "rename")))
    if action == "replace" or not keys:
        return copy.deepcopy(draw(st.sampled_from(ATOMS)))  # a later mutation may edit it in place
    key = draw(st.sampled_from(keys))
    if action == "delete":
        del node[key]
    elif isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    elif action == "duplicate":
        node[draw(st.sampled_from(KEYS))] = copy.deepcopy(node[key])
    else:
        node[draw(st.sampled_from(KEYS))] = node.pop(key)
    return node


@st.composite
def mutated(draw, doc):
    """JSON text of ``doc`` after 1 to 3 tree mutations and, sometimes, one text splice."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate_node(draw, doc)
    text = json.dumps(doc)
    if draw(st.integers(0, 4)) == 0:
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(st.sampled_from(SPLICES)) + text[end:]
    return text


@st.composite
def cli_inputs(draw):
    """Model text, strategy text and ``--init`` value, one of them mutated and the others valid."""
    model, policy, x_labels = draw(st.sampled_from(BASES))
    target = draw(st.sampled_from(("model", "strategy", "init")))
    model_text = draw(mutated(model)) if target == "model" else json.dumps(model)
    strategy_text = draw(mutated(policy)) if target == "strategy" else json.dumps(policy)
    init = x_labels[0]
    if target == "init":
        init_doc = {x: 1.0 / len(x_labels) for x in x_labels}
        init = draw(st.one_of(st.sampled_from(("", "-1", "zz", "{", "[]")), mutated(init_doc)))
    return model_text, strategy_text, init


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(cli_inputs())
def test_mutated_inputs_keep_the_exit_and_output_contract(tmp_path_factory, inputs):
    model_text, strategy_text, init = inputs
    tmp = tmp_path_factory.mktemp("fuzz")
    model, strategy, out = tmp / "model.json", tmp / "strategy.json", tmp / "out"
    model.write_text(model_text, encoding="utf-8")
    strategy.write_text(strategy_text, encoding="utf-8")
    commands = (
        (["solve"], True),
        (["solve", f"--init={init}"], True),
        (["evaluate", "-s", str(strategy)], True),
        (["simulate", "-s", str(strategy), "--rollouts", "50", "--seed", "1"], True),
        (["verify", "--limit", "10000"], False),
        (["export-trellis", "-f", "text"], False),
        (["export-trellis", "-f", "dot"], False),
        (["export", "bar-loss"], False),
    )
    for command, writes_json in commands:
        argv = [*command, "-m", str(model), "-o", str(out)]
        out.write_bytes(EARLIER)
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = run(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
            assert set(json.loads(err)) == {"error", "message"}, (argv, err)
        if code != 0:
            assert out.read_bytes() == EARLIER, argv
        elif writes_json:
            _strict_json(out.read_text())
        elif command[0] == "verify":
            for line in out.read_text().splitlines()[:-1]:
                _strict_json(line)
