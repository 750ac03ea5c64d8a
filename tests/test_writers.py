"""The round-by-round writers of ``solve``, ``evaluate`` and ``export-trellis`` against the dict-based reference.

Every output must be the bytes of ``writer_reference``: labels that JSON or
DOT must escape, labels whose sorted order is not their index order, one
label per alphabet, one round, tied estimates, both tie-break rules and an
``--init`` override.
"""

import io
import json
import sys

import numpy as np
import pytest
import writer_reference as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyninfer import (
    Alphabet,
    MarkovStrategy,
    TieBreakRule,
    evaluate_markov,
    minimum_inference_loss,
    problem_from_tables,
    problem_to_dict,
    solve,
    validate_problem,
)
from dyninfer.cli import _number, _with_init, run

# '|' joins the composite transition keys of a model document, so a label holding it may not resolve;
# a lone surrogate (category Cs) is not a valid label, which test_model and test_cli check on their own
LABELS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="|"), max_size=3),
    st.text("0123456789", min_size=1, max_size=3),
    st.text('"\\\x00\x01\x1f\n\t\x7fé€ \U0001f600{} ', max_size=3),
)
# few distinct values make exact ties; the others take exponents or 12-digit rounding in JSON
LOSS_VALUES = (0.0, 0.5, 1.0, 3.0, -2.5, 1 / 3, 2 / 7, 1e-5, 1234567890123.25, 0.1 + 0.2)


def _rows(draw, shape):
    weights = draw(hnp.arrays(np.float64, shape, elements=st.integers(0, 3).map(float)))
    weights[..., 0] += weights.sum(axis=-1) == 0.0  # no all-zero row
    return weights / weights.sum(axis=-1, keepdims=True)


@st.composite
def labelled_problems(draw):
    """Problems of 1 to 3 rounds and 1 to 3 labels per alphabet, drawn from ``LABELS``, stationary or not."""
    n = draw(st.integers(1, 3))
    spaces = [Alphabet(tuple(draw(st.lists(LABELS, min_size=1, max_size=3, unique=True)))) for _ in range(3)]
    nx, ny, na = map(len, spaces)
    rounds = 1 if draw(st.booleans()) else None  # one table for every round
    transitions = _rows(draw, (rounds or n - 1, nx, na, nx)) if n > 1 else np.empty((0, nx, na, nx))
    quantities = _rows(draw, (rounds or n, nx, ny))
    loss = draw(hnp.arrays(np.float64, (nx, ny, na), elements=st.sampled_from(LOSS_VALUES)))
    return problem_from_tables(n, *spaces, _rows(draw, (nx,)), transitions, quantities, loss)


def _init_texts(problem):
    """``--init`` values: a bare label (when it does not read as an object) and an object over two labels."""
    labels = problem.x_space.labels
    texts = [json.dumps({labels[-1]: 0.25, labels[0]: 0.75} if len(labels) > 1 else {labels[0]: 1})]
    if not labels[0].lstrip().startswith("{"):
        texts.append(labels[0])
    return texts


def _check_against_reference(directory, problem):
    model, out, strategy = directory / "model.json", directory / "out", directory / "strategy.json"
    model.write_text(json.dumps(problem_to_dict(problem, False)), encoding="utf-8")
    # the commands read the document; so does the reference
    loaded = validate_problem(json.loads(model.read_text(encoding="utf-8")))

    def output(*argv):
        assert run([*argv, "-m", str(model), "-o", str(out)]) == 0
        return out.read_bytes()

    for rule in TieBreakRule:
        result = solve(loaded, rule)
        for init in (None, *_init_texts(loaded)):
            # an --init override changes min_loss alone: the tables are those of the model's own solve
            min_loss = minimum_inference_loss(result if init is None else solve(_with_init(loaded, init), rule))
            expected = reference.solve_text(loaded, result, min_loss)
            init_args = [] if init is None else [f"--init={init}"]
            assert output("solve", "--tie-break", rule.value, *init_args) == expected.encode()
        strategy.write_text(json.dumps({"policy": json.loads(out.read_text())["policy"]}), encoding="utf-8")
        policy = MarkovStrategy.from_rows(loaded, json.loads(strategy.read_text())["policy"])
        evaluated = evaluate_markov(loaded, policy)
        assert output("evaluate", "-s", str(strategy)) == reference.evaluate_text(loaded, evaluated).encode()
        dot = output("export-trellis", "--tie-break", rule.value, "-f", "dot")
        assert dot == reference.dot_text(loaded, result).encode("utf-8")
        text = output("export-trellis", "--tie-break", rule.value, "-f", "text")
        assert text == reference.trellis_text(result).encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(labelled_problems())
def test_writers_match_the_dict_reference(tmp_path_factory, problem):
    _check_against_reference(tmp_path_factory.mktemp("writers"), problem)


def _fixed_problem(n, x_labels, y_labels, yhat_labels):
    """Uniform kernels and a loss of 0/1 by (x + y + yhat) parity, so that estimates tie."""
    nx, ny, na = len(x_labels), len(y_labels), len(yhat_labels)
    loss = np.indices((nx, ny, na)).sum(axis=0) % 2 * 1.0
    return problem_from_tables(
        n,
        Alphabet(x_labels),
        Alphabet(y_labels),
        Alphabet(yhat_labels),
        np.full(nx, 1 / nx),
        np.full((1, nx, na, nx), 1 / nx),
        np.full((1, nx, ny), 1 / ny),
        loss,
    )


@pytest.mark.parametrize(
    "shape",
    [
        (1, ("x",), ("y",), ("a",)),  # one round, one label per alphabet
        (4, ("only",), ("u", "v"), ("10", "2")),
        (3, ("10", "2", "1"), ("y",), ("only",)),
        (3, ('q"', "\\", "é"), ("\x01", "\n"), ("\U0001f600", "\t", "")),
    ],
)
def test_edge_shapes_match_the_dict_reference(tmp_path, shape):
    problem = _fixed_problem(*shape)
    assert any(len(tie) > 1 for rows in solve(problem).tie_sets for tie in rows) == (len(shape[3]) > 1)
    _check_against_reference(tmp_path, problem)


class _Writes(io.StringIO):
    """A text stream that records the length of every ``write``."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def _largest_writes(monkeypatch, tmp_path, n):
    """The largest single write of ``solve`` and of ``evaluate`` (on the solved policy) on ``example stock``."""
    model, solved = tmp_path / f"stock{n}.json", tmp_path / f"solved{n}.json"
    assert run(["example", "stock", "--n", str(n), "-o", str(model)]) == 0
    largest = []
    for argv, out in ((["solve", "-m", str(model)], solved), (["evaluate", "-m", str(model), "-s", str(solved)], None)):
        stream = _Writes()
        monkeypatch.setattr(sys, "stdout", stream)
        assert run(argv) == 0
        monkeypatch.undo()
        assert len(stream.getvalue()) > 40 * n  # the output grows with n ...
        largest.append(max(stream.sizes))
        if out is not None:
            out.write_text(stream.getvalue())
    return largest


def test_solve_and_evaluate_write_one_round_at_a_time(monkeypatch, tmp_path):
    # ... the largest write does not: it is one round, whose numbers at n = 2000 have at most
    # one more integer digit (values grow about linearly in n: min_loss 30.3 -> 600.3)
    (solve_100, evaluate_100), (solve_2000, evaluate_2000) = (
        _largest_writes(monkeypatch, tmp_path, n) for n in (100, 2000)
    )
    assert solve_100 < 200 and evaluate_100 < 100
    assert 0 <= solve_2000 - solve_100 <= 2 * 2  # |X| * |Yhat| numbers in a q_star round
    assert 0 <= evaluate_2000 - evaluate_100 <= 2  # |X| numbers in a v round


def test_a_failing_solve_leaves_its_output_file_unchanged(tmp_path, capsys):
    model, out = tmp_path / "stock.json", tmp_path / "solved.json"
    assert run(["example", "stock", "-o", str(model)]) == 0
    out.write_bytes(b"an earlier output\n")
    capsys.readouterr()
    assert run(["solve", "-m", str(model), "--init", "no-such-label", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == "UnknownLabel"
    assert out.read_bytes() == b"an earlier output\n"


def _json_number(value):
    """The text ``json.dumps`` writes for ``value`` rounded to 12 significant digits."""
    return repr(float(format(value, ".12g")))


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_number_is_the_json_text_of_the_12_digit_rounding(value):
    assert _number(value) == _json_number(value)


@pytest.mark.parametrize(
    "value",
    [
        0.0,
        -0.0,
        5e-324,  # the smallest subnormal
        1e-5,  # below 1e-4 both write an exponent
        1e-4,  # the smallest power of ten both write positionally
        -1e-4,
        999999999999.4,  # rounds to 12 nines, still positional
        999999999999.5,  # rounds up to 1e+12, which repr writes positionally
        1e12,
        123456789012345.0,  # past 12 digits .12g writes an exponent and repr does not
        1e16,  # repr's first exponent
        sys.float_info.max,
        -sys.float_info.max,
    ],
)
def test_number_boundaries(value):
    assert _number(value) == _json_number(value)
