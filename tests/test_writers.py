"""The array-fed writers of ``solve``, ``evaluate``, ``simulate``, ``verify`` and ``export-trellis`` against the dict-based reference.

Every output must be the bytes of ``writer_reference``: labels that JSON or
DOT must escape, labels whose sorted order is not their index order, one
label per alphabet, one round, tied estimates, both tie-break rules, an
``--init`` override, and sweeps that leave horizons undrawn.
"""

import dataclasses
import io
import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import writer_reference as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyninfer import (
    Alphabet,
    HistoryMode,
    MarkovStrategy,
    TieBreakRule,
    brute_force_optimum,
    evaluate_markov,
    minimum_inference_loss,
    problem_from_tables,
    problem_to_dict,
    random_problem,
    simulate,
    solve,
    validate_problem,
)
from dyninfer import cli
from dyninfer.cli import _numbers, _with_init, run

# '|' joins the composite transition keys of a model document, so a label holding it may not resolve;
# a lone surrogate (category Cs) is not a valid label, which test_model and test_cli check on their own
LABELS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="|"), max_size=3),
    st.text("0123456789", min_size=1, max_size=3),
    st.text('"\\\x00\x01\x1f\n\t\x7fé€ \U0001f600{}% ', max_size=3),
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
        (2, ("100%", "%s", "%(x)d"), ("%",), ("100%", "%s", "%(x)d")),  # every round is written through a % template
    ],
)
def test_edge_shapes_match_the_dict_reference(tmp_path, shape):
    problem = _fixed_problem(*shape)
    assert any(len(tie) > 1 for rows in solve(problem).tie_sets for tie in rows) == (len(shape[3]) > 1)
    _check_against_reference(tmp_path, problem)


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "shape",
    [
        (7, ("only",), ("u", "v"), ("10", "2")),  # rounds of 1 and 2 values
        (7, ("100%", "b", "%s"), ("y",), ("a", "%(x)d")),  # rounds of 3 and 6 values
    ],
)
def test_tables_split_into_any_block_match_the_dict_reference(tmp_path, block, shape):
    # a block of several rounds, a last block of fewer, and a round whose values take more than one block
    with mock.patch.object(cli, "BLOCK", block):
        _check_against_reference(tmp_path, _fixed_problem(*shape))


@pytest.mark.parametrize("rollouts", [1, 1000])
def test_simulate_matches_the_reference(tmp_path, rollouts):
    # losses scaled by 1e-13 write mean and var with exponents; one rollout has a var of 0.0
    problem = random_problem(np.random.default_rng(6), 5, 3, 2, 3)
    problem = dataclasses.replace(problem, loss=problem.loss * 1e-13)
    model, solved, out = tmp_path / "model.json", tmp_path / "solved.json", tmp_path / "simulated.json"
    model.write_text(json.dumps(problem_to_dict(problem)))
    assert run(["solve", "-m", str(model), "-o", str(solved)]) == 0
    argv = ["simulate", "-m", str(model), "-s", str(solved), "--rollouts", str(rollouts), "--seed", "5"]
    assert run([*argv, "-o", str(out)]) == 0
    loaded = validate_problem(json.loads(model.read_text()))
    strategy = MarkovStrategy.from_rows(loaded, json.loads(solved.read_text())["policy"])
    result = simulate(loaded, strategy, rollouts, 5)
    payload = {"mean": result.mean, "rollouts": result.rollouts, "seed": result.seed, "var": result.variance}
    assert out.read_bytes() == reference.dump_json(payload).encode()
    text = out.read_text()
    assert text.count("e-") == (1 if rollouts == 1 else 2) and ('"var": 0.0\n' in text) == (rollouts == 1)


@pytest.mark.parametrize("mode", [mode.value for mode in HistoryMode])
@pytest.mark.parametrize("seed", [0, 1, 5, 2**64 - 1])
@pytest.mark.parametrize("instances", [1, 2, 7, 40])
def test_verify_sweep_matches_the_reference(tmp_path, mode, seed, instances):
    # one or two instances leave some of the horizons 1..3 undrawn; replaying the draws gives each instance's problem
    out = tmp_path / "verify.txt"
    argv = ["verify", "--instances", str(instances), "--seed", str(seed), "--mode", mode, "--limit", str(2**50)]
    assert run([*argv, "-o", str(out)]) == 0
    rng = np.random.default_rng(seed)
    problems = [random_problem(rng, int(rng.integers(1, 4))) for _ in range(instances)]
    reports = [brute_force_optimum(problem, HistoryMode(mode), 2**50) for problem in problems]
    assert out.read_bytes() == reference.verify_lines(reports, range(instances)).encode()


@pytest.mark.parametrize("mode", [mode.value for mode in HistoryMode])
def test_verify_model_matches_the_reference(tmp_path, mode):
    # |Yhat| = 3 codes each chunk of decisions in base 3, and with |X| = 3 no round's history count is a multiple of 8
    problem = random_problem(np.random.default_rng(4), 3, 3, 2, 3)
    model, out = tmp_path / "model.json", tmp_path / "verify.txt"
    model.write_text(json.dumps(problem_to_dict(problem)))
    assert run(["verify", "-m", str(model), "--mode", mode, "--limit", str(2**256), "-o", str(out)]) == 0
    loaded = validate_problem(json.loads(model.read_text()))
    report = brute_force_optimum(loaded, HistoryMode(mode), 2**256)
    assert len({ai for table in report.witness.tables for ai in table}) == 3  # every digit occurs
    assert out.read_bytes() == reference.verify_lines([report], ["model"]).encode()


class _Writes(io.StringIO):
    """A text stream that records the text of every ``write``."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def write(self, text):
        self.texts.append(text)
        return super().write(text)


def _largest_writes(monkeypatch, tmp_path, n):
    """The largest single write of ``solve`` and of ``evaluate`` (on the solved policy) on ``example stock``.

    Then the most table values any one write holds: each ``": "`` but those that open an object of numbers.
    """
    model, solved = tmp_path / f"stock{n}.json", tmp_path / f"solved{n}.json"
    assert run(["example", "stock", "--n", str(n), "-o", str(model)]) == 0
    largest, values = [], 0
    for argv, out in ((["solve", "-m", str(model)], solved), (["evaluate", "-m", str(model), "-s", str(solved)], None)):
        stream = _Writes()
        monkeypatch.setattr(sys, "stdout", stream)
        assert run(argv) == 0
        monkeypatch.undo()
        assert len(stream.getvalue()) > 40 * n  # the output grows with n ...
        largest.append(max(map(len, stream.texts)))
        values = max(values, *(text.count(": ") - text.count(": {") for text in stream.texts))
        if out is not None:
            out.write_text(stream.getvalue())
    return (*largest, values)


def test_solve_and_evaluate_write_one_block_at_a_time(monkeypatch, tmp_path):
    # ... the largest write does not: it is one block of rounds, at most BLOCK values, and from n = 2000
    # (a v table of 2000 rounds in one block) to n = 20000 (blocks of 2048 rounds) it grows by a few rounds
    # and one more integer digit per number (values grow about linearly in n)
    (solve_2000, evaluate_2000, values_2000), (solve_20000, evaluate_20000, values_20000) = (
        _largest_writes(monkeypatch, tmp_path, n) for n in (2000, 20000)
    )
    assert values_2000 == values_20000 == cli.BLOCK
    assert solve_2000 <= solve_20000 < 1.2 * solve_2000
    assert evaluate_2000 <= evaluate_20000 < 1.2 * evaluate_2000


def _writer_peak(monkeypatch, tmp_path, n):
    """The tracemalloc peak of draining the chunks of ``solve`` on ``example stock``, its result already made."""
    model = tmp_path / f"stock{n}.json"
    assert run(["example", "stock", "--n", str(n), "-o", str(model)]) == 0
    peaks = []

    def drain(path, chunks):
        tracemalloc.start()
        try:
            for _ in chunks:
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_write", drain)
        assert run(["solve", "-m", str(model)]) == 0
    return peaks[0]


def test_the_solve_writer_holds_one_block_of_texts(monkeypatch, tmp_path):
    # the texts of at most BLOCK values, about 0.8 MB; those of a whole table at n = 20000 take over 6 MB
    for n in (2000, 20000):
        assert _writer_peak(monkeypatch, tmp_path, n) < 2**20


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
    assert _numbers([value]) == [_json_number(value)]


BOUNDARIES = [
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
]


# texts with an exponent, which repr writes the same below 1e-4 and from 1e16 on, positionally from 1e12 to 1e16,
# and with fewer digits for some subnormals
EXPONENTS = [
    1e-5,
    -8.61708560966e-05,
    1e-300,
    2.2250738585072014e-308,  # the smallest normal, whose exponent -308 subnormals share
    1e-310,
    5e-324,
    1e13,
    -123456789012345.0,
    9.99999999999e15,
    1e16,
    -1e17,
    1e300,
]
EXPONENT_FLOATS = (
    st.sampled_from(EXPONENTS)
    | st.floats(min_value=1e12, max_value=1e16)
    | st.floats(min_value=-1e16, max_value=-1e12)
    | st.floats(min_value=1e16, allow_infinity=False)
    | st.floats(min_value=-2.3e-308, max_value=2.3e-308)
    | st.floats(min_value=-1e-5, max_value=1e-5)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(BOUNDARIES), max_size=40)
    | st.lists(EXPONENT_FLOATS | st.sampled_from([0.5, 3.0]), max_size=40)  # blocks heavy in exponents
)
def test_numbers_are_the_number_texts(values):
    expected = [_json_number(v) for v in values]
    assert _numbers(values) == expected
    # blocks of 1 to 8 put whole numbers and exponents at a block's edges as well as inside it
    for block in range(1, 9):
        with mock.patch.object(cli, "BLOCK", block):
            assert _numbers(values) == expected


@pytest.mark.parametrize("value", BOUNDARIES)
def test_number_boundaries(value):
    assert _numbers([value]) == [_json_number(value)]


def test_number_boundaries_in_one_block():
    assert _numbers(BOUNDARIES) == [_json_number(v) for v in BOUNDARIES]
