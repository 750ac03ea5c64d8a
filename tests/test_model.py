"""Validation, construction and document round-trips for problem instances."""

import re
import tracemalloc

import numpy as np
import pytest

from dyninfer import (
    Alphabet,
    DimensionMismatch,
    HorizonMismatch,
    InvalidModelError,
    InvalidParams,
    NotStochastic,
    Problem,
    UnknownLabel,
    example_section33,
    example_stock,
    example_yield,
    problem_from_tables,
    problem_to_dict,
    random_problem,
    validate_problem,
)

BINARY = Alphabet(("0", "1"))
NO_TRANSITIONS = np.empty((0, 2, 2, 2))
START_AT_0 = np.array([1.0, 0.0])


def zero_one_loss():
    table = np.zeros((2, 2, 2))
    table[:, 0, 1] = 1.0
    table[:, 1, 0] = 1.0
    return table


def binary_problem(n, transitions, quantities, loss=None, init=START_AT_0):
    """A Problem built directly from arrays, by default starting at x = "0"."""
    return Problem(n, BINARY, BINARY, BINARY, init, transitions, quantities, zero_one_loss() if loss is None else loss)


def binary_tables(n, transitions, quantities, loss=None, init=START_AT_0):
    """A Problem built from raw tables, by default starting at x = "0"."""
    loss = zero_one_loss() if loss is None else loss
    return problem_from_tables(n, BINARY, BINARY, BINARY, init, transitions, quantities, loss)


def section33_dict(n=6):
    return {
        "n": n,
        "stationary": True,
        "x_space": ["0", "1"],
        "y_space": ["0", "1"],
        "yhat_space": ["0", "1"],
        "init": {"0": 1.0, "1": 0.0},
        "transitions": [
            {
                "0|0": {"0": 0.0, "1": 1.0},
                "0|1": {"0": 1.0, "1": 0.0},
                "1|0": {"0": 1.0, "1": 0.0},
                "1|1": {"0": 0.0, "1": 1.0},
            }
        ],
        "quantities": [{"0": {"0": 0.9, "1": 0.1}, "1": {"0": 0.4, "1": 0.6}}],
        "loss": [
            {"x": x, "y": y, "yhat": yhat, "value": 0.0 if y == yhat else 1.0}
            for x in "01"
            for y in "01"
            for yhat in "01"
        ],
    }


# ---- alphabets and array shapes ----


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(InvalidModelError):
        Alphabet(("a", "a"))
    with pytest.raises(InvalidModelError):
        Alphabet(())
    with pytest.raises(InvalidModelError):
        Alphabet((1, 2))  # type: ignore[arg-type]


def test_alphabet_rejects_labels_utf8_cannot_encode():
    for label in ("\ud800", "a\udfff", "\ud83d\ude00"):  # lone surrogates, even a pair of them
        with pytest.raises(InvalidModelError, match=re.escape(ascii(label))):
            Alphabet(("ok", label))
    assert Alphabet(("é", "\U0001f600", "\x00")).labels == ("é", "\U0001f600", "\x00")


def test_alphabet_index_is_stable_bijection():
    alphabet = Alphabet(("lo", "mid", "hi"))
    assert [alphabet.index(label) for label in alphabet] == [0, 1, 2]
    assert "mid" in alphabet and "nope" not in alphabet
    with pytest.raises(UnknownLabel):
        alphabet.index("nope")
    with pytest.raises(UnknownLabel):
        alphabet.index(["lo"])  # unhashable, so never a member


def test_distribution_rejects_wrong_shape():
    quantities = np.full((1, 2, 2), 0.5)
    for init in (np.array([1.0, 0.0, 0.0]), np.array([[1.0, 0.0]]), np.array(1.0)):
        with pytest.raises(DimensionMismatch, match="initial distribution has shape"):
            binary_problem(1, NO_TRANSITIONS, quantities, init=init)
        with pytest.raises(DimensionMismatch, match="initial distribution has shape"):
            binary_tables(1, NO_TRANSITIONS, quantities, init=init)
    # a loss table or kernels shaped for a three-label quantity alphabet
    for build in (binary_problem, binary_tables):
        with pytest.raises(DimensionMismatch, match="loss table has shape"):
            build(1, NO_TRANSITIONS, quantities, loss=np.zeros((2, 3, 2)))
        with pytest.raises(DimensionMismatch):
            build(1, NO_TRANSITIONS, np.full((1, 2, 3), 1 / 3))


# ---- stochasticity ----


def test_row_summing_above_tolerance_is_rejected():
    quantity = np.array([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(NotStochastic, match=r"quantity row \(round 1, x='0'\) sums to 1.1"):
        binary_problem(1, NO_TRANSITIONS, quantity[None])
    with pytest.raises(NotStochastic, match=r"quantity row \(round 1, x='0'\) sums to 1.1"):
        binary_tables(1, NO_TRANSITIONS, quantity[None])
    with pytest.raises(NotStochastic, match=r"distribution sums to 0.9"):
        binary_problem(1, NO_TRANSITIONS, np.full((1, 2, 2), 0.5), init=np.array([0.5, 0.4]))


def test_negative_entry_is_rejected():
    quantities = np.full((1, 2, 2), 0.5)
    for build in (binary_problem, binary_tables):
        with pytest.raises(NotStochastic, match="distribution has a negative entry"):
            build(1, NO_TRANSITIONS, quantities, init=np.array([1.1, -0.1]))


def test_tiny_drift_is_renormalized_exactly():
    init = np.array([0.5, 0.5 + 4e-10])
    problem = binary_tables(1, NO_TRANSITIONS, np.full((1, 2, 2), 0.5), init=init)
    assert abs(float(problem.init.sum()) - 1.0) <= 1e-12
    # a Problem stores its arrays as given
    assert binary_problem(1, NO_TRANSITIONS, np.full((1, 2, 2), 0.5), init=init).init.tolist() == init.tolist()


def test_validated_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        problem = random_problem(rng, n=3, nx=3, ny=2, nyhat=2)
        assert abs(float(problem.init.sum()) - 1.0) <= 1e-12
        assert np.all(np.abs(problem.transitions.sum(axis=-1) - 1.0) <= 1e-12)
        assert np.all(np.abs(problem.quantities.sum(axis=-1) - 1.0) <= 1e-12)


# ---- horizon and alphabet wiring ----


def test_horizon_mismatch_on_kernel_counts():
    quantities = np.full((1, 2, 2), 0.5)
    with pytest.raises(HorizonMismatch):
        binary_problem(2, NO_TRANSITIONS, quantities)


def test_n1_problem_has_no_transitions():
    problem = example_section33(1)
    assert problem.transitions.shape == (0, 2, 2, 2)
    assert len(problem.quantities) == 1


# ---- stationary construction ----


def test_one_kernel_stacks_match_example_builders():
    transition = np.zeros((1, 2, 2, 2))
    for x in (0, 1):
        transition[0, x, 0, 1 - x] = 1.0
        transition[0, x, 1, x] = 1.0
    quantity = np.array([[[0.9, 0.1], [0.4, 0.6]]])
    assert binary_tables(6, transition, quantity) == example_section33(6)

    stock_transition = np.zeros((1, 2, 2, 2))
    stock_transition[0, :, 0, 0] = 1.0
    stock_transition[0, :, 1, 1] = 1.0
    stock_quantity = np.array([[[0.6, 0.4], [0.3, 0.7]]])
    assert binary_tables(3, stock_transition, stock_quantity) == example_stock(3)


def test_one_kernel_transition_stack_serves_n1():
    quantity = np.array([[[0.9, 0.1], [0.4, 0.6]]])
    transition = np.full((1, 2, 2, 2), 0.5)
    for transitions in (NO_TRANSITIONS, transition):
        problem = binary_tables(1, transitions, quantity)
        assert problem.n == 1 and problem.transitions.shape == (0, 2, 2, 2)
    # the single kernel is still checked
    with pytest.raises(NotStochastic, match=r"transition row \(round 2, x='0', yhat='0'\) sums to 1.5"):
        binary_tables(1, np.array([[[[0.5, 1.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]]), quantity)


# ---- document parsing ----


def test_section33_document_validates():
    problem = validate_problem(section33_dict())
    assert problem == example_section33(6)


def test_round_trip_is_field_by_field_equal():
    for problem in (example_section33(6), example_stock(3), example_section33(1)):
        for stationary in (True, False, "auto"):
            if stationary is True and problem.n == 1:
                continue
            doc = problem_to_dict(problem, stationary=stationary)
            assert validate_problem(doc) == problem


def test_stationary_form_of_a_problem_whose_rounds_differ_is_refused():
    # the compact form keeps one round's tables, so it would read back as another problem
    problem = random_problem(np.random.default_rng(0), 3, 2, 2, 2)
    with pytest.raises(InvalidParams, match="rounds' tables differ"):
        problem_to_dict(problem, True)
    assert "stationary" not in problem_to_dict(problem)


def test_stationary_flag_expands_single_entries():
    doc = section33_dict(4)
    problem = validate_problem(doc)
    assert len(problem.transitions) == 3
    assert all(np.array_equal(k, problem.transitions[0]) for k in problem.transitions)
    # one parsed table serves every round
    assert problem.transitions.strides[0] == 0 and problem.quantities.strides[0] == 0


def test_stationary_flag_rejects_full_arrays():
    doc = section33_dict()
    doc["quantities"] = doc["quantities"] * 6
    with pytest.raises(HorizonMismatch):
        validate_problem(doc)


def test_stationary_n1_document_checks_its_transition_entry():
    # the entry serves no round, but it is parsed and checked as a one-kernel stack
    doc = section33_dict(1)
    assert validate_problem(doc) == example_section33(1)
    doc["transitions"] = []
    assert validate_problem(doc) == example_section33(1)
    doc["transitions"] = [{"bogus": 42}]
    with pytest.raises(InvalidModelError, match="'bogus' does not identify"):
        validate_problem(doc)
    doc = section33_dict(1)
    doc["transitions"][0]["1|0"] = {"0": 1.5, "1": 0.0}
    with pytest.raises(NotStochastic, match=r"transition row \(round 2, x='1', yhat='0'\) sums to 1.5"):
        validate_problem(doc)


def test_plain_document_requires_full_arrays():
    doc = section33_dict()
    doc.pop("stationary")
    with pytest.raises(HorizonMismatch):
        validate_problem(doc)


def test_missing_loss_record_is_an_error():
    doc = section33_dict()
    doc["loss"] = doc["loss"][:-1]
    with pytest.raises(InvalidModelError, match="missing a record"):
        validate_problem(doc)


def test_duplicate_loss_record_is_an_error():
    doc = section33_dict()
    doc["loss"] = doc["loss"] + [doc["loss"][0]]
    with pytest.raises(InvalidModelError, match="twice"):
        validate_problem(doc)


def test_init_must_cover_every_label():
    doc = section33_dict()
    doc["init"] = {"0": 1.0}
    with pytest.raises(DimensionMismatch):
        validate_problem(doc)


def test_unknown_label_in_row_is_an_error():
    doc = section33_dict()
    doc["quantities"][0]["0"]["2"] = 0.0
    with pytest.raises(DimensionMismatch):
        validate_problem(doc)


def test_bad_json_types_are_rejected():
    doc = section33_dict()
    doc["n"] = "6"
    with pytest.raises(InvalidModelError):
        validate_problem(doc)
    doc = section33_dict()
    doc["init"]["0"] = True
    with pytest.raises(InvalidModelError):
        validate_problem(doc)


def test_ambiguous_composite_key_is_rejected():
    # labels are chosen so "a|b|b" parses as both ("a", "b|b") and ("a|b", "b")
    doc = {
        "n": 2,
        "x_space": ["a", "a|b"],
        "y_space": ["0", "1"],
        "yhat_space": ["b", "b|b"],
        "init": {"a": 1.0, "a|b": 0.0},
        "transitions": [
            {
                "a|b": {"a": 1.0, "a|b": 0.0},
                "a|b|b": {"a": 1.0, "a|b": 0.0},
                "a|b|b|b": {"a": 1.0, "a|b": 0.0},
            }
        ],
        "quantities": [
            {"a": {"0": 1.0, "1": 0.0}, "a|b": {"0": 1.0, "1": 0.0}},
        ]
        * 2,
        "loss": [],
    }
    with pytest.raises(InvalidModelError, match="exactly one"):
        validate_problem(doc)


def test_non_finite_loss_is_rejected():
    for value in (np.nan, np.inf):
        with pytest.raises(InvalidModelError, match="non-finite"):
            binary_problem(1, NO_TRANSITIONS, np.full((1, 2, 2), 0.5), loss=np.full((2, 2, 2), value))
    doc = section33_dict()
    doc["loss"][0]["value"] = float("nan")
    with pytest.raises(InvalidModelError, match="not finite"):
        validate_problem(doc)


def test_problem_is_immutable():
    problem = example_stock(3)
    with pytest.raises(Exception):
        problem.n = 4  # type: ignore[misc]
    with pytest.raises(ValueError):
        problem.loss[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        problem.init[0] = 0.5
    with pytest.raises(ValueError):
        problem.transitions[0, 0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        problem.quantities[0, 0, 0] = 5.0


# ---- input hardening and array layout ----


def test_stationary_flag_must_be_a_boolean():
    for value in ("false", "true", 0, 1, None):
        doc = section33_dict()
        doc["stationary"] = value
        with pytest.raises(InvalidModelError, match="stationary"):
            validate_problem(doc)
    doc = section33_dict(2)
    doc["stationary"] = False
    doc["quantities"] = doc["quantities"] * 2
    assert validate_problem(doc) == example_section33(2)


def test_boolean_horizon_is_rejected_everywhere():
    quantity = np.array([[0.9, 0.1], [0.4, 0.6]])
    with pytest.raises(InvalidModelError):
        binary_problem(True, NO_TRANSITIONS, quantity[None])
    with pytest.raises(InvalidModelError):
        binary_tables(True, NO_TRANSITIONS, quantity[None])
    doc = section33_dict()
    doc["n"] = True
    with pytest.raises(InvalidModelError):
        validate_problem(doc)


def test_stationary_problems_hold_one_table():
    for problem in (example_yield(100), validate_problem(section33_dict(50))):
        assert problem.transitions.strides[0] == 0
        assert problem.quantities.strides[0] == 0
    # a full document holds one table per round
    full = validate_problem(problem_to_dict(example_section33(4), stationary=False))
    assert full.transitions.strides[0] != 0 and full == example_section33(4)


def test_writable_kernels_are_copied():
    transitions = np.zeros((1, 2, 2, 2))
    transitions[:, :, :, 0] = 1.0
    quantities = np.full((2, 2, 2), 0.5)
    problem = binary_problem(2, transitions, quantities)
    transitions[0, 0, 0] = (0.0, 1.0)
    assert problem.transitions[0, 0, 0].tolist() == [1.0, 0.0]
    init, loss = START_AT_0.copy(), zero_one_loss()
    problem = binary_problem(2, transitions, quantities, loss=loss, init=init)
    init[0], loss[0, 0, 0] = 0.0, 7.0
    assert problem.init.tolist() == [1.0, 0.0] and problem.loss[0, 0, 0] == 0.0


def test_bad_document_rows_are_named():
    doc = section33_dict(3)
    doc["transitions"][0]["1|0"] = {"0": 1.5, "1": -0.5}
    with pytest.raises(NotStochastic, match=r"transition row \(round 2, x='1', yhat='0'\) has a negative entry"):
        validate_problem(doc)
    doc = section33_dict(3)
    doc.pop("stationary")
    doc["transitions"] = doc["transitions"] * 2
    doc["quantities"] = doc["quantities"] * 2 + [{"0": {"0": 0.9, "1": 0.1}, "1": {"0": 0.4, "1": 0.7}}]
    with pytest.raises(NotStochastic, match=r"quantity row \(round 3, x='1'\) sums to 1.1"):
        validate_problem(doc)


def test_stationary_checks_do_not_grow_with_the_horizon():
    tracemalloc.start()
    try:
        example_stock(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # checking every round of the broadcast stack takes ~44 MB


def test_stationary_writer_does_not_compare_every_round():
    problem = example_stock(10**7)
    tracemalloc.start()
    try:
        doc = problem_to_dict(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc["stationary"] is True and len(doc["transitions"]) == len(doc["quantities"]) == 1
    assert peak < 1_000_000  # comparing every round of the broadcast stack takes ~76 MB


def test_row_checks_skip_only_repeated_rounds():
    bad = np.array([[[1.5, -0.5], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]])
    quantities = np.broadcast_to(np.full((1, 2, 2), 0.5), (5, 2, 2))
    # one kernel for every round (stride 0) is checked once, and named by its first round
    with pytest.raises(NotStochastic, match=r"transition row \(round 2, x='0', yhat='0'\) has a negative entry"):
        binary_problem(5, np.broadcast_to(bad, (4, 2, 2, 2)), quantities)
    # a full stack is checked round by round
    transitions = np.stack([np.eye(2)[:, None, :].repeat(2, axis=1)] * 4)
    transitions[2] = bad
    with pytest.raises(NotStochastic, match=r"transition row \(round 4, x='0', yhat='0'\) has a negative entry"):
        binary_problem(5, transitions, quantities)
    transitions[2] = transitions[0]
    quantities = np.broadcast_to([[[0.5, 0.5], [0.4, 0.7]]], (5, 2, 2))
    with pytest.raises(NotStochastic, match=r"quantity row \(round 1, x='1'\) sums to 1.1"):
        binary_problem(5, transitions, quantities)
