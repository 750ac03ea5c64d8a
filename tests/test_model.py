"""Validation, construction and document round-trips for problem instances."""

import numpy as np
import pytest

from dyninfer import (
    Alphabet,
    ContextualLoss,
    DimensionMismatch,
    Distribution,
    HorizonMismatch,
    InvalidModelError,
    NotStochastic,
    Problem,
    UnknownLabel,
    example_section33,
    example_stock,
    example_yield,
    make_stationary_problem,
    problem_to_dict,
    random_problem,
    validate_problem,
)

BINARY = Alphabet(("0", "1"))
NO_TRANSITIONS = np.empty((0, 2, 2, 2))


def zero_one_loss():
    table = np.zeros((2, 2, 2))
    table[:, 0, 1] = 1.0
    table[:, 1, 0] = 1.0
    return ContextualLoss(BINARY, BINARY, BINARY, table)


def binary_problem(n, transitions, quantities, loss=None):
    """A Problem built directly from kernel arrays, starting at x = "0"."""
    init = Distribution.point_mass(BINARY, "0")
    return Problem(n, BINARY, BINARY, BINARY, init, transitions, quantities, loss or zero_one_loss())


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


# ---- alphabets and distributions ----


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(InvalidModelError):
        Alphabet(("a", "a"))
    with pytest.raises(InvalidModelError):
        Alphabet(())
    with pytest.raises(InvalidModelError):
        Alphabet((1, 2))  # type: ignore[arg-type]


def test_alphabet_index_is_stable_bijection():
    alphabet = Alphabet(("lo", "mid", "hi"))
    assert [alphabet.index(label) for label in alphabet] == [0, 1, 2]
    assert "mid" in alphabet and "nope" not in alphabet
    with pytest.raises(UnknownLabel):
        alphabet.index("nope")
    with pytest.raises(UnknownLabel):
        alphabet.index(["lo"])  # unhashable, so never a member


def test_distribution_point_mass_and_lookup():
    dist = Distribution.point_mass(BINARY, "1")
    assert dist.probs[BINARY.index("1")] == 1.0 and dist.probs[BINARY.index("0")] == 0.0
    with pytest.raises(UnknownLabel):
        Distribution.point_mass(BINARY, "2")


def test_distribution_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        Distribution(BINARY, np.array([1.0, 0.0, 0.0]))


# ---- stochasticity ----


def test_row_summing_above_tolerance_is_rejected():
    quantity = np.array([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(NotStochastic, match=r"quantity row \(round 1, x='0'\) sums to 1.1"):
        binary_problem(1, NO_TRANSITIONS, quantity[None])
    with pytest.raises(NotStochastic, match=r"quantity row \(round 1, x='0'\) sums to 1.1"):
        make_stationary_problem(1, Distribution.point_mass(BINARY, "0"), None, quantity, zero_one_loss())


def test_negative_entry_is_rejected():
    with pytest.raises(NotStochastic):
        Distribution(BINARY, np.array([1.1, -0.1]))


def test_tiny_drift_is_renormalized_exactly():
    dist = Distribution(BINARY, np.array([0.5, 0.5 + 4e-10]))
    assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12


def test_validated_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        problem = random_problem(rng, n=3, nx=3, ny=2, nyhat=2)
        assert abs(float(problem.init.probs.sum()) - 1.0) <= 1e-12
        assert np.all(np.abs(problem.transitions.sum(axis=-1) - 1.0) <= 1e-12)
        assert np.all(np.abs(problem.quantities.sum(axis=-1) - 1.0) <= 1e-12)


# ---- horizon and alphabet wiring ----


def test_horizon_mismatch_on_kernel_counts():
    quantities = np.full((1, 2, 2), 0.5)
    with pytest.raises(HorizonMismatch):
        binary_problem(2, NO_TRANSITIONS, quantities)


def test_foreign_alphabet_is_rejected():
    other = Alphabet(("a", "b"))
    quantities = np.full((1, 2, 2), 0.5)
    loss = ContextualLoss(other, other, other, np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        binary_problem(1, NO_TRANSITIONS, quantities, loss)
    # kernels shaped for a three-label quantity alphabet
    with pytest.raises(DimensionMismatch):
        binary_problem(1, NO_TRANSITIONS, np.full((1, 2, 3), 1 / 3))


def test_n1_problem_has_no_transitions():
    problem = example_section33(1)
    assert problem.transitions.shape == (0, 2, 2, 2)
    assert len(problem.quantities) == 1


# ---- stationary construction ----


def test_make_stationary_matches_example_builders():
    transition = np.zeros((2, 2, 2))
    for x in (0, 1):
        transition[x, 0, 1 - x] = 1.0
        transition[x, 1, x] = 1.0
    quantity = np.array([[0.9, 0.1], [0.4, 0.6]])
    built = make_stationary_problem(
        6, Distribution.point_mass(BINARY, "0"), transition, quantity, zero_one_loss()
    )
    assert built == example_section33(6)

    stock_transition = np.zeros((2, 2, 2))
    stock_transition[:, 0, 0] = 1.0
    stock_transition[:, 1, 1] = 1.0
    stock_quantity = np.array([[0.6, 0.4], [0.3, 0.7]])
    built_stock = make_stationary_problem(
        3, Distribution.point_mass(BINARY, "0"), stock_transition, stock_quantity, zero_one_loss()
    )
    assert built_stock == example_stock(3)


def test_make_stationary_n1_needs_no_transition():
    problem = make_stationary_problem(
        1, Distribution.point_mass(BINARY, "0"), None, np.array([[0.9, 0.1], [0.4, 0.6]]), zero_one_loss()
    )
    assert problem.n == 1 and problem.transitions.shape == (0, 2, 2, 2)


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
    with pytest.raises(InvalidModelError):
        ContextualLoss(BINARY, BINARY, BINARY, np.full((2, 2, 2), np.nan))
    doc = section33_dict()
    doc["loss"][0]["value"] = float("nan")
    with pytest.raises(InvalidModelError, match="not finite"):
        validate_problem(doc)


def test_problem_is_immutable():
    problem = example_stock(3)
    with pytest.raises(Exception):
        problem.n = 4  # type: ignore[misc]
    with pytest.raises(ValueError):
        problem.loss.table[0, 0, 0] = 5.0
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
        make_stationary_problem(True, Distribution.point_mass(BINARY, "0"), None, quantity, zero_one_loss())
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
