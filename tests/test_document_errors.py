"""Model documents: the exact error each fault raises, and the inputs that must read as the same Problem.

Every (class, message) pin below was recorded from the per-entry reader
before any table was read as a whole stack, so the stack read, which hands
any table it cannot take to the per-entry reader, must leave each fault's
class, its text and which of two faults is reported first as they were.
"""

import copy
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_properties import problems

from dyninfer import (
    Alphabet,
    DynamicInferenceError,
    InvalidModelError,
    InvalidParams,
    example_section33,
    example_stock,
    example_yield,
    problem_from_tables,
    problem_to_dict,
    random_problem,
    validate_problem,
)
from dyninfer import model

X, Y, YHAT = Alphabet(("a", "b")), Alphabet(("u", "v", "w")), Alphabet(("p", "q"))
DELETE = object()


def base_document():
    """A valid three-round document over three distinct alphabets, every entry a float."""
    transitions = np.full((2, 2, 2, 2), 0.5)
    quantities = np.tile([0.25, 0.25, 0.5], (3, 2, 1))
    loss = np.arange(12.0).reshape(2, 3, 2)
    problem = problem_from_tables(3, X, Y, YHAT, [1.0, 0.0], transitions, quantities, loss)
    return problem_to_dict(problem, stationary=False)


def edited(*edits):
    """``base_document()`` with each ``(path, value)`` edit applied; DELETE removes the entry."""
    doc = base_document()
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


RECORD_3 = {"x": "a", "y": "v", "yhat": "q", "value": 3.0}  # the base document's loss[3]

# (case id, edits, error class name, message)
FAULTS = [
    ("init-is-a-list", [(("init",), [1.0, 0.0])], "InvalidModelError",
     "init must be an object mapping labels to numbers"),
    ("transition-row-is-a-list", [(("transitions", 0, "a|p"), [0.5, 0.5])], "InvalidModelError",
     "transition row (round 2, key 'a|p') must be an object mapping labels to numbers"),
    ("quantity-row-is-a-list", [(("quantities", 1, "b"), [0.25, 0.25, 0.5])], "InvalidModelError",
     "quantity row (round 2, x='b') must be an object mapping labels to numbers"),
    ("transition-entry-is-a-list", [(("transitions", 0), [])], "InvalidModelError",
     "transitions[0] must be an object"),
    ("quantity-entry-is-a-list", [(("quantities", 2), [])], "InvalidModelError",
     "quantities[2] must be an object"),
    ("entry-true", [(("quantities", 0, "a", "u"), True)], "InvalidModelError",
     "quantity row (round 1, x='a')['u'] must be a number, got True"),
    ("entry-string", [(("transitions", 1, "b|q", "a"), "0.5")], "InvalidModelError",
     "transition row (round 3, key 'b|q')['a'] must be a number, got '0.5'"),
    ("entry-null", [(("init", "b"), None)], "InvalidModelError",
     "init['b'] must be a number, got None"),
    ("init-missing-label", [(("init", "b"), DELETE)], "DimensionMismatch",
     "init is missing entries for labels ['b']"),
    ("init-extra-label", [(("init", "c"), 0.0)], "DimensionMismatch",
     "init has entries for unknown labels ['c']"),
    ("transition-missing-label", [(("transitions", 0, "a|q", "b"), DELETE)], "DimensionMismatch",
     "transition row (round 2, key 'a|q') is missing entries for labels ['b']"),
    ("transition-extra-label", [(("transitions", 0, "a|q", "z"), 0.0)], "DimensionMismatch",
     "transition row (round 2, key 'a|q') has entries for unknown labels ['z']"),
    ("quantity-missing-label", [(("quantities", 2, "a", "w"), DELETE)], "DimensionMismatch",
     "quantity row (round 3, x='a') is missing entries for labels ['w']"),
    ("quantity-extra-label", [(("quantities", 2, "a", "x"), 0.0)], "DimensionMismatch",
     "quantity row (round 3, x='a') has entries for unknown labels ['x']"),
    ("transition-missing-row", [(("transitions", 1, "b|p"), DELETE)], "DimensionMismatch",
     "transitions for round 3 are missing rows ['b|p']"),
    ("transition-unknown-key", [(("transitions", 1, "c|p"), {"a": 1.0, "b": 0.0})], "InvalidModelError",
     "transition key 'c|p' does not identify exactly one 'x_prev|yhat_prev' pair"),
    ("quantity-missing-row", [(("quantities", 0, "b"), DELETE)], "DimensionMismatch",
     "quantities for round 1 are missing rows for ['b']"),
    ("quantity-extra-row", [(("quantities", 0, "c"), {"u": 1.0, "v": 0.0, "w": 0.0})], "DimensionMismatch",
     "quantities for round 1 have rows for unknown labels ['c']"),
    ("nan-entry", [(("quantities", 1, "a", "v"), float("nan"))], "NotStochastic",
     "quantity row (round 2, x='a') sums to nan, outside 1 +/- 1e-09"),
    ("negative-entry", [(("transitions", 1, "b|p"), {"a": 1.5, "b": -0.5})], "NotStochastic",
     "transition row (round 3, x='b', yhat='p') has a negative entry: [1.5, -0.5]"),
    ("drift", [(("quantities", 0, "b", "w"), 0.5 + 2e-9)], "NotStochastic",
     "quantity row (round 1, x='b') sums to 1.0000000020000002, outside 1 +/- 1e-09"),
    ("loss-not-a-list", [(("loss",), {})], "InvalidModelError",
     "loss must be an array of {x, y, yhat, value} records"),
    ("loss-record-not-an-object", [(("loss", 3), "oops")], "InvalidModelError",
     "loss record 'oops' is not an object"),
    ("loss-missing-x", [(("loss", 3, "x"), DELETE)], "InvalidModelError",
     "loss record {'y': 'v', 'yhat': 'q', 'value': 3.0} is missing key 'x'"),
    ("loss-missing-value", [(("loss", 3, "value"), DELETE)], "InvalidModelError",
     "loss value for ('a', 'v', 'q') must be a number, got None"),
    ("loss-duplicate", [(("loss", 4), dict(RECORD_3))], "InvalidModelError",
     "loss record for ('a', 'v', 'q') appears twice"),
    ("loss-gap", [(("loss", 11), DELETE)], "InvalidModelError",
     "loss is missing a record for ('b', 'w', 'q')"),
    ("loss-unknown-label", [(("loss", 2, "y"), "zz")], "UnknownLabel",
     "label 'zz' not in alphabet ('u', 'v', 'w')"),
    ("loss-unhashable-label", [(("loss", 2, "yhat"), ["p"])], "UnknownLabel",
     "label ['p'] not in alphabet ('p', 'q')"),
    ("loss-value-true", [(("loss", 6, "value"), True)], "InvalidModelError",
     "loss value for ('b', 'u', 'p') must be a number, got True"),
    ("loss-value-string", [(("loss", 6, "value"), "x")], "InvalidModelError",
     "loss value for ('b', 'u', 'p') must be a number, got 'x'"),
    ("loss-value-infinity", [(("loss", 6, "value"), float("inf"))], "InvalidModelError",
     "loss value for ('b', 'u', 'p') is not finite"),
    # two faults: the first one found in document order is reported ...
    ("loss-bad-value-before-non-object",
     [(("loss", 1, "value"), "x"), (("loss", 9), "oops")], "InvalidModelError",
     "loss value for ('a', 'u', 'q') must be a number, got 'x'"),
    ("loss-duplicate-before-gap",
     [(("loss", 11), dict(RECORD_3)), (("loss", 0), DELETE)], "InvalidModelError",
     "loss record for ('a', 'v', 'q') appears twice"),
    ("entry-in-round-3-before-loss-record",
     [(("quantities", 2, "b", "v"), "bad"), (("loss", 0), 7)], "InvalidModelError",
     "quantity row (round 3, x='b')['v'] must be a number, got 'bad'"),
    # ... but row sums are checked only once every entry has been read
    ("row-sum-after-loss-record",
     [(("transitions", 0, "a|p"), {"a": 1.5, "b": -0.5}), (("loss", 1, "value"), "x")], "InvalidModelError",
     "loss value for ('a', 'u', 'q') must be a number, got 'x'"),
]


@pytest.mark.parametrize("edits, error, message", [case[1:] for case in FAULTS], ids=[case[0] for case in FAULTS])
def test_fault_is_named_exactly(edits, error, message):
    with pytest.raises(Exception) as caught:
        validate_problem(edited(*edits))
    assert (type(caught.value).__name__, str(caught.value)) == (error, message)


def _retyped(doc, convert):
    """A copy of ``doc`` with every probability row passed through ``convert``; a row or round that is no dict is kept."""

    def row(obj):
        return convert(obj) if type(obj) is dict else obj

    def rounds(entries):
        return [{key: row(obj) for key, obj in entry.items()} if type(entry) is dict else entry for entry in entries]

    doc = copy.deepcopy(doc)
    doc["init"] = row(doc["init"])
    doc["transitions"] = rounds(doc["transitions"])
    doc["quantities"] = rounds(doc["quantities"])
    return doc


def per_entry(doc):
    """``doc`` with every row and loss record a read-only mapping, which only the per-entry readers take."""
    doc = _retyped(doc, types.MappingProxyType)
    doc["loss"] = [types.MappingProxyType(record) for record in doc["loss"]]
    return doc


def test_int_entries_and_read_only_mappings_give_the_same_problem():
    expected = validate_problem(base_document())
    as_ints = _retyped(base_document(), lambda row: {k: int(v) if v.is_integer() else v for k, v in row.items()})
    for record in as_ints["loss"]:
        record["value"] = int(record["value"])
    assert as_ints["init"] == {"a": 1, "b": 0} and as_ints["loss"][5]["value"] == 5
    assert validate_problem(as_ints) == expected
    assert validate_problem(per_entry(base_document())) == expected


# ---- integers a float64 cannot hold ----

HUGE = 10**400


@pytest.mark.parametrize(
    "path, message",
    [
        (("init", "a"), "init['a'] is an integer too large for a float64"),
        (("transitions", 1, "b|q", "b"), "transition row (round 3, key 'b|q')['b'] is an integer too large for a float64"),
        (("loss", 6, "value"), "loss value for ('b', 'u', 'p') is an integer too large for a float64"),
    ],
    ids=["init", "transition", "loss"],
)
def test_huge_integer_is_a_named_model_error(path, message):
    with pytest.raises(InvalidModelError) as caught:
        validate_problem(edited((path, HUGE)))
    assert str(caught.value) == message


# ---- the stack read: one pass per table, or the per-entry reader ----


def test_float_documents_never_reach_the_per_entry_checker(monkeypatch):
    doc = json.loads(json.dumps(problem_to_dict(random_problem(np.random.default_rng(1), 10, 20, 5, 12), False)))
    expected = validate_problem(per_entry(doc))
    calls = []

    def counted(checker):
        def wrapper(*args):
            calls.append(checker.__name__)
            return checker(*args)

        return wrapper

    for name in ("_transition_from_object", "_quantity_from_object"):
        monkeypatch.setattr(model, name, counted(getattr(model, name)))
    assert validate_problem(doc) == expected
    assert calls == []
    validate_problem(per_entry(doc))  # the counters do see the per-entry path
    assert set(calls) == {"_transition_from_object", "_quantity_from_object"}


def test_each_table_is_read_in_one_pass_at_any_horizon(monkeypatch):
    arrays = []

    def counted(values):
        arrays.append(len(values))
        return float_array(values)

    def refused(*args):
        raise AssertionError("a plain float document reached the per-entry reader")

    float_array = model._float_array
    monkeypatch.setattr(model, "_float_array", counted)
    monkeypatch.setattr(model, "_transition_from_object", refused)
    monkeypatch.setattr(model, "_quantity_from_object", refused)
    counts = []
    for n in (10, 40):
        doc = json.loads(json.dumps(problem_to_dict(random_problem(np.random.default_rng(n), n, 20, 5, 12), False)))
        arrays.clear()
        validate_problem(doc)
        counts.append(len(arrays))
    # transitions and quantities: one array each, however many rounds
    assert counts == [2, 2]


def _labelled(n, x_labels, y_labels, yhat_labels, seed=0):
    """A random problem over the given labels, rows strictly positive."""
    nx, ny, na = len(x_labels), len(y_labels), len(yhat_labels)
    rng = np.random.default_rng(seed)

    def rows(*shape):
        table = rng.random(shape) + 0.1
        return table / table.sum(axis=-1, keepdims=True)

    return problem_from_tables(
        n, Alphabet(x_labels), Alphabet(y_labels), Alphabet(yhat_labels),
        rows(nx), rows(n - 1, nx, na, nx), rows(n, nx, ny), rng.random((nx, ny, na)),
    )


def test_both_readers_give_equal_problems():
    varying = [random_problem(np.random.default_rng(variant), 10, 20, 5, 12) for variant in range(2)]
    # one label gives bare values, not tuples, at its level; n = 1 has no transition rounds
    varying += [random_problem(np.random.default_rng(2), *shape) for shape in ((3, 1, 1, 1), (3, 1, 4, 1), (3, 2, 1, 1))]
    varying += [random_problem(np.random.default_rng(3), 1, 2, 3, 4)]
    # labels holding '|' whose pair keys stay distinct: 'a||p', 'a|||q', 'b|p', 'b||q'
    varying += [_labelled(3, ("a|", "b"), ("u", "v"), ("p", "|q"))]
    # 'a|b|c' names two pairs, which no transition round can then hold, but n = 1 has none
    varying += [_labelled(1, ("a|b", "a"), ("u",), ("c", "b|c"))]
    # the compact form holds one round's tables, so it is written from stationary problems:
    # the examples, and the random problems' first-round tables serving every round
    stationary = [example_section33(6), example_stock(6), example_yield(20)]
    stationary += [
        problem_from_tables(
            p.n, p.x_space, p.y_space, p.yhat_space, p.init, p.transitions[:1], p.quantities[:1], p.loss
        )
        for p in varying
    ]
    docs = [problem_to_dict(problem, True) for problem in stationary]
    docs += [problem_to_dict(problem, False) for problem in stationary + varying]
    for doc in docs:
        doc = json.loads(json.dumps(doc))
        assert validate_problem(doc) == validate_problem(per_entry(doc))


def test_a_key_naming_two_pairs_is_named_by_both_readers():
    # problem_to_dict refuses to write the round, so it is written here: the two 'a|b|c' rows share one key
    doc = problem_to_dict(_labelled(1, ("a|b", "a"), ("u",), ("c", "b|c")), False)
    row = {"a|b": 0.5, "a": 0.5}
    doc["n"], doc["transitions"], doc["quantities"] = 2, [{"a|b|c": row, "a|b|b|c": row, "a|c": row}], 2 * doc["quantities"]
    for candidate in (doc, per_entry(doc)):
        with pytest.raises(InvalidModelError, match="transition key 'a|b|c' does not identify exactly one"):
            validate_problem(candidate)


@pytest.mark.parametrize("stationary", [False, True, "auto"])
def test_a_problem_whose_pair_keys_collide_is_not_written(stationary):
    # ('a|b', 'c') and ('a', 'b|c') both make the key 'a|b|c', which no reader takes
    problem = _labelled(3, ("a|b", "a"), ("u",), ("c", "b|c"))
    stationary_problem = problem_from_tables(
        3, problem.x_space, problem.y_space, problem.yhat_space, problem.init,
        problem.transitions[:1], problem.quantities[:1], problem.loss,
    )
    with pytest.raises(InvalidParams, match=r"transition key 'a\|b\|c' would name two 'x_prev\|yhat_prev' pairs"):
        problem_to_dict(stationary_problem if stationary is True else problem, stationary)
    # one round has no transitions, so its document holds no pair key
    single = _labelled(1, ("a|b", "a"), ("u",), ("c", "b|c"))
    assert validate_problem(problem_to_dict(single, False)) == single


# faults injected into init, transitions and quantities
BAD_ENTRIES = (True, "0.5", None, HUGE, float("nan"))
FAULT_KINDS = ("delete-key", "unknown-key", "bad-entry", "made-a-list")


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _fault_sites(doc):
    """Paths to init, each round object and each row that is still a non-empty dict."""
    paths = [("init",)]
    for section in ("transitions", "quantities"):
        for k, entry in enumerate(doc[section]):
            paths.append((section, k))
            if type(entry) is dict:
                paths += [(section, k, key) for key in entry]
    return [path for path in paths if type(_at(doc, path)) is dict and _at(doc, path)]


def _inject(doc, data):
    path = data.draw(st.sampled_from(_fault_sites(doc)))
    node = _at(doc, path)
    kind = data.draw(st.sampled_from(FAULT_KINDS))
    if kind == "delete-key":
        del node[data.draw(st.sampled_from(list(node)))]
    elif kind == "unknown-key":
        node["zz"] = 0.0
    elif kind == "bad-entry":
        node[data.draw(st.sampled_from(list(node)))] = data.draw(st.sampled_from(BAD_ENTRIES))
    else:
        _at(doc, path[:-1])[path[-1]] = list(node.values())


def _outcome(doc):
    try:
        return validate_problem(doc)
    except DynamicInferenceError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(problems(max_labels=3, max_n=3), st.sampled_from(("auto", False)), st.integers(1, 2), st.data())
def test_faults_read_the_same_through_both_readers(problem, stationary, faults, data):
    doc = problem_to_dict(problem, stationary)
    for _ in range(faults):
        _inject(doc, data)
    assert _outcome(doc) == _outcome(per_entry(doc))


@settings(max_examples=100, deadline=None)
@given(problems(max_labels=3, max_n=3), st.data())
def test_integral_floats_retyped_as_ints_give_an_equal_problem(problem, data):
    # large integral loss values too, where an int rounded any other way than float(int) would show
    value = st.one_of(st.floats(-1e3, 1e3), st.integers(-(10**300), 10**300).map(float))
    loss = data.draw(st.lists(value, min_size=problem.loss.size, max_size=problem.loss.size))
    problem = problem_from_tables(
        problem.n, problem.x_space, problem.y_space, problem.yhat_space, problem.init,
        problem.transitions, problem.quantities, np.reshape(loss, problem.loss.shape),
    )
    doc = problem_to_dict(problem, False)
    expected = validate_problem(per_entry(doc))
    retype = st.booleans()

    def some_ints(row):
        return {k: int(v) if v.is_integer() and data.draw(retype) else v for k, v in row.items()}

    doc = _retyped(doc, some_ints)
    for record in doc["loss"]:
        if record["value"].is_integer() and data.draw(retype):
            record["value"] = int(record["value"])
    assert validate_problem(doc) == expected
