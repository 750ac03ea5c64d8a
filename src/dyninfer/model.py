"""Problem definition: spaces, kernels, loss and horizon, with validation.

A :class:`Problem` describes one finite sequential-estimation instance: an
observation space, a quantity space and an estimate space (each a finite
:class:`Alphabet`), and four arrays over them: the distribution of the first
observation, the controlled observation-transition kernels of rounds 2..n
stacked in one array, the quantity kernels of rounds 1..n stacked in another,
and a contextual loss table over (observation, quantity, estimate) triples.
Rounds are 1-indexed; ``transitions[i - 2]`` is the law of the round-``i``
observation given the previous observation and the previous estimate.

A Problem is validated at construction and immutable afterwards, so it can be
shared freely across threads. Raw tables enter through
:func:`validate_problem` and :func:`problem_from_tables`; there, probability
rows whose sum drifts from 1 by at most ``ROW_SUM_TOLERANCE`` are
renormalized exactly once, and larger drift is rejected.

:func:`validate_problem` reads the transition and quantity stacks, which
grow with n, in one pass when they are plain dicts of numbers under exactly
the expected keys; any other stack is read again one entry at a time, and
that reader names the first fault. The init row and the loss records have
one reader each, which names the first fault as it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    HorizonMismatch,
    InvalidModelError,
    InvalidParams,
    NotStochastic,
    UnknownLabel,
)

ROW_SUM_TOLERANCE = 1e-9
# numpy refuses an array of more bytes than this: it cannot index it
_MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)


def _row_sums(table: np.ndarray, describe: Callable[..., str]) -> np.ndarray:
    """Sums over the last axis of ``table``, every row checked to be a distribution.

    A row is a distribution when it has no negative entry and sums to 1
    within ``ROW_SUM_TOLERANCE``. The first bad row in index order is
    reported, with ``describe`` called on its index to name it.
    """
    negative = (table < 0.0).any(axis=-1)
    totals = table.sum(axis=-1)
    bad = negative | ~((totals >= 1.0 - ROW_SUM_TOLERANCE) & (totals <= 1.0 + ROW_SUM_TOLERANCE))
    if bad.any():
        index = tuple(np.argwhere(bad)[0].tolist())
        if negative[index]:
            raise NotStochastic(f"{describe(*index)} has a negative entry: {table[index].tolist()}")
        raise NotStochastic(
            f"{describe(*index)} sums to {float(totals[index])!r}, outside 1 +/- {ROW_SUM_TOLERANCE}"
        )
    return totals


def _normalized(table: np.ndarray, describe: Callable[..., str]) -> np.ndarray:
    return table / _row_sums(table, describe)[..., None]


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _fields_equal(a: object, b: object, names: Sequence[str]) -> bool:
    """Whether ``a`` and ``b`` agree on every named field, arrays compared by shape and value."""
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


def _check_horizon(n: object) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidModelError(f"n must be an integer >= 1, got {n!r}")


# an error message names at most this many labels of a list, then says how many it holds
_NAMED_LABELS = 5


def _labels_text(labels: Sequence) -> str:
    """``repr(labels)``, or past ``_NAMED_LABELS`` labels the first few of them and their count."""
    if len(labels) <= _NAMED_LABELS:
        return repr(labels)
    head = repr(labels[:_NAMED_LABELS])
    return f"{head[:-1]}, ...{head[-1]} ({len(labels)} labels)"


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct string labels with a stable index."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if not labels:
            raise InvalidModelError("an alphabet must contain at least one label")
        # each message names one label, never the whole tuple, so it stays short for any alphabet
        index: dict[str, int] = {}
        for k, label in enumerate(labels):
            if not isinstance(label, str):
                raise InvalidModelError(f"alphabet labels must be strings, got {label!r}")
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, which no output could write
                raise InvalidModelError(f"alphabet label {ascii(label)} is not valid Unicode text") from None
            if index.setdefault(label, k) != k:
                raise InvalidModelError(f"alphabet labels must be distinct, got {label!r} twice")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)

    def index(self, label: object) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except (KeyError, TypeError):  # an unhashable label is never a member
            raise UnknownLabel(f"label {label!r} not in alphabet {_labels_text(self.labels)}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float64 array; a writable array is copied first."""
    array = np.asarray(values, dtype=np.float64)
    return _freeze(array.copy()) if array.flags.writeable else array


def _check_shape(array: np.ndarray, shape: tuple[int, ...], what: str) -> None:
    if array.shape != shape:
        raise DimensionMismatch(f"{what} has shape {array.shape}, expected {shape}")


def _check_kernels(table: np.ndarray, rounds: int, row_shape: tuple[int, ...], what: str) -> None:
    """Raise unless ``table`` stacks ``rounds`` kernels of shape ``row_shape``."""
    if table.ndim != len(row_shape) + 1 or table.shape[1:] != row_shape:
        raise DimensionMismatch(f"{what} kernels have shape {table.shape}, expected {(rounds,) + row_shape}")
    if table.shape[0] != rounds:
        raise HorizonMismatch(f"expected {rounds} {what} kernels, got {table.shape[0]}")


def _distinct_rounds(stack: np.ndarray) -> np.ndarray:
    """``stack`` without its repeats: a stride-0 round axis holds one table for every round.

    Its first bad row is then the same row of the same (first) round.
    """
    return stack[:1] if stack.strides[0] == 0 else stack


def _init_row() -> str:
    return "distribution"


def _transition_rows(x_space: Alphabet, yhat_space: Alphabet) -> Callable[..., str]:
    return lambda k, xi, ai: (
        f"transition row (round {k + 2}, x={x_space.labels[xi]!r}, yhat={yhat_space.labels[ai]!r})"
    )


def _quantity_rows(x_space: Alphabet) -> Callable[..., str]:
    return lambda k, xi: f"quantity row (round {k + 1}, x={x_space.labels[xi]!r})"


@dataclass(frozen=True, eq=False)
class Problem:
    """A complete, validated instance over ``n`` rounds.

    ``init[x]`` is the probability of observation ``x`` in round 1;
    ``transitions[i - 2, x_prev, yhat_prev, x]`` is the probability of
    observation ``x`` in round ``i`` (2..n) after observation ``x_prev`` and
    estimate ``yhat_prev`` in round ``i - 1``; ``quantities[i - 1, x, y]`` is
    the probability of quantity ``y`` given observation ``x`` in round ``i``;
    ``loss[x, y, yhat]`` is the loss of estimating ``yhat`` when the quantity
    is ``y`` under observation ``x``. All four are read-only float64 arrays,
    of shapes (|X|,), (n-1, |X|, |Yhat|, |X|), (n, |X|, |Y|) and
    (|X|, |Y|, |Yhat|). A stationary problem holds broadcast views of one
    table, whose round axis has stride 0.

    Construction checks shapes, signs, row sums and that 2 * n * max|loss|
    is finite, and stores the values as given, without renormalizing them, so
    ``dataclasses.replace`` keeps them bit for bit; a writable array is copied
    first. Raw tables go through :func:`problem_from_tables` instead.
    Immutable after construction; safe for concurrent read access.
    """

    n: int
    x_space: Alphabet
    y_space: Alphabet
    yhat_space: Alphabet
    init: np.ndarray  # (|X|,)
    transitions: np.ndarray  # (n-1, |X|, |Yhat|, |X|)
    quantities: np.ndarray  # (n, |X|, |Y|)
    loss: np.ndarray  # (|X|, |Y|, |Yhat|)

    def __post_init__(self) -> None:
        _check_horizon(self.n)
        nx, ny, na = len(self.x_space), len(self.y_space), len(self.yhat_space)
        init, loss = _read_only(self.init), _read_only(self.loss)
        transitions, quantities = _read_only(self.transitions), _read_only(self.quantities)
        _check_shape(init, (nx,), "initial distribution")
        _check_kernels(transitions, self.n - 1, (nx, na, nx), "transition")
        _check_kernels(quantities, self.n, (nx, ny), "quantity")
        _check_shape(loss, (nx, ny, na), "loss table")
        _row_sums(init, _init_row)
        _row_sums(_distinct_rounds(transitions), _transition_rows(self.x_space, self.yhat_space))
        _row_sums(_distinct_rounds(quantities), _quantity_rows(self.x_space))
        # Every sum formed over the horizon (a bar-loss entry, a value of solve,
        # evaluate_markov or the oracle walks, one rollout's loss) adds at most n
        # losses weighted by probabilities, so it is at most n * max|loss| in size,
        # up to rounding and rows within ROW_SUM_TOLERANCE of 1; the factor 2
        # covers those and a difference of two such sums (verify's gap, simulate's
        # deviations from the mean). n - 1 is an array dimension here, so 2 * n
        # converts to a float.
        largest = float(np.abs(loss).max())
        if not math.isfinite(largest):
            raise InvalidModelError("loss table contains a non-finite entry")
        if not math.isfinite(2 * self.n * largest):
            raise InvalidModelError(
                f"loss table entries up to {largest!r} in size can overflow a sum over n = {self.n} rounds"
            )
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "quantities", quantities)
        object.__setattr__(self, "loss", loss)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Problem):
            return NotImplemented
        return _fields_equal(
            self, other, ("n", "x_space", "y_space", "yhat_space", "init", "transitions", "quantities", "loss")
        )


def _normalized_stack(
    table, n: int, rounds: int, row_shape: tuple[int, ...], what: str, describe: Callable[..., str]
) -> np.ndarray:
    table = np.asarray(table, dtype=np.float64)
    single = table.shape[:1] == (1,)  # one kernel for every round
    _check_kernels(table, 1 if single else rounds, row_shape, what)
    if rounds * math.prod(row_shape) * table.itemsize > _MAX_ARRAY_BYTES:
        raise InvalidModelError(f"n = {n} gives {rounds} {what} kernels, more than an array can index")
    return np.broadcast_to(_freeze(_normalized(table, describe)), (rounds,) + row_shape)


def problem_from_tables(
    n: int,
    x_space: Alphabet,
    y_space: Alphabet,
    yhat_space: Alphabet,
    init: np.ndarray | Sequence,
    transitions: np.ndarray | Sequence,
    quantities: np.ndarray | Sequence,
    loss: np.ndarray | Sequence,
) -> Problem:
    """Build a Problem from raw tables, dividing every probability row by its sum once.

    ``init`` has shape (|X|,), ``loss`` shape (|X|, |Y|, |Yhat|);
    ``transitions`` stacks the kernels of rounds 2..n, shape
    (n-1, |X|, |Yhat|, |X|), and ``quantities`` those of rounds 1..n, shape
    (n, |X|, |Y|). A stack of a single kernel serves every round: it is
    normalized once and stored as a read-only broadcast view, which has no
    rounds at all when it is a transition stack and ``n == 1``. A negative
    entry, or a row sum outside 1 +/- ``ROW_SUM_TOLERANCE``, raises
    NotStochastic naming the row; a horizon whose stacked kernels no array
    can index raises InvalidModelError.
    """
    _check_horizon(n)
    nx, ny, na = len(x_space), len(y_space), len(yhat_space)
    init = np.asarray(init, dtype=np.float64)
    _check_shape(init, (nx,), "initial distribution")
    return Problem(
        n,
        x_space,
        y_space,
        yhat_space,
        _freeze(_normalized(init, _init_row)),
        _normalized_stack(transitions, n, n - 1, (nx, na, nx), "transition", _transition_rows(x_space, yhat_space)),
        _normalized_stack(quantities, n, n, (nx, ny), "quantity", _quantity_rows(x_space)),
        loss,
    )


# ---------------------------------------------------------------------------
# Model document format (JSON-shaped dicts)
# ---------------------------------------------------------------------------


def _require(doc: Mapping, key: str):
    if key not in doc:
        raise InvalidModelError(f"model document is missing key {key!r}")
    return doc[key]


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidModelError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidModelError(f"{what} is an integer too large for a float64") from None


# The exact types of a JSON number; a bool is neither, so ``true`` is left to the checked readers.
_NUMBER_TYPES = frozenset((int, float))


def _float_array(values: list) -> np.ndarray | None:
    """``values`` as a float64 array, or None unless each is an int or a float that fits one.

    ``np.array`` rounds an int exactly as ``float`` does.
    """
    if _NUMBER_TYPES.issuperset(map(type, values)):
        try:
            return np.array(values, dtype=np.float64)
        except OverflowError:  # an int past the float64 range
            pass
    return None


def _space_from(doc: Mapping, key: str) -> Alphabet:
    raw = _require(doc, key)
    if not isinstance(raw, list):
        raise InvalidModelError(f"{key} must be an array of strings")
    return Alphabet(tuple(raw))


def _plain_stack(
    nodes: Sequence, levels: Sequence[Sequence[str]], leaves: Callable[[list], np.ndarray | None]
) -> np.ndarray | None:
    """The leaves under ``nodes`` as one array of shape ``(len(nodes), *map(len, levels))``, or None.

    Below ``nodes`` each level must be plain dicts holding exactly that
    level's keys. Each level is gathered in key order with one ``itemgetter``
    pass, and ``leaves`` makes the array of the last level's values, or None
    (:func:`_float_array` for numbers). Anything else returns None, and the
    caller's checked reader names the fault.
    """
    shape = (len(nodes), *map(len, levels))
    try:
        for keys in levels:
            if not ({dict}.issuperset(map(type, nodes)) and {len(keys)}.issuperset(map(len, nodes))):
                return None
            gathered = map(itemgetter(*keys), nodes)  # one key gives bare values, not tuples
            nodes = list(chain.from_iterable(gathered) if len(keys) > 1 else gathered)
        values = leaves(nodes)
    except (KeyError, TypeError):  # a key is missing (another stands in its place), or ``leaves`` refuses a leaf
        return None
    return None if values is None else values.reshape(shape)


def _checked_row(obj, alphabet: Alphabet, what: str) -> np.ndarray:
    """The row of a label -> number object, in alphabet order, read one entry at a time and raising on the first fault."""
    if not isinstance(obj, Mapping):
        raise InvalidModelError(f"{what} must be an object mapping labels to numbers")
    unknown = set(obj) - set(alphabet.labels)
    if unknown:
        raise DimensionMismatch(f"{what} has entries for unknown labels {_labels_text(sorted(unknown))}")
    missing = set(alphabet.labels) - set(obj)
    if missing:
        raise DimensionMismatch(f"{what} is missing entries for labels {_labels_text(sorted(missing))}")
    return np.array([_number(obj[label], f"{what}[{label!r}]") for label in alphabet])


def _pair_index(x_space: Alphabet, yhat_space: Alphabet) -> dict[str, int | None]:
    """Composite ``"x|yhat"`` keys to their pair's slot ``xi * |Yhat| + ai``; None marks a key that names two pairs."""
    pairs: dict[str, int | None] = {}
    for xi, x in enumerate(x_space):
        for ai, yhat in enumerate(yhat_space):
            key = f"{x}|{yhat}"
            pairs[key] = None if key in pairs else xi * len(yhat_space) + ai
    return pairs


def _transition_from_object(
    obj, i: int, x_space: Alphabet, yhat_space: Alphabet, pairs: Mapping[str, int | None]
) -> np.ndarray:
    if not isinstance(obj, Mapping):
        raise InvalidModelError(f"transitions[{i - 2}] must be an object")
    rows: list = [None] * (len(x_space) * len(yhat_space))  # by pair slot
    for key, row in obj.items():
        slot = pairs.get(key)
        if slot is None:
            raise InvalidModelError(
                f"transition key {key!r} does not identify exactly one 'x_prev|yhat_prev' pair"
            )
        rows[slot] = _checked_row(row, x_space, f"transition row (round {i}, key {key!r})")
    if len(obj) < len(rows):  # each key fills its own slot, so some slot is empty
        missing = [
            f"{x}|{yhat}"
            for xi, x in enumerate(x_space)
            for ai, yhat in enumerate(yhat_space)
            if rows[xi * len(yhat_space) + ai] is None
        ]
        raise DimensionMismatch(f"transitions for round {i} are missing rows {_labels_text(missing)}")
    return np.array(rows)  # by pair slot


def _quantity_from_object(obj, i: int, x_space: Alphabet, y_space: Alphabet) -> np.ndarray:
    if not isinstance(obj, Mapping):
        raise InvalidModelError(f"quantities[{i - 1}] must be an object")
    unknown = set(obj) - set(x_space.labels)
    if unknown:
        raise DimensionMismatch(f"quantities for round {i} have rows for unknown labels {_labels_text(sorted(unknown))}")
    missing = set(x_space.labels) - set(obj)
    if missing:
        raise DimensionMismatch(f"quantities for round {i} are missing rows for {_labels_text(sorted(missing))}")
    return np.stack(
        [_checked_row(obj[x], y_space, f"quantity row (round {i}, x={x!r})") for x in x_space]
    )


def _loss_from_records(records, x_space: Alphabet, y_space: Alphabet, yhat_space: Alphabet) -> np.ndarray:
    """The loss table of one ``{x, y, yhat, value}`` record per triple, read in one pass that raises on the first fault.

    A record's labels are looked up in the alphabets' index dicts and a
    finite float value is taken as it is; only an unknown label goes
    through :meth:`Alphabet.index`, and only another value through
    :func:`_number`, which name it. An empty slot reads as NaN.
    """
    if not isinstance(records, list):
        raise InvalidModelError("loss must be an array of {x, y, yhat, value} records")
    nx, ny, na = len(x_space), len(y_space), len(yhat_space)
    x_index, y_index, yhat_index = x_space._index, y_space._index, yhat_space._index  # type: ignore[attr-defined]
    values: list = [None] * (nx * ny * na)
    for record in records:
        if type(record) is not dict and not isinstance(record, Mapping):
            raise InvalidModelError(f"loss record {record!r} is not an object")
        try:
            x, y, yhat = record["x"], record["y"], record["yhat"]
        except KeyError as exc:
            raise InvalidModelError(f"loss record {record!r} is missing key {exc}") from None
        try:
            slot = (x_index[x] * ny + y_index[y]) * na + yhat_index[yhat]
        except (KeyError, TypeError):  # an unknown or unhashable label, which ``index`` names
            slot = (x_space.index(x) * ny + y_space.index(y)) * na + yhat_space.index(yhat)
        if values[slot] is not None:
            raise InvalidModelError(f"loss record for ({x!r}, {y!r}, {yhat!r}) appears twice")
        value = record.get("value")
        if type(value) is not float:
            value = _number(value, f"loss value for ({x!r}, {y!r}, {yhat!r})")
        if not math.isfinite(value):
            raise InvalidModelError(f"loss value for ({x!r}, {y!r}, {yhat!r}) is not finite")
        values[slot] = value
    table = np.array(values, dtype=np.float64).reshape(nx, ny, na)  # None reads as NaN
    gaps = np.argwhere(np.isnan(table))
    if len(gaps):
        xi, yi, ai = gaps[0]
        raise InvalidModelError(
            f"loss is missing a record for ({x_space.labels[xi]!r}, {y_space.labels[yi]!r}, {yhat_space.labels[ai]!r})"
        )
    return table


def validate_problem(candidate: Mapping) -> Problem:
    """Validate a raw model document (a parsed JSON dict) into a Problem.

    Accepts the documented model format. With ``"stationary": true`` (a JSON
    boolean) the single ``transitions`` and ``quantities`` entries are parsed
    and normalized once, and the problem holds read-only broadcast views of
    them over the full horizon (see :func:`problem_from_tables`).
    """
    if not isinstance(candidate, Mapping):
        raise InvalidModelError(f"model document must be an object, got {type(candidate).__name__}")
    n = _require(candidate, "n")
    _check_horizon(n)
    x_space = _space_from(candidate, "x_space")
    y_space = _space_from(candidate, "y_space")
    yhat_space = _space_from(candidate, "yhat_space")
    init = _checked_row(_require(candidate, "init"), x_space, "init")
    stationary = candidate.get("stationary", False)
    if not isinstance(stationary, bool):
        raise InvalidModelError(f"stationary must be true or false, got {stationary!r}")

    raw_transitions = _require(candidate, "transitions")
    raw_quantities = _require(candidate, "quantities")
    if not isinstance(raw_transitions, list) or not isinstance(raw_quantities, list):
        raise InvalidModelError("transitions and quantities must be arrays")
    if stationary:
        # with n = 1 the transition entry serves no round, but it is still checked
        if len(raw_transitions) > 1 or (n > 1 and len(raw_transitions) != 1):
            raise HorizonMismatch(
                f"stationary model expects a single transition entry, got {len(raw_transitions)}"
            )
        if len(raw_quantities) != 1:
            raise HorizonMismatch(
                f"stationary model expects a single quantity entry, got {len(raw_quantities)}"
            )
    else:
        if len(raw_transitions) != n - 1:
            raise HorizonMismatch(f"expected {n - 1} transition entries for n={n}, got {len(raw_transitions)}")
        if len(raw_quantities) != n:
            raise HorizonMismatch(f"expected {n} quantity entries for n={n}, got {len(raw_quantities)}")

    nx, ny, na = len(x_space), len(y_space), len(yhat_space)
    pairs = _pair_index(x_space, yhat_space)
    # a key naming two pairs leaves fewer keys than pairs, and only the checked reader names it
    levels = [tuple(pairs), x_space.labels]
    transitions = _plain_stack(raw_transitions, levels, _float_array) if len(pairs) == nx * na else None
    if transitions is None:
        transitions = np.empty((len(raw_transitions), nx * na, nx))
        for k, obj in enumerate(raw_transitions):
            transitions[k] = _transition_from_object(obj, k + 2, x_space, yhat_space, pairs)
    transitions = transitions.reshape(-1, nx, na, nx)  # each pair slot xi * |Yhat| + ai split in two
    quantities = _plain_stack(raw_quantities, [x_space.labels, y_space.labels], _float_array)
    if quantities is None:
        quantities = np.empty((len(raw_quantities), nx, ny))
        for k, obj in enumerate(raw_quantities):
            quantities[k] = _quantity_from_object(obj, k + 1, x_space, y_space)
    loss = _loss_from_records(_require(candidate, "loss"), x_space, y_space, yhat_space)
    return problem_from_tables(n, x_space, y_space, yhat_space, init, transitions, quantities, loss)


def _transition_to_object(table: np.ndarray, x_space: Alphabet, yhat_space: Alphabet) -> dict:
    rows = table.tolist()
    return {
        f"{x}|{yhat}": dict(zip(x_space.labels, rows[xi][ai]))
        for xi, x in enumerate(x_space)
        for ai, yhat in enumerate(yhat_space)
    }


def _quantity_to_object(table: np.ndarray, x_space: Alphabet, y_space: Alphabet) -> dict:
    return {x: dict(zip(y_space.labels, row)) for x, row in zip(x_space.labels, table.tolist())}


def _rounds_agree(problem: Problem) -> bool:
    """Whether every round has the same transition and quantity tables.

    A stride-0 round axis holds one table for every round, so only a full stack is compared.
    """
    return all(
        stack.strides[0] == 0 or bool((stack == stack[:1]).all())
        for stack in (problem.transitions, problem.quantities)
    )


def problem_to_dict(problem: Problem, stationary: bool | str = "auto") -> dict:
    """Serialize a Problem to the documented model format.

    ``stationary`` may be True, False or "auto"; "auto" emits the compact
    length-1 form whenever every round shares identical tables (and n >= 2).
    Any other value raises InvalidParams, and so does True on a problem
    whose rounds differ, as the compact form would keep only the first
    round's tables. So does a problem whose transitions are written and two
    of whose ``"x|yhat"`` keys are one text, as a reader takes neither.
    """
    if stationary == "auto":
        stationary = problem.n >= 2 and _rounds_agree(problem)
    elif not isinstance(stationary, bool):
        raise InvalidParams(f"stationary must be True, False or 'auto', got {stationary!r}")
    elif stationary and not _rounds_agree(problem):
        raise InvalidParams("the rounds' tables differ, so the problem has no stationary form")
    transitions, quantities = problem.transitions, problem.quantities
    doc = {
        "n": problem.n,
        "x_space": list(problem.x_space.labels),
        "y_space": list(problem.y_space.labels),
        "yhat_space": list(problem.yhat_space.labels),
        "init": dict(zip(problem.x_space.labels, problem.init.tolist())),
    }
    if stationary:
        doc["stationary"] = True
        transitions, quantities = transitions[:1], quantities[:1]
    if len(transitions):
        collided = [key for key, slot in _pair_index(problem.x_space, problem.yhat_space).items() if slot is None]
        if collided:
            raise InvalidParams(
                f"transition key {collided[0]!r} would name two 'x_prev|yhat_prev' pairs, so no document holds the problem"
            )
    doc["transitions"] = [_transition_to_object(t, problem.x_space, problem.yhat_space) for t in transitions]
    doc["quantities"] = [_quantity_to_object(q, problem.x_space, problem.y_space) for q in quantities]
    doc["loss"] = [
        {"x": x, "y": y, "yhat": yhat, "value": float(problem.loss[xi, yi, ai])}
        for xi, x in enumerate(problem.x_space)
        for yi, y in enumerate(problem.y_space)
        for ai, yhat in enumerate(problem.yhat_space)
    ]
    return doc
