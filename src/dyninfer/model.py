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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    HorizonMismatch,
    InvalidModelError,
    NotStochastic,
    UnknownLabel,
)

ROW_SUM_TOLERANCE = 1e-9


def _row_sums(table: np.ndarray, describe: Callable[..., str]) -> np.ndarray:
    """Sums over the last axis of ``table``, every row checked to be a distribution.

    The first bad row in index order is reported, with ``describe`` called on
    its index to name it.
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


def _check_horizon(n: object) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidModelError(f"horizon must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct string labels with a stable index."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if not labels:
            raise InvalidModelError("an alphabet must contain at least one label")
        if any(not isinstance(label, str) for label in labels):
            raise InvalidModelError(f"alphabet labels must be strings: {labels!r}")
        if len(set(labels)) != len(labels):
            raise InvalidModelError(f"alphabet labels must be distinct: {labels!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {label: k for k, label in enumerate(labels)})

    def index(self, label: object) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except (KeyError, TypeError):  # an unhashable label is never a member
            raise UnknownLabel(f"label {label!r} not in alphabet {self.labels}") from None

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

    Construction checks shapes, signs, row sums and finiteness, and stores
    the values as given, without renormalizing them, so
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
        _row_sums(transitions, _transition_rows(self.x_space, self.yhat_space))
        _row_sums(quantities, _quantity_rows(self.x_space))
        if not np.isfinite(loss).all():
            raise InvalidModelError("loss table contains a non-finite entry")
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "quantities", quantities)
        object.__setattr__(self, "loss", loss)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Problem):
            return NotImplemented
        return (
            self.n == other.n
            and self.x_space == other.x_space
            and self.y_space == other.y_space
            and self.yhat_space == other.yhat_space
            and np.array_equal(self.init, other.init)
            and np.array_equal(self.transitions, other.transitions)
            and np.array_equal(self.quantities, other.quantities)
            and np.array_equal(self.loss, other.loss)
        )


def _normalized_stack(
    table, rounds: int, row_shape: tuple[int, ...], what: str, describe: Callable[..., str]
) -> np.ndarray:
    table = np.asarray(table, dtype=np.float64)
    single = table.shape[:1] == (1,)  # one kernel for every round
    _check_kernels(table, 1 if single else rounds, row_shape, what)
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
    NotStochastic naming the row.
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
        _normalized_stack(transitions, n - 1, (nx, na, nx), "transition", _transition_rows(x_space, yhat_space)),
        _normalized_stack(quantities, n, (nx, ny), "quantity", _quantity_rows(x_space)),
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
    return float(value)


def _space_from(doc: Mapping, key: str) -> Alphabet:
    raw = _require(doc, key)
    if not isinstance(raw, list):
        raise InvalidModelError(f"{key} must be an array of strings")
    return Alphabet(tuple(raw))


def _row_from_object(obj, alphabet: Alphabet, what: str) -> np.ndarray:
    if not isinstance(obj, Mapping):
        raise InvalidModelError(f"{what} must be an object mapping labels to numbers")
    unknown = set(obj) - set(alphabet.labels)
    if unknown:
        raise DimensionMismatch(f"{what} has entries for unknown labels {sorted(unknown)}")
    missing = set(alphabet.labels) - set(obj)
    if missing:
        raise DimensionMismatch(f"{what} is missing entries for labels {sorted(missing)}")
    return np.array([_number(obj[label], f"{what}[{label!r}]") for label in alphabet])


def _pair_index(x_space: Alphabet, yhat_space: Alphabet) -> dict[str, tuple[int, int] | None]:
    """Composite ``"x|yhat"`` keys to index pairs; None marks a key that names two pairs."""
    pairs: dict[str, tuple[int, int] | None] = {}
    for xi, x in enumerate(x_space):
        for ai, yhat in enumerate(yhat_space):
            key = f"{x}|{yhat}"
            pairs[key] = None if key in pairs else (xi, ai)
    return pairs


def _transition_from_object(
    obj, i: int, x_space: Alphabet, yhat_space: Alphabet, pairs: Mapping[str, tuple[int, int] | None]
) -> np.ndarray:
    if not isinstance(obj, Mapping):
        raise InvalidModelError(f"transitions[{i - 2}] must be an object")
    table = np.empty((len(x_space), len(yhat_space), len(x_space)))
    filled = np.zeros((len(x_space), len(yhat_space)), dtype=bool)
    for key, row in obj.items():
        pair = pairs.get(key)
        if pair is None:
            raise InvalidModelError(
                f"transition key {key!r} does not identify exactly one 'x_prev|yhat_prev' pair"
            )
        table[pair] = _row_from_object(row, x_space, f"transition row (round {i}, key {key!r})")
        filled[pair] = True
    if not filled.all():
        missing = [
            f"{x}|{yhat}"
            for xi, x in enumerate(x_space)
            for ai, yhat in enumerate(yhat_space)
            if not filled[xi, ai]
        ]
        raise DimensionMismatch(f"transitions for round {i} are missing rows {missing}")
    return table


def _quantity_from_object(obj, i: int, x_space: Alphabet, y_space: Alphabet) -> np.ndarray:
    if not isinstance(obj, Mapping):
        raise InvalidModelError(f"quantities[{i - 1}] must be an object")
    unknown = set(obj) - set(x_space.labels)
    if unknown:
        raise DimensionMismatch(f"quantities for round {i} have rows for unknown labels {sorted(unknown)}")
    missing = set(x_space.labels) - set(obj)
    if missing:
        raise DimensionMismatch(f"quantities for round {i} are missing rows for {sorted(missing)}")
    return np.stack(
        [_row_from_object(obj[x], y_space, f"quantity row (round {i}, x={x!r})") for x in x_space]
    )


def _loss_from_records(records, x_space: Alphabet, y_space: Alphabet, yhat_space: Alphabet) -> np.ndarray:
    if not isinstance(records, list):
        raise InvalidModelError("loss must be an array of {x, y, yhat, value} records")
    table = np.full((len(x_space), len(y_space), len(yhat_space)), np.nan)
    for record in records:
        if not isinstance(record, Mapping):
            raise InvalidModelError(f"loss record {record!r} is not an object")
        try:
            x, y, yhat = record["x"], record["y"], record["yhat"]
        except KeyError as exc:
            raise InvalidModelError(f"loss record {record!r} is missing key {exc}") from None
        xi, yi, ai = x_space.index(x), y_space.index(y), yhat_space.index(yhat)
        if not np.isnan(table[xi, yi, ai]):
            raise InvalidModelError(f"loss record for ({x!r}, {y!r}, {yhat!r}) appears twice")
        value = _number(record.get("value"), f"loss value for ({x!r}, {y!r}, {yhat!r})")
        if not np.isfinite(value):
            raise InvalidModelError(f"loss value for ({x!r}, {y!r}, {yhat!r}) is not finite")
        table[xi, yi, ai] = value
    if np.any(np.isnan(table)):
        first = np.argwhere(np.isnan(table))[0]
        raise InvalidModelError(
            "loss is missing a record for "
            f"({x_space.labels[first[0]]!r}, {y_space.labels[first[1]]!r}, {yhat_space.labels[first[2]]!r})"
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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidModelError(f"n must be an integer >= 1, got {n!r}")
    x_space = _space_from(candidate, "x_space")
    y_space = _space_from(candidate, "y_space")
    yhat_space = _space_from(candidate, "yhat_space")
    init = _row_from_object(_require(candidate, "init"), x_space, "init")
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
    transitions = np.empty((len(raw_transitions), nx, na, nx))
    for k, obj in enumerate(raw_transitions):
        transitions[k] = _transition_from_object(obj, k + 2, x_space, yhat_space, pairs)
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


def _is_stationary(stack: np.ndarray) -> bool:
    return bool((stack == stack[:1]).all())


def problem_to_dict(problem: Problem, stationary: bool | str = "auto") -> dict:
    """Serialize a Problem to the documented model format.

    ``stationary`` may be True, False or "auto"; "auto" emits the compact
    length-1 form whenever every round shares identical tables (and n >= 2).
    """
    if stationary == "auto":
        stationary = (
            problem.n >= 2 and _is_stationary(problem.transitions) and _is_stationary(problem.quantities)
        )
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
    doc["transitions"] = [_transition_to_object(t, problem.x_space, problem.yhat_space) for t in transitions]
    doc["quantities"] = [_quantity_to_object(q, problem.x_space, problem.y_space) for q in quantities]
    doc["loss"] = [
        {"x": x, "y": y, "yhat": yhat, "value": float(problem.loss[xi, yi, ai])}
        for xi, x in enumerate(problem.x_space)
        for yi, y in enumerate(problem.y_space)
        for ai, yhat in enumerate(problem.yhat_space)
    ]
    return doc
