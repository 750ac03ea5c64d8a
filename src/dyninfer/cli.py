"""Command-line front end.

Subcommands: ``solve``, ``evaluate``, ``simulate``, ``verify``,
``export-trellis``, ``export bar-loss`` and ``example``. All file arguments
accept ``-`` for the standard streams. Outputs are byte-stable: JSON is
emitted with sorted keys and floats fixed to 12 significant digits, DOT
labels carry 4 decimals, and nothing depends on wall-clock time.

Exit status is 0 on success, 1 on domain errors (reported as a single JSON
line on stderr) and 2 on usage errors. ``DYNINFER_SEED`` provides the
default for every ``--seed`` flag.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import decimal
import functools
import io
import json
import os
import stat
import sys
import tempfile
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import examples as example_models
from .errors import DynamicInferenceError, InvalidModelError, InvalidParams
from .evaluate import MarkovStrategy, evaluate_markov, simulate
from .model import Problem, _init_row, _normalized, _number, problem_to_dict, validate_problem
from .oracle import DEFAULT_HISTORY_LIMIT, HistoryMode, OracleStack, _problem_stack, random_sweep
from .reduction import bar_loss_table
from .solver import TieBreakRule, minimum_inference_loss, solve
from .trellis import export_trellis


# the most values the writers format in one pass; a table is read this many cells at a time
BLOCK = 2**12


def _numbers(values: Sequence[float]) -> list[str]:
    """The JSON text of each finite float rounded to 12 significant digits, ``repr(float(format(v, ".12g")))``.

    The values are formatted by one ``"%.12g"`` pass per block of at most
    ``BLOCK`` values. A piece of at most 12 significant digits is already the
    shortest text that reads back as its float, so ``repr`` writes the same
    digits wherever both write positional text; a piece with an exponent or
    without a ``.`` is written as ``repr(float(piece))``.
    """
    texts: list[str] = []
    for start in range(0, len(values), BLOCK):
        block = values[start : start + BLOCK]
        text = ("%.12g\n" * len(block)) % tuple(block)
        part = text.split()
        if "e" in text or text.count(".") < len(part):
            part = [piece if "." in piece and "e" not in piece else repr(float(piece)) for piece in part]
        texts += part
    return texts


def _canonical(obj: Any) -> Any:
    """``obj`` with every float rounded to 12 significant digits, which keeps its JSON text byte-stable."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {key: _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(value) for value in obj]
    return obj


def _document(members: dict[str, Iterable[str]]) -> Iterator[str]:
    """A top-level JSON object as ``json.dumps(sort_keys=True, indent=2)`` writes it, plus a newline.

    ``members`` maps each key to the chunks of its value's text; the chunks
    are passed on one by one, so a value given as a generator is written as
    it is made.
    """
    separator = "{\n  "
    for key in sorted(members):
        yield separator + json.dumps(key) + ": "
        yield from members[key]
        separator = ",\n  "
    yield "\n}\n"


class _RoundTables:
    """Per-round tables keyed by labels, written as ``json.dumps(sort_keys=True, indent=2)`` writes them.

    A table is a member of a top-level object: an array with one object per
    round, keyed by the observation labels. A value is a number, an object
    of numbers keyed by the estimate labels, an estimate label, or an array
    of estimate labels (a tie set, read from a row of the tie mask, whose
    text is made once per distinct row). A round's ``%`` template is made
    once from the label texts; a block of rounds is that template joined
    once per round, filled in one ``%`` pass with its values' texts in the
    sorted order of the labels.
    """

    def __init__(self, x_labels: tuple[str, ...], yhat_labels: tuple[str, ...]) -> None:
        self._x_order, self._flat = self._object(x_labels, 3, "%s")
        self._yhat_order, numbers = self._object(yhat_labels, 4, "%s")
        self._nested = self._object(x_labels, 3, numbers)[1]
        self._estimates = np.array([json.dumps(label) for label in yhat_labels], dtype=object)
        self._tie_texts: dict[bytes, str] = {}

    @staticmethod
    def _object(labels: tuple[str, ...], depth: int, value: str) -> tuple[np.ndarray, str]:
        """The label indices in sorted order, and a ``%`` template of the object with ``value`` for each member's value.

        Each ``%`` of a label is doubled, so the only fields are those of the values.
        """
        order = sorted(range(len(labels)), key=labels.__getitem__)
        indent = "\n" + "  " * depth
        keys = [json.dumps(labels[i]).replace("%", "%%") for i in order]
        heads = [("," if j else "{") + indent + key + ": " for j, key in enumerate(keys)]
        return np.array(order), value.join(heads) + value + "\n" + "  " * (depth - 1) + "}"

    def table(self, table: np.ndarray, texts: Callable[[np.ndarray], list[str]], nested: bool = False) -> Iterator[str]:
        """The text of one table, one chunk per block of rounds.

        ``table`` is indexed by round, then observation (then estimate, for
        ``nested`` objects of numbers). ``texts`` makes the value texts of a
        block of rounds, read with their observations (and estimates) in
        sorted label order; a block holds at most ``BLOCK`` values, or one
        round. Each round's text follows a ``,`` and a line end; the first
        block drops its leading ``,``.
        """
        size = len(self._x_order)
        if nested:
            index, template = (slice(None), self._x_order[:, None], self._yhat_order), self._nested
            size *= len(self._yhat_order)
        else:
            index, template = (slice(None), self._x_order), self._flat
        step = max(1, BLOCK // size)
        template = ",\n    " + template
        block = template * min(step, len(table))
        yield "["
        for start in range(0, len(table), step):
            rounds = min(step, len(table) - start)
            # one expression, so no block's texts outlive its chunk; a last, shorter block fills a prefix
            yield block[start == 0 : rounds * len(template)] % tuple(texts(table[start : start + rounds][index]))
        yield "\n  ]"

    @staticmethod
    def numbers(block: np.ndarray) -> list[str]:
        return _numbers(block.ravel().tolist())

    def estimates(self, block: np.ndarray) -> list[str]:
        return self._estimates[block.ravel()].tolist()

    def tie_sets(self, block: np.ndarray) -> list[str]:
        """The text of each tie set of ``block``, keyed by the bytes of its mask row."""
        rows = np.ascontiguousarray(block).view(np.dtype((np.void, block.shape[-1]))).ravel().tolist()
        for key in set(rows).difference(self._tie_texts):
            tied = self._estimates[np.frombuffer(key, dtype=bool)]
            self._tie_texts[key] = "[" + ",".join([f"\n        {estimate}" for estimate in tied]) + "\n      ]"
        return list(map(self._tie_texts.__getitem__, rows))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _replacement_mode(path: str, target: str) -> int | None:
    """The mode bits of a file that replaces ``path``'s resolved ``target``, or None to write in place.

    A path under ``/dev/`` or ``/proc/`` is written in place, checked before
    its links are resolved, as ``/dev/stdout`` may lead to a regular file. So
    is a file that is not regular, not writable or cannot be looked up, and
    ``open`` then reports any fault as before. A new file takes ``0o666``
    less the umask.
    """
    if os.path.abspath(path).startswith(("/dev/", "/proc/")):
        return None
    try:
        info = os.stat(target)
    except FileNotFoundError:
        umask = os.umask(0o022)
        os.umask(umask)
        return 0o666 & ~umask
    except OSError:
        return None
    if stat.S_ISREG(info.st_mode) and os.access(target, os.W_OK):
        return stat.S_IMODE(info.st_mode)
    return None


# bytes an output file, or an unbuffered standard output, holds before it writes them out
WRITE_BUFFER = 2**16


def _write_stdout(chunks: Iterable[str]) -> None:
    """Write ``chunks`` to standard output's buffer as bytes in its encoding, and flush it.

    Under ``python -u`` the buffer is the raw file, which may take part of a
    write; a buffered writer around it writes the rest and is detached after.
    """
    stream = sys.stdout
    binary = getattr(stream, "buffer", None)
    if binary is None:  # a text stream alone, such as io.StringIO
        stream.writelines(chunks)
        return
    out = io.BufferedWriter(binary, WRITE_BUFFER) if isinstance(binary, io.RawIOBase) else binary
    try:
        stream.flush()  # text written before this command goes first
        for chunk in chunks:
            out.write(chunk.encode(stream.encoding, stream.errors))
        out.flush()
    except BrokenPipeError:  # what the buffers still hold goes to the null device, not to the exit flush
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, stream.fileno())
        finally:
            os.close(null)
        raise
    finally:
        if out is not binary:
            out.detach()


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` one by one to ``path`` (``-`` for stdout), opened only now.

    A regular or new file is replaced only once the last chunk is written:
    the chunks go to a temporary file in the resolved file's directory, which
    takes the old file's mode bits and is renamed onto it, so a failure or an
    interrupt part way leaves the old file as it was, and a symlink stays a
    link. Anything :func:`_replacement_mode` refuses, and a file whose
    directory takes no new file, is written in place. Either file holds
    ``WRITE_BUFFER`` bytes between writes. Standard output is flushed here
    (see :func:`_write_stdout`), so a closed pipe fails inside the command.
    """
    if path == "-":
        _write_stdout(chunks)
        return
    target = os.path.realpath(path)
    mode = _replacement_mode(path, target)
    if mode is not None:
        try:
            fd, temp = tempfile.mkstemp(prefix=".dyninfer-", dir=os.path.dirname(target))
        except OSError:  # no such directory, or no new file allowed there
            mode = None
    if mode is None:
        with open(path, "w", WRITE_BUFFER, encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        return
    try:
        with open(fd, "w", WRITE_BUFFER, encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.chmod(temp, mode)
        os.replace(temp, target)
    except BaseException:  # Ctrl-C too
        os.unlink(temp)
        raise


def _parse_json(text: str, source: str) -> Any:
    # json.loads raises JSONDecodeError, a plain ValueError for an integer past the
    # int-string limit, and RecursionError for nesting deeper than its stack
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidModelError(f"{source}: not valid JSON: {exc}") from None


def _read_json(path: str) -> Any:
    return _parse_json(_read_text(path), path)


def _load_problem(path: str) -> Problem:
    return validate_problem(_read_json(path))


def _load_strategy(problem: Problem, path: str) -> MarkovStrategy:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "policy" not in doc:
        raise InvalidModelError(f"{path}: strategy document must be an object with a 'policy' key")
    rows = doc["policy"]
    if not isinstance(rows, list):
        raise InvalidModelError(f"{path}: 'policy' must be an array of per-round objects")
    return MarkovStrategy.from_rows(problem, rows)


def _with_init(problem: Problem, text: str) -> Problem:
    """``problem`` with an --init override: a JSON label->probability object, or a bare label.

    A bare label is read as ``{label: 1.0}`` and labels left out get
    probability 0; the row is checked, then divided by its sum once. The new
    problem is built by ``Problem``'s own constructor and shares the other,
    read-only tables.
    """
    if text.lstrip().startswith("{"):
        doc = _parse_json(text, "--init")
        if not isinstance(doc, dict):
            raise InvalidModelError("--init: expected an object mapping labels to probabilities")
    else:
        doc = {text: 1.0}
    probs = np.zeros(len(problem.x_space))
    for label, value in doc.items():
        probs[problem.x_space.index(label)] = _number(value, f"--init: probability for {label!r}")
    return dataclasses.replace(problem, init=_normalized(probs, _init_row))


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = _load_problem(args.model)
    if args.init is not None:
        problem = _with_init(problem, args.init)
    result = solve(problem, TieBreakRule(args.tie_break))
    min_loss = minimum_inference_loss(result)
    tables = _RoundTables(problem.x_space.labels, problem.yhat_space.labels)
    members = {
        "min_loss": _numbers([min_loss]),
        "n": [str(problem.n)],
        "policy": tables.table(result.policy, tables.estimates),
        "q_star": tables.table(result.q_star, tables.numbers, nested=True),
        "tie_break": [json.dumps(result.rule.value)],
        "ties": tables.table(result.tied, tables.tie_sets),
        "v_star": tables.table(result.v_star, tables.numbers),
    }
    _write(args.output, _document(members))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    problem = _load_problem(args.model)
    strategy = _load_strategy(problem, args.strategy)
    result = evaluate_markov(problem, strategy)
    tables = _RoundTables(problem.x_space.labels, problem.yhat_space.labels)
    members = {"j": _numbers([result.j]), "v": tables.table(result.v, tables.numbers)}
    _write(args.output, _document(members))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    problem = _load_problem(args.model)
    strategy = _load_strategy(problem, args.strategy)
    result = simulate(problem, strategy, args.rollouts, args.seed)
    members = {
        "mean": _numbers([result.mean]),
        "rollouts": [str(result.rollouts)],
        "seed": [str(result.seed)],
        "var": _numbers([result.variance]),
    }
    _write(args.output, _document(members))
    return 0


# histories whose decisions are coded as one integer when a witness is written
WITNESS_CHUNK = 8


def _witness_heads(stack: OracleStack) -> list[str]:
    """JSON text of each witness row up to its estimate, by round and rank.

    A row is ``{"round": i, "x_history": [...], "y_history": [...], "yhat": label}``,
    as ``json.dumps`` writes it with sorted keys. The text of each round's
    histories extends that of the round before by one label.
    """
    x_labels = [json.dumps(label) for label in stack.x_labels]
    y_labels = [json.dumps(label) for label in stack.y_labels]
    revealed = stack.mode is HistoryMode.REVEALED
    xs, ys = x_labels, [""]
    heads = []
    for i in range(1, stack.n + 1):
        if i > 1:
            xs = [f"{prefix}, {x}" for prefix in xs for x in x_labels]
            if revealed:
                ys = y_labels if i == 2 else [f"{prefix}, {y}" for prefix in ys for y in y_labels]
        heads.extend([f'{{"round": {i}, "x_history": [{x}], "y_history": [{y}], "yhat": ' for x in xs for y in ys])
    return heads


def _chunk_text(code: int, heads: list[str], estimates: list[str]) -> str:
    """The witness rows of ``heads`` with the estimates read from ``code``'s base-|Yhat| digits, lowest first."""
    rows = []
    for head in heads:
        code, digit = divmod(code, len(estimates))
        rows.append(head + estimates[digit])
    return ", ".join(rows)


def _witness_texts(stack: OracleStack) -> Iterator[str]:
    """The witness rows of each row of ``stack``, as the text between the brackets of its ``witness``.

    The histories are read in chunks of at most ``WITNESS_CHUNK``: a chunk's
    decisions are coded as one base-|Yhat| integer per row, which stays
    below 2^63, and the chunk's text is built once per distinct code.
    """
    heads = _witness_heads(stack)
    estimates = [json.dumps(label) + "}" for label in stack.yhat_labels]
    radix = len(estimates)
    width = min(WITNESS_CHUNK, 63 // radix.bit_length())  # radix**width < 2**63
    batch, size = len(stack.instances), len(heads)
    chunks = -(-size // width)
    digits = np.zeros((batch, chunks * width), dtype=np.int64)
    np.concatenate(stack.decisions, axis=1, out=digits[:, :size])
    codes = digits.reshape(batch, chunks, width) @ radix ** np.arange(width, dtype=np.int64)
    columns = []
    for start, column in zip(range(0, size, width), codes.T.tolist()):
        texts = {code: _chunk_text(code, heads[start : start + width], estimates) for code in set(column)}
        columns.append(map(texts.__getitem__, column))
    return map(", ".join, zip(*columns))


def _power_text(base: int, exponent: int) -> str:
    """``str(base**exponent)``, formed exactly in ``decimal``: unlike an ``int``'s, its text has no digit limit."""
    return str(decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX).power(decimal.Decimal(base), exponent))


def _oracle_lines(stacks: Iterable[OracleStack], instances: Sequence[str]) -> list[str]:
    """One JSON line per instance, with sorted keys and 12-digit floats, as ``json.dumps`` writes it.

    ``instances`` holds the JSON text of each instance, indexed by the row
    numbers of the stacks, which together cover them once each; the lines
    come in that order. A line is written straight from its stack's arrays:
    each float once, by ``_numbers``, and the witness by
    :func:`_witness_texts`.
    """
    lines = [""] * len(instances)
    for stack in stacks:
        fields = (
            f'"mode": {json.dumps(stack.mode.value)}, "n": {stack.n}, '
            f'"strategies_searched": {_power_text(len(stack.yhat_labels), stack.histories)}, "witness": ['
        )
        floats = (stack.brute_min, stack.dp_min, stack.gap, stack.lhs, stack.rhs)
        numbers = (_numbers(column.tolist()) for column in floats)
        rows = zip(stack.instances.tolist(), *numbers, _witness_texts(stack))
        for k, brute, dp, gap, lhs, rhs, witness in rows:
            lines[k] = (
                f'{{"brute_min": {brute}, "dp_min": {dp}, "gap": {gap}, "instance": {instances[k]}, '
                f'"lemma1_pairs": [[{lhs}, {rhs}]], {fields}{witness}]}}\n'
            )
    return lines


def _cmd_verify(args: argparse.Namespace) -> int:
    mode = HistoryMode(args.mode)
    if args.instances is not None:
        if args.instances < 1:
            raise InvalidParams(f"--instances must be >= 1, got {args.instances}")
        stacks = random_sweep(args.seed, args.instances, mode, args.limit)
        instances = list(map(str, range(args.instances)))
    else:
        if args.model is None:
            raise InvalidModelError("verify needs --model or --instances")
        stacks = [_problem_stack(_load_problem(args.model), mode, args.limit)]
        instances = [json.dumps("model")]
    gaps = [np.abs(stack.gap) for stack in stacks]
    gap_max = max(float(gap.max()) for gap in gaps)
    verdict = "PASS" if all((gap <= stack.gap_bound).all() for gap, stack in zip(gaps, stacks)) else "FAIL"
    _write(args.output, [*_oracle_lines(stacks, instances), f"{verdict} gap_max={format(gap_max, '.3e')}\n"])
    return 0 if verdict == "PASS" else 1


def _cmd_export_trellis(args: argparse.Namespace) -> int:
    result = solve(_load_problem(args.model), TieBreakRule(args.tie_break))
    _write(args.output, [export_trellis(result, args.format)])
    return 0


def _cmd_export_bar_loss(args: argparse.Namespace) -> int:
    problem = _load_problem(args.model)
    table = bar_loss_table(problem)
    labels = problem.x_space.labels + problem.yhat_space.labels
    # the writer quotes a field holding ',', '"' or LF, but not one holding CR, which a reader takes for a line end
    quoting = csv.QUOTE_ALL if any("\r" in label for label in labels) else csv.QUOTE_MINIMAL
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n", quoting=quoting)
    writer.writerow(("round", "x", "yhat", "value"))
    for i, round_rows in enumerate(table.values.tolist(), start=1):
        for x, row in zip(problem.x_space.labels, round_rows):
            for yhat, value in zip(problem.yhat_space.labels, row):
                writer.writerow((i, x, yhat, format(value, ".12g")))
    _write(args.output, [text.getvalue()])
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    if args.which == "section33":
        problem = example_models.example_section33(args.n)
    elif args.which == "stock":
        problem = example_models.example_stock(args.n)
    else:
        if not (args.grid_step > 0 and np.isfinite([args.grid_min, args.grid_max, args.grid_step]).all()):
            raise InvalidParams("--grid-min, --grid-max and --grid-step must be finite, and --grid-step > 0")
        try:
            grid = np.arange(args.grid_min, args.grid_max + args.grid_step / 2, args.grid_step)
        except ValueError as exc:  # more points than an array can index
            raise InvalidParams(f"--grid-min, --grid-max and --grid-step give too many grid points: {exc}") from None
        params = example_models.YieldParams(
            beta=args.beta,
            d_c=args.dc,
            grid=tuple(float(v) for v in grid),
            c_missed=args.c_missed,
            c_danger=args.c_danger,
            planner=example_models.PlannerStyle(args.planner),
        )
        problem = example_models.example_yield(args.n, params)
    _write(args.output, [json.dumps(_canonical(problem_to_dict(problem)), sort_keys=True, indent=2) + "\n"])
    return 0


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, tuple[argparse.Action, ...]]:
    """The parser, built once per process, and its ``--seed`` actions, whose default ``run`` sets before each parse."""
    parser = argparse.ArgumentParser(prog="dyninfer", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    seeds = []

    def add_model(p: argparse._ActionsContainer, required: bool = True) -> None:
        p.add_argument("-m", "--model", required=required, default=None, help="model JSON file ('-' for stdin)")

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default="-", help="output file ('-' for stdout)")

    p_solve = sub.add_parser("solve", help="solve a model by backward induction")
    add_model(p_solve)
    tie_breaks = [rule.value for rule in TieBreakRule]
    p_solve.add_argument("--tie-break", choices=tie_breaks, default="myopic")
    p_solve.add_argument("--init", default=None, help="override the initial distribution: a label or a JSON object")
    add_output(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_eval = sub.add_parser("evaluate", help="exactly evaluate a strategy")
    add_model(p_eval)
    p_eval.add_argument("-s", "--strategy", required=True, help="strategy JSON file ('-' for stdin)")
    add_output(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo rollouts of a strategy")
    add_model(p_sim)
    p_sim.add_argument("-s", "--strategy", required=True, help="strategy JSON file ('-' for stdin)")
    p_sim.add_argument("--rollouts", type=int, default=10_000)
    seeds.append(p_sim.add_argument("--seed", type=int))
    add_output(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="brute-force check against the solver")
    source = p_verify.add_mutually_exclusive_group()
    add_model(source, required=False)
    source.add_argument("--instances", type=int, default=None, help="sweep K random binary instances instead of -m")
    p_verify.add_argument("--mode", choices=[mode.value for mode in HistoryMode], default="unrevealed")
    p_verify.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_HISTORY_LIMIT,
        help="largest admissible number of histories to search",
    )
    seeds.append(p_verify.add_argument("--seed", type=int))
    add_output(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_trellis = sub.add_parser("export-trellis", help="render the solved trellis")
    add_model(p_trellis)
    p_trellis.add_argument("-f", "--format", choices=["dot", "text"], default="dot")
    p_trellis.add_argument("--tie-break", choices=tie_breaks, default="myopic")
    add_output(p_trellis)
    p_trellis.set_defaults(func=_cmd_export_trellis)

    p_export = sub.add_parser("export", help="export derived tables")
    export_sub = p_export.add_subparsers(dest="what", required=True)
    p_bar = export_sub.add_parser("bar-loss", help="observation-estimate loss table as CSV")
    add_model(p_bar)
    add_output(p_bar)
    p_bar.set_defaults(func=_cmd_export_bar_loss)

    p_example = sub.add_parser("example", help="write a built-in model to JSON")
    example_sub = p_example.add_subparsers(dest="which", required=True)
    for which in ("section33", "stock"):
        p_which = example_sub.add_parser(which)
        p_which.add_argument("--n", type=int, default=6)
        add_output(p_which)
        p_which.set_defaults(func=_cmd_example, which=which)
    p_yield = example_sub.add_parser("yield")
    p_yield.add_argument("--n", type=int, default=4)
    p_yield.add_argument("--beta", type=float, default=1.0)
    p_yield.add_argument("--dc", type=float, default=10.0)
    p_yield.add_argument("--grid-min", type=float, default=0.0)
    p_yield.add_argument("--grid-max", type=float, default=20.0)
    p_yield.add_argument("--grid-step", type=float, default=2.0)
    p_yield.add_argument("--c-missed", type=float, default=0.05)
    p_yield.add_argument("--c-danger", type=float, default=1.0)
    p_yield.add_argument(
        "--planner", choices=[style.value for style in example_models.PlannerStyle], default="persist"
    )
    add_output(p_yield)
    p_yield.set_defaults(func=_cmd_example, which="yield")

    return parser, tuple(seeds)


def run(argv: list[str] | None = None) -> int:
    """Dispatch one invocation; returns the process exit status."""
    parser, seeds = _parser()
    # a string default is converted by the action's type, and a bad one is a usage error, as a bad --seed is
    for action in seeds:
        action.default = os.environ.get("DYNINFER_SEED", "0")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    # MemoryError: numpy refuses an allocation that the input's sizes call for
    except (DynamicInferenceError, OSError, UnicodeDecodeError, MemoryError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
