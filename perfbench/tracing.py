"""Spans around the calls into each dyninfer layer, recorded from outside the program.

The tracer replaces public functions at the module-global names their callers
look up (``dyninfer.cli.validate_problem``, ``dyninfer.oracle.solve``, ...)
with wrappers that record a span: name, start, end and the id of the
enclosing span. Spans stay in memory until the pass ends. A name the program
no longer has is skipped, so the layer reads as zero rather than failing.
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _solve_counts(args, result) -> dict:
    problem = args[0]
    nx, nyhat = len(problem.x_space), len(problem.yhat_space)
    ties = sum(1 for round_ties in result.tie_sets for tie in round_ties if len(tie) > 1)
    return {"madds": (problem.n - 1) * nx * nyhat * nx, "ties": ties}


def _draw_counts(args, result) -> dict:
    return {"draws": int(args[1]) * int(args[2])}


def _history_counts(args, result) -> dict:
    from dyninfer.oracle import history_count

    return {"histories": history_count(args[0], args[1])}


def _trellis_counts(args, result) -> dict:
    return {"nodes": len(result.nodes), "edges": len(result.edges)}


# (module, attribute, span name, counts taken from the arguments and result)
HOOKS = (
    ("dyninfer.cli", "validate_problem", "model.validate_problem", None),
    ("dyninfer.cli", "solve", "solver.solve", _solve_counts),
    ("dyninfer.oracle", "solve", "solver.solve", _solve_counts),
    ("dyninfer.cli", "bar_loss_table", "reduction.bar_loss_table", None),
    ("dyninfer.solver", "bar_loss_table", "reduction.bar_loss_table", None),
    ("dyninfer.evaluate", "bar_loss_table", "reduction.bar_loss_table", None),
    ("dyninfer.oracle", "bar_loss_table", "reduction.bar_loss_table", None),
    ("dyninfer.solver", "myopic_bayes_index", "reduction.myopic", None),
    ("dyninfer.solver", "myopic_bayes_estimate", "reduction.myopic", None),
    ("dyninfer.evaluate", "myopic_bayes_index", "reduction.myopic", None),
    ("dyninfer.trellis", "myopic_bayes_estimate", "reduction.myopic", None),
    ("dyninfer.cli", "evaluate_markov", "evaluate.evaluate_markov", None),
    ("dyninfer.cli", "simulate", "evaluate.simulate", None),
    ("dyninfer.evaluate", "uniform_matrix", "rng.uniform_matrix", _draw_counts),
    ("dyninfer.cli", "brute_force_optimum", "oracle.brute_force_optimum", _history_counts),
    ("dyninfer.oracle", "verify_lemma1", "oracle.verify_lemma1", None),
    ("dyninfer.cli", "random_problem", "oracle.random_problem", None),
    ("dyninfer.cli", "export_trellis", "trellis.export_trellis", None),
    ("dyninfer.trellis", "build_trellis", "trellis.build_trellis", _trellis_counts),
    ("dyninfer.examples", "example_yield", "examples.example_yield", None),
)

# spans whose peak of memory allocated during the call is recorded, in MB, with
# tracemalloc (numpy reports its array buffers to it); peak resident memory
# cannot show this, as it never falls in a process that runs many rounds.
# Only a tracer's first call of each is measured, as tracemalloc makes the
# call about twice as slow and would distort its time in every later round.
MEMORY_SPANS = {"evaluate.simulate"}


class Tracer:
    """Records nested spans in memory; ``install`` patches the hooks, ``uninstall`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._memory_measured: set[str] = set()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def install(self) -> None:
        for module_name, attribute, name, counts in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if original is None:
                continue
            setattr(module, attribute, self._wrap(original, name, counts))
            self._patched.append((module, attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attribute, original = self._patched.pop()
            setattr(module, attribute, original)

    def _wrap(self, function, name: str, counts):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            memory = name in MEMORY_SPANS and name not in self._memory_measured
            if memory:
                self._memory_measured.add(name)
                tracemalloc.start()
            try:
                with self.span(name) as record:
                    result = function(*args, **kwargs)
            finally:
                if memory:
                    record["attrs"]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if counts is not None:
                record["attrs"].update(counts(args, result))
            return result

        return traced


def summarize(spans: list[dict]) -> dict:
    """Per span name: call count, total and self seconds, and summed counts.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so the children never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    summary: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span in spans:
        entry = summary[span["name"]]
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[span["id"]]
        for key, value in span["attrs"].items():
            if key == "peak_mb":
                entry[key] = max(entry.get(key, 0.0), value)
            elif isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
    return dict(summary)
