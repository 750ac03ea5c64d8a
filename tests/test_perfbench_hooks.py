"""The benchmark's tracer patches dyninfer by name; every name it hooks must still exist."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from dyninfer import HistoryMode, example_stock, random_problem, solve
from dyninfer.oracle import history_count

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# hooks on the myopic-estimate functions that bar_loss_table absorbed, and on
# build_trellis, whose document the trellis renderers no longer build (the
# export itself is still timed through dyninfer.cli.export_trellis); their
# layers read zero until the benchmark's hooks are retargeted
STALE_HOOKS = {
    ("dyninfer.solver", "myopic_bayes_index"),
    ("dyninfer.solver", "myopic_bayes_estimate"),
    ("dyninfer.evaluate", "myopic_bayes_index"),
    ("dyninfer.trellis", "myopic_bayes_estimate"),
    ("dyninfer.trellis", "build_trellis"),
}


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache next to the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = {
        (module, attribute)
        for module, attribute, _, _ in tracing.HOOKS
        if not hasattr(importlib.import_module(module), attribute)
    }
    assert missing <= STALE_HOOKS


def test_every_exempt_import_is_a_hook_target(monkeypatch):
    # tests/test_imports.py exempts a `# noqa: F401` import; only a name the tracer hooks may keep one
    hooked = {(module, attribute) for module, attribute, _, _ in _load_tracing(monkeypatch).HOOKS}
    exempt = set()
    for path in sorted((ROOT / "src" / "dyninfer").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        module = "dyninfer" if path.stem == "__init__" else f"dyninfer.{path.stem}"
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (alias.asname or alias.name for alias in node.names if "# noqa: F401" in lines[alias.lineno - 1])
                exempt.update((module, name) for name in names)
    assert exempt and exempt <= hooked


def test_history_counts_hook_reads_a_real_brute_force_call(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    from dyninfer import cli

    problem = random_problem(np.random.default_rng(0), 3, 3, 2, 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = cli.brute_force_optimum(problem, HistoryMode.REVEALED, 2**129)
    finally:
        tracer.uninstall()
    assert abs(report.gap) <= report.gap_bound
    summary = tracing.summarize(tracer.spans)
    assert summary["oracle.brute_force_optimum"]["calls"] == 1
    assert summary["oracle.brute_force_optimum"]["histories"] == history_count(problem, HistoryMode.REVEALED) == 129


def test_solve_and_trellis_counts_hooks_read_real_cli_calls(monkeypatch, tmp_path):
    tracing = _load_tracing(monkeypatch)
    from dyninfer import cli

    model = tmp_path / "stock.json"
    assert cli.run(["example", "stock", "--n", "6", "-o", str(model)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run(["solve", "-m", str(model), "-o", str(tmp_path / "solved.json")]) == 0
        assert cli.run(["export-trellis", "-m", str(model), "-o", str(tmp_path / "trellis.dot")]) == 0
    finally:
        tracer.uninstall()
    summary = tracing.summarize(tracer.spans)
    # (round, observation) pairs with more than one tied estimate, once per solve
    ties = sum(len(tie) > 1 for round_ties in solve(example_stock(6)).tie_sets for tie in round_ties)
    assert ties > 0
    assert summary["solver.solve"]["calls"] == 2 and summary["solver.solve"]["ties"] == 2 * ties
    assert summary["trellis.export_trellis"]["calls"] == 1


def test_draw_counts_hook_reads_a_real_simulate_call(monkeypatch, tmp_path):
    # the hook reads the draws from uniform_matrix's second and third positional arguments
    tracing = _load_tracing(monkeypatch)
    from dyninfer import cli

    model, solved = tmp_path / "stock.json", tmp_path / "solved.json"
    assert cli.run(["example", "stock", "--n", "40", "-o", str(model)]) == 0
    assert cli.run(["solve", "-m", str(model), "-o", str(solved)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["simulate", "-m", str(model), "-s", str(solved), "--rollouts", "3000", "--seed", "9"]
        assert cli.run([*argv, "-o", str(tmp_path / "simulated.json")]) == 0
    finally:
        tracer.uninstall()
    summary = tracing.summarize(tracer.spans)
    assert summary["evaluate.simulate"]["calls"] == 1
    assert summary["rng.uniform_matrix"]["draws"] == 3000 * 2 * 40


@pytest.mark.parametrize("mode", ["revealed", "unrevealed"])
def test_traced_sweep_writes_the_untraced_bytes(monkeypatch, tmp_path, mode):
    # a stack reaching a hooked name (dyninfer.cli.brute_force_optimum, dyninfer.oracle.solve)
    # would fail the hook's counts, and with them every traced round of the benchmark
    tracing = _load_tracing(monkeypatch)
    from dyninfer import cli

    argv = ["verify", "--instances", "20", "--seed", "5", "--limit", str(2**50), "--mode", mode]
    assert cli.run([*argv, "-o", str(tmp_path / "plain.txt")]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run([*argv, "-o", str(tmp_path / "traced.txt")]) == 0
    finally:
        tracer.uninstall()
    assert (tmp_path / "traced.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()
