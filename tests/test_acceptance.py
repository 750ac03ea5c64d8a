"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is calibrated elsewhere.
"""

import json
import math
import time

import numpy as np

from dyninfer import (
    HistoryMode,
    brute_force_optimum,
    enumerate_markov_strategies,
    evaluate_markov,
    example_section33,
    example_stock,
    minimum_inference_loss,
    optimal_strategy,
    random_history_strategy,
    random_problem,
    simulate,
    solve,
    verify_lemma1,
)
from dyninfer.cli import run


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _deviations(problem):
    r = solve(problem)
    x_labels = problem.x_space.labels
    return {(k + 1, x_labels[xi]) for k, xi in np.argwhere(r.policy != r.myopic).tolist()}


def _sweep_instances(count: int = 50, seed: int = 20240803):
    rng = np.random.default_rng(seed)
    instances = []
    for index in range(count):
        n = int(rng.integers(1, 4))
        instances.append(random_problem(rng, n))
    return instances


def test_criterion_1_alternating_model_golden():
    start = time.monotonic()
    found = _deviations(example_section33(6))
    elapsed = time.monotonic() - start
    ok = found == {(1, "1"), (3, "1"), (5, "1")} and elapsed < 1.0
    _report(
        "criterion 1 (alternating-model policy deviations)",
        ok,
        f"deviations={sorted(found)} elapsed={elapsed:.3f}s",
    )


def test_criterion_2_stock_model_golden():
    start = time.monotonic()
    found = _deviations(example_stock(6))
    elapsed = time.monotonic() - start
    ok = (
        found == {(1, "0"), (2, "0"), (3, "0")}
        and not any(i >= 4 for i, _ in found)
        and elapsed < 1.0
    )
    _report(
        "criterion 2 (stock-model policy deviations)",
        ok,
        f"deviations={sorted(found)} elapsed={elapsed:.3f}s",
    )


def test_criterion_3_history_strategies_no_advantage():
    start = time.monotonic()
    worst = 0.0
    for problem in _sweep_instances():
        for mode in (HistoryMode.REVEALED, HistoryMode.UNREVEALED):
            report = brute_force_optimum(problem, mode, limit=2 ** 50)
            worst = max(worst, abs(report.gap))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(
        "criterion 3 (brute force equals solver, 50 instances, both modes)",
        ok,
        f"max|gap|={worst:.3e} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_loss_marginalization_identity():
    start = time.monotonic()
    rng = np.random.default_rng(617)
    worst = 0.0
    for problem in _sweep_instances():
        for k in range(10):
            mode = HistoryMode.REVEALED if k % 2 == 0 else HistoryMode.UNREVEALED
            lhs, rhs = verify_lemma1(problem, random_history_strategy(problem, mode, rng))
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    _report(
        "criterion 4 (raw loss equals marginalized loss, 500 strategies)",
        ok,
        f"max|lhs-rhs|={worst:.3e} elapsed={elapsed:.1f}s",
    )


def test_criterion_5_dominance_over_all_markov_strategies():
    start = time.monotonic()
    worst_violation = -math.inf
    equality_breaks = 0
    for problem in (example_section33(4), example_stock(4)):
        result = solve(problem)
        best = optimal_strategy(result)
        count = 0
        for strategy in enumerate_markov_strategies(problem):
            count += 1
            v = evaluate_markov(problem, strategy).v
            worst_violation = max(worst_violation, float((result.v_star - v).max()))
            for i in range(problem.n, 0, -1):
                if not np.array_equal(strategy.choices[i - 1 :], best.choices[i - 1 :]):
                    continue
                if not np.all(np.abs(v[i - 1] - result.v_star[i - 1]) <= 1e-9):
                    equality_breaks += 1
        assert count == 2 ** 8
    elapsed = time.monotonic() - start
    ok = worst_violation <= 1e-9 and equality_breaks == 0 and elapsed < 10.0
    _report(
        "criterion 5 (loss-to-go dominance over all 2^8 strategies)",
        ok,
        f"worst_violation={worst_violation:.3e} equality_breaks={equality_breaks} elapsed={elapsed:.1f}s",
    )


def test_criterion_6_minimum_equals_optimal_strategy_loss():
    start = time.monotonic()
    problems = [example_section33(6), example_stock(6)]
    rng = np.random.default_rng(999)
    problems += [random_problem(rng, int(rng.integers(1, 5))) for _ in range(20)]
    worst = 0.0
    for problem in problems:
        result = solve(problem)
        j = evaluate_markov(problem, optimal_strategy(result)).j
        worst = max(worst, abs(j - minimum_inference_loss(result)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12
    _report(
        "criterion 6 (initial expectation of V* equals J of the solved strategy)",
        ok,
        f"max|diff|={worst:.3e} elapsed={elapsed:.1f}s",
    )


def test_criterion_7_monte_carlo_consistency():
    start = time.monotonic()
    problem = example_stock(6)  # built-in init is a point mass at "0"
    strategy = optimal_strategy(solve(problem))
    exact = evaluate_markov(problem, strategy).j
    assert abs(exact - 2.1) <= 1e-12
    failures = 0
    for seed in range(100):
        result = simulate(problem, strategy, 100_000, seed)
        sigma = math.sqrt(result.variance / result.rollouts)
        if abs(result.mean - exact) > 3 * sigma:
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures <= 3 and elapsed < 30.0
    _report(
        "criterion 7 (100 seeds x 1e5 rollouts, 3-sigma coverage)",
        ok,
        f"failures={failures}/100 elapsed={elapsed:.1f}s",
    )


def test_criterion_8_byte_identical_cli_outputs(tmp_path):
    start = time.monotonic()
    model = tmp_path / "model.json"
    assert run(["example", "stock", "--n", "6", "-o", str(model)]) == 0
    solved = tmp_path / "solved.json"
    assert run(["solve", "-m", str(model), "-o", str(solved)]) == 0
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps({"policy": json.loads(solved.read_text())["policy"]}))

    stable = True
    details = []
    for name, argv in [
        ("solve", ["solve", "-m", str(model)]),
        ("export-trellis", ["export-trellis", "-m", str(model), "-f", "dot"]),
        ("simulate", ["simulate", "-m", str(model), "-s", str(strategy), "--seed", "42"]),
    ]:
        first, second = tmp_path / f"{name}.1", tmp_path / f"{name}.2"
        assert run(argv + ["-o", str(first)]) == 0
        assert run(argv + ["-o", str(second)]) == 0
        same = first.read_bytes() == second.read_bytes()
        stable = stable and same
        details.append(f"{name}={'ok' if same else 'DIFFERS'}")
    elapsed = time.monotonic() - start
    _report(
        "criterion 8 (deterministic CLI outputs)",
        stable,
        f"{' '.join(details)} elapsed={elapsed:.1f}s",
    )
