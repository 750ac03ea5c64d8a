"""Command-line behavior: schemas, exit codes, determinism."""

import csv
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from enumeration_reference import strategy_count

from dyninfer import (
    Alphabet,
    HistoryMode,
    evaluate_markov,
    example_stock,
    myopic_strategy,
    problem_from_tables,
    problem_to_dict,
    random_problem,
    validate_problem,
)
from dyninfer import cli, oracle
from dyninfer.cli import run


@pytest.fixture
def stock_model(tmp_path):
    path = tmp_path / "stock.json"
    assert run(["example", "stock", "--n", "6", "-o", str(path)]) == 0
    return path


@pytest.fixture
def huge_stock_model(tmp_path, stock_model):
    """The stationary stock model over 10^15 rounds: any table over every round would take petabytes."""
    doc = json.loads(stock_model.read_text())
    doc["n"] = 10**15
    path = tmp_path / "huge-stock.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def strategy_file(tmp_path, stock_model):
    solved = tmp_path / "solved.json"
    assert run(["solve", "-m", str(stock_model), "-o", str(solved)]) == 0
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps({"policy": json.loads(solved.read_text())["policy"]}))
    return strategy


def test_example_output_validates(stock_model):
    problem = validate_problem(json.loads(stock_model.read_text()))
    assert problem == example_stock(6)


def test_solve_payload(tmp_path, stock_model):
    out = tmp_path / "out.json"
    assert run(["solve", "-m", str(stock_model), "--tie-break", "myopic", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 6
    assert payload["min_loss"] == 2.1
    assert payload["policy"][0] == {"0": "1", "1": "1"}
    assert payload["policy"][3] == {"0": "0", "1": "1"}
    assert payload["ties"][3]["0"] == ["0", "1"]
    assert payload["v_star"][0] == {"0": 2.1, "1": 1.8}
    assert payload["q_star"][5]["0"] == {"0": 0.4, "1": 0.6}
    assert payload["tie_break"] == "myopic"


def test_solve_init_override(tmp_path, stock_model):
    out = tmp_path / "out.json"
    assert run(["solve", "-m", str(stock_model), "--init", "1", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["min_loss"] == 1.8
    assert run(["solve", "-m", str(stock_model), "--init", '{"0": 0.5, "1": 0.5}', "-o", str(out)]) == 0
    assert json.loads(out.read_text())["min_loss"] == pytest.approx((2.1 + 1.8) / 2, abs=1e-9)


def test_init_override_shares_the_checked_tables():
    # the override is a new problem that shares the loaded, read-only tables rather than copying them
    problem = example_stock(6)
    overridden = cli._with_init(problem, '{"0": 0.25, "1": 0.75}')
    assert overridden.init.tolist() == [0.25, 0.75] and not overridden.init.flags.writeable
    assert problem.init.tolist() == [1.0, 0.0]
    for name in ("transitions", "quantities", "loss", "x_space", "y_space", "yhat_space"):
        assert getattr(overridden, name) is getattr(problem, name)


def test_bad_init_fails_before_solving(tmp_path, stock_model, monkeypatch, capsys):
    # --init is read before the backward induction, so a bad label costs no solve and writes no output
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before --init was checked")

    monkeypatch.setattr(cli, "solve", no_solve)
    out = tmp_path / "out.json"
    assert run(["solve", "-m", str(stock_model), "--init", "nope", "-o", str(out)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "UnknownLabel", "message": "label 'nope' not in alphabet ('0', '1')"}
    assert not out.exists()


def test_evaluate_matches_library(tmp_path, stock_model, strategy_file):
    out = tmp_path / "eval.json"
    assert run(["evaluate", "-m", str(stock_model), "-s", str(strategy_file), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["j"] == 2.1
    assert payload["v"][0]["1"] == 1.8


def test_simulate_payload(tmp_path, stock_model, strategy_file):
    out = tmp_path / "sim.json"
    assert run(
        ["simulate", "-m", str(stock_model), "-s", str(strategy_file), "--rollouts", "20000", "--seed", "42", "-o", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["rollouts"] == 20000 and payload["seed"] == 42
    assert abs(payload["mean"] - 2.1) < 0.05


def test_seed_env_default(tmp_path, stock_model, strategy_file, monkeypatch):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("DYNINFER_SEED", "777")
    assert run(["simulate", "-m", str(stock_model), "-s", str(strategy_file), "--rollouts", "100", "-o", str(out_a)]) == 0
    assert json.loads(out_a.read_text())["seed"] == 777
    assert run(
        ["simulate", "-m", str(stock_model), "-s", str(strategy_file), "--rollouts", "100", "--seed", "777", "-o", str(out_b)]
    ) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seed_env_is_read_at_each_run(tmp_path, stock_model, strategy_file, monkeypatch):
    # the parser is built once per process, so the variable must be read when each command line is parsed
    out = tmp_path / "sim.json"
    base = ["simulate", "-m", str(stock_model), "-s", str(strategy_file), "--rollouts", "10", "-o", str(out)]
    seeds = []
    for value in ("11", "12"):
        monkeypatch.setenv("DYNINFER_SEED", value)
        assert run(base) == 0
        seeds.append(json.loads(out.read_text())["seed"])
        sweep = tmp_path / f"verify-{value}.txt"
        assert run(["verify", "--instances", "2", "--limit", str(2**50), "-o", str(sweep)]) == 0
    monkeypatch.delenv("DYNINFER_SEED")
    assert run(base) == 0
    assert seeds + [json.loads(out.read_text())["seed"]] == [11, 12, 0]
    assert run(["verify", "--instances", "2", "--limit", str(2**50), "--seed", "12", "-o", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "verify-12.txt").read_bytes() != (tmp_path / "verify-11.txt").read_bytes()


def test_determinism_byte_identical(tmp_path, stock_model, strategy_file):
    for argv_tail, name in [
        (["solve", "-m", str(stock_model)], "solve"),
        (["export-trellis", "-m", str(stock_model), "-f", "dot"], "trellis"),
        (["simulate", "-m", str(stock_model), "-s", str(strategy_file), "--seed", "42"], "sim"),
    ]:
        first, second = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert run(argv_tail + ["-o", str(first)]) == 0
        assert run(argv_tail + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_trellis_dot_output(tmp_path, stock_model):
    out = tmp_path / "trellis.dot"
    assert run(["export-trellis", "-m", str(stock_model), "-f", "dot", "-o", str(out)]) == 0
    dot = out.read_text()
    assert dot.count("label=\"x=") == 12
    assert dot.count("color=blue") == 3


def test_export_bar_loss_csv(tmp_path, stock_model):
    out = tmp_path / "bar.csv"
    assert run(["export", "bar-loss", "-m", str(stock_model), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,x,yhat,value"
    assert lines[1] == "1,0,0,0.4"
    assert lines[4] == "1,1,1,0.3"
    assert len(lines) == 1 + 6 * 4


def test_verify_model_too_large(capsys, stock_model):
    code = run(["verify", "-m", str(stock_model), "--limit", "1000000"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error"] == "SearchSpaceTooLarge"
    assert str(2 ** 126) in payload["message"]


def test_verify_small_model_passes(tmp_path, capsys):
    model = tmp_path / "small.json"
    assert run(["example", "stock", "--n", "2", "-o", str(model)]) == 0
    assert run(["verify", "-m", str(model), "--mode", "revealed", "--limit", "2000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("PASS gap_max=")
    report = json.loads(lines[0])
    assert report["strategies_searched"] == 1024
    assert abs(report["gap"]) <= 1e-9


def test_verify_instance_sweep(capsys):
    assert run(["verify", "--instances", "6", "--seed", "5", "--limit", str(2 ** 50)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert lines[-1].startswith("PASS gap_max=")
    for line in lines[:-1]:
        report = json.loads(line)
        assert abs(report["brute_min"] - report["dp_min"]) <= 1e-9


# sha256 of `verify --instances 40 --seed 5 --limit 2**50` per mode, recorded before
# the oracle walks moved from numpy scalars to Python floats
VERIFY_SWEEP_SHA256 = {
    "revealed": "512e6780c04d50d248ac82c791e099fa007cbb806880afe12a8aa8d23a5cf1e1",
    "unrevealed": "ef6a8c9e739f3c640faab32756f533e5848cd1fa972695dad9070788aa3fb215",
}


@pytest.mark.parametrize("mode", sorted(VERIFY_SWEEP_SHA256))
def test_verify_sweep_bytes_are_pinned(tmp_path, mode):
    out = tmp_path / "verify.txt"
    argv = ["verify", "--instances", "40", "--seed", "5", "--limit", str(2**50), "--mode", mode]
    assert run([*argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SWEEP_SHA256[mode]


def test_verify_sweep_builds_no_report_or_strategy(tmp_path, monkeypatch):
    # the stacks of a sweep and of one model go to the writer as arrays: no per-instance object is made on the way
    def refuse(*args, **kwargs):
        raise AssertionError("a per-instance object was built")

    model = tmp_path / "model.json"
    model.write_text(json.dumps(problem_to_dict(random_problem(np.random.default_rng(0), 3, 3, 2, 2))))
    monkeypatch.setattr(oracle, "HistoryStrategy", refuse)
    monkeypatch.setattr(oracle, "OracleReport", refuse)
    for mode in ("revealed", "unrevealed"):
        out = tmp_path / f"{mode}.txt"
        argv = ["verify", "--instances", "40", "--seed", "5", "--limit", str(2**50), "--mode", mode]
        assert run([*argv, "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SWEEP_SHA256[mode]
        assert run(["verify", "-m", str(model), "--mode", mode, "--limit", str(2**129), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_MIXED_RADIX_SHA256[mode]


# sha256 of `verify --instances 1000 --limit 2**50` per (mode, seed), recorded before the
# sweep solved its instances in horizon groups
VERIFY_FULL_SWEEP_SHA256 = {
    ("revealed", 1): "8aeb45b986413c881608e9306563cc065bd88db95233ada0bfc71ffdb1b7387f",
    ("revealed", 5): "c9ba3b29fa05afa07cd65ac1ff41a99cace03ad030806874e3eaf074f77038cf",
    ("revealed", 42): "799c428333ff609b83c630dc69fbde2f6c945a9bf03fb083be5e5fe3aa9f72d0",
    ("unrevealed", 1): "de9961a80e87abf58573d5fb73b7d42fb1285567c29c5b7593686b91bc011517",
    ("unrevealed", 5): "b50b9347de6b86058a34889045aaec041b80c9746c03a7eec9cf5908c1835c90",
    ("unrevealed", 42): "813a71b704b021f997769840108d2a38e7e9ba05b09855b99060e6bd3159264d",
}


@pytest.mark.parametrize(("mode", "seed"), sorted(VERIFY_FULL_SWEEP_SHA256))
def test_verify_full_sweep_bytes_are_pinned(tmp_path, mode, seed):
    out = tmp_path / "verify.txt"
    argv = ["verify", "--instances", "1000", "--seed", str(seed), "--limit", str(2**50), "--mode", mode]
    assert run([*argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_FULL_SWEEP_SHA256[mode, seed]


# sha256 of `verify -m` on random_problem(default_rng(0), 3, 3, 2, 2) with `--limit 2**129` per mode,
# recorded before histories were named by rank: |X| = 3 and |Y| = 2, so the two radices differ
VERIFY_MIXED_RADIX_SHA256 = {
    "revealed": "19907c93bf0a443c0f8276452439a4208c80c937d04563743e2bd930745754aa",
    "unrevealed": "affcb1f9c669753b70464ee50e06081d1b3e9c979be8560a3e0fab6c7b8a4f09",
}


@pytest.mark.parametrize("mode", sorted(VERIFY_MIXED_RADIX_SHA256))
def test_verify_mixed_radix_bytes_are_pinned(tmp_path, mode):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(problem_to_dict(random_problem(np.random.default_rng(0), 3, 3, 2, 2))))
    out = tmp_path / "verify.txt"
    assert run(["verify", "-m", str(model), "--mode", mode, "--limit", str(2**129), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_MIXED_RADIX_SHA256[mode]


def test_verify_huge_strategy_space_is_a_domain_error(tmp_path, capsys):
    model = tmp_path / "stock13.json"
    assert run(["example", "stock", "--n", "13", "-o", str(model)]) == 0
    assert run(["verify", "-m", str(model), "--mode", "revealed"]) == 1
    payload = _single_error_line(capsys)
    assert payload == {
        "error": "SearchSpaceTooLarge",
        "message": "2^44739242 history strategies (revealed mode) exceed the limit of 1000000",
    }


def test_verify_limit_bounds_histories_too(tmp_path, capsys):
    # one estimate: a single strategy, but 2^9 - 2 = 510 unrevealed histories at n = 8
    model = tmp_path / "one-estimate.json"
    problem = random_problem(np.random.default_rng(0), 8, 2, 2, 1)
    model.write_text(json.dumps(problem_to_dict(problem)))
    assert run(["verify", "-m", str(model), "--limit", "509"]) == 1
    payload = _single_error_line(capsys)
    assert payload["error"] == "SearchSpaceTooLarge"
    assert "510 histories" in payload["message"]
    assert run(["verify", "-m", str(model), "--limit", "510"]) == 0


def test_verify_bounds_the_identity_walk(tmp_path, capsys):
    # 524286 unrevealed histories, inside the default limit, but 4^18 trajectories for the identity walk
    model = tmp_path / "one-estimate.json"
    model.write_text(json.dumps(problem_to_dict(random_problem(np.random.default_rng(0), 18, 2, 2, 1))))
    assert run(["verify", "-m", str(model)]) == 1
    assert _single_error_line(capsys) == {
        "error": "SearchSpaceTooLarge",
        "message": "68719476736 trajectories exceed the limit of 10000000",
    }


def test_verify_takes_a_model_or_instances_not_both(capsys, stock_model):
    assert run(["verify", "-m", str(stock_model), "--instances", "3", "--limit", str(2**50)]) == 2
    assert capsys.readouterr().out == ""
    assert run(["verify"]) == 1
    assert _single_error_line(capsys)["error"] == "InvalidModelError"


def test_verify_deep_horizon(tmp_path, capsys):
    model = tmp_path / "deep.json"
    model.write_text(json.dumps(problem_to_dict(random_problem(np.random.default_rng(0), 1500, 1, 1, 1))))
    for mode in ("revealed", "unrevealed"):
        assert run(["verify", "-m", str(model), "--mode", mode]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[-1].startswith("PASS gap_max=")


def _scaled_model(tmp_path, scale):
    problem = random_problem(np.random.default_rng(0), 2, 2, 2, 2)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(problem_to_dict(dataclasses.replace(problem, loss=problem.loss * scale))))
    return path


@pytest.mark.parametrize(
    ("scale", "summary"),
    [
        # the minima differ by rounding alone: 1.192e-07 is past an absolute 1e-9, within 1e-9 · n · max|loss|
        (1e9, "PASS gap_max=1.192e-07"),
        (0.0, "PASS gap_max=0.000e+00"),  # a zero gap passes though its bound is 0
    ],
)
def test_verify_bounds_the_gap_by_the_loss_scale(tmp_path, capsys, scale, summary):
    model = _scaled_model(tmp_path, scale)
    assert run(["verify", "-m", str(model), "--mode", "revealed", "--limit", str(2**50)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == summary
    problem = validate_problem(json.loads(model.read_text()))
    report = oracle.brute_force_optimum(problem, HistoryMode.REVEALED, 2**50)
    assert report.gap_bound == oracle.GAP_RTOL * problem.n * np.abs(problem.loss).max()


def test_verify_fails_a_relative_error_at_a_small_loss_scale(tmp_path, capsys, monkeypatch):
    # at loss scale 1e-12 a solver minimum off by a relative 1e-6 is a gap far below an absolute 1e-9
    model = _scaled_model(tmp_path, 1e-12)
    value_tables = oracle.value_tables

    def skewed(bar, transitions):
        return tuple(table * (1 + 1e-6) for table in value_tables(bar, transitions))

    monkeypatch.setattr(oracle, "value_tables", skewed)
    assert run(["verify", "-m", str(model), "--mode", "revealed", "--limit", str(2**50)]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("FAIL gap_max=")


def test_malformed_model_is_a_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "-m", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "InvalidModelError"

    missing = tmp_path / "absent.json"
    assert run(["solve", "-m", str(missing)]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "FileNotFoundError"

    not_a_model = tmp_path / "empty.json"
    not_a_model.write_text("{}")
    assert run(["solve", "-m", str(not_a_model)]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidModelError"


def test_usage_errors_exit_2(capsys):
    assert run(["solve"]) == 2  # missing -m
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_bad_init_override_is_a_domain_error(capsys, stock_model):
    assert run(["solve", "-m", str(stock_model), "--init", '{"0": "high"}']) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidModelError"
    assert run(["solve", "-m", str(stock_model), "--init", "no-such-label"]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "UnknownLabel"


@pytest.mark.parametrize(
    "init, message",
    [
        ('{"0": -0.5, "1": 1.5}', "distribution has a negative entry: [-0.5, 1.5]"),
        ("{}", "distribution sums to 0.0, outside 1 +/- 1e-09"),
    ],
)
def test_init_override_that_is_not_a_distribution_names_the_fault(capsys, stock_model, init, message):
    assert run(["solve", "-m", str(stock_model), "--init", init]) == 1
    assert _single_error_line(capsys) == {"error": "NotStochastic", "message": message}


def test_nonstochastic_model_reports_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["example", "stock", "--n", "2", "-o", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["quantities"][0]["0"] = {"0": 0.5, "1": 0.6}
    model.write_text(json.dumps(doc))
    assert run(["solve", "-m", str(model)]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "NotStochastic"


def test_stdout_output(capsys, stock_model):
    assert run(["solve", "-m", str(stock_model)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_loss"] == 2.1


def test_module_entry_point(tmp_path):
    model = tmp_path / "m.json"
    assert run(["example", "section33", "--n", "3", "-o", str(model)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "dyninfer", "solve", "-m", str(model)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3


def test_evaluate_cross_checks_with_library(tmp_path, stock_model):
    strategy = tmp_path / "myopic.json"
    stock = example_stock(6)
    choices = myopic_strategy(stock).choices.tolist()
    x_labels, yhat_labels = stock.x_space.labels, stock.yhat_space.labels
    rows = [{x: yhat_labels[ai] for x, ai in zip(x_labels, row)} for row in choices]
    strategy.write_text(json.dumps({"policy": rows}))
    out = tmp_path / "eval.json"
    assert run(["evaluate", "-m", str(stock_model), "-s", str(strategy), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["j"] == pytest.approx(
        evaluate_markov(stock, myopic_strategy(stock)).j, abs=1e-9
    )


def _single_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return json.loads(captured.err)


def test_verify_rejects_bad_instance_counts_and_seeds(capsys):
    for argv in (
        ["--instances", "0"],
        ["--instances", "-3"],
        ["--instances", "2", "--seed", "-1"],
        ["--instances", "2", "--seed", str(2**64)],
    ):
        assert run(["verify", "--limit", str(2**50), *argv]) == 1
        assert _single_error_line(capsys)["error"] == "InvalidParams"


def test_verify_sweep_checks_the_limit_before_drawing(capsys):
    # the largest sweep instance is binary with n = 3: 2^42 revealed, 2^14 unrevealed
    # strategies; seed 1 draws n = 2 first, so only the up-front check can fail here
    for mode, needed in (("revealed", 2**42), ("unrevealed", 2**14)):
        argv = ["verify", "--instances", "1", "--seed", "1", "--mode", mode]
        assert run([*argv, "--limit", str(needed - 1)]) == 1
        payload = _single_error_line(capsys)
        assert payload["error"] == "SearchSpaceTooLarge"
        assert str(needed) in payload["message"]
        assert run([*argv, "--limit", str(needed)]) == 0
        capsys.readouterr()


def test_simulate_rejects_seeds_outside_64_bits(tmp_path, capsys, stock_model, strategy_file):
    out = tmp_path / "sim.json"
    base = ["simulate", "-m", str(stock_model), "-s", str(strategy_file), "--rollouts", "10", "-o", str(out)]
    for seed in ("-1", str(2**64)):
        assert run(base + ["--seed", seed]) == 1
        assert _single_error_line(capsys)["error"] == "InvalidParams"
    assert not out.exists()
    assert run(base + ["--seed", str(2**64 - 1)]) == 0
    assert json.loads(out.read_text())["seed"] == 2**64 - 1


def test_bad_seed_env_is_a_usage_error_where_a_seed_is_read(tmp_path, capsys, stock_model, strategy_file, monkeypatch):
    monkeypatch.setenv("DYNINFER_SEED", "abc")
    assert run(["example", "stock", "-o", str(tmp_path / "model.json")]) == 0  # has no --seed
    out = tmp_path / "sim.json"
    base = ["simulate", "-m", str(stock_model), "-s", str(strategy_file), "--rollouts", "10", "-o", str(out)]
    assert run(base) == 2
    assert run(base + ["--seed", "3"]) == 0
    capsys.readouterr()


def test_malformed_strategy_rows_are_domain_errors(tmp_path, capsys, stock_model):
    strategy = tmp_path / "strategy.json"
    for rows, error in (
        ([["0", "1"]] * 6, "ShapeMismatch"),  # a row that is not an object
        ([{"0": "0", "1": "1", "zz": "1"}] * 6, "ShapeMismatch"),  # an unknown observation label
        ([{"0": ["0"], "1": "1"}] * 6, "UnknownLabel"),  # an unhashable estimate label
    ):
        strategy.write_text(json.dumps({"policy": rows}))
        assert run(["evaluate", "-m", str(stock_model), "-s", str(strategy)]) == 1
        assert _single_error_line(capsys)["error"] == error


def test_unhashable_loss_label_is_a_domain_error(tmp_path, capsys, stock_model):
    doc = json.loads(stock_model.read_text())
    doc["loss"][0]["x"] = ["0"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert run(["solve", "-m", str(model)]) == 1
    assert _single_error_line(capsys)["error"] == "UnknownLabel"


def test_yield_grid_must_be_finite_with_a_positive_step(capsys):
    for argv in (
        ["--grid-step", "0"],
        ["--grid-step", "-1"],
        ["--grid-step", "inf"],
        ["--grid-max", "inf"],
        ["--grid-min", "nan"],
        ["--grid-max", "1e300", "--grid-step", "1"],  # more points than an array can index
    ):
        assert run(["example", "yield", *argv]) == 1
        assert _single_error_line(capsys)["error"] == "InvalidParams"


def test_yield_parameters_that_overflow_are_domain_errors(capsys):
    # each printed a RuntimeWarning from the table's arithmetic; --beta inf then failed a row sum
    for argv in (["--c-missed", "1e308"], ["--beta", "inf"], ["--c-danger", "1.7e308"], ["--dc", "nan"]):
        assert run(["example", "yield", *argv]) == 1
        assert _single_error_line(capsys)["error"] == "InvalidParams"


def test_allocations_numpy_refuses_are_domain_errors(capsys, huge_stock_model, stock_model, strategy_file):
    # a 28.4 PiB bar-loss table and 7.11 PiB of rollout losses: numpy refuses both before allocating
    for argv in (
        ["solve", "-m", str(huge_stock_model)],
        ["export", "bar-loss", "-m", str(huge_stock_model)],
        ["simulate", "-m", str(stock_model), "-s", str(strategy_file), "--rollouts", str(10**15)],
    ):
        assert run(argv) == 1
        assert _single_error_line(capsys)["error"] == "MemoryError"


def test_example_with_a_huge_horizon_writes_the_compact_form(tmp_path):
    out = tmp_path / "model.json"
    for which in ("section33", "stock"):
        assert run(["example", which, "--n", str(10**12), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 10**12 and doc["stationary"] is True
        assert len(doc["transitions"]) == len(doc["quantities"]) == 1


def test_verify_rejects_a_huge_horizon_promptly(capsys, huge_stock_model):
    start = time.perf_counter()
    assert run(["verify", "-m", str(huge_stock_model)]) == 1
    assert time.perf_counter() - start < 2.0
    assert _single_error_line(capsys) == {
        "error": "SearchSpaceTooLarge",
        "message": f"at least 2^(2^{10**15}) history strategies (unrevealed mode) exceed the limit of 1000000",
    }


def test_huge_integers_are_domain_errors(tmp_path, capsys, stock_model):
    huge = 10**400  # valid JSON, past the float64 range
    model = tmp_path / "model.json"
    doc = json.loads(stock_model.read_text())
    for row, key in ((doc["quantities"][0]["0"], "0"), (doc["loss"][0], "value")):
        saved, row[key] = row[key], huge
        model.write_text(json.dumps(doc))
        row[key] = saved
        assert run(["solve", "-m", str(model)]) == 1
        assert _single_error_line(capsys)["error"] == "InvalidModelError"
    assert run(["solve", "-m", str(stock_model), "--init", json.dumps({"0": huge})]) == 1
    assert _single_error_line(capsys) == {
        "error": "InvalidModelError",
        "message": "--init: probability for '0' is an integer too large for a float64",
    }


# json.loads refuses these with a plain ValueError and a RecursionError, not a JSONDecodeError
@pytest.mark.parametrize("bad", ["1" + "0" * 5000, "[" * 100_000], ids=["int-over-4300-digits", "nested-100000-deep"])
def test_json_the_parser_refuses_is_a_domain_error(tmp_path, capsys, stock_model, bad):
    model, strategy = tmp_path / "model.json", tmp_path / "strategy.json"
    model.write_text('{"n": ' + bad + "}")
    strategy.write_text('{"policy": ' + bad + "}")
    for argv in (
        ["solve", "-m", str(model)],
        ["evaluate", "-m", str(stock_model), "-s", str(strategy)],
        ["solve", "-m", str(stock_model), "--init", '{"0": ' + bad + "}"],
    ):
        assert run(argv) == 1
        line = _single_error_line(capsys)
        assert line["error"] == "InvalidModelError" and "not valid JSON: " in line["message"]


def _stock_with_losses(tmp_path, value):
    """The stock model over 3 rounds with every nonzero loss set to ``value``, and its solved policy."""
    model, strategy = tmp_path / f"stock-{value}.json", tmp_path / f"stock-{value}-policy.json"
    assert run(["example", "stock", "--n", "3", "-o", str(model)]) == 0
    solved = tmp_path / "solved-stock.json"
    assert run(["solve", "-m", str(model), "-o", str(solved)]) == 0
    strategy.write_text(json.dumps({"policy": json.loads(solved.read_text())["policy"]}))
    doc = json.loads(model.read_text())
    for record in doc["loss"]:
        if record["value"]:
            record["value"] = value
    model.write_text(json.dumps(doc))
    return model, strategy


def test_losses_that_overflow_a_sum_are_domain_errors(tmp_path, capsys):
    model, strategy = _stock_with_losses(tmp_path, 1.5e308)  # 2 * n * max|loss| is past the float64 range
    for argv in (
        ["solve", "-m", str(model)],
        ["evaluate", "-m", str(model), "-s", str(strategy)],
        ["simulate", "-m", str(model), "-s", str(strategy)],
        ["verify", "-m", str(model)],
    ):
        assert run(argv) == 1
        assert _single_error_line(capsys)["error"] == "InvalidModelError"
    # each rollout's loss is finite, but the squared deviations from the mean are not
    model, strategy = _stock_with_losses(tmp_path, 1e200)
    assert run(["simulate", "-m", str(model), "-s", str(strategy), "--rollouts", "10"]) == 1
    assert _single_error_line(capsys)["error"] == "InvalidParams"
    assert run(["example", "yield", "--beta", "1e308", "-o", str(tmp_path / "yield.json")]) == 0


def test_sizes_past_the_array_index_range_are_domain_errors(tmp_path, capsys, stock_model, strategy_file):
    doc = json.loads(stock_model.read_text())
    doc["n"] = 2**70
    huge = tmp_path / "stock-2^70.json"
    huge.write_text(json.dumps(doc))
    cases = [
        (["example", "stock", "--n", str(10**19)], "InvalidModelError"),
        (["example", "stock", "--n", str(2**60)], "InvalidModelError"),
        (["simulate", "-m", str(stock_model), "-s", str(strategy_file), "--rollouts", str(2**63)], "InvalidParams"),
    ]
    strategy = ["-s", str(strategy_file)]
    for command in (["solve"], ["evaluate", *strategy], ["simulate", *strategy], ["verify"], ["export-trellis"]):
        cases.append(([*command, "-m", str(huge)], "InvalidModelError"))
    cases.append((["export", "bar-loss", "-m", str(huge)], "InvalidModelError"))
    for argv, error in cases:
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert run(argv) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 2.0 and peak < 2**22
        assert _single_error_line(capsys)["error"] == error


def test_export_bar_loss_quotes_labels(tmp_path):
    x_space, y_space = Alphabet(("a,b", 'q"r')), Alphabet(("0",))
    for yhat_space in (Alphabet(("u,v", "w")), Alphabet(("line\rbreak", "w"))):
        problem = problem_from_tables(
            2, x_space, y_space, yhat_space, [0.5, 0.5], [[[[0.5, 0.5]] * 2] * 2], [[[1.0]] * 2], np.ones((2, 1, 2))
        )
        model, out = tmp_path / "model.json", tmp_path / "bar.csv"
        model.write_text(json.dumps(problem_to_dict(problem)))
        assert run(["export", "bar-loss", "-m", str(model), "-o", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["round", "x", "yhat", "value"]
        assert rows[1:] == [
            [str(i), x, yhat, "1"] for i in (1, 2) for x in x_space.labels for yhat in yhat_space.labels
        ]


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


CONTRACT_LIMIT = 2**50


def test_every_command_writes_strict_output_and_nothing_on_stderr(tmp_path, capsys):
    """Strict JSON (no Infinity or NaN), a CSV of 4 fields per row and an empty stderr on success."""
    models = {}
    for which in ("section33", "stock", "yield"):
        models[which] = tmp_path / f"{which}.json"
        assert run(["example", which, "--n", "3", "-o", str(models[which])]) == 0
    models["random"] = tmp_path / "random.json"
    random_model = problem_to_dict(random_problem(np.random.default_rng(3), 3, 3, 2, 3), False)
    models["random"].write_text(json.dumps(random_model))
    for name, model in models.items():
        def output(*argv):
            path = tmp_path / f"{name}.out"
            assert run([*argv, "-m", str(model), "-o", str(path)]) == 0
            assert capsys.readouterr() == ("", "")
            return path.read_text()

        solved = _strict_json(output("solve"))
        strategy = tmp_path / f"{name}-policy.json"
        strategy.write_text(json.dumps({"policy": solved["policy"]}))
        _strict_json(output("evaluate", "-s", str(strategy)))
        _strict_json(output("simulate", "-s", str(strategy), "--rollouts", "200"))
        output("export-trellis", "-f", "dot")
        output("export-trellis", "-f", "text")
        rows = list(csv.reader(io.StringIO(output("export", "bar-loss"), newline="")))
        assert {len(row) for row in rows} == {4}
        problem = validate_problem(json.loads(model.read_text()))
        for mode in HistoryMode:
            if strategy_count(problem, mode) <= CONTRACT_LIMIT:
                lines = output("verify", "--mode", mode.value, "--limit", str(CONTRACT_LIMIT)).splitlines()
                assert lines[-1].startswith("PASS gap_max=")
                for line in lines[:-1]:
                    _strict_json(line)


def test_a_label_utf8_cannot_encode_fails_at_load(tmp_path, capsys):
    # a model document may spell a lone surrogate as "\ud800"; no output could write it
    stock = example_stock(2)
    tables = (stock.init, stock.transitions, stock.quantities, stock.loss)
    marked = problem_from_tables(stock.n, Alphabet(("LONE", "1")), stock.y_space, stock.yhat_space, *tables)
    text = json.dumps(problem_to_dict(marked))
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(text)
    bad.write_text(text.replace("LONE", "\\ud800"))
    out = tmp_path / "out"
    for command in (["solve"], ["export-trellis"], ["export", "bar-loss"]):
        assert run([*command, "-m", str(good), "-o", str(out)]) == 0  # the label is the only fault
        out.write_bytes(b"an earlier output\n")
        assert run([*command, "-m", str(bad), "-o", str(out)]) == 1
        payload = _single_error_line(capsys)
        assert payload["error"] == "InvalidModelError"
        assert ascii("\ud800") in payload["message"]
        assert out.read_bytes() == b"an earlier output\n"
