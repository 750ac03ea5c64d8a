"""The package's public names: what ``from dyninfer import *`` gives a caller."""

import inspect

import dyninfer

REMOVED = {
    "MismatchedResult",
    "ReportRow",
    "Trajectory",
    "TrellisDocument",
    "TrellisEdge",
    "build_history_strategy",
    "build_trellis",
    "enumerate_history_strategies",
    "enumeration_minimum",
    "solution_report",
    "strategy_count",
}


def test_public_names_are_sorted_unique_and_resolve():
    names = dyninfer.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(dyninfer, name), name
    # the literal brute force lives in the test suite, simulate keeps no trajectories, the trellis
    # renders from the solve arrays without a document of its own, and a solve result is read on its own,
    # by index; a strategy's wire form is written from its arrays by the CLI alone
    assert not REMOVED & set(names)
    assert not REMOVED & set(vars(dyninfer.solver))
    assert not hasattr(dyninfer.MarkovStrategy, "to_rows")
    assert list(inspect.signature(dyninfer.simulate).parameters) == ["problem", "strategy", "rollouts", "seed"]
