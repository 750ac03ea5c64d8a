"""The package's public names: what ``from dyninfer import *`` gives a caller."""

import inspect

import dyninfer

REMOVED = {"Trajectory", "build_history_strategy", "enumerate_history_strategies", "enumeration_minimum", "strategy_count"}


def test_public_names_are_sorted_unique_and_resolve():
    names = dyninfer.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(dyninfer, name), name
    # the literal brute force lives in the test suite, and simulate keeps no trajectories
    assert not REMOVED & set(names)
    assert list(inspect.signature(dyninfer.simulate).parameters) == ["problem", "strategy", "rollouts", "seed"]
