"""Built-in models: golden policies and yield-model properties."""

import math

import numpy as np
import pytest

from dyninfer import (
    InvalidParams,
    PlannerStyle,
    YieldParams,
    example_section33,
    example_stock,
    example_yield,
    bar_loss_table,
    solve,
    validate_problem,
    problem_to_dict,
)


def deviations(problem):
    r = solve(problem)
    x_labels = problem.x_space.labels
    return {(k + 1, x_labels[xi]) for k, xi in np.argwhere(r.policy != r.myopic).tolist()}


def test_section33_golden_deviations(section33):
    assert deviations(section33) == {(1, "1"), (3, "1"), (5, "1")}


def test_stock_golden_deviations(stock):
    assert deviations(stock) == {(1, "0"), (2, "0"), (3, "0")}


def test_horizon_one_matches_myopic():
    for problem in (example_section33(1), example_stock(1)):
        assert deviations(problem) == set()
    one = example_stock(1)
    policy = solve(one).policy[0].tolist()
    assert policy == bar_loss_table(one).myopic[0].tolist() == [0, 1]
    assert [one.yhat_space.labels[ai] for ai in policy] == ["0", "1"]


def test_builders_produce_exact_rows(section33, stock):
    for problem in (section33, stock):
        doc = problem_to_dict(problem)
        assert validate_problem(doc) == problem
        for kernel in problem.transitions:
            assert set(np.unique(kernel)) <= {0.0, 1.0}  # deterministic point masses
        for kernel in problem.quantities:
            # rows are the stated exact decimals
            assert np.all(kernel == problem.quantities[0])
    assert stock.quantities[0, 1, 1] == 0.7
    assert section33.quantities[0, 0, 1] == 0.1


def test_yield_quantity_is_monotone_in_distance():
    problem = example_yield(3)
    p_yield = problem.quantities[0, :, 0]
    assert np.all(np.diff(p_yield) > 0)


def test_yield_probability_half_at_critical_distance():
    problem = example_yield(2)
    xi, yi = problem.x_space.index("10"), problem.y_space.index("yield")
    assert problem.quantities[0, xi, yi] == pytest.approx(0.5, abs=1e-12)
    assert problem.init[xi] == 1.0  # starts at the grid point nearest d_c


def test_yield_steep_slope_saturates():
    params = YieldParams(beta=1000.0)
    problem = example_yield(2, params)
    p_yield = problem.quantities[0, :, 0]
    grid = np.array([float(x) for x in problem.x_space.labels])
    assert np.all(p_yield[grid < 10.0] < 1e-6)
    assert np.all(p_yield[grid > 10.0] > 1 - 1e-6)


def test_yield_default_solves_and_flags_small_gaps():
    problem = example_yield(4)
    result = solve(problem)
    chosen = result.policy[0, problem.x_space.index("0")]
    assert problem.yhat_space.labels[chosen] == "not_yield"


def test_yield_loss_shape():
    problem = example_yield(2)

    def loss(x, y, yhat):
        return problem.loss[
            problem.x_space.index(x), problem.y_space.index(y), problem.yhat_space.index(yhat)
        ]

    # correct predictions are free
    assert loss("4", "yield", "yield") == 0.0
    assert loss("4", "not_yield", "not_yield") == 0.0
    # wasted chance grows linearly with the gap
    assert loss("4", "yield", "not_yield") == pytest.approx(0.05 * 4, abs=1e-12)
    assert loss("0", "yield", "not_yield") == 0.0
    # dangerous prediction ramps up as the gap shrinks below d_c
    assert loss("0", "not_yield", "yield") == pytest.approx(1.5, abs=1e-12)
    assert loss("10", "not_yield", "yield") == pytest.approx(1.0, abs=1e-12)
    assert loss("20", "not_yield", "yield") == pytest.approx(0.5, abs=1e-12)


def test_yield_grid_labels_take_the_fewest_digits_that_tell_the_points_apart():
    # "g" keeps 6 significant digits, at which 1000000 and 1000001 are both "1e+06"
    assert example_yield(1).x_space.labels == tuple(format(float(v), "g") for v in range(0, 21, 2))
    close = example_yield(1, YieldParams(grid=(1e6, 1e6 + 1, 1e6 + 2), d_c=1e6 + 1))
    assert close.x_space.labels == ("1000000", "1000001", "1000002")
    adjacent = (1.0, math.nextafter(1.0, 2.0))  # 17 digits tell any two floats apart
    assert example_yield(1, YieldParams(grid=adjacent, d_c=1.0)).x_space.labels == ("1", "1.0000000000000002")


def test_yield_planner_styles_differ():
    persist = example_yield(3, YieldParams(planner=PlannerStyle.PERSIST))
    fall_back = example_yield(3, YieldParams(planner=PlannerStyle.FALL_BACK))
    kernel = fall_back.transitions[0]
    not_yield = fall_back.yhat_space.index("not_yield")
    # falling back resets the gap to the largest grid value
    assert np.all(kernel[:, not_yield, -1] == 1.0)
    assert not np.array_equal(kernel, persist.transitions[0])
    # boundary saturation under persist: the smallest gap can only stay put
    smallest = persist.transitions[0, 0, persist.yhat_space.index("yield")]
    assert smallest[0] == pytest.approx(1.0, abs=1e-12)


def test_yield_invalid_params():
    with pytest.raises(InvalidParams):
        YieldParams(beta=0.0)
    with pytest.raises(InvalidParams):
        YieldParams(grid=(3.0,))
    with pytest.raises(InvalidParams):
        YieldParams(grid=(0.0, 2.0, 1.0))
    with pytest.raises(InvalidParams):
        YieldParams(d_c=50.0)
    with pytest.raises(InvalidParams):
        YieldParams(c_missed=-0.1)
    with pytest.raises(InvalidParams):
        YieldParams(planner="persist")  # type: ignore[arg-type]
    for bad in ({"beta": math.inf}, {"d_c": math.nan}, {"c_missed": math.inf}, {"c_danger": math.nan}):
        with pytest.raises(InvalidParams, match="must be finite"):
            YieldParams(**bad)
    for grid in ((0.0, math.nan, 2.0), (0.0, math.inf), (-1e308, 1e308)):
        with pytest.raises(InvalidParams, match="span must be finite"):
            YieldParams(grid=grid, d_c=0.0)
    # a message names the first bad pair or value, not a grid of 10^5 points
    repeated, unbounded = (1.0,) * 10**5, (*range(10**5), math.inf)
    for grid, match in ((repeated, r"grid\[0\] = 1.0 and grid\[1\] = 1.0"), (unbounded, r"grid\[100000\] = inf")):
        with pytest.raises(InvalidParams, match=match) as error:
            YieldParams(grid=grid, d_c=1.0)
        assert len(str(error.value)) < 200
    # each loss entry would overflow, though every parameter is finite
    for bad in ({"c_missed": 1e307}, {"c_danger": 1.7e308}):
        with pytest.raises(InvalidParams, match="largest losses"):
            YieldParams(**bad)
