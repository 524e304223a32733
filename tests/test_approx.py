import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mononet.approx import (
    BUILTIN_FUNCTIONS,
    build_approximator,
    empirical_lipschitz,
    plan_grid,
    resolve_function,
)
from mononet.errors import GridTooLarge, MonotoneViolation


class TestPlanGrid:
    def test_quarter_spacing(self):
        grid = plan_grid(1, 1.0, 0.25)
        assert grid.axis_points == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert grid.point_count == 5

    def test_endpoint_appended(self):
        # spacing 1/sqrt(2) does not land on 1, so the endpoint is added
        grid = plan_grid(2, 1.0, 1.0)
        assert grid.points_per_axis == 3
        assert grid.axis_points[0] == 0.0
        assert grid.axis_points[-1] == 1.0
        assert math.isclose(grid.axis_points[1], 1 / math.sqrt(2))
        assert grid.point_count == 9

    def test_degenerate_coarse_grid(self):
        grid = plan_grid(1, 1.0, 2.0)
        assert grid.axis_points == (0.0, 1.0)

    def test_count_bound_reported(self):
        grid = plan_grid(2, 1.0, 0.5)
        assert math.isclose(grid.count_bound, (math.sqrt(2) / 0.5) ** 2)

    def test_budget(self):
        with pytest.raises(GridTooLarge):
            plan_grid(3, 1.0, 0.01, budget=10_000)

    @settings(max_examples=300, deadline=None)
    @example(d=1, lipschitz=1.0, eps=0.33333333333333337)  # 3 * eps rounds to 1.0
    @example(d=1, lipschitz=1.0, eps=0.1)
    @given(
        d=st.integers(1, 4),
        lipschitz=st.floats(0.1, 10.0),
        eps=st.floats(1e-3, 10.0),
    )
    def test_axis_matches_stepping_reference(self, d, lipschitz, eps):
        # the reference steps k * spacing up to 1.0, one point at a time
        budget = 10**4
        spacing = (eps / lipschitz) / math.sqrt(d)
        axis = [0.0]
        k = 1
        while k * spacing <= 1.0 and len(axis) <= budget:
            axis.append(k * spacing)
            k += 1
        if axis[-1] < 1.0:
            axis.append(1.0)
        if len(axis) ** d > budget:
            with pytest.raises(GridTooLarge):
                plan_grid(d, lipschitz, eps, budget)
        else:
            assert plan_grid(d, lipschitz, eps, budget).axis_points == tuple(axis)

    @pytest.mark.parametrize("d, eps", [(1, 1e-8), (1, 1e-320), (1, 5e-324), (200, 0.5), (10**9, 0.5)])
    def test_refused_before_building_the_axis(self, d, eps):
        tracemalloc.start()
        try:
            with pytest.raises(GridTooLarge):
                plan_grid(d, 1.0, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_grid(0, 1.0, 0.1)
        with pytest.raises(ValueError):
            plan_grid(1, 0.0, 0.1)
        with pytest.raises(ValueError):
            plan_grid(1, 1.0, 0.0)

    def test_neighbors(self):
        grid = plan_grid(2, 1.0, 0.5)
        lo = grid.lower_neighbor((0.4, 0.9))
        hi = grid.upper_neighbor((0.4, 0.9))
        assert all(a <= b for a, b in zip(lo, (0.4, 0.9)))
        assert all(a >= b for a, b in zip(hi, (0.4, 0.9)))
        assert lo in set(grid.iter_points())
        assert hi in set(grid.iter_points())


class TestBuildApproximator:
    def test_identity_staircase(self):
        net = build_approximator(lambda x: x[0], 1, 1.0, 0.25)
        rng = np.random.default_rng(0)
        probes = rng.random((1000, 1))
        errors = np.abs(net.evaluate_batch(probes) - probes[:, 0])
        assert errors.max() <= 0.25

    def test_constant_is_exact(self):
        net = build_approximator(lambda x: 0.7, 1, 1.0, 0.25)
        rng = np.random.default_rng(1)
        probes = rng.random((500, 1))
        assert np.all(net.evaluate_batch(probes) == 0.7)

    def test_mean_two_dimensional(self):
        net = build_approximator(lambda x: (x[0] + x[1]) / 2, 2, 1.0, 0.2)
        rng = np.random.default_rng(2)
        probes = rng.random((2000, 2))
        errors = np.abs(net.evaluate_batch(probes) - probes.mean(axis=1))
        assert errors.max() <= 0.2

    def test_sqrt_on_shifted_domain(self):
        # sqrt(eta + (1-eta)x) is monotone with Lipschitz bound (1-eta)/(2*sqrt(eta))
        eta = 0.09
        lip = (1 - eta) / (2 * math.sqrt(eta))
        f = lambda x: math.sqrt(eta + (1 - eta) * x[0])
        net = build_approximator(f, 1, lip, 0.1)
        rng = np.random.default_rng(3)
        probes = rng.random((1000, 1))
        errors = np.abs(net.evaluate_batch(probes) - np.sqrt(eta + (1 - eta) * probes[:, 0]))
        assert errors.max() <= 0.1

    def test_size_formula(self):
        for d, eps in [(1, 0.25), (2, 0.5)]:
            grid = plan_grid(d, 1.0, eps)
            net = build_approximator(lambda x: min(x), d, 1.0, eps)
            assert net.hidden_unit_count == (d + 2) * grid.point_count
            assert net.monotone_flag

    def test_sandwich_property(self):
        grid = plan_grid(2, 1.0, 0.4)
        f = lambda x: max(x)
        net = build_approximator(f, 2, 1.0, 0.4)
        rng = np.random.default_rng(4)
        for x in rng.random((200, 2)):
            lo = grid.lower_neighbor(x)
            hi = grid.upper_neighbor(x)
            v = net.evaluate(x)
            assert f(lo) <= v <= f(hi)

    def test_non_monotone_rejected(self):
        with pytest.raises(MonotoneViolation):
            build_approximator(lambda x: -x[0], 1, 1.0, 0.25)

    def test_lipschitz_warning(self):
        with pytest.warns(UserWarning, match="Lipschitz"):
            build_approximator(lambda x: 5.0 * x[0], 1, 1.0, 0.5)


class TestHelpers:
    def test_sample_grid_matches_function(self):
        # The identity interpolated on the 1-D grid reproduces every grid point.
        grid = plan_grid(1, 1.0, 0.5)
        net = build_approximator(lambda x: x[0], 1, 1.0, 0.5)
        assert net.hidden_widths == (grid.point_count, grid.point_count, grid.point_count)
        pts = np.asarray(list(grid.iter_points()))
        assert net.evaluate_batch(pts).tolist() == pts[:, 0].tolist()

    def test_empirical_lipschitz(self):
        grid = plan_grid(1, 1.0, 0.25)
        values = [3.0 * x for (x,) in grid.iter_points()]
        est = empirical_lipschitz(values, grid)
        assert math.isclose(est, 3.0, rel_tol=1e-9)

    def test_resolve_builtins(self):
        assert resolve_function("mean")((0.2, 0.4)) == pytest.approx(0.3)
        assert resolve_function("min")((0.2, 0.4)) == 0.2
        assert resolve_function("max")((0.2, 0.4)) == 0.4
        assert resolve_function("linear")((0.2, 0.4)) == 0.2
        assert resolve_function("sqrt")((0.25,)) == 0.5
        assert resolve_function("constant:0.7")((0.0,)) == 0.7
        with pytest.raises(ValueError):
            resolve_function("nope")
        assert set(BUILTIN_FUNCTIONS) == {"linear", "mean", "min", "max", "sqrt"}
