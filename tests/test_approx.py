import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import axis_minimal, full_grid_approximator, masked_max_table, tabulated_oracle
from mononet import approx, core
from mononet.approx import (
    BUILTIN_FUNCTIONS,
    _axis_pass,
    build_approximator,
    plan_grid,
    resolve_function,
    tabulated_function,
)
from mononet.construct import build_interpolator
from mononet.core import validate_dataset
from mononet.errors import (
    DimensionMismatch,
    EmptyDataset,
    GridTooLarge,
    InvalidArgument,
    InvalidNumber,
    MonotoneViolation,
)


def no_pairwise_work(mp: pytest.MonkeyPatch) -> None:
    """Make every pairwise comparison of the package fail under ``mp``."""
    fail = lambda *args: pytest.fail("compared pairwise")
    for owner, name in ((core, "pairwise_leq"), (core, "validate_dataset"), (core.DominanceIndex, "__init__"),
                        (core.DominanceIndex, "leq")):
        mp.setattr(owner, name, fail)


def grid_neighbors(grid, x) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The largest grid point <= x and the least grid point >= x, for x in [0,1]^d."""
    axis = np.asarray(grid.axis_points)
    lo = axis[np.searchsorted(axis, x, side="right") - 1]
    hi = axis[np.searchsorted(axis, x, side="left")]
    return tuple(lo.tolist()), tuple(hi.tolist())


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
        with pytest.raises(InvalidArgument):
            plan_grid(0, 1.0, 0.1)
        with pytest.raises(InvalidArgument):
            plan_grid(1, 0.0, 0.1)
        with pytest.raises(InvalidArgument):
            plan_grid(1, 1.0, 0.0)

    def test_neighbors(self):
        grid = plan_grid(2, 1.0, 0.5)
        lo, hi = grid_neighbors(grid, (0.4, 0.9))
        assert all(a <= b for a, b in zip(lo, (0.4, 0.9)))
        assert all(a >= b for a, b in zip(hi, (0.4, 0.9)))
        points = set(map(tuple, grid.points().tolist()))
        assert lo in points
        assert hi in points

    @pytest.mark.parametrize("d, eps", [(1, 0.25), (2, 1.0), (3, 0.5)])
    def test_points_in_row_major_order(self, d, eps):
        grid = plan_grid(d, 1.0, eps)
        points = grid.points()
        assert points.shape == (grid.point_count, d) and points.dtype == np.float64
        assert not points.flags.writeable
        assert points.tolist() == [list(p) for p in itertools.product(grid.axis_points, repeat=d)]


class TestBuildApproximator:
    def test_identity_staircase(self):
        net = build_approximator(lambda X: X[:, 0], 1, 1.0, 0.25)
        rng = np.random.default_rng(0)
        probes = rng.random((1000, 1))
        errors = np.abs(net.evaluate_batch(probes) - probes[:, 0])
        assert errors.max() <= 0.25

    def test_constant_is_exact(self):
        net = build_approximator(lambda X: np.full(len(X), 0.7), 1, 1.0, 0.25)
        rng = np.random.default_rng(1)
        probes = rng.random((500, 1))
        assert np.all(net.evaluate_batch(probes) == 0.7)

    def test_mean_two_dimensional(self):
        net = build_approximator(lambda X: (X[:, 0] + X[:, 1]) / 2, 2, 1.0, 0.2)
        rng = np.random.default_rng(2)
        probes = rng.random((2000, 2))
        errors = np.abs(net.evaluate_batch(probes) - probes.mean(axis=1))
        assert errors.max() <= 0.2

    def test_sqrt_on_shifted_domain(self):
        # sqrt(eta + (1-eta)x) is monotone with Lipschitz bound (1-eta)/(2*sqrt(eta))
        eta = 0.09
        lip = (1 - eta) / (2 * math.sqrt(eta))
        f = lambda X: np.sqrt(eta + (1 - eta) * X[:, 0])
        net = build_approximator(f, 1, lip, 0.1)
        rng = np.random.default_rng(3)
        probes = rng.random((1000, 1))
        errors = np.abs(net.evaluate_batch(probes) - np.sqrt(eta + (1 - eta) * probes[:, 0]))
        assert errors.max() <= 0.1

    def test_size_formula(self):
        # (d + 2) units per kept point; min keeps the points on the grid's diagonal
        for d, eps in [(1, 0.25), (2, 0.5), (3, 0.5)]:
            grid = plan_grid(d, 1.0, eps)
            net = build_approximator(BUILTIN_FUNCTIONS["min"], d, 1.0, eps)
            kept = axis_minimal(grid, grid.points().min(axis=1)).sum()
            assert kept == grid.points_per_axis
            assert net.hidden_unit_count == (d + 2) * kept
            assert net.monotone_flag

    def test_sandwich_property(self):
        grid = plan_grid(2, 1.0, 0.4)
        f = lambda X: X.max(axis=1)
        net = build_approximator(f, 2, 1.0, 0.4)
        rng = np.random.default_rng(4)
        for x in rng.random((200, 2)):
            lo, hi = grid_neighbors(grid, x)
            v = net.evaluate(x)
            assert f(np.array([lo]))[0] <= v <= f(np.array([hi]))[0]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_samples_refused_before_the_slope_check(self, value, monkeypatch):
        # the slope check's differences of inf would warn on stderr ahead of the diagnostic
        def f(X):
            values = X.sum(axis=1)
            values[len(values) // 2] = value
            return values

        no_pairwise_work(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target, d in ((lambda X: np.full(len(X), value), 1), (f, 2)):
                with pytest.raises(InvalidNumber, match="labels must be finite"):
                    build_approximator(target, d, 1.0, 0.1)

    def test_non_monotone_rejected(self):
        with pytest.raises(MonotoneViolation):
            build_approximator(lambda X: -X[:, 0], 1, 1.0, 0.25)

    def test_a_monotone_grid_is_built_without_the_pairwise_check(self):
        targets = [
            (lambda X: X.min(axis=1), 2),
            (lambda X: X.max(axis=1), 3),
            (lambda X: np.full(len(X), 0.5), 2),
            (lambda X: X.sum(axis=1) / X.shape[1], 2),
            (lambda X: X[:, 0], 1),
        ]
        for f, d in targets:
            with pytest.MonkeyPatch.context() as mp:
                no_pairwise_work(mp)
                net = build_approximator(f, d, 1.0, 0.3)
            grid = plan_grid(d, 1.0, 0.3)
            points, values = grid.points(), f(grid.points())
            keep = axis_minimal(grid, values)
            want, _ = build_interpolator(validate_dataset(points[keep], values[keep]))
            assert [l.biases.tobytes() for l in net.layers] == [l.biases.tobytes() for l in want.layers]
            assert net.exact_stage == want.exact_stage

    def test_a_falling_grid_names_the_pair_validate_dataset_names(self):
        rng = np.random.default_rng(6)
        falling = 0
        for _ in range(40):
            d = int(rng.integers(1, 4))
            points = plan_grid(d, 1.0, 0.6).points()
            values = points.sum(axis=1)
            values[rng.integers(len(values), size=int(rng.integers(1, 3)))] += rng.choice([-2.0, 2.0])
            table = dict(zip(map(tuple, points.tolist()), values.tolist()))
            f = lambda X: np.array([table[p] for p in map(tuple, X.tolist())])
            try:
                validate_dataset(points, values)
            except MonotoneViolation as err:
                want = err
            else:  # a raised top or a lowered bottom: monotone, and steeper than L
                with pytest.warns(UserWarning, match="Lipschitz"):
                    build_approximator(f, d, 1.0, 0.6)
                continue
            falling += 1
            with pytest.raises(MonotoneViolation) as got:
                build_approximator(f, d, 1.0, 0.6)
            assert (got.value.first, got.value.second, str(got.value)) == (want.first, want.second, str(want))
        assert falling > 25

    def test_a_falling_grid_names_the_pair_with_no_pairwise_work(self, monkeypatch):
        build = approx.build_approximator

        def guarded(*args):
            with pytest.MonkeyPatch.context() as mp:
                no_pairwise_work(mp)
                return build(*args)

        monkeypatch.setitem(globals(), "build_approximator", guarded)  # the test above, its oracle unpatched
        self.test_a_falling_grid_names_the_pair_validate_dataset_names()

    def test_a_falling_top_corner_names_the_pair_validate_dataset_names(self):
        # 284 x 284 = 80,656 grid points; only f(1, 1) = 1.5 falls, below x0 + x1 from x0 > 0.5 on;
        # validate_dataset names positions 40611 and 80655 after its n^2 comparisons
        def f(X):
            values = X.sum(axis=1)
            values[(X == 1.0).all(axis=1)] = 1.5
            return values

        assert plan_grid(2, 1.0, 0.005).point_count == 80_656
        with pytest.MonkeyPatch.context() as mp:
            no_pairwise_work(mp)
            with pytest.raises(MonotoneViolation) as got:
                build_approximator(f, 2, 1.0, 0.005)
        assert (got.value.first, got.value.second) == (40611, 80655)
        assert str(got.value).endswith("x=(0.5020458146424487, 1.0) y=1.5020458146424487 vs x=(1.0, 1.0) y=1.5")

    def test_lipschitz_warning(self):
        with pytest.warns(UserWarning, match="Lipschitz"):
            build_approximator(lambda X: 5.0 * X[:, 0], 1, 1.0, 0.5)


TABLE = (np.random.default_rng(7).random((60, 2)), np.random.default_rng(8).random(60))


class TestCertifiedError:
    """G, the largest rise of the samples across a grid cell, bounds the sup error on [0,1]^d."""

    @pytest.mark.parametrize("name, d", [*itertools.product(sorted(BUILTIN_FUNCTIONS), [1, 2]), ("table", 2)])
    def test_rise_bounds_the_error(self, name, d):
        f = tabulated_function(*TABLE) if name == "table" else resolve_function(name)
        eps = {1: 0.01, 2: 0.05}[d]
        grid = plan_grid(d, 1.0, eps)
        _, _, rise = _axis_pass(f(grid.points()), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # sqrt and the table rise past eps
            net = build_approximator(f, d, 1.0, eps)
        below = np.nextafter(grid.points(), -np.inf)  # each just below a grid point, in the cell under it
        X = np.vstack((np.random.default_rng(d).random((2000, d)), below[(below >= 0).all(axis=1)]))
        errors = np.abs(net.evaluate_batch(X) - f(X))
        assert errors.max() <= rise
        assert errors.max() >= rise / 2  # the points just below the grid points come near it

    @pytest.mark.parametrize("name", ["mean", "min", "max", "linear"])
    def test_rise_within_eps_under_the_lipschitz_bound(self, name):
        grid = plan_grid(2, 1.0, 0.01)
        f = BUILTIN_FUNCTIONS[name]
        _, _, rise = _axis_pass(f(grid.points()), grid)
        assert rise <= 0.01
        assert math.isclose(rise, 0.01 / math.sqrt(2), rel_tol=1e-9)  # one axis step: eps / sqrt(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_approximator(f, 2, 1.0, 0.01)

    def test_sqrt_warns_naming_g(self):
        # sqrt is steeper than L = 1 near 0: its first cell rises by 0.1, ten times eps
        with pytest.warns(UserWarning, match=r"the error bound G = 0\.1 exceeds eps 0\.01"):
            build_approximator(BUILTIN_FUNCTIONS["sqrt"], 1, 1.0, 0.01)

    def test_samples_that_cannot_be_built_are_refused_before_the_warning(self):
        # the two labels' step overflows the float range: the build refuses them, and warns of no G
        f = tabulated_function(np.array([[0.0], [1.0]]), np.array([-1e308, 1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning ahead of the refusal would raise here instead
            with pytest.raises(InvalidNumber):
                build_approximator(f, 1, 1.0, 0.5)


class TestHelpers:
    def test_sample_grid_matches_function(self):
        # The identity interpolated on the 1-D grid reproduces every grid point.
        grid = plan_grid(1, 1.0, 0.5)
        net = build_approximator(lambda X: X[:, 0], 1, 1.0, 0.5)
        assert net.hidden_widths == (grid.point_count, grid.point_count, grid.point_count)
        pts = grid.points()
        assert net.evaluate_batch(pts).tolist() == pts[:, 0].tolist()

    def test_rise_across_a_cell(self):
        grid = plan_grid(1, 1.0, 0.25)
        falls, keep, rise = _axis_pass(3.0 * grid.points()[:, 0], grid)
        assert not falls and keep.all()
        assert rise == 0.75
        grid = plan_grid(2, 1.0, 0.5)  # axis points 0, 0.354, 0.707, 1: the last cell is the narrowest
        falls, keep, rise = _axis_pass(grid.points().sum(axis=1), grid)
        assert not falls and keep.all()
        assert rise == 2 * grid.spacing

    def test_resolve_builtins(self):
        X = np.array([[0.2, 0.4], [0.6, 0.1]])
        assert resolve_function("mean")(X).tolist() == [0.30000000000000004, 0.35]
        assert resolve_function("min")(X).tolist() == [0.2, 0.1]
        assert resolve_function("max")(X).tolist() == [0.4, 0.6]
        assert resolve_function("linear")(X).tolist() == [0.2, 0.6]
        assert resolve_function("sqrt")(np.array([[0.25], [0.0]])).tolist() == [0.5, 0.0]
        assert resolve_function("constant:0.7")(X).tolist() == [0.7, 0.7]
        with pytest.raises(InvalidArgument):
            resolve_function("nope")
        assert set(BUILTIN_FUNCTIONS) == {"linear", "mean", "min", "max", "sqrt"}


def probe_points(grid, rng) -> np.ndarray:
    """The grid points, the points just below them, and random points around the cube."""
    points = grid.points()
    below = np.nextafter(points, -np.inf)
    return np.concatenate([points, below, rng.uniform(-0.1, 1.1, (200, grid.dimension))])


DUPLICATE_TABLE = (
    np.array([[0.1, 0.2], [0.25, 0.5], [0.6, 0.1], [0.25, 0.5], [0.7, 0.8], [0.0, 0.95], [0.5, 0.5]]),
    np.array([-0.03, 0.01, 0.0, 0.02, 0.04, 0.015, -0.01]),
)


class TestPrune:
    """The network built from the kept grid points is the one built from every grid point."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", [*sorted(BUILTIN_FUNCTIONS), "constant:0.5", "constant:-2.5"])
    def test_pruned_equals_full(self, name, d):
        eps = {1: 0.05, 2: 0.2, 3: 0.4}[d]
        f = resolve_function(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # sqrt is steeper than L near 0
            net = build_approximator(f, d, 1.0, eps)
            full = full_grid_approximator(f, d, 1.0, eps)
        grid = plan_grid(d, 1.0, eps)
        kept = axis_minimal(grid, f(grid.points())).sum()
        assert net.hidden_unit_count == (d + 2) * kept
        X = probe_points(grid, np.random.default_rng(d))
        assert net.evaluate_batch_exact(X) == full.evaluate_batch_exact(X)

    def test_table_with_duplicate_points(self):
        f = tabulated_function(*DUPLICATE_TABLE)
        net = build_approximator(f, 2, 1.0, 0.1)
        full = full_grid_approximator(f, 2, 1.0, 0.1)
        grid = plan_grid(2, 1.0, 0.1)
        assert net.hidden_unit_count < full.hidden_unit_count
        assert net.hidden_unit_count == 4 * axis_minimal(grid, f(grid.points())).sum()
        X = probe_points(grid, np.random.default_rng(5))
        assert net.evaluate_batch_exact(X) == full.evaluate_batch_exact(X)

    def test_mean_keeps_every_point(self):
        grid = plan_grid(2, 1.0, 0.1)
        net = build_approximator(BUILTIN_FUNCTIONS["mean"], 2, 1.0, 0.1)
        assert net.hidden_unit_count == 4 * grid.point_count

    def test_mean_adds_the_columns_left_to_right(self):
        # Python 3.12's sum() is compensated, so the reference is an explicit loop
        points = plan_grid(3, 1.0, 0.1).points()
        want = []
        for row in points.tolist():
            total = 0.0
            for v in row:
                total += v
            want.append(total / 3)
        got = BUILTIN_FUNCTIONS["mean"](points)
        assert got.tobytes() == np.array(want).tobytes()


class TestTargetContract:
    @pytest.mark.parametrize(
        "f",
        [lambda X: 0.5, lambda X: X[:, :1], lambda X: X[1:, 0], lambda X: np.zeros((len(X), 2)), lambda X: []],
        ids=["scalar", "column", "short", "matrix", "empty"],
    )
    def test_wrong_shape_raises(self, f):
        with pytest.raises(DimensionMismatch, match="target returned shape"):
            build_approximator(f, 2, 1.0, 0.5)

    def test_a_target_cannot_write_to_the_grid(self):
        seen = []

        def writes(X):
            seen.append(X)
            X[0, 0] = 7.0
            return X[:, 0]

        with pytest.raises(ValueError, match="read-only"):
            build_approximator(writes, 2, 1.0, 0.5)
        grid = plan_grid(2, 1.0, 0.5)
        assert len(seen) == 1 and not seen[0].flags.writeable
        assert np.array_equal(seen[0], grid.points())

    def test_called_once_on_the_whole_grid(self):
        calls = []

        def counted(X):
            calls.append(X.shape)
            return X.max(axis=1)

        build_approximator(counted, 3, 1.0, 0.5)
        assert calls == [(plan_grid(3, 1.0, 0.5).point_count, 3)]


table_points = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12)


class TestTabulatedFunction:
    @settings(max_examples=200, deadline=None)
    @given(
        points=table_points,
        values=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 0.5, 2.0, 1e300]), min_size=12, max_size=12),
        queries=st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), min_size=0, max_size=30),
        chunk=st.integers(1, 200),
    )
    def test_equals_the_per_point_oracle(self, points, values, queries, chunk):
        # small integer grids give ties and duplicate points with different values; -1 lies below every point
        P = np.array(points, dtype=float) / 2
        y = np.array(values[: len(points)])
        Q = np.array(queries, dtype=float).reshape(-1, 2) / 2
        oracle = tabulated_oracle(P, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "WORKING_SET_BYTES", chunk)  # a block of one to a few queries
            got = tabulated_function(P, y)(Q)
        assert got.shape == (len(Q),)
        assert got.tolist() == [oracle(q) for q in Q]

    def test_several_blocks(self, monkeypatch):
        P, y = DUPLICATE_TABLE
        Q = np.random.default_rng(8).uniform(-0.2, 1.2, (500, 2))
        want = tabulated_function(P, y)(Q)
        monkeypatch.setattr(core, "WORKING_SET_BYTES", len(P) * 7)  # blocks of seven queries
        blocks = []
        leq = core.DominanceIndex.leq
        monkeypatch.setattr(core.DominanceIndex, "leq", lambda index, A: blocks.append(len(A)) or leq(index, A))
        assert tabulated_function(P, y)(Q).tolist() == want.tolist()
        assert blocks == [7] * 71 + [3]
        assert want.tolist() == [tabulated_oracle(P, y)(q) for q in Q]

    def test_nan_value_refused(self):
        P, y = DUPLICATE_TABLE[0], DUPLICATE_TABLE[1].copy()
        y[3] = np.nan
        with pytest.raises(InvalidNumber):
            tabulated_function(P, y)
        with pytest.raises(InvalidNumber):
            tabulated_oracle(P, y)

    def test_nan_point_refused(self):
        # a NaN coordinate is never <= a query, so its row's value could never be returned
        P, y = DUPLICATE_TABLE[0].copy(), DUPLICATE_TABLE[1]
        P[3, 1] = np.nan
        with pytest.raises(InvalidNumber, match="point"):
            tabulated_function(P, y)

    @settings(max_examples=300, deadline=None)
    @given(
        points=table_points,
        values=st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1e300]), min_size=12, max_size=12),
        queries=st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), min_size=2, max_size=30),
        chunk=st.integers(1, 200),
    )
    def test_equals_the_masked_max_bit_for_bit(self, points, values, queries, chunk):
        # duplicate points, tied, negative and signed-zero values; two queries or more, as the oracle
        # picks a zero's sign by SIMD lane on one (each row is checked alone below)
        P = np.array(points, dtype=float) / 2
        y = np.array(values[: len(points)])
        Q = np.array(queries, dtype=float) / 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "WORKING_SET_BYTES", chunk)  # a block of one to a few queries
            f = tabulated_function(P, y)
            got = f(Q)
            alone = [f(Q[i : i + 1]).tobytes() for i in range(len(Q))]
        assert got.tobytes() == masked_max_table(P, y)(Q).tobytes()
        assert alone == [got[i : i + 1].tobytes() for i in range(len(Q))]

    @pytest.mark.parametrize(
        "values", [[0.0] * 20 + [-0.0], [0.0] * 20 + [-0.0] + [0.0] * 20, [-0.0] + [0.0] * 20, [-0.0, 0.0]]
    )
    def test_the_baseline_is_the_first_least_row(self, values):
        # values.min() picks a tied zero's sign by SIMD lane: -0.0 on the first list, +0.0 on the second
        y = np.array(values)
        P = np.arange(len(y), dtype=float)[:, None]
        below = np.array([[-1.0], [-2.0]])  # below every table point
        for f in (tabulated_function(P, y), masked_max_table(P, y)):
            assert np.signbit(f(below)).tolist() == [np.signbit(y[0])] * 2

    @pytest.mark.parametrize(
        "points, values, error",
        [
            (np.zeros((0, 2)), np.zeros(0), EmptyDataset),
            (np.zeros((3, 2)), np.zeros(2), DimensionMismatch),
            (np.zeros(3), np.zeros(3), DimensionMismatch),
        ],
        ids=["empty", "lengths", "one-dimensional-points"],
    )
    def test_malformed_tables_refused_when_made(self, points, values, error):
        with pytest.raises(error):
            tabulated_function(points, values)

    def test_query_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            tabulated_function(*DUPLICATE_TABLE)(np.zeros((3, 3)))
