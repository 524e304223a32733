import io
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    blocks_matrix,
    dense_interpolator,
    dense_weights,
    densify,
    output_fractions,
    pairs_validate_oracle,
    random_chain_dataset,
    random_monotone_dataset,
    random_monotone_score,
)
from mononet import core
from mononet.approx import build_approximator, plan_grid, tabulated_function
from mononet.construct import build_chain_interpolator, build_interpolator, separating_coordinate
from mononet.core import (
    RELU,
    THRESHOLD,
    ExactStage,
    MonotoneDataset,
    ThresholdLayer,
    ThresholdNetwork,
    WeightPattern,
    affine_network,
    first_set,
    is_totally_ordered,
    pairwise_leq,
    prefix_lookup,
    row_blocks,
    threshold,
    validate_dataset,
)
from mononet.errors import (
    DimensionMismatch,
    DuplicatePoint,
    EmptyDataset,
    Error,
    InvalidArgument,
    InvalidNumber,
    MonotoneViolation,
    NotTotallyOrdered,
)
from mononet.io import load_network, network_from_dict, network_to_dict, read_dataset_csv


def dict_duplicate_oracle(points: np.ndarray):
    """Test oracle: (first, second) of the least index whose point occurred
    earlier, found through a dict of coordinate tuples; None if all differ."""
    seen: dict[tuple, int] = {}
    for k in range(len(points)):
        key = tuple(points[k])
        if key in seen:
            return seen[key], k
        seen[key] = k
    return None


class TestThreshold:
    def test_boundary_is_one(self):
        assert threshold(0.0) == 1

    def test_negative(self):
        assert threshold(-1e-12) == 0

    def test_positive(self):
        assert threshold(3.5) == 1

    def test_negative_zero(self):
        assert threshold(-0.0) == 1

    def test_fraction_input(self):
        assert threshold(Fraction(-1, 10**30)) == 0
        assert threshold(Fraction(0)) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(InvalidNumber):
            threshold(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_reflection(self, z):
        if z != 0:
            assert threshold(z) == 1 - threshold(-z)
        else:
            assert threshold(z) == 1


class TestValidateDataset:
    def test_spread_example_keeps_order(self):
        ds = validate_dataset([[2, 0], [0, 2], [1, 1]], [0.0, 0.0, 1.0])
        assert ds.points.tolist() == [[0.0, 2.0], [2.0, 0.0], [1.0, 1.0]]
        assert ds.labels.tolist() == [0.0, 0.0, 1.0]

    def test_direct_violation(self):
        with pytest.raises(MonotoneViolation) as err:
            validate_dataset([[0, 0], [1, 1]], [1.0, 0.0])
        assert (err.value.first, err.value.second) == (0, 1)

    def test_label_sort(self):
        ds = validate_dataset(
            [[0, 0], [1, 0], [0, 1], [1, 1]], [0.0, 1.0, 1.0, 2.0]
        )
        # incomparable equal-label pair in lexicographic order
        assert ds.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert ds.labels.tolist() == [0.0, 1.0, 1.0, 2.0]

    def test_equal_label_comparable_pair_smaller_first(self):
        ds = validate_dataset([[5, 5], [0, 0]], [1.0, 1.0])
        assert ds.points.tolist() == [[0.0, 0.0], [5.0, 5.0]]
        assert ds.labels.tolist() == [1.0, 1.0]

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            validate_dataset(np.empty((0, 2)), [])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_dataset([[1, 2], [1, 2, 3]], [0.0, 1.0])

    def test_duplicate_rejected_even_with_equal_labels(self):
        with pytest.raises(DuplicatePoint):
            validate_dataset([[1, 2], [1, 2]], [0.0, 0.0])

    def test_duplicate_pair_matches_the_dict_oracle(self):
        # few distinct coordinates, so most datasets repeat points, some
        # more than twice and some as -0.0 against 0.0; d = 0 makes every
        # point equal
        rng = np.random.default_rng(41)
        raised = 0
        for trial in range(600):
            n, d = int(rng.integers(1, 25)), int(rng.integers(0, 4))
            points = rng.integers(-1, 2, (n, d)) * rng.choice([1.0, -0.0], (n, d))
            want = dict_duplicate_oracle(points)
            labels = np.zeros(n)
            if want is None:
                validate_dataset(points, labels)
                continue
            with pytest.raises(DuplicatePoint) as err:
                validate_dataset(points, labels)
            assert (err.value.first, err.value.second) == want, (trial, points)
            raised += 1
        assert 200 < raised < 600

    def test_duplicate_check_memory(self):
        # the 1024 x 1023 spread dataset (8 MB of points) with row 5 repeated
        # at the end; the refusal comes before the monotonicity check
        d = 1023
        spread = np.vstack([d * np.eye(d)[::-1], np.ones((1, d))])
        points = np.vstack([spread, spread[5:6]])
        labels = np.zeros(len(points))
        with pytest.raises(DuplicatePoint):  # first calls import
            validate_dataset(points[[0, 1, 0]], labels[:3])
        tracemalloc.start()
        try:
            with pytest.raises(DuplicatePoint) as err:
                validate_dataset(points, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.first, err.value.second) == (5, d + 1)
        # the points, their sorted copy and slack; one tuple key per point took 42 MB
        assert peak < 24_000_000, peak

    @pytest.mark.parametrize(
        "points, labels, error",
        [
            ([[1, 2], 3], [0.0, 1.0], DimensionMismatch),
            (zip([(0.0,)], [0.0]), [0.0], DimensionMismatch),
            ([[0.0], [1.0]], [[0.0], [1.0, 2.0]], DimensionMismatch),
            (np.zeros((2, 1, 1)), [0.0, 1.0], DimensionMismatch),
            (5.0, [0.0], DimensionMismatch),
            ([[0.0], [1.0]], [0.0], DimensionMismatch),
            ([[0.0], [1.0]], [0.0, 1.0, 2.0], DimensionMismatch),
            ([[0.0], [1.0]], [[0.0], [1.0]], DimensionMismatch),
            ([[0.0], [1.0]], 0.0, DimensionMismatch),
            (np.empty((0, 0)), [], EmptyDataset),
            (np.empty((0, 3)), np.empty(0), EmptyDataset),
            ([], [], EmptyDataset),
            ([[0.0, -np.inf]], [0.0], InvalidNumber),
            ([[0.0]], [np.nan], InvalidNumber),
        ],
        ids=["ragged-points", "pairs-iterator", "ragged-labels", "3-d-points", "0-d-points",
             "short-labels", "long-labels", "2-d-labels", "0-d-labels", "0-by-0", "0-by-3",
             "empty-lists", "minus-inf-point", "nan-label"],
    )
    def test_array_boundary(self, points, labels, error):
        with pytest.raises(error):
            validate_dataset(points, labels)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidNumber):
            validate_dataset([[float("nan")]], [0.0])
        with pytest.raises(InvalidNumber):
            validate_dataset([[1.0]], [float("inf")])

    def test_scalar_points_refused(self):
        with pytest.raises(DimensionMismatch):
            validate_dataset([0.0, 1.0], [-2.0, 3.0])
        ds = validate_dataset([[0.0], [1.0]], [-2.0, 3.0])
        assert ds.dimension == 1
        assert ds.labels.tolist() == [-2.0, 3.0]

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ds = random_monotone_dataset(rng, max_n=20, max_d=4)
            again = validate_dataset(ds.points, ds.labels)
            assert again == ds

    def test_canonical_order_consistent(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            ds = random_monotone_dataset(rng, max_n=20, max_d=4)
            X, y = ds.points, ds.labels
            for i in range(ds.n):
                for j in range(i + 1, ds.n):
                    assert not (np.all(X[j] <= X[i]) and y[j] < y[i])
                    # the construction relies on: an earlier point never
                    # dominates a later one (points are distinct)
                    assert not np.all(X[i] >= X[j])

    @pytest.mark.parametrize("budget", [64, 1, 50, 200, 4096, core.WORKING_SET_BYTES])
    def test_row_blocks_report_the_first_row_major_violation(self, monkeypatch, budget):
        # the blocks of rows and the dominance index both follow the one budget
        rng = np.random.default_rng(budget)
        monkeypatch.setattr(core, "WORKING_SET_BYTES", budget)
        violations = 0
        for _ in range(80):
            X = np.unique(rng.integers(0, 4, (int(rng.integers(2, 40)), 2)).astype(float), axis=0)
            rng.shuffle(X)
            y = rng.integers(0, 3, len(X)).astype(float)
            bad = one_shot_leq(X) & (y[:, None] > y[None, :])
            if not bad.any():
                validate_dataset(X, y)
                continue
            violations += 1
            with pytest.raises(MonotoneViolation) as err:
                validate_dataset(X, y)
            assert (err.value.first, err.value.second) == tuple(np.argwhere(bad)[0])
        assert violations > 40

    def test_a_block_is_masked_in_place(self):
        # 4000 x 4000 bools are 15.26 MiB; a block of them is at most the 1 MiB budget, and its
        # label comparison another block, with the dominance index of the points one more
        X = np.random.default_rng(4004).random((4000, 4))
        y = X @ [1.0, 2.0, 3.0, 4.0]
        assert len(list(row_blocks(4000, 4000, core.WORKING_SET_BYTES))) == 16
        tracemalloc.start()
        try:
            ds = validate_dataset(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n == 4000
        assert peak <= 4 << 20, peak

    @pytest.mark.parametrize("budget", [64, 1])
    def test_row_blocks_keep_the_canonical_order(self, monkeypatch, budget):
        rng = np.random.default_rng(100 + budget)
        corpus = []
        for _ in range(40):
            X = np.unique(rng.integers(0, 4, (int(rng.integers(1, 40)), 3)).astype(float), axis=0)
            rng.shuffle(X)
            y = np.floor(random_monotone_score(rng, X) * 3)
            corpus.append((X, y, validate_dataset(X, y)))
        monkeypatch.setattr(core, "WORKING_SET_BYTES", budget)
        for X, y, want in corpus:
            assert validate_dataset(X, y) == want

    def test_memory_stays_within_row_blocks(self):
        # one n x n boolean array here is 137 MiB
        X = np.random.default_rng(12000).random((12000, 2))
        y = X @ [1.0, 2.0]
        tracemalloc.start()
        try:
            ds = validate_dataset(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n == 12000
        assert peak < 4 << 20, peak  # blocks of the 1 MiB budget, as at n = 4,000

    def test_tied_labels_stay_within_row_blocks(self, monkeypatch):
        # one tied group of distinct points: no n x n comparison of the group
        X = np.random.default_rng(4000).random((4000, 2))
        y = np.full(len(X), 0.5)
        monkeypatch.setattr(core, "WORKING_SET_BYTES", 64 << 10)
        tracemalloc.start()
        try:
            ds = validate_dataset(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        assert ds.points.tolist() == sorted(X.tolist())


@st.composite
def small_datasets(draw):
    d = draw(st.integers(1, 3))
    points = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3) for _ in range(d)]),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    w = [draw(st.integers(0, 3)) for _ in range(d)]
    labels = [float(sum(wi * c for wi, c in zip(w, p))) for p in points]
    return np.array(points, dtype=float), np.array(labels)


@given(small_datasets())
@settings(max_examples=60)
def test_validate_idempotent_property(data):
    ds = validate_dataset(*data)
    assert validate_dataset(ds.points, ds.labels) == ds


@given(small_datasets(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_validate_ignores_the_input_order_property(data, random):
    X, y = data
    order = list(range(len(X)))
    random.shuffle(order)
    assert validate_dataset(X[order], y[order]) == validate_dataset(X, y)


@st.composite
def raw_datasets(draw):
    """Small integer grids with -0.0, repeated rows and label inversions, at d = 0..3."""
    d = draw(st.integers(0, 3))
    values = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    rows = draw(st.lists(st.tuples(*[values] * d), max_size=8, unique=draw(st.booleans())))
    n = len(rows)
    X = np.array(rows, dtype=float).reshape(n, d)
    y = X.sum(axis=1) + draw(st.sampled_from([0.0, -0.0, 0.5]))  # monotone, so some datasets pass
    drops = draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []
    y[drops] -= 2.5  # below the label of any point below it: an inversion
    return X, y


def validation_outcome(validate, *args):
    """The dataset's bytes, or the error's class and input pair."""
    try:
        ds = validate(*args)
    except Error as exc:
        return type(exc), getattr(exc, "first", None), getattr(exc, "second", None)
    return ds.points.shape, ds.points.tobytes(), ds.labels.tobytes()


@given(raw_datasets())
@settings(max_examples=400, deadline=None)
def test_validate_matches_the_pairs_oracle_property(data):
    X, y = data
    want = validation_outcome(pairs_validate_oracle, zip(map(tuple, X), y))
    assert validation_outcome(validate_dataset, X, y) == want


class TestTotallyOrdered:
    def test_chain(self):
        ds = validate_dataset([[0, 0], [1, 1], [2, 2]], [0.0, 1.0, 2.0])
        assert is_totally_ordered(ds)

    def test_spread_is_not(self):
        ds = validate_dataset([[2, 0], [0, 2], [1, 1]], [0.0, 0.0, 1.0])
        assert not is_totally_ordered(ds)

    def test_single_point(self):
        ds = validate_dataset([[0.5, 0.5]], [1.0])
        assert is_totally_ordered(ds)

    def test_matches_the_pairwise_definition(self):
        rng = np.random.default_rng(8)
        seen = set()
        for _ in range(400):
            ds = random_monotone_dataset(rng, max_n=10, max_d=3)
            seen.add(is_totally_ordered(ds))
            assert is_totally_ordered(ds) == every_pair_comparable(ds.points)
        assert seen == {True, False}

    def test_tied_shuffled_chains(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            X = random_chain_dataset(rng, int(rng.integers(1, 20)), int(rng.integers(1, 4))).points.copy()
            rng.shuffle(X)
            ds = validate_dataset(X, np.ones(len(X)))
            assert is_totally_ordered(ds) == every_pair_comparable(ds.points) is True

    def test_hand_made_reverse_chain_is_not_a_chain(self):
        chain = random_chain_dataset(np.random.default_rng(10), 6, 3)
        ds = MonotoneDataset(chain.points[::-1], chain.labels[::-1])
        assert every_pair_comparable(ds.points)
        assert not is_totally_ordered(ds)
        with pytest.raises(NotTotallyOrdered):
            build_chain_interpolator(ds)


def one_shot_leq(P: np.ndarray, Q: np.ndarray | None = None) -> np.ndarray:
    Q = P if Q is None else Q
    return np.all(P[:, None, :] <= Q[None, :, :], axis=2)


def every_pair_comparable(P: np.ndarray) -> bool:
    """The definition of a chain, pair by pair."""
    L = one_shot_leq(P)
    return bool(np.all(L | L.T))


# ties, both zeros, both infinities and NaN, which is never <= nor >= anything
EDGE_VALUES = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan])


@st.composite
def leq_cases(draw):
    """Queries and points of one dimension d in 0..3: 0..70 of each, so n can be 63, 64 or 65."""
    d = draw(st.integers(0, 3))
    rows = lambda count: np.array(draw(st.lists(st.lists(EDGE_VALUES, min_size=d, max_size=d),
                                                min_size=count, max_size=count)), dtype=float).reshape(count, d)
    m = draw(st.integers(0, 20))
    n = draw(st.one_of(st.sampled_from([0, 1, 63, 64, 65]), st.integers(0, 70)))
    return rows(m), rows(n)


class TestPairwiseLeq:
    @settings(max_examples=300, deadline=None)
    @given(leq_cases(), st.sampled_from([1, 100, 2_000, 20_000, 1 << 20]))
    def test_equals_the_one_shot_comparison(self, case, budget):
        # a small budget cuts the index into blocks of 64 columns and the rows into blocks of one
        P, Q = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "WORKING_SET_BYTES", budget)
            got = pairwise_leq(P, Q)
        assert got.dtype == bool and got.shape == (len(P), len(Q))
        assert got.tobytes() == one_shot_leq(P, Q).tobytes()

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 700])
    def test_column_block_boundaries(self, monkeypatch, n):
        # at a budget of 10 KB, 3 coordinates take blocks of 64 columns: n = 129 is three of them
        rng = np.random.default_rng(n)
        P, Q = rng.integers(0, 5, (40, 3)).astype(float), rng.integers(0, 5, (n, 3)).astype(float)
        monkeypatch.setattr(core, "WORKING_SET_BYTES", 10_000)
        blocks, width = core._index_blocks(n, 3)
        assert width == 64 and blocks == -(-n // 64)
        assert np.array_equal(pairwise_leq(P, Q), one_shot_leq(P, Q))

    def test_the_index_fits_the_budget_past_one_block(self):
        for n, d in ((700, 4), (2000, 4), (4000, 4), (12_000, 2)):
            blocks, width = core._index_blocks(n, d)
            assert blocks * width >= n and width % 64 == 0
            assert d * blocks * width * (width + 129) <= 8 * core.WORKING_SET_BYTES
        assert core._index_blocks(700, 4) == (1, 704)  # synth's size: one block of all columns

    def test_one_index_serves_every_block(self, monkeypatch):
        # a built network indexes its points once, for every evaluation block and the trace's rows
        builds = []
        init = core.DominanceIndex.__init__
        monkeypatch.setattr(core.DominanceIndex, "__init__", lambda index, A: builds.append(len(A)) or init(index, A))
        rng = np.random.default_rng(36)
        P = rng.random((50, 3))
        ds = validate_dataset(P, np.round(P.sum(axis=1), 1))
        assert builds == [50]  # validation: one index for all its blocks
        net, trace = build_interpolator(ds)
        monkeypatch.setattr(core, "CHUNK_BYTES", 8 * 150 * 7)  # blocks of 7 rows
        X = rng.random((100, 3))
        want = closed_form(ds.points, ds.labels, X)
        for _ in range(3):
            assert net.evaluate_batch(X).tolist() == want
        trace.write_json(io.StringIO())
        assert np.array_equal(trace.embedding_matrix, one_shot_leq(ds.points).T)
        assert builds == [50, 50]
        approx_f = tabulated_function(P, ds.labels)
        monkeypatch.setattr(core, "WORKING_SET_BYTES", 50 * 3)  # blocks of 3 queries
        approx_f(X)
        approx_f(X)
        assert builds == [50, 50, 50]

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_both_sides_of_the_first_block_boundary(self, n):
        # a row of bools takes n bytes: 1024 rows of them fit the budget, 1025 do not; the index answers both alike
        assert (core.WORKING_SET_BYTES // n >= n) == (n == 1024)
        P = np.random.default_rng(n).integers(0, 50, (n, 2)).astype(float)
        assert np.array_equal(pairwise_leq(P), one_shot_leq(P))

    def test_small_blocks_with_ties(self, monkeypatch):
        P = np.random.default_rng(23).integers(0, 3, (37, 3)).astype(float)
        want = one_shot_leq(P)
        for budget in (1, 37, 37 * 36, 37 * 37, 37 * 38):
            monkeypatch.setattr(core, "WORKING_SET_BYTES", budget)
            assert np.array_equal(pairwise_leq(P), want)
        assert pairwise_leq(P[:0]).shape == (0, 0)

    def test_peak_is_the_output_and_one_buffer(self):
        rng = np.random.default_rng(24)
        P, Q = rng.integers(0, 4, (4000, 4)).astype(float), rng.integers(0, 4, (2000, 4)).astype(float)
        tracemalloc.start()
        try:
            M = pairwise_leq(P, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= M.nbytes + (2 << 20)
        assert M.tobytes() == np.all(P[:, None, :] <= Q[None, :, :], axis=2).tobytes()


class TestRowBlocks:
    def test_slices_partition_the_rows(self, monkeypatch):
        monkeypatch.setattr(core, "CHUNK_BYTES", 40)  # the default budget is read at each call
        for rows in (0, 1, 5, 64, 1001):
            for row_bytes in (0, 1, 8, 13, 41):
                for budget in (None, 1, 40, 4096):
                    slices = list(row_blocks(rows, row_bytes, budget))
                    assert [i for s in slices for i in range(s.start, s.stop)] == list(range(rows))
                    assert all(s.step is None and s.start < s.stop for s in slices) or rows == 0
                    # each block within the budget, or one row on its own
                    step = slices[0].stop - slices[0].start
                    assert step * row_bytes <= (budget or 40) or step == 1 or rows == 0

    def test_no_rows_give_one_empty_slice(self):
        assert list(row_blocks(0, 8)) == list(row_blocks(0, 8, 1)) == [slice(0, 0)]

    def test_a_row_past_the_budget_gets_a_slice_of_its_own(self):
        assert list(row_blocks(3, 100, 99)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert list(row_blocks(5, 100, 250)) == [slice(0, 2), slice(2, 4), slice(4, 5)]


class TestConstructorsCopy:
    """A constructor copies the caller's arrays, so they stay writeable and the object stays as built."""

    def test_layer(self):
        W, b = np.array([[1.0, 2.0]]), np.array([-1.0])
        layer = ThresholdLayer(W, b)
        W *= 2
        b += 5
        assert layer.weights.tolist() == [[1.0, 2.0]] and layer.biases.tolist() == [-1.0]
        assert not layer.weights.flags.writeable and not layer.biases.flags.writeable
        index = np.array([1, 0])
        select = ThresholdLayer(WeightPattern("select", 2, index), np.zeros(2))
        index[0] = 0
        assert select.weights.index.tolist() == [1, 0]

    def test_network_output(self):
        layer = ThresholdLayer(np.ones((2, 1)), np.zeros(2))
        w = np.array([0.5, 0.25])
        net = ThresholdNetwork((layer,), w, 0.0)
        w[:] = 9.0
        assert net.output_weights.tolist() == [0.5, 0.25] and net.evaluate([1.0]) == 0.75

    def test_dataset(self):
        X, y = np.array([[0.0, 1.0], [1.0, 2.0]]), np.array([0.0, 1.0])
        ds = MonotoneDataset(X, y)
        X *= 2
        y[0] = 7.0
        assert ds.points.tolist() == [[0.0, 1.0], [1.0, 2.0]] and ds.labels.tolist() == [0.0, 1.0]
        assert not ds.points.flags.writeable and not ds.labels.flags.writeable
        view = X[:, :1]  # a view of a caller's array is the caller's too
        column = MonotoneDataset(view, y)
        X[0, 0] = 3.0
        assert column.points.tolist() == [[0.0], [2.0]]


def single_unit_net():
    # one threshold unit firing when x >= 0.5
    layer = ThresholdLayer([[1.0]], [-0.5])
    return ThresholdNetwork((layer,), [1.0], 0.0)


class TestEvaluate:
    def test_threshold_boundary(self):
        net = single_unit_net()
        assert net.evaluate([0.5]) == 1.0
        assert net.evaluate([0.4999]) == 0.0

    def test_affine_degenerate(self):
        net = affine_network([2.0], 1.0)
        assert net.evaluate([3.0]) == 7.0
        assert net.hidden_unit_count == 0

    def test_dimension_mismatch(self):
        net = single_unit_net()
        with pytest.raises(DimensionMismatch):
            net.evaluate([1.0, 2.0])

    def test_nonfinite_point(self):
        net = single_unit_net()
        with pytest.raises(InvalidNumber):
            net.evaluate([float("nan")])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        layer1 = ThresholdLayer(rng.random((5, 3)), rng.uniform(-2, 2, 5))
        layer2 = ThresholdLayer(rng.random((4, 5)), rng.uniform(-3, 3, 4))
        net = ThresholdNetwork((layer1, layer2), rng.random(4), 0.25)
        X = rng.random((20, 3))
        batch = net.evaluate_batch(X)
        # blocked matmul may differ from row-at-a-time in the last ulp
        singles = np.array([net.evaluate(x) for x in X])
        assert np.allclose(batch, singles, rtol=1e-12, atol=0)

    def test_hidden_activations_are_binary(self):
        net = single_unit_net()
        acts = net.hidden_activations(np.array([[0.0], [1.0]]))
        assert set(acts[0].ravel().tolist()) <= {0.0, 1.0}

    def test_monotone_flag(self):
        assert single_unit_net().monotone_flag
        neg = ThresholdNetwork((ThresholdLayer([[-0.1]], [0.0]),), [1.0], 0.0)
        assert not neg.monotone_flag
        neg_out = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [-1.0], 0.0)
        assert not neg_out.monotone_flag
        zero = ThresholdNetwork((ThresholdLayer([[0.0]], [0.0]),), [0.0], 0.0)
        assert zero.monotone_flag

    def test_first_negative_weight_of_a_network(self):
        ones = ThresholdLayer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        hidden = ThresholdLayer([[1.0, 0.5], [0.0, -2.0]], [0.0, 0.0])
        assert ThresholdNetwork((ones, hidden), [-1.0, 1.0]).first_negative_weight() == (1, 1, 1)
        assert ThresholdNetwork((ones, ones), [-0.0, -1.0]).first_negative_weight() == (2, 0, 1)
        assert ThresholdNetwork((ones,), [0.0, 2.0]).first_negative_weight() is None
        assert affine_network([0.5, -1e-300], 0.0).first_negative_weight() == (0, 0, 1)
        # an exact weight's sign is its numerator's, though -1/10**400 is -0.0 in float
        exact = ThresholdNetwork((ones,), [Fraction(1, 2), Fraction(-1, 10**400)], Fraction(0))
        assert exact.output_weights[1] == 0.0
        assert exact.first_negative_weight() == (1, 0, 1)
        assert not exact.monotone_flag

    def test_first_set(self):
        R = np.array([[0, 0, 1, 1], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]], dtype=bool)
        assert first_set(R).tolist() == [2, 0, -1, 3]
        assert first_set(np.zeros((3, 0), dtype=bool)).tolist() == [-1, -1, -1]
        assert first_set(np.zeros((0, 4), dtype=bool)).tolist() == []

    def test_prefix_lookup(self):
        # k = width - (first set column), or 0: one more than the last read set, reads last first
        R = np.array([[0, 0, 1, 1], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]], dtype=bool)
        table = np.array([10.0, 11.0, 12.0, 13.0, 14.0])
        assert prefix_lookup(table, R).tolist() == [12.0, 14.0, 10.0, 11.0]
        out = np.full(6, -1.0)
        prefix_lookup(table, R, out=out[1:5])
        assert out.tolist() == [-1.0, 12.0, 14.0, 10.0, 11.0, -1.0]
        assert prefix_lookup(table, np.zeros((3, 0), dtype=bool)).tolist() == [10.0] * 3

    def test_layer_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            ThresholdLayer([[1.0, 2.0]], [0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            ThresholdNetwork(
                (ThresholdLayer([[1.0]], [0.0]),), [1.0, 1.0], 0.0
            )
        with pytest.raises(InvalidNumber):
            ThresholdLayer([[float("inf")]], [0.0])

    @pytest.mark.parametrize("activation", ["threshold", "relu"])
    def test_fan_in_one_matches_matmul(self, activation):
        # a fan-in-1 dense layer sums with np.dot; each entry is one product either way
        rng = np.random.default_rng(25)
        for m in (1, 2, 7, 100, 10_001):
            for width in range(1, 33):
                layer = ThresholdLayer(rng.random((width, 1)), rng.uniform(-1, 1, width), activation)
                A = rng.uniform(-1, 1, (m, 1)) * 10.0 ** rng.integers(-3, 4, (m, 1))
                Z = A @ layer.weights.T
                assert layer._sums(A, layer.weights).tobytes() == Z.tobytes()
                Z = Z + layer.biases
                want = Z >= 0 if activation == "threshold" else np.maximum(Z, 0.0)
                got = layer.forward(A)
                assert got.dtype == (bool if activation == "threshold" else float)
                assert got.tobytes() == want.tobytes()
        net = ThresholdNetwork((ThresholdLayer(dyadic(rng, (5, 1)), dyadic(rng, 5), activation),),
                               dyadic(rng, 5, 0.0, 1.0), 0.25)
        X = dyadic(rng, (9, 1), -2.0, 2.0)
        assert net.evaluate_batch_exact(X) == fraction_oracle(net, X)

    def test_monotone_on_sampled_pairs(self):
        rng = np.random.default_rng(3)
        layer = ThresholdLayer(rng.random((6, 2)), rng.uniform(-1, 1, 6))
        net = ThresholdNetwork((layer,), rng.random(6), -0.5)
        U = rng.random((200, 2))
        V = U + (1 - U) * rng.random((200, 2))
        assert np.all(net.evaluate_batch(U) <= net.evaluate_batch(V))


BLOCKS3 = WeightPattern("blocks", 3)
SUFFIX = WeightPattern("suffix")
SELECT = WeightPattern("select", 3, [2, 0, 0, 1])


class TestWeightPatterns:
    def test_shapes(self):
        blocks = ThresholdLayer(BLOCKS3, [-3.0, -3.0])
        suffix = ThresholdLayer(SUFFIX, [-1.0, -1.0, -1.0])
        assert (blocks.kind, blocks.width, blocks.input_width) == ("blocks", 2, 6)
        assert (suffix.kind, suffix.width, suffix.input_width) == ("suffix", 3, 3)
        select = ThresholdLayer(SELECT, [0.0] * 4)
        assert (select.kind, select.width, select.input_width) == ("select", 4, 3)
        assert select.weights.index.tolist() == [2, 0, 0, 1] and not select.weights.index.flags.writeable
        assert ThresholdLayer([[1.0, 2.0]], [0.0]).kind == "dense"
        assert ThresholdNetwork((blocks, ThresholdLayer(SUFFIX, [0.0, 0.0])), [1.0, 1.0]).input_dimension == 6

    @pytest.mark.parametrize(
        "pattern",
        [WeightPattern("diagonal"), WeightPattern("blocks", 0), WeightPattern("blocks", 2.0),
         WeightPattern("blocks", True), WeightPattern("blocks", "2"), WeightPattern("suffix", 2),
         WeightPattern("blocks", 1, [0]), WeightPattern("select", 1), WeightPattern("select", 1, [1]),
         WeightPattern("select", 2, [-1]), WeightPattern("select", 2, [0.0]),
         WeightPattern("select", 2, [True]), WeightPattern("select", 2, [[0]]),
         WeightPattern("select", True, [0]), WeightPattern("select", 0, [0])],
    )
    def test_bad_pattern(self, pattern):
        with pytest.raises(InvalidArgument):
            ThresholdLayer(pattern, [0.0])

    def test_pattern_biases_checked(self):
        with pytest.raises(DimensionMismatch):
            ThresholdLayer(SUFFIX, [[0.0]])
        with pytest.raises(DimensionMismatch):
            ThresholdLayer(SELECT, [0.0] * 3)
        with pytest.raises(InvalidNumber):
            ThresholdLayer(SUFFIX, [float("nan")])

    @pytest.mark.parametrize("activation", ["threshold", "relu"])
    def test_forward_matches_dense_matrix(self, activation):
        rng = np.random.default_rng(21)
        for pattern, width in [(BLOCKS3, 4), (WeightPattern("blocks", 1), 5), (SUFFIX, 6)]:
            layer = ThresholdLayer(pattern, dyadic(rng, width, -4.0, 1.0), activation)
            dense = ThresholdLayer(dense_weights(layer), layer.biases, activation)
            A = rng.integers(0, 2, (9, layer.input_width)).astype(float)
            if activation == "relu":
                A = dyadic(rng, A.shape, -2.0, 2.0)
            assert np.array_equal(layer.forward(A), dense.forward(A))

    @pytest.mark.parametrize("activation", ["threshold", "relu"])
    def test_select_matches_one_hot_matrix(self, activation):
        rng = np.random.default_rng(23)
        for k in range(40):
            d, width = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            biases = rng.uniform(-1, 1, width) if k % 2 else odd_biases(rng, width, 1)
            layer = ThresholdLayer(WeightPattern("select", d, rng.integers(0, d, width)), biases, activation)
            dense = ThresholdLayer(dense_weights(layer), layer.biases, activation)
            assert np.array_equal(dense.weights.sum(axis=1), np.ones(width))
            A = rng.uniform(-1, 1, (12, d)) * 10.0 ** rng.integers(-3, 3, (12, d))
            # pre-activations of exactly 0, and one ulp to either side of 0
            A[0, layer.weights.index] = -layer.biases
            A[1, layer.weights.index] = np.nextafter(-layer.biases, np.inf)
            A[2, layer.weights.index] = np.nextafter(-layer.biases, -np.inf)
            assert layer.forward(A).tobytes() == dense.forward(A).tobytes()
            bits = rng.random((9, d)) < 0.5  # a threshold layer's output
            assert layer.forward(bits).tobytes() == dense.forward(bits).tobytes()
            if activation == "threshold":
                assert layer.forward(bits).dtype == layer.forward(A).dtype == bool
                index = layer.weights.index
                exact = [[Fraction(x) + Fraction(b) >= 0 for x, b in zip(row[index].tolist(), layer.biases.tolist())]
                         for row in A]
                assert layer.forward(A).tolist() == exact

    @pytest.mark.parametrize("size", [1, 2, 4, 16, 64])
    def test_block_sums_match_blocks_matrix(self, size):
        rng = np.random.default_rng(24)
        width = int(rng.integers(1, 40))
        A = rng.integers(0, 2, (33, width * size)).astype(float)
        got = ThresholdLayer(WeightPattern("blocks", size), np.zeros(width))._sums(A, None)
        assert got.tobytes() == (A @ blocks_matrix(width, size).T).tobytes()

    @pytest.mark.parametrize("fan_in", [1, 4, 254, 255, 256, 300])
    @pytest.mark.parametrize("kind", ["blocks", "suffix"])
    def test_bool_counts_match_float_dense_and_exact(self, kind, fan_in):
        # the counts cross from uint8 to uint16 at fan-in 255; a suffix unit i has fan-in width - i
        rng = np.random.default_rng(fan_in)
        width = 6 if kind == "blocks" else fan_in
        pattern = WeightPattern("blocks", fan_in) if kind == "blocks" else SUFFIX
        layer = ThresholdLayer(pattern, odd_biases(rng, width, fan_in))
        inputs = layer.input_width
        density = np.vstack([np.zeros(1), np.ones(1), rng.random((62, 1))])
        A = rng.random((64, inputs)) < density
        # a select layer of cut 0.5 hands the same bits to the pattern layer inside a network
        ones = ThresholdLayer(WeightPattern("select", inputs, np.arange(inputs)), np.full(inputs, -0.5))
        weights = tuple(Fraction(1, 2**i) for i in range(width))  # the sum spells out the units
        net = ThresholdNetwork((ones, layer), weights, Fraction(-1, 3))
        X = A.astype(float)

        got = layer.forward(A)
        assert got.dtype == bool and got.shape == (64, width)
        assert 0 < got.sum() < got.size
        assert got.tobytes() == layer.forward(X).tobytes()  # the float sums
        assert got.tobytes() == ThresholdLayer(dense_weights(layer), layer.biases).forward(X).tobytes()
        assert got.tobytes() == layer.forward(A.astype(object)).tobytes()  # exact ints
        assert got.tobytes() == net.hidden_activations(X)[-1].tobytes()
        assert got.tobytes() == densify(net).hidden_activations(X)[-1].tobytes()
        assert net.evaluate_batch_exact(X) == [
            sum((w for w, a in zip(weights, row) if a), Fraction(-1, 3)) for row in got.tolist()
        ]

    @pytest.mark.parametrize("fan_in", [1, 4, 300])
    def test_integer_cuts_take_the_count_path_in_exact_evaluation(self, fan_in):
        rng = np.random.default_rng(fan_in + 1)
        layer = ThresholdLayer(WeightPattern("blocks", fan_in), -rng.integers(-1, fan_in + 3, 8).astype(float))
        assert layer.float_exact(True)
        ones = ThresholdLayer(WeightPattern("select", 8 * fan_in, np.arange(8 * fan_in)), np.full(8 * fan_in, -0.5))
        weights = tuple(Fraction(1, 2**i) for i in range(8))
        net = ThresholdNetwork((ones, layer), weights, 0)
        X = (rng.random((40, 8 * fan_in)) < rng.random((40, 1))).astype(float)
        counts = X.reshape(40, 8, fan_in).sum(axis=2).astype(int).tolist()
        cuts = (-layer.biases).astype(int).tolist()
        want = [sum(w for w, c, cut in zip(weights, row, cuts) if c >= cut) for row in counts]
        assert net.evaluate_batch_exact(X) == want
        assert net.evaluate_batch(X).tolist() == [float(v) for v in want]

    @pytest.mark.parametrize("kind", ["blocks", "suffix"])
    def test_fractional_biases_take_the_count_path_in_exact_evaluation(self, kind, monkeypatch):
        rng = np.random.default_rng(["blocks", "suffix"].index(kind) + 40)
        for fan_in in (1, 3, 7):
            width = 5 if kind == "blocks" else fan_in
            pattern = WeightPattern("blocks", fan_in) if kind == "blocks" else SUFFIX
            biases = odd_biases(rng, width, fan_in)
            halves = rng.random(width) < 0.5
            biases[halves] = 0.5 - rng.integers(0, fan_in + 2, np.count_nonzero(halves))
            layer = ThresholdLayer(pattern, biases)
            assert layer.float_exact(True)
            inputs = layer.input_width
            ones = ThresholdLayer(WeightPattern("select", inputs, np.arange(inputs)), np.full(inputs, -0.5))
            net = ThresholdNetwork((ones, layer), tuple(Fraction(1, 2**i) for i in range(width)), Fraction(-1, 3))
            X = rng.random((30, inputs)) * rng.random((30, 1)) * 2
            batches = []
            forward = ThresholdLayer.forward
            monkeypatch.setattr(ThresholdLayer, "forward", lambda self, A: batches.append(A.dtype) or forward(self, A))
            got = net.evaluate_batch_exact(X)
            monkeypatch.undo()
            assert batches == [np.dtype(float), np.dtype(bool)]  # no layer ran on Fractions
            assert got == fraction_oracle(densify(net), X)

    def test_first_negative_weight(self):
        assert ThresholdLayer(SUFFIX, [-5.0]).first_negative_weight() is None
        assert ThresholdLayer(SELECT, [-5.0] * 4).first_negative_weight() is None
        assert ThresholdLayer([[1.0, 0.0], [0.5, -0.0], [2.0, -1e-300]], [0.0] * 3).first_negative_weight() == (2, 1)
        assert ThresholdLayer([[0.0, 1.0]], [-1.0]).first_negative_weight() is None

    def test_float_exact(self):
        assert ThresholdLayer(BLOCKS3, [-3.0]).float_exact(True)
        assert not ThresholdLayer(BLOCKS3, [-3.0]).float_exact(False)
        # a pattern on 0/1 input compares its count with ceil(-b), exact for any bias
        assert ThresholdLayer(BLOCKS3, [-2.5]).float_exact(True)
        assert ThresholdLayer(SUFFIX, [-(2.0**53)]).float_exact(True)
        assert not ThresholdLayer(SUFFIX, [-0.5]).float_exact(False)
        assert not ThresholdLayer(SUFFIX, [-1.0], "relu").float_exact(True)
        # a select layer is one unit weight per row
        assert ThresholdLayer(SELECT, [-0.1, 2.5, -(2.0**60), 0.3]).float_exact(False)
        assert not ThresholdLayer(SELECT, [0.0] * 4, "relu").float_exact(False)
        # one unit weight per row is exact on any input
        assert ThresholdLayer([[0.0, 1.0], [1.0, 0.0]], [-0.1, 0.3]).float_exact(False)
        assert ThresholdLayer([[2.0, 1.0]], [-3.0]).float_exact(True)
        assert not ThresholdLayer([[2.0, 1.0]], [-3.0]).float_exact(False)
        assert not ThresholdLayer([[0.5, 1.0]], [-3.0]).float_exact(True)

    def test_layers_compare_and_hash_by_identity(self):
        for make in (lambda: ThresholdLayer([[1.0, 2.0]], [0.0]), lambda: ThresholdLayer(BLOCKS3, [-3.0]),
                     lambda: ThresholdLayer(SUFFIX, [-1.0, -1.0]), lambda: ThresholdLayer(SELECT, [0.0] * 4)):
            a, b = make(), make()
            assert a == a and a != b
            assert hash(a) == hash(a)
            assert len({a, b, a}) == 2

    def test_row_blocks_keep_results(self, monkeypatch):
        rng = np.random.default_rng(22)
        ds = random_monotone_dataset(rng, max_n=40, max_d=3)
        net = ThresholdNetwork(
            (ThresholdLayer(np.tile(np.eye(ds.dimension), (ds.n, 1)), -ds.points.reshape(-1)),
             ThresholdLayer(WeightPattern("blocks", ds.dimension), np.full(ds.n, -float(ds.dimension))),
             ThresholdLayer(SUFFIX, np.full(ds.n, -1.0))),
            rng.random(ds.n), 0.5,
        )
        X = rng.random((101, ds.dimension)) * 10
        whole = net.evaluate_batch(X)
        for budget in (1, 8 * 3 * ds.n * ds.dimension, 10**6):
            monkeypatch.setattr(core, "CHUNK_BYTES", budget)
            assert net.evaluate_batch(X).tobytes() == whole.tobytes()
            assert net.evaluate_batch(X[:0]).shape == (0,)


def fraction_oracle(net: ThresholdNetwork, X) -> list[Fraction]:
    """The network on each row of ``X``, every step in Fractions, one unit at a time.

    ``net`` has dense weights only: pass ``dense_interpolator`` or ``densify``.
    """
    out = []
    for x in np.asarray(X, dtype=float).tolist():
        a = [Fraction(v) for v in x]
        for layer in net.layers:
            z = [
                sum((Fraction(w) * v for w, v in zip(row, a)), Fraction(b))
                for row, b in zip(layer.weights.tolist(), layer.biases.tolist())
            ]
            if layer.activation == "threshold":
                a = [Fraction(int(v >= 0)) for v in z]
            else:
                a = [max(v, Fraction(0)) for v in z]
        weights, bias = output_fractions(net)
        out.append(sum((w * v for w, v in zip(weights, a)), bias))
    return out


ODD_BIASES = [-0.5, 0.25, -0.0, 5e-324, -5e-324, 1e300, -1e300, -2.0000000000000004]


def odd_biases(rng, width: int, fan_in: int) -> np.ndarray:
    """Biases of units of fan-in up to ``fan_in``: ``-k``, one ulp to either side, and ``ODD_BIASES``.

    The pool holds ``-fan_in`` and ``-(fan_in + 1)``, the cuts that all and
    none of a full unit's inputs reach.
    """
    k = -rng.integers(0, fan_in + 2, width).astype(float)
    pool = np.array(ODD_BIASES + [-float(fan_in), -(fan_in + 1.0)])
    choices = [k, np.nextafter(k, np.inf), np.nextafter(k, -np.inf), rng.choice(pool, width)]
    biases = np.choose(rng.integers(0, 4, width), choices)
    biases[: len(pool)] = pool[: width]  # every odd bias at least once
    return biases


def dyadic(rng, shape, lo=-1.0, hi=1.0):
    """Multiples of 1/8, so that pre-activations of exactly 0 occur."""
    return rng.integers(int(lo * 8), int(hi * 8) + 1, size=shape) / 8.0


def random_stack(rng, kind: str) -> ThresholdNetwork:
    d = int(rng.integers(1, 4))
    widths = [d] + [int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 4)))]
    kinds = ["threshold", "relu"] if kind == "mixed" else [kind]
    acts = [str(rng.choice(kinds)) for _ in widths[1:]]
    layers = []
    for k, act in enumerate(acts):
        shape = (widths[k + 1], widths[k])
        if kind == "mixed" and rng.random() < 0.5:
            # small integer weights: float-exact after a 0/1 layer
            layers.append(ThresholdLayer(rng.integers(0, 3, shape), rng.integers(-2, 1, shape[0])))
        else:
            layers.append(ThresholdLayer(dyadic(rng, shape), dyadic(rng, shape[0]), act))
    out_w = dyadic(rng, widths[-1], 0.0, 2.0)
    if rng.random() < 0.5:
        out_w = tuple(Fraction(int(v), 3) for v in rng.integers(0, 9, widths[-1]))
    return ThresholdNetwork(tuple(layers), out_w, Fraction(int(rng.integers(-3, 3)), 7))


class TestLargeBatches:
    def test_memory_follows_one_block(self):
        # 7,000 rows of 10,000 units: 630 MB of bools and their float64 cast if kept whole
        layer = ThresholdLayer(WeightPattern("select", 1, np.zeros(10_000, np.intp)), -np.arange(10_000.0))
        net = ThresholdNetwork((layer,), np.ones(10_000))
        X = 2.0 * np.arange(7_000)[:, None]  # unit u fires iff x >= u
        tracemalloc.start()
        try:
            got = net.evaluate_batch(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 26, peak
        assert got.tolist() == np.minimum(X[:, 0] + 1, 10_000).tolist()


@st.composite
def batch_cases(draw):
    """A dataset with labels that are not dyadic, so that the output sums round, and queries around it.

    Half the datasets are chains, which both builders take.
    """
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 30))
    steps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=n, max_size=n))
    if draw(st.booleans()):
        points = np.cumsum(steps, axis=0) + np.arange(n)[:, None]
    else:
        points = np.unique(np.array(steps, dtype=float), axis=0)
    w = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=d, max_size=d)))
    ds = validate_dataset(points, np.round(points @ w / w.sum(), 3))
    X = np.vstack([ds.points, ds.points - 0.5, ds.points + 0.25])
    return ds, w, X


class TestBatchInvariance:
    def test_training_points_alone_equal_their_rows_of_the_batch(self):
        rng = np.random.default_rng(1)
        X = rng.random((700, 4))
        w = rng.uniform(0.5, 1.5, 4)
        ds = validate_dataset(X, np.round(X @ w / w.sum(), 3))
        net, _ = build_interpolator(ds)
        alone = np.array([net.evaluate(x) for x in ds.points])
        assert alone.tobytes() == net.evaluate_batch(ds.points).tobytes()

    @given(batch_cases(), st.lists(st.integers(0, 90), max_size=4), st.integers(1, 4096))
    @settings(max_examples=60, deadline=None)
    def test_values_do_not_depend_on_the_batch_property(self, case, cuts, budget):
        ds, w, X = case
        nets = [build_interpolator(ds)[0], affine_network(w / 3, 0.1)]
        if is_totally_ordered(ds):
            nets.append(build_chain_interpolator(ds)[0])
        for net in nets:
            assert_batch_invariant(net, X, cuts, budget)

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_integer_weights_on_bools(self, seed):
        # small integer weights on 0/1 activations sum exactly in any order, so even a
        # BLAS product gives each row the bits it has alone; one-hot rows read the floats
        rng = np.random.default_rng(seed)
        d, fan_in = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        layers = [ThresholdLayer(np.eye(d)[rng.integers(d, size=fan_in)], -rng.random(fan_in))]
        for activation in (THRESHOLD, RELU):
            width = int(rng.integers(1, 70))
            weights = rng.integers(0, 4, (width, fan_in)).astype(float)
            layers.append(ThresholdLayer(weights, -rng.integers(0, 2 * fan_in, width).astype(float), activation))
            fan_in = width
        net = ThresholdNetwork(tuple(layers), rng.random(fan_in), 0.1)
        assert [layer.kind for layer in net.layers] == ["dense"] * 3
        X = rng.random((300, d))
        assert_batch_invariant(net, X, rng.integers(0, 300, 3).tolist(), int(rng.integers(64, 4096)))

    @pytest.mark.parametrize("version", [1, 2])
    def test_version_1_and_2_networks(self, version):
        data = Path(__file__).parent / "data"
        net = load_network(data / f"v{version}_network.json")
        points, _ = read_dataset_csv(data / f"v{version}_dataset.csv")
        X = np.vstack([points, points - 0.5, points + 0.25])
        for budget in (64, 4096):
            assert_batch_invariant(net, X, [1, len(points), 2 * len(points) + 3], budget)


def assert_batch_invariant(net: ThresholdNetwork, X: np.ndarray, cuts, budget: int):
    """``net``'s values on ``X`` are the same bits split at ``cuts``, in row blocks of ``budget``
    bytes, in Fortran order and one row at a time."""
    edges = sorted({0, len(X), *(c % (len(X) + 1) for c in cuts)})
    whole = net.evaluate_batch(X)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "CHUNK_BYTES", budget)  # blocks of a few rows
        parts = [net.evaluate_batch(X[a:b]) for a, b in zip(edges, edges[1:])]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert net.evaluate_batch(X).tobytes() == whole.tobytes()
        assert net.evaluate_batch(np.asfortranarray(X)).tobytes() == whole.tobytes()
        assert np.array([net.evaluate(x) for x in X]).tobytes() == whole.tobytes()


def closed_form(points: np.ndarray, labels: np.ndarray, X: np.ndarray) -> list[float]:
    """Test oracle: ``max{y_i : x_i <= x}``, else ``min(0, least label)``, one query at a time."""
    base = min(0.0, float(labels.min()))
    pairs = list(zip(points.tolist(), labels.tolist()))
    return [max((y for p, y in pairs if all(a <= b for a, b in zip(p, x))), default=base) for x in X.tolist()]


def layered(net: ThresholdNetwork, X: np.ndarray) -> np.ndarray:
    """Test oracle: the last hidden layer's bools through the float output stage, summed by ``np.einsum``."""
    A = np.ascontiguousarray(net.hidden_activations(X)[-1], dtype=float)
    return np.einsum("ij,j->i", A, net.output_weights) + net.output_bias


def round_trip(net: ThresholdNetwork) -> ThresholdNetwork:
    return network_from_dict(json.loads(json.dumps(network_to_dict(net))))


def assert_prefix_path(net: ThresholdNetwork, X: np.ndarray, want: list[float] | None = None):
    """``net`` is evaluated through its prefix table: the exact value rounded once, ``want`` when
    given, and each row's k counts the suffix units that fire, which form a prefix."""
    assert net._prefix_table is not None
    got = net.evaluate_batch(X)
    assert got.tolist() == [float(v) for v in net.evaluate_batch_exact(X)]
    if want is not None:
        assert got.tolist() == want
    *_, reads, fired = net.hidden_activations(X)
    k = prefix_lookup(np.arange(fired.shape[1] + 1), net._suffix_reads(X))
    assert np.array_equal(fired, np.arange(fired.shape[1]) < k[:, None])
    assert np.array_equal(net._suffix_reads(X)[:, ::-1], reads)


class TestPrefixTable:
    @given(batch_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_built_networks_return_the_closed_form_property(self, case, seed):
        ds, w, X = case
        rng = np.random.default_rng(seed)
        lo, hi = ds.points.min(axis=0) - 1, ds.points.max(axis=0) + 1
        X = np.vstack([X, lo + (hi - lo) * rng.random((20, ds.dimension))])
        net = build_interpolator(ds)[0]
        assert net._dominance_index is not None
        for each in (net, round_trip(net)):
            assert_prefix_path(each, X, closed_form(ds.points, ds.labels, X))
        if is_totally_ordered(ds):
            # the chain's unit i reads one coordinate r_i of x_i: a point with every other coordinate -inf
            chain, lows = build_chain_interpolator(ds)[0], np.full_like(ds.points, -np.inf)
            for i in range(ds.n):
                r = separating_coordinate(ds, i + 1)[0] - 1
                lows[i, r] = ds.points[i, r]
            assert chain._dominance_index is None  # its head runs its layer
            for each in (chain, round_trip(chain)):
                assert_prefix_path(each, X, closed_form(lows, ds.labels, X))
            assert chain.evaluate_batch(ds.points).tolist() == ds.labels.tolist()

        def f(P):
            return np.round(P @ w / w.sum(), 3)

        net = build_approximator(f, ds.dimension, lipschitz=1.0, eps=0.34)
        grid = plan_grid(ds.dimension, 1.0, 0.34).points()
        Q = np.vstack([grid, rng.uniform(-0.1, 1.1, (30, ds.dimension))])
        for each in (net, round_trip(net)):
            assert_prefix_path(each, Q, closed_form(grid, f(grid), Q))

    def test_other_heads_run_their_layers(self):
        rng = np.random.default_rng(32)
        P = rng.random((30, 3))
        ds = validate_dataset(P, np.round(P.sum(axis=1) / 3, 3))
        net, _ = build_interpolator(ds)
        X = np.vstack([ds.points, rng.uniform(-0.1, 1.1, (60, 3))])
        select, blocks, suffix = net.layers
        order = np.arange(select.width).reshape(ds.n, 3)[:, ::-1].reshape(-1)  # each block reversed
        permuted = ThresholdLayer(WeightPattern("select", 3, select.weights.index[order]), select.biases[order])
        heads = [
            (permuted, blocks),  # the same function
            (select, ThresholdLayer(WeightPattern("blocks", 3), np.full(ds.n, -2.0))),  # two of three, an OR
        ]
        others = [ThresholdNetwork((*head, suffix), net.exact_stage) for head in heads]
        for other in others:
            assert other._dominance_index is None
            assert_prefix_path(other, X)
        assert others[0].evaluate_batch(X).tobytes() == net.evaluate_batch(X).tobytes()

    def test_unrecognised_networks_keep_the_layered_pass(self):
        rng = np.random.default_rng(33)
        P = rng.random((30, 2))
        ds = validate_dataset(P, np.round(P @ [0.3, 0.7], 3))
        net, _ = build_interpolator(ds)
        X = np.vstack([ds.points, rng.uniform(-0.1, 1.1, (60, 2))])
        at_least_two = ThresholdLayer(WeightPattern("suffix"), np.full(ds.n, -2.0))
        others = [
            ThresholdNetwork(net.layers, net.output_weights, net.output_bias),  # a float stage
            ThresholdNetwork((*net.layers[:2], at_least_two), net.exact_stage),
        ]
        for other in others:
            assert other._prefix_table is None
            assert other.evaluate_batch(X).tobytes() == layered(other, X).tobytes()

    def test_a_table_past_the_float_range_keeps_the_layered_pass(self):
        # each weight is a float, but the prefix sum of the first two is 2**1024
        big = 2**1023
        doc = {"version": 3, "dimension": 1, "monotone_flag": False, "exact": True,
               "layers": [{"activation": "threshold", "kind": "select", "size": 1, "index": [0] * 3,
                           "biases": [0.0, -1.0, -2.0]},
                          {"activation": "threshold", "kind": "suffix", "size": 1, "biases": [-1.0] * 3}],
               "output": {"weights": [f"{big}/1", f"{big}/1", f"-{big}/1"], "bias": "1/3"}}
        net = network_from_dict(doc)
        assert net.exact_stage is not None and net._prefix_table is None
        X = np.array([[-1.0], [0.5], [1.5], [2.5]])
        with np.errstate(over="ignore"):
            assert net.evaluate_batch(X).tobytes() == layered(net, X).tobytes()


class TestExactEvaluation:
    def test_fast_path_matches_rational(self):
        rng = np.random.default_rng(11)
        for k in range(20):
            if k % 2:
                ds = random_monotone_dataset(rng, max_n=8, max_d=3)
                net, _ = build_interpolator(ds)
                oracle = dense_interpolator(ds)
            else:
                n = int(rng.integers(1, 9))
                X = np.cumsum(rng.integers(0, 3, (n, 2)), axis=0) + np.arange(n)[:, None]
                ds = validate_dataset(X, np.sort(dyadic(rng, n)))
                net, _ = build_chain_interpolator(ds)
                oracle = densify(net)
            queries = np.vstack([ds.points, ds.points - 0.5, ds.points + 0.25])
            got = net.evaluate_batch_exact(queries)
            assert got == fraction_oracle(oracle, queries)
            assert got[: ds.n] == [Fraction(float(v)) for v in ds.labels]

    @pytest.mark.parametrize("kind", ["threshold", "relu", "mixed", "affine"])
    def test_matches_fraction_oracle(self, kind):
        rng = np.random.default_rng(["threshold", "relu", "mixed", "affine"].index(kind))
        for _ in range(40):
            if kind == "affine":
                d = int(rng.integers(1, 5))
                net = affine_network(dyadic(rng, d, 0.0, 2.0), float(dyadic(rng, ())))
            else:
                net = random_stack(rng, kind)
            X = dyadic(rng, (12, net.input_dimension), -2.0, 2.0)
            got = net.evaluate_batch_exact(X)
            assert got == fraction_oracle(net, X)
            assert all(isinstance(v, Fraction) for v in got)
            assert np.allclose([float(v) for v in got], net.evaluate_batch(X), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("activation", ["threshold", "relu"])
    def test_forward_on_fractions(self, activation):
        # full mantissas over exponents far apart, and non-dyadic inputs
        rng = np.random.default_rng(13)
        for _ in range(20):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)))
            scale = 10.0 ** rng.integers(-300, 300, shape)
            layer = ThresholdLayer(rng.uniform(-1, 1, shape) * scale, rng.uniform(-1, 1, shape[0]), activation)
            A = np.array(
                [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(shape[1])]
                 for _ in range(4)] + [[0] * shape[1]],
                dtype=object,
            )
            # both patterns on the same rows, with biases whose exponents lie far
            # apart, checked against the patterns' dense matrices
            width = int(rng.integers(1, 4))
            biases = rng.uniform(-1, 1, width) * 10.0 ** rng.integers(-300, 3, width)
            cases = [
                (layer, A),
                (ThresholdLayer(WeightPattern("blocks", shape[1]), biases, activation),
                 np.concatenate([A] * width, axis=1)),
                (ThresholdLayer(SUFFIX, rng.uniform(-2, 1, shape[1]), activation), A),
                (ThresholdLayer(WeightPattern("select", shape[1], rng.integers(0, shape[1], width)),
                                biases, activation), A),
            ]
            for case, batch in cases:
                got = case.forward(batch)
                for a, row in zip(batch.tolist(), got.tolist()):
                    z = [
                        sum((Fraction(w) * v for w, v in zip(ws, a)), Fraction(b))
                        for ws, b in zip(dense_weights(case).tolist(), case.biases.tolist())
                    ]
                    if activation == "threshold":
                        assert row == [float(v >= 0) for v in z]
                    else:
                        assert row == [max(v, 0) for v in z]
                        assert all(type(v) is (Fraction if v else int) for v in row)

    def test_rational_path_on_general_weights(self):
        rng = np.random.default_rng(12)
        layer = ThresholdLayer(rng.random((4, 2)), rng.uniform(-1, 1, 4))
        net = ThresholdNetwork((layer,), rng.random(4), 0.125)
        x = rng.random(2)
        exact = net.evaluate_exact(x)
        assert isinstance(exact, Fraction)
        assert math.isclose(float(exact), net.evaluate(x), rel_tol=0, abs_tol=1e-12)

    def test_float_rounding_does_not_leak(self):
        # fl(0.1 + 0.2) is above the exact sum, and 0.3 is below it
        x = [0.1, 0.2]
        total = Fraction(0.1) + Fraction(0.2)
        step = ThresholdNetwork((ThresholdLayer([[1.0, 1.0]], [-(0.1 + 0.2)]),), [1.0], 0.0)
        assert step.evaluate(x) == 1.0
        assert step.evaluate_exact(x) == 0 == fraction_oracle(step, [x])[0]
        relu = ThresholdNetwork((ThresholdLayer([[1.0, 1.0]], [-0.3], "relu"),), [1.0], 0.0)
        assert relu.evaluate(x) == 0.1 + 0.2 - 0.3
        assert relu.evaluate_exact(x) == total - Fraction(0.3) == fraction_oracle(relu, [x])[0]

    def test_exact_relu(self):
        layer = ThresholdLayer([[1.0]], [-0.25], activation="relu")
        net = ThresholdNetwork((layer,), [2.0], 0.0)
        assert net.evaluate_exact([0.75]) == Fraction(1)
        assert net.evaluate_exact([0.0]) == Fraction(0)

    def test_output_fractions_become_ints_over_one_scale(self):
        weights = (Fraction(1, 3), 0.5, np.int64(2), Fraction(7, 2))  # a numpy int as well as floats
        bias = Fraction(-1, 5)
        net = ThresholdNetwork((ThresholdLayer(np.ones((4, 1)), np.zeros(4)),), weights, bias)
        assert net.exact_stage == ExactStage((10, 15, 60, 105), -6, 30)
        assert output_fractions(net) == (list(weights), bias)
        assert net.output_weights.tolist() == [1 / 3, 0.5, 2.0, 3.5] and net.output_bias == -0.2
        assert ThresholdNetwork(net.layers, net.exact_stage).exact_stage == net.exact_stage
        with pytest.raises(InvalidArgument):
            ThresholdNetwork(net.layers, net.exact_stage, 0.5)  # the stage holds its bias
