import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import output_fractions, random_chain_dataset, random_monotone_dataset, telescoping_output
from mononet.construct import (
    build_chain_interpolator,
    build_interpolator,
    separating_coordinate,
)
from mononet import core
from mononet.approx import build_approximator
from mononet.core import ThresholdNetwork, is_totally_ordered, pairwise_leq, validate_dataset
from mononet.errors import DuplicatePoint, InvalidArgument, InvalidNumber, NotTotallyOrdered


def spread_dataset():
    return validate_dataset([[2, 0], [0, 2], [1, 1]], [0.0, 0.0, 1.0])


class TestBuildInterpolator:
    def test_spread_example(self):
        net, trace = build_interpolator(spread_dataset())
        assert trace.layer_widths == (6, 3, 3)
        assert net.evaluate_batch(spread_dataset().points).tolist() == [0.0, 0.0, 1.0]
        assert net.monotone_flag

    def test_single_point(self):
        ds = validate_dataset([[0.3, 0.7]], [5.0])
        net, trace = build_interpolator(ds)
        assert trace.layer_widths == (2, 1, 1)
        assert net.evaluate([0.3, 0.7]) == 5.0
        assert net.evaluate([1.0, 1.0]) == 5.0
        assert net.evaluate([0.0, 0.0]) == 0.0

    def test_negative_label_shifts_bias(self):
        ds = validate_dataset([[0.0], [1.0]], [-2.0, 3.0])
        net, trace = build_interpolator(ds)
        assert net.evaluate_batch(ds.points).tolist() == [-2.0, 3.0]
        assert net.output_bias == -2.0
        assert trace.output_weights == (0.0, 5.0)
        assert net.monotone_flag
        # oracle: shifting all labels up by 2 and the outputs back down agrees
        shifted = validate_dataset([[0.0], [1.0]], [0.0, 5.0])
        net2, _ = build_interpolator(shifted)
        probes = np.linspace(-1, 2, 13)[:, None]
        assert np.array_equal(net.evaluate_batch(probes), net2.evaluate_batch(probes) - 2.0)

    def test_widths_and_size_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            ds = random_monotone_dataset(rng, max_n=12, max_d=4)
            net, trace = build_interpolator(ds)
            n, d = ds.n, ds.dimension
            assert trace.layer_widths == (d * n, n, n)
            assert net.hidden_unit_count == (d + 2) * n

    def test_interpolates_float_mode(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            ds = random_monotone_dataset(rng, max_n=24, max_d=5)
            net, _ = build_interpolator(ds)
            err = np.abs(net.evaluate_batch(ds.points) - ds.labels)
            assert err.max() <= 1e-9

    def test_interpolates_exact_mode(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            ds = random_monotone_dataset(rng, max_n=16, max_d=4)
            net, _ = build_interpolator(ds)
            got = net.evaluate_batch_exact(ds.points)
            assert got == [Fraction(float(y)) for y in ds.labels]

    def test_embedding_lemma_on_training_points(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            ds = random_monotone_dataset(rng, max_n=16, max_d=4)
            _, trace = build_interpolator(ds)
            geq = pairwise_leq(ds.points).T  # geq[j, i] = x_j >= x_i
            assert np.array_equal(trace.embedding_matrix, geq)

    def test_trace_is_worked_out_when_read(self, monkeypatch):
        calls = []
        reads = ThresholdNetwork._suffix_reads

        def counted(net, X):
            calls.append((net.hidden_widths, len(X)))
            return reads(net, X)

        monkeypatch.setattr(ThresholdNetwork, "_suffix_reads", counted)
        ds = random_monotone_dataset(np.random.default_rng(27), max_n=40, max_d=3)
        net, trace = build_interpolator(ds)
        build_approximator(lambda X: X.sum(axis=1), d=2, lipschitz=2.0, eps=0.5)
        assert calls == []
        want = pairwise_leq(ds.points).T
        monkeypatch.setattr(core, "WORKING_SET_BYTES", net._dominance_index.row_bytes * 7)
        assert np.array_equal(trace.embedding_matrix, want)
        assert trace.embedding_matrix is trace.embedding_matrix
        # the bools the suffix-OR reads, seven rows at a time: the blocks of evaluate_batch
        blocks = [(net.hidden_widths, len(ds.points[s : s + 7])) for s in range(0, ds.n, 7)]
        assert calls == blocks
        calls.clear()
        net.evaluate_batch(ds.points)
        assert calls == blocks

    @pytest.mark.parametrize("chain", [False, True])
    def test_trace_json_is_written_by_row_blocks(self, monkeypatch, chain):
        rng = np.random.default_rng(28)
        if chain:
            build, ds = build_chain_interpolator, random_chain_dataset(rng, 30, 3)
        else:
            build, ds = build_interpolator, random_monotone_dataset(rng, max_n=30, max_d=3)
        for data in (ds, validate_dataset([[0.5, -1.0]], [2.0])):  # and one point
            _, trace = build(data)
            want = json.dumps({
                "layer_widths": list(trace.layer_widths),
                "embedding_matrix": trace.embedding_matrix.astype(int).tolist(),
                "output_weights": list(trace.output_weights),
            }) + "\n"
            for budget in (1, 4096, core.WORKING_SET_BYTES):
                monkeypatch.setattr(core, "WORKING_SET_BYTES", budget)
                out = io.StringIO()
                trace.write_json(out)
                assert out.getvalue() == want

    def test_embedding_lemma_on_probes(self):
        rng = np.random.default_rng(25)
        ds = random_monotone_dataset(rng, max_n=12, max_d=3)
        net, _ = build_interpolator(ds)
        probes = rng.uniform(-1, ds.points.max() + 1, size=(50, ds.dimension))
        emb = net.hidden_activations(probes)[1]
        for k, x in enumerate(probes):
            for i in range(ds.n):
                assert (emb[k, i] == 1.0) == bool(np.all(x >= ds.points[i]))

    def test_third_layer_lemma(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            ds = random_monotone_dataset(rng, max_n=12, max_d=3)
            net, _ = build_interpolator(ds)
            third = net.hidden_activations(ds.points)[2]
            expect = (np.arange(ds.n)[:, None] >= np.arange(ds.n)[None, :]).astype(float)
            assert np.array_equal(third, expect)


class TestChainInterpolator:
    def test_three_point_chain(self):
        ds = validate_dataset([[0, 0], [1, 1], [2, 2]], [0.0, 1.0, 2.0])
        net, trace = build_chain_interpolator(ds)
        assert trace.layer_widths == (3, 3)
        assert net.evaluate_batch(ds.points).tolist() == [0.0, 1.0, 2.0]
        assert net.hidden_unit_count == 2 * ds.n

    def test_single_point(self):
        ds = validate_dataset([[0.0]], [0.0])
        net, trace = build_chain_interpolator(ds)
        assert trace.layer_widths == (1, 1)
        assert net.evaluate([0.0]) == 0.0
        assert net.evaluate([5.0]) == 0.0

    def test_tied_labels(self):
        ds = validate_dataset([[0, 0], [0, 1], [1, 1]], [1.0, 1.0, 2.0])
        net, trace = build_chain_interpolator(ds)
        assert trace.output_weights == (1.0, 0.0, 1.0)
        assert net.evaluate_batch(ds.points).tolist() == [1.0, 1.0, 2.0]

    def test_rejects_incomparable(self):
        with pytest.raises(NotTotallyOrdered):
            build_chain_interpolator(spread_dataset())

    def test_rejects_duplicate_points(self):
        # a hand-made dataset skips validate_dataset's duplicate check, and
        # is_totally_ordered accepts equal points
        ds = core.MonotoneDataset([[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]], [0.0, 1.0, 2.0])
        with pytest.raises(DuplicatePoint) as info:
            build_chain_interpolator(ds)
        assert (info.value.first, info.value.second) == (1, 2)
        with pytest.raises(DuplicatePoint):
            build_chain_interpolator(core.MonotoneDataset([[0.0, 0.0], [0.0, 0.0]], [0.0, 1.0]))
        with pytest.raises(DuplicatePoint):
            separating_coordinate(ds, 3)

    def test_embedding_on_training_points(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            ds = random_chain_dataset(rng, int(rng.integers(1, 12)), int(rng.integers(1, 4)))
            net, trace = build_chain_interpolator(ds)
            expect = np.arange(ds.n)[:, None] >= np.arange(ds.n)[None, :]
            assert np.array_equal(trace.embedding_matrix, expect)
            err = np.abs(net.evaluate_batch(ds.points) - ds.labels)
            assert err.max() <= 1e-9

    def test_agrees_with_general_builder_on_chain(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            ds = random_chain_dataset(rng, int(rng.integers(1, 10)), int(rng.integers(1, 4)))
            chain_net, _ = build_chain_interpolator(ds)
            general_net, _ = build_interpolator(ds)
            a = chain_net.evaluate_batch(ds.points)
            b = general_net.evaluate_batch(ds.points)
            assert np.array_equal(a, b)
            # on the chain's piecewise-linear path both give the step value
            # of the last dominated point, so they agree there too
            X = ds.points
            probes = [X[0] - 0.5, X[-1] + 0.5]
            for i in range(ds.n - 1):
                t = rng.random()
                probes.append(X[i] + t * (X[i + 1] - X[i]))
            probes = np.asarray(probes)
            assert np.array_equal(
                chain_net.evaluate_batch(probes), general_net.evaluate_batch(probes)
            )

    def test_exact_mode(self):
        ds = validate_dataset([[0, 0], [1, 1], [2, 2]], [0.25, 0.35, 0.45])
        net, _ = build_chain_interpolator(ds)
        got = net.evaluate_batch_exact(ds.points)
        assert got == [Fraction(0.25), Fraction(0.35), Fraction(0.45)]


class TestSeparatingCoordinate:
    def test_tied_coordinate(self):
        ds = validate_dataset([[0, 5], [1, 5], [2, 6]], [0.0, 1.0, 2.0])
        assert separating_coordinate(ds, 2) == (1, 1.0)

    def test_one_dimensional(self):
        ds = validate_dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        assert separating_coordinate(ds, 3) == (1, 2.0)

    def test_second_coordinate_only(self):
        ds = validate_dataset([[0, 0], [0, 1]], [0.0, 1.0])
        assert separating_coordinate(ds, 2) == (2, 1.0)

    def test_first_point(self):
        ds = validate_dataset([[3, 4], [5, 6]], [0.0, 1.0])
        assert separating_coordinate(ds, 1) == (1, 3.0)

    def test_separates_all_smaller_points(self):
        rng = np.random.default_rng(41)
        ds = random_chain_dataset(rng, 10, 4)
        for i in range(2, ds.n + 1):
            r, t = separating_coordinate(ds, i)
            col = ds.points[:, r - 1]
            assert np.all(col[: i - 1] < t)
            assert np.all(col[i - 1 :] >= t)

    def test_bad_index(self):
        ds = validate_dataset([[0.0]], [0.0])
        with pytest.raises(InvalidArgument):
            separating_coordinate(ds, 2)

    def test_not_chain(self):
        with pytest.raises(NotTotallyOrdered):
            separating_coordinate(spread_dataset(), 1)


@st.composite
def hypothesis_datasets(draw):
    d = draw(st.integers(1, 3))
    points = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3) for _ in range(d)]),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    w = [draw(st.integers(0, 3)) for _ in range(d)]
    step_axis = draw(st.integers(0, d - 1))
    labels = [float(sum(wi * c for wi, c in zip(w, p))) + 2.0 * (p[step_axis] >= 2) for p in points]
    return validate_dataset(points, labels)


@given(hypothesis_datasets())
@settings(max_examples=60, deadline=None)
def test_interpolation_property(ds):
    net, trace = build_interpolator(ds)
    assert net.monotone_flag
    assert net.evaluate_batch_exact(ds.points) == [Fraction(float(y)) for y in ds.labels]
    geq = pairwise_leq(ds.points).T
    assert np.array_equal(trace.embedding_matrix, geq)
    if is_totally_ordered(ds):
        chain_net, chain_trace = build_chain_interpolator(ds)
        assert chain_trace.layer_widths == (ds.n, ds.n)
        assert chain_net.evaluate_batch_exact(ds.points) == [
            Fraction(float(y)) for y in ds.labels
        ]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_float_stage_is_float_label_differences(labels):
    # negative, tied and huge labels; the exact stage rounds each difference
    # once, which is what float subtraction does
    labels = sorted(labels)
    ds = validate_dataset(np.arange(len(labels), dtype=float)[:, None], labels)
    baseline = min(0.0, labels[0])
    with np.errstate(over="ignore"):
        # + 0.0: a Fraction has no signed zero, so a zero difference is +0.0
        want = np.diff(np.concatenate(([baseline], ds.labels))) + 0.0
    for build in (build_interpolator, build_chain_interpolator):
        if not np.isfinite(want).all():
            with pytest.raises(InvalidNumber):
                build(ds)
            continue
        net, trace = build(ds)
        assert net.output_weights.tobytes() == want.tobytes()
        assert net.output_bias == baseline
        assert trace.output_weights == tuple(want.tolist())


# signed zeros, subnormals and magnitudes whose differences overflow the float range
ODD_LABELS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e308, -1e308,
              1.7976931348623157e308, -1.7976931348623157e308]


@given(st.lists(st.one_of(st.sampled_from(ODD_LABELS), st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=12))
@example([-1e308, 1e308])
@example([-5e-324, 5e-324, 5e-324])
@example([-3.0, -3.0, 0.5, 1e308])
@settings(max_examples=200, deadline=None)
def test_integer_stage_matches_fraction_oracle(labels):
    # sorted labels on a chain: ties, a negative first label, and both builders
    labels = sorted(labels)
    ds = validate_dataset(np.arange(len(labels), dtype=float)[:, None], labels)
    weights, bias = telescoping_output(ds.labels)
    try:
        want = np.array([float(w) for w in weights] + [float(bias)])
    except OverflowError:
        want = None
    for build in (build_interpolator, build_chain_interpolator):
        if want is None:
            with pytest.raises(InvalidNumber):
                build(ds)
            continue
        net, _ = build(ds)
        assert output_fractions(net) == (list(weights), bias)
        assert np.append(net.output_weights, net.output_bias).tobytes() == want.tobytes()
        assert net.evaluate_batch_exact(ds.points) == [Fraction(y) for y in ds.labels.tolist()]
