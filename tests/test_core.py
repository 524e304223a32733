import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_monotone_dataset
from mononet.core import (
    ThresholdLayer,
    ThresholdNetwork,
    affine_network,
    is_totally_ordered,
    threshold,
    validate_dataset,
)
from mononet.errors import (
    DimensionMismatch,
    DuplicatePoint,
    EmptyDataset,
    InvalidNumber,
    MonotoneViolation,
)


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
        ds = validate_dataset([((2, 0), 0.0), ((0, 2), 0.0), ((1, 1), 1.0)])
        assert ds.items() == [((2.0, 0.0), 0.0), ((0.0, 2.0), 0.0), ((1.0, 1.0), 1.0)]

    def test_direct_violation(self):
        with pytest.raises(MonotoneViolation) as err:
            validate_dataset([((0, 0), 1.0), ((1, 1), 0.0)])
        assert (err.value.first, err.value.second) == (0, 1)

    def test_label_sort(self):
        ds = validate_dataset(
            [((0, 0), 0.0), ((1, 0), 1.0), ((0, 1), 1.0), ((1, 1), 2.0)]
        )
        # incomparable equal-label pair keeps input order
        assert ds.items() == [
            ((0.0, 0.0), 0.0),
            ((1.0, 0.0), 1.0),
            ((0.0, 1.0), 1.0),
            ((1.0, 1.0), 2.0),
        ]

    def test_equal_label_comparable_pair_smaller_first(self):
        ds = validate_dataset([((5, 5), 1.0), ((0, 0), 1.0)])
        assert ds.items() == [((0.0, 0.0), 1.0), ((5.0, 5.0), 1.0)]

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            validate_dataset([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_dataset([((1, 2), 0.0), ((1, 2, 3), 1.0)])

    def test_duplicate_rejected_even_with_equal_labels(self):
        with pytest.raises(DuplicatePoint):
            validate_dataset([((1, 2), 0.0), ((1, 2), 0.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidNumber):
            validate_dataset([((float("nan"),), 0.0)])
        with pytest.raises(InvalidNumber):
            validate_dataset([((1.0,), float("inf"))])

    def test_scalar_points_allowed(self):
        ds = validate_dataset([(0.0, -2.0), (1.0, 3.0)])
        assert ds.dimension == 1
        assert ds.labels.tolist() == [-2.0, 3.0]

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ds = random_monotone_dataset(rng, max_n=20, max_d=4)
            again = validate_dataset(ds.items())
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
    return [(tuple(map(float, p)), y) for p, y in zip(points, labels)]


@given(small_datasets())
@settings(max_examples=60)
def test_validate_idempotent_property(pairs):
    ds = validate_dataset(pairs)
    assert validate_dataset(ds.items()) == ds


class TestTotallyOrdered:
    def test_chain(self):
        ds = validate_dataset([((0, 0), 0.0), ((1, 1), 1.0), ((2, 2), 2.0)])
        assert is_totally_ordered(ds)

    def test_spread_is_not(self):
        ds = validate_dataset([((2, 0), 0.0), ((0, 2), 0.0), ((1, 1), 1.0)])
        assert not is_totally_ordered(ds)

    def test_single_point(self):
        ds = validate_dataset([((0.5, 0.5), 1.0)])
        assert is_totally_ordered(ds)


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

    def test_layer_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            ThresholdLayer([[1.0, 2.0]], [0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            ThresholdNetwork(
                (ThresholdLayer([[1.0]], [0.0]),), [1.0, 1.0], 0.0
            )
        with pytest.raises(InvalidNumber):
            ThresholdLayer([[float("inf")]], [0.0])

    def test_monotone_on_sampled_pairs(self):
        rng = np.random.default_rng(3)
        layer = ThresholdLayer(rng.random((6, 2)), rng.uniform(-1, 1, 6))
        net = ThresholdNetwork((layer,), rng.random(6), -0.5)
        U = rng.random((200, 2))
        V = U + (1 - U) * rng.random((200, 2))
        assert np.all(net.evaluate_batch(U) <= net.evaluate_batch(V))


def fraction_oracle(net: ThresholdNetwork, X) -> list[Fraction]:
    """The network on each row of ``X``, every step in Fractions, one unit at a time."""
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
        weights = [Fraction(w) for w in net.output_weights]
        out.append(sum((w * v for w, v in zip(weights, a)), Fraction(net.output_bias)))
    return out


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


class TestExactEvaluation:
    def test_fast_path_matches_rational(self):
        from mononet.construct import build_chain_interpolator, build_interpolator

        rng = np.random.default_rng(11)
        for k in range(20):
            if k % 2:
                ds = random_monotone_dataset(rng, max_n=8, max_d=3)
                net, _ = build_interpolator(ds)
            else:
                n = int(rng.integers(1, 9))
                X = np.cumsum(rng.integers(0, 3, (n, 2)), axis=0) + np.arange(n)[:, None]
                ds = validate_dataset(zip(map(tuple, X), np.sort(dyadic(rng, n))))
                net, _ = build_chain_interpolator(ds)
            queries = np.vstack([ds.points, ds.points - 0.5, ds.points + 0.25])
            got = net.evaluate_batch_exact(queries)
            assert got == fraction_oracle(net, queries)
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
            got = layer.forward(A)
            for a, row in zip(A.tolist(), got.tolist()):
                z = [
                    sum((Fraction(w) * v for w, v in zip(ws, a)), Fraction(b))
                    for ws, b in zip(layer.weights.tolist(), layer.biases.tolist())
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
