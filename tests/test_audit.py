import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import conftest
from conftest import random_chain_dataset, random_monotone_network
from mononet import audit, core
from mononet.audit import (
    DEPTH2_MAX_WIDTH,
    MONOTONE_MAX_DOUBLES,
    certify_monotone_structure,
    chain_width_audit,
    depth2_counterexample,
    depth2_inequality_audit,
    probe_monotonicity,
    relu_convexity_probe,
    run_chain_width_campaign,
    run_convexity_campaign,
    run_depth2_campaign,
    sqrt_gap_witness,
)
from mononet.construct import build_chain_interpolator, build_interpolator
from mononet.cli import main
from mononet.core import RELU, ThresholdLayer, ThresholdNetwork, validate_dataset
from mononet.errors import (
    ActivationMismatch,
    ArchitectureMismatch,
    DimensionMismatch,
    DimensionTooSmall,
    InvalidArgument,
    InvalidNumber,
    PreconditionViolated,
    TooLarge,
)
from mononet.io import network_from_dict
from mononet.matching import lipschitz_probe, monotone_probe_m


def relu_net(weights, biases, out_weights, out_bias=0.0):
    return ThresholdNetwork(
        (ThresholdLayer(weights, biases, RELU),), out_weights, out_bias
    )


class TestStructureCertificate:
    def test_constructed_nets_pass(self):
        ds = depth2_counterexample(3)
        net, _ = build_interpolator(ds)
        assert certify_monotone_structure(net).passed

    def test_negative_hidden_weight(self):
        net = ThresholdNetwork((ThresholdLayer([[1.0, -0.1]], [0.0]),), [1.0], 0.0)
        report = certify_monotone_structure(net)
        assert not report.passed
        assert report.witness == {
            "location": "hidden",
            "layer": 0,
            "unit": 0,
            "input_index": 1,
            "value": -0.1,
        }

    def test_negative_output_weight(self):
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [-2.0], 0.0)
        report = certify_monotone_structure(net)
        assert not report.passed
        assert report.witness["location"] == "output"

    def test_tiny_negative_exact_output_weight(self):
        # -1/10**400 rounds to -0.0 in float, so only the stored value shows the sign
        doc = {
            "version": 1,
            "dimension": 1,
            "monotone_flag": False,
            "exact": True,
            "layers": [{"activation": "threshold", "weights": [[1.0], [1.0]], "biases": [0.0, -1.0]}],
            "output": {"weights": ["1/2", f"-1/{10**400}"], "bias": "0/1"},
        }
        net = network_from_dict(doc)
        report = certify_monotone_structure(net)
        assert not net.monotone_flag
        assert not report.passed
        assert report.witness["location"] == "output"
        assert report.witness["input_index"] == 1
        assert report.witness["value"] == f"-1/{10**400}"  # as network JSON writes it

    def test_all_zero_weights_pass(self):
        net = ThresholdNetwork((ThresholdLayer([[0.0]], [0.5]),), [0.0], 0.0)
        assert certify_monotone_structure(net).passed


class TestMonotonicityProbe:
    def test_certified_net_passes_many_seeds(self):
        ds = depth2_counterexample(2)
        net, _ = build_interpolator(ds)
        for seed in range(5):
            assert probe_monotonicity(net, box=(0.0, 3.0), samples=200, seed=seed).passed

    def test_negative_weight_net_fails_with_witness(self):
        net = ThresholdNetwork((ThresholdLayer([[-1.0]], [0.5]),), [1.0], 0.0)
        report = probe_monotonicity(net, samples=500, seed=1)
        assert not report.passed
        w = report.witness
        assert w["lower_value"] > w["upper_value"]
        assert w["lower_point"][0] <= w["upper_point"][0]

    def test_constant_net_passes(self):
        net = ThresholdNetwork((ThresholdLayer([[0.0]], [1.0]),), [0.0], 3.0)
        assert probe_monotonicity(net, samples=50, seed=0).passed

    def test_reversed_box_rejected(self):
        # With lo > hi the drawn pairs would run downhill and fail a monotone net.
        net, _ = build_interpolator(depth2_counterexample(2))
        with pytest.raises(InvalidArgument):
            probe_monotonicity(net, box=(3.0, 0.0), samples=10)

    @pytest.mark.parametrize("box", [(0.0, np.inf), (-np.inf, 1.0), (-1e308, 1e308)])
    def test_infinite_box_refused_without_a_warning(self, box):
        # inf - inf in the draws would warn on stderr ahead of the diagnostic
        net, _ = build_interpolator(depth2_counterexample(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidNumber, match="finite"):
                probe_monotonicity(net, box=box, samples=10)

    def test_large_samples_refused_before_drawing(self):
        net, _ = build_interpolator(depth2_counterexample(2))
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="monotone probe"):
                probe_monotonicity(net, samples=2_000_000_000)
            with pytest.raises(TooLarge):
                probe_monotonicity(net, samples=MONOTONE_MAX_DOUBLES // 4 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestConvexityProbe:
    def test_single_relu_unit_midpoint(self):
        net = relu_net([[1.0]], [0.0], [1.0])
        u, v = -1.0, 1.0
        mid = net.evaluate([(u + v) / 2])
        assert mid <= (net.evaluate([u]) + net.evaluate([v])) / 2
        assert mid == 0.0

    def test_affine_equality(self):
        from mononet.core import affine_network

        net = affine_network([2.0, 1.0], 0.5)
        report = relu_convexity_probe(net, triples=100, seed=0)
        assert report.passed

    def test_random_monotone_relu_nets_pass(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            net = random_monotone_network(rng, 2, (5, 3), activation=RELU)
            assert relu_convexity_probe(net, triples=100, seed=3).passed

    def test_threshold_net_rejected(self):
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        with pytest.raises(ActivationMismatch):
            relu_convexity_probe(net)

    def test_nonmonotone_rejected(self):
        net = relu_net([[-1.0]], [0.0], [1.0])
        with pytest.raises(PreconditionViolated):
            relu_convexity_probe(net)


class TestSqrtGap:
    def test_best_convex_fit_gap_is_an_eighth(self):
        # x + 1/8 equioscillates against sqrt at x = 0, 1/4, 1
        net = relu_net([[1.0]], [0.125], [1.0])
        x, gap = sqrt_gap_witness(net)
        assert gap == pytest.approx(0.125, abs=1e-9)
        assert gap >= 0.125 - 1e-9

    def test_chord_gap(self):
        # the chord through (0,0) and (1,1): |sqrt(x) - x| peaks at 1/4
        net = relu_net([[1.0]], [0.0], [1.0])
        x, gap = sqrt_gap_witness(net)
        assert x == pytest.approx(0.25, abs=1e-3)
        assert gap == pytest.approx(0.25, abs=1e-4)

    def test_zero_net(self):
        net = relu_net([[1.0]], [0.0], [0.0])
        x, gap = sqrt_gap_witness(net)
        assert (x, gap) == (1.0, 1.0)

    def test_random_nets_gap_at_least_an_eighth(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            widths = tuple(int(rng.integers(1, 8)) for _ in range(int(rng.integers(1, 3))))
            net = random_monotone_network(rng, 1, widths, activation=RELU)
            _, gap = sqrt_gap_witness(net)
            assert gap >= 0.125 - 1e-9

    def test_needs_one_dimension(self):
        net = relu_net([[1.0, 1.0]], [0.0], [1.0])
        with pytest.raises(DimensionMismatch):
            sqrt_gap_witness(net)

    @pytest.mark.parametrize("resolution", [1e-4, 0.01, 0.3])
    def test_cached_grid_gives_the_fresh_grid_witness(self, resolution):
        rng = np.random.default_rng(12)
        for _ in range(10):
            net = random_monotone_network(rng, 1, (int(rng.integers(1, 8)),), activation=RELU)
            xs = np.linspace(0.0, 1.0, int(round(1.0 / resolution)) + 1)
            gaps = np.abs(net.evaluate_batch(xs[:, None]) - np.sqrt(xs))
            k = int(np.argmax(gaps))
            assert sqrt_gap_witness(net, resolution) == (float(xs[k]), float(gaps[k]))
        grid = audit._sqrt_grid(int(round(1.0 / resolution)))
        assert audit._sqrt_grid(int(round(1.0 / resolution))) is grid
        assert not any(a.flags.writeable for a in grid)


class TestDepth2Counterexample:
    def test_d2(self):
        ds = depth2_counterexample(2)
        assert ds.points.tolist() == [[0.0, 2.0], [2.0, 0.0], [1.0, 1.0]]
        assert ds.labels.tolist() == [0.0, 0.0, 1.0]

    def test_d3(self):
        ds = depth2_counterexample(3)
        assert ds.points.tolist() == [[0.0, 0.0, 3.0], [0.0, 3.0, 0.0], [3.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        assert ds.labels.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_d5_validates(self):
        ds = depth2_counterexample(5)
        assert ds.n == 6

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            depth2_counterexample(1)

    @pytest.mark.parametrize("d", [*range(2, 11), 1023])
    def test_equals_the_validated_dataset(self, d):
        points = np.vstack([float(d) * np.eye(d), np.ones(d)])
        ds, validated = depth2_counterexample(d), validate_dataset(points, [0.0] * d + [1.0])
        assert ds == validated
        assert ds.points.tobytes() == validated.points.tobytes()
        assert ds.labels.tobytes() == validated.labels.tobytes()
        assert not ds.points.flags.writeable and not ds.labels.flags.writeable

    def test_too_large_refused(self):
        with pytest.raises(TooLarge, match="holds"):
            depth2_counterexample(1024)


class TestDepth2Audit:
    def test_zero_net(self):
        net = ThresholdNetwork((ThresholdLayer(np.zeros((1, 2)), [-1.0]),), [0.0], 0.0)
        report = depth2_inequality_audit(net, 2)
        assert report.passed
        assert report.details["lhs"] == report.details["rhs"] == 0.0

    def test_no_units(self):
        net = ThresholdNetwork((ThresholdLayer(np.zeros((0, 3)), []),), [], 0.5)
        report = depth2_inequality_audit(net, 3)
        assert report.passed
        assert report.details == {"lhs": 0.0, "rhs": 0.0, "interpolates": False,
                                  "interpolation_gap": 0.5}

    def test_and_unit(self):
        # sigma(x1 + x2 - 2): fires on all three points of the d=2 dataset
        net = ThresholdNetwork((ThresholdLayer([[1.0, 1.0]], [-2.0]),), [1.0], 0.0)
        report = depth2_inequality_audit(net, 2)
        assert report.passed
        assert report.details["lhs"] == 2.0
        assert report.details["rhs"] == 1.0
        assert not report.details["interpolates"]

    def test_tight_biased_net_interpolates_and_reports_it(self):
        # With a free output bias the summed inequality can be tight but the
        # network can still interpolate; the audit must report both honestly.
        layer = ThresholdLayer([[2.0, 1.0], [1.0, 2.0]], [-3.0, -3.0])
        net = ThresholdNetwork((layer,), [1.0, 1.0], -1.0)
        ds = depth2_counterexample(2)
        assert net.evaluate_batch(ds.points).tolist() == [0.0, 0.0, 1.0]
        report = depth2_inequality_audit(net, 2)
        assert report.passed
        assert report.details["lhs"] == report.details["rhs"] == 2.0
        assert report.details["interpolates"]

    def test_zero_bias_nets_cannot_interpolate(self):
        # with zero output bias, interpolation would need lhs 0 >= rhs 1
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            width = int(rng.integers(1, 16))
            net = random_monotone_network(
                rng, d, (width,), bias_scale=float(d * d), output_bias_scale=1.0
            )
            net = ThresholdNetwork(net.layers, net.output_weights, 0.0)
            report = depth2_inequality_audit(net, d)
            assert report.passed
            assert not report.details["interpolates"]

    def test_architecture_checks(self):
        ds = depth2_counterexample(2)
        deep, _ = build_interpolator(ds)
        with pytest.raises(ArchitectureMismatch):
            depth2_inequality_audit(deep, 2)
        relu = relu_net([[1.0, 1.0]], [0.0], [1.0])
        with pytest.raises(ArchitectureMismatch):
            depth2_inequality_audit(relu, 2)
        negative = ThresholdNetwork((ThresholdLayer([[-1.0, 1.0]], [0.0]),), [1.0], 0.0)
        with pytest.raises(ArchitectureMismatch):
            depth2_inequality_audit(negative, 2)
        wrong_d = ThresholdNetwork((ThresholdLayer([[1.0, 1.0, 1.0]], [0.0]),), [1.0], 0.0)
        with pytest.raises(DimensionMismatch):
            depth2_inequality_audit(wrong_d, 2)

    def test_campaign(self):
        report = run_depth2_campaign(3, samples=300, seed=7)
        assert report.passed
        assert report.details["interpolating_networks"] == 0

    def test_campaign_builds_the_dataset_once(self):
        depth2_counterexample.cache_clear()
        try:
            assert run_depth2_campaign(3, 50, 0).passed
            assert depth2_counterexample.cache_info().misses == 1
        finally:
            depth2_counterexample.cache_clear()


class TestChainWidthAudit:
    def test_constructed_chain_net(self):
        rng = np.random.default_rng(14)
        ds = random_chain_dataset(rng, 5, 3)
        net, _ = build_chain_interpolator(ds)
        report = chain_width_audit(net, ds)
        assert report.passed
        assert report.details["first_layer_width"] == 5
        assert report.details["strictly_ascending"]
        assert report.details["width_obstruction"] == "not-applicable"

    def test_general_construction_is_strictly_ascending(self):
        rng = np.random.default_rng(15)
        ds = random_chain_dataset(rng, 6, 2)
        net, _ = build_interpolator(ds)
        sets = activity_sets(net, ds.points)
        assert all(a < b for a, b in zip(sets, sets[1:]))

    def test_narrow_net_pigeonhole(self):
        rng = np.random.default_rng(16)
        ds = random_chain_dataset(rng, 4, 2)
        scale = float(np.abs(ds.points).max() * 2 + 1)
        for _ in range(20):
            net = random_monotone_network(rng, 2, (2,), bias_scale=scale)
            report = chain_width_audit(net, ds)
            assert report.passed
            assert report.details["width_obstruction"] == "witnessed"
            i = report.details["pigeonhole_index"]
            acts = net.hidden_activations(ds.points)[0]
            assert np.array_equal(acts[i], acts[i + 1])
            out = net.evaluate_batch(ds.points[i : i + 2])
            assert out[0] == out[1]

    def test_single_point_chain(self):
        ds = validate_dataset([[1.0]], [2.0])
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        report = chain_width_audit(net, ds)
        assert report.passed

    def test_width_boundary_interpolation(self):
        # an ascending chain of n activity sets in a universe of n-1 units can
        # be repeat-free (the complete flag), and such a network really can
        # interpolate: units sigma(x - 2..x - n) on the chain 1..n, y = 0..n-1
        ds = validate_dataset([[1.0], [2.0], [3.0], [4.0]], [0.0, 1.0, 2.0, 3.0])
        net = ThresholdNetwork(
            (ThresholdLayer(np.ones((3, 1)), [-2.0, -3.0, -4.0]),), np.ones(3), 0.0
        )
        assert net.evaluate_batch(ds.points).tolist() == ds.labels.tolist()
        report = chain_width_audit(net, ds)
        assert report.passed
        assert report.details["width_obstruction"] == "vacuous-boundary"

    def test_preconditions(self):
        spread = validate_dataset([[2, 0], [0, 2], [1, 1]], [0.0, 0.0, 1.0])
        net = ThresholdNetwork((ThresholdLayer(np.ones((2, 2)), [0.0, -1.0]),), [1.0, 1.0], 0.0)
        with pytest.raises(PreconditionViolated):
            chain_width_audit(net, spread)
        flat = validate_dataset([[0.0], [1.0]], [1.0, 1.0])
        net1 = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        with pytest.raises(PreconditionViolated):
            chain_width_audit(net1, flat)
        chain = validate_dataset([[0.0], [1.0]], [0.0, 1.0])
        relu = relu_net([[1.0]], [0.0], [1.0])
        with pytest.raises(ActivationMismatch):
            chain_width_audit(relu, chain)

    def test_campaign(self):
        report = run_chain_width_campaign(100, seed=8)
        assert report.passed
        assert report.details["witnessed"] == 100


class TestConvexityCampaign:
    def test_campaign(self):
        report = run_convexity_campaign(40, seed=5)
        assert report.passed
        assert report.details["min_sqrt_gap"] >= 0.125 - 1e-9


@pytest.mark.parametrize("samples", [0, -1])
def test_campaigns_need_a_sample(samples):
    # A campaign over no networks would pass without testing anything.
    with pytest.raises(InvalidArgument):
        run_depth2_campaign(2, samples, seed=0)
    with pytest.raises(InvalidArgument):
        run_convexity_campaign(samples, seed=0)
    with pytest.raises(InvalidArgument):
        run_chain_width_campaign(samples, seed=0)
    with pytest.raises(InvalidArgument):
        lipschitz_probe(samples, 3, seed=0)
    with pytest.raises(InvalidArgument):
        monotone_probe_m(samples, 3, seed=0)


def test_depth2_campaign_checks_dimension_first():
    with pytest.raises(DimensionTooSmall):
        run_depth2_campaign(-3, 1, seed=0)


# -- the campaigns against network-by-network oracles -------------------------


def array_by_array_draw(rng, input_dim, widths, bias_scale, output_bias_scale):
    """A random network's parameters drawn one array at a time, as uniform draws."""
    layers, fan_in = [], input_dim
    for width in widths:
        layers.append((rng.random((width, fan_in)), rng.uniform(-bias_scale, bias_scale, size=width)))
        fan_in = width
    return layers, rng.random(fan_in), rng.uniform(-output_bias_scale, output_bias_scale)


@pytest.mark.parametrize("d", range(1, 7))
def test_network_draw_matches_array_by_array_draws(d):
    for seed in range(10):
        for widths in ((1,), (7,), (32,), (3, 5), (16, 1, 4)):
            for scales in ((1.0, 1.0), (float(d * d), 1.0), (0.3, 2.5)):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                net = random_monotone_network(ours, d, widths, bias_scale=scales[0],
                                              output_bias_scale=scales[1])
                layers, out_w, out_b = array_by_array_draw(theirs, d, widths, *scales)
                for layer, (w, b) in zip(net.layers, layers, strict=True):
                    assert layer.weights.shape == w.shape
                    assert layer.weights.tobytes() == w.tobytes()
                    assert layer.biases.tobytes() == b.tobytes()
                assert net.output_weights.tobytes() == out_w.tobytes()
                assert np.float64(net.output_bias).tobytes() == np.float64(out_b).tobytes()
                assert ours.random() == theirs.random()  # both streams go on alike


def campaign_streams(seed: int):
    """A campaign's shape and parameter streams at ``seed``: the two children of its seed sequence."""
    shapes, params = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(shapes), np.random.default_rng(params)


def assert_streams_agree(ours, theirs):
    assert [g.bit_generator.state for g in ours] == [g.bit_generator.state for g in theirs]


def test_numpy_draws_do_not_depend_on_how_a_call_is_split():
    # the campaigns rest on this, at every numpy version they run on: a stack boundary
    # splits each stream's call between samples, and the report must not move
    calls = np.random.default_rng(99)
    high = [audit.CONVEXITY_MAX_DEPTH + 1] + [audit.CONVEXITY_MAX_WIDTH + 1] * audit.CONVEXITY_MAX_DEPTH
    draws = [
        lambda rng, k: rng.integers(1, DEPTH2_MAX_WIDTH + 1, size=k),
        lambda rng, k: rng.integers(1, high, size=(k, len(high))),
        lambda rng, k: rng.random((k, 3)),
    ]
    for seed in range(200):
        draw = draws[seed % 3]
        count = int(calls.integers(0, 60))
        cuts = np.sort(calls.integers(0, count + 1, size=int(calls.integers(1, 4))))
        whole_rng, split_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        whole = draw(whole_rng, count)
        split = np.concatenate([draw(split_rng, b - a) for a, b in zip([0, *cuts], [*cuts, count])])
        assert whole.tobytes() == split.tobytes()
        assert whole_rng.bit_generator.state == split_rng.bit_generator.state


def depth2_network(shapes, params, d: int) -> ThresholdNetwork:
    """One network of ``run_depth2_campaign``, drawn with the generators' own calls."""
    width = int(shapes.integers(1, DEPTH2_MAX_WIDTH + 1))
    return random_monotone_network(params, d, (width,), bias_scale=float(d * d))


def assert_same_arrays(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def test_depth2_stack_holds_the_drawn_networks():
    for d in (2, 3, 5, 40):
        for seed in range(5):
            ours, theirs = campaign_streams(seed), campaign_streams(seed)
            for count in (50, 1, 7):  # stacks in a row, each going on where the last left the streams
                stack, starts, biases = audit._random_depth2_stack(*ours, d, count)
                want, want_starts, want_biases = stack_of([depth2_network(*theirs, d) for _ in range(count)])
                assert_same_arrays((stack.layers[0].weights, stack.layers[0].biases, stack.output_weights,
                                    starts, biases),
                                   (want.layers[0].weights, want.layers[0].biases, want.output_weights,
                                    want_starts, want_biases))
                assert_streams_agree(ours, theirs)


def depth2_by_network(net: ThresholdNetwork, d: int, tol: float = 1e-9) -> dict:
    """The depth2 inequality in closed form from ``evaluate_batch`` on the spread dataset."""
    ds = depth2_counterexample(d)
    raw = net.evaluate_batch(ds.points)
    shifted = raw - float(net.output_bias)
    lhs, rhs = float(shifted[:d].sum()), float(shifted[d])
    return {
        "passed": lhs >= rhs - tol * (1.0 + abs(lhs) + abs(rhs)),
        "interpolates": float(np.max(np.abs(raw - ds.labels))) <= 1e-9,
        "shifted_outputs": shifted.tolist(),
        "lhs": lhs,
        "rhs": rhs,
    }


def depth2_campaign_by_network(d: int, samples: int, seed: int, tol: float = 1e-9) -> dict:
    """``run_depth2_campaign`` one network at a time: its verdict, count and first failure."""
    shapes, params = campaign_streams(seed)
    interpolated = 0
    for k in range(samples):
        net = depth2_network(shapes, params, d)
        result = depth2_by_network(net, d, tol)
        if not result["passed"]:
            return {"passed": False, "sample_index": k, **result}
        interpolated += result["interpolates"]
    return {"passed": True, "interpolating_networks": interpolated}


def stack_of(nets):
    """Networks side by side, as ``_depth2_audits`` takes them."""
    layer = ThresholdLayer(np.vstack([n.layers[0].weights for n in nets]),
                           np.concatenate([n.layers[0].biases for n in nets]))
    widths = [n.layers[0].width for n in nets]
    starts = np.cumsum([0] + widths)[:-1]
    outputs = np.concatenate([np.asarray(n.output_weights, float) for n in nets])
    biases = np.array([float(n.output_bias) for n in nets])
    return ThresholdNetwork((layer,), outputs), starts, biases


def assert_close(ours, theirs):
    assert ours.keys() == theirs.keys()
    for key, value in theirs.items():
        assert np.allclose(ours[key], value, rtol=0, atol=1e-12), key


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_depth2_audits_match_each_network(d):
    rng = np.random.default_rng(100 + d)
    nets = [random_monotone_network(rng, d, (int(rng.integers(1, 33)),), bias_scale=float(d * d))
            for _ in range(300)]
    # crafted: tight and interpolating, no unit ever firing, every unit always firing
    if d == 2:
        nets.append(ThresholdNetwork((ThresholdLayer([[2.0, 1.0], [1.0, 2.0]], [-3.0, -3.0]),),
                                     [1.0, 1.0], -1.0))
    nets.append(ThresholdNetwork((ThresholdLayer(np.ones((3, d)), [-1e9] * 3),), [0.5] * 3, 0.25))
    nets.append(ThresholdNetwork((ThresholdLayer(np.ones((2, d)), [0.0, 1.0]),), [0.5, 2.0], -4.0))
    stack, starts, biases = stack_of(nets)
    audits = audit._depth2_audits(stack, d, starts, biases)
    for k, net in enumerate(nets):
        want = depth2_by_network(net, d)
        ours = audits.report(k)
        single = depth2_inequality_audit(net, d)
        assert ours.to_dict() == single.to_dict()  # the stack of one is the same body
        assert (ours.passed, ours.details["interpolates"]) == (want["passed"], want["interpolates"])
        assert_close({"lhs": ours.details["lhs"], "rhs": ours.details["rhs"],
                      "shifted_outputs": audits.shifted[k]},
                     {key: want[key] for key in ("lhs", "rhs", "shifted_outputs")})
    assert int(np.count_nonzero(audits.interpolates)) == sum(
        depth2_by_network(net, d)["interpolates"] for net in nets) == (d == 2)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("stack", [None, 7])
def test_depth2_campaign_matches_network_by_network(monkeypatch, d, stack):
    if stack:  # stacks of 7 networks, so that stack boundaries fall all through the samples
        monkeypatch.setattr(core, "WORKING_SET_BYTES", audit._depth2_sample_bytes(d) * stack)
    for seed in range(4):
        report = run_depth2_campaign(d, 450, seed)
        want = depth2_campaign_by_network(d, 450, seed)
        assert report.passed and want["passed"]
        assert report.details["interpolating_networks"] == want["interpolating_networks"]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_falsified_depth2_campaign_reports_the_same_network(monkeypatch, d):
    # a negative tolerance fails every network with lhs == rhs, such as one that never fires
    monkeypatch.setattr(audit, "_REL_TOL", -1e-12)
    monkeypatch.setattr(core, "WORKING_SET_BYTES", audit._depth2_sample_bytes(d) * 7)
    indices = []
    for seed in range(6):
        report = run_depth2_campaign(d, 3000, seed)
        want = depth2_campaign_by_network(d, 3000, seed, tol=-1e-12)
        assert not report.passed and not want["passed"]
        assert report.witness["sample_index"] == want["sample_index"]
        assert_close(report.witness, {key: want[key] for key in report.witness})
        assert report.witness.keys() == {"sample_index", "shifted_outputs", "lhs", "rhs"}
        indices.append(want["sample_index"])
    assert max(indices) >= 7  # some failure lies past the first stack


def convexity_network(shapes, params, triples: int):
    """One network of ``run_convexity_campaign`` and its probe points U and V, with the generators' own calls."""
    high = [audit.CONVEXITY_MAX_DEPTH + 1] + [audit.CONVEXITY_MAX_WIDTH + 1] * audit.CONVEXITY_MAX_DEPTH
    depth, *widths = shapes.integers(1, high).tolist()
    net = random_monotone_network(params, 1, tuple(widths[:depth]), activation=RELU, bias_scale=1.0)
    return net, params.random((triples, 1)), params.random((triples, 1))


def convexity_campaign_oracle(samples: int, seed: int) -> audit.AuditReport:
    """``run_convexity_campaign`` one network at a time, with the full sqrt-gap search on every network."""
    shapes, params = campaign_streams(seed)
    min_gap = np.inf
    for k in range(samples):
        net, U, V = convexity_network(shapes, params, audit.CONVEXITY_TRIPLES)
        witness = audit._midpoint_witness(net, U, V)
        if witness is not None:
            return audit.AuditReport("convexity", passed=False, samples=samples, seed=seed,
                                     witness={"sample_index": k, **witness})
        x, gap = sqrt_gap_witness(net)
        min_gap = min(min_gap, gap)
        if gap < audit.SQRT_GAP_BOUND - audit._REL_TOL:
            return audit.AuditReport("convexity", passed=False, samples=samples, seed=seed,
                                     witness={"sample_index": k, "x": x, "gap": gap})
    return audit.AuditReport("convexity", passed=True, samples=samples, seed=seed,
                             details={"min_sqrt_gap": float(min_gap)})


@pytest.mark.parametrize("samples", [1, 2, 30, 300])
def test_convexity_campaign_matches_the_full_search(samples):
    for seed in range(50):
        report = run_convexity_campaign(samples, seed)
        assert report.passed
        assert json.dumps(report.to_dict()) == json.dumps(convexity_campaign_oracle(samples, seed).to_dict())


def convexity_sample_bytes(triples: int) -> int:
    """A network's planned bytes in ``run_convexity_campaign`` at ``triples`` triples per network."""
    return audit._relu_sample_bytes(3 * triples + len(audit._sqrt_grid(10000)[0][:: audit.SQRT_BOUND_STRIDE]))


def convexity_stack_size(triples: int) -> int:
    """Networks per stack of ``run_convexity_campaign`` at ``triples`` triples per network."""
    return max(1, core.WORKING_SET_BYTES // convexity_sample_bytes(triples))


def test_falsified_convexity_probe_reports_the_same_network(monkeypatch):
    # a negative tolerance fails a triple whose midpoint lies on a linear piece; with
    # one triple per network that happens only now and then
    monkeypatch.setattr(audit, "_REL_TOL", -1e-12)
    monkeypatch.setattr(audit, "CONVEXITY_TRIPLES", 1)
    # the default stacks, then stacks of 2 networks, so that the early failures fall past the first stack
    for stack_bytes in (core.WORKING_SET_BYTES, audit._relu_sample_bytes(3 + 101) * 2):
        monkeypatch.setattr(core, "WORKING_SET_BYTES", stack_bytes)
        indices = []
        for seed in range(12):
            report = run_convexity_campaign(300, seed)
            want = convexity_campaign_oracle(300, seed)
            assert not report.passed
            assert json.dumps(report.to_dict()) == json.dumps(want.to_dict())
            assert report.witness.keys() == {"sample_index", "u", "v", "midpoint_value", "endpoint_mean"}
            indices.append(want.witness["sample_index"])
        assert max(indices) >= 1  # some failure lies past the first network
    assert convexity_stack_size(1) == 2 and max(indices) >= 2  # and past the first stack of 2


def test_falsified_sqrt_gap_reports_the_same_network(monkeypatch):
    # with the bound raised to 0.3, the first network of gap below it fails the campaign
    monkeypatch.setattr(audit, "SQRT_GAP_BOUND", 0.3)
    indices = []
    for seed in range(8):
        report = run_convexity_campaign(300, seed)
        want = convexity_campaign_oracle(300, seed)
        assert json.dumps(report.to_dict()) == json.dumps(want.to_dict())
        if not want.passed:
            assert report.witness.keys() == {"sample_index", "x", "gap"}
            assert report.witness["gap"] < 0.3
            indices.append(want.witness["sample_index"])
    assert len(indices) >= 4 and max(indices) >= 50  # failures far past the first full search
    assert max(indices) >= convexity_stack_size(audit.CONVEXITY_TRIPLES)  # and past the first stack


def relu_stack_oracle(shapes, params, count: int, triples: int, grid: np.ndarray):
    """``_random_relu_stack`` one network at a time, with the generators' own calls, and its networks."""
    depth_max, width = audit.CONVEXITY_MAX_DEPTH, audit.CONVEXITY_MAX_WIDTH
    inputs = np.empty((count, 3 * triples + len(grid), 1))
    weights = np.zeros((count, depth_max, width, width))
    biases = np.zeros((count, depth_max, width))
    output_weights = np.zeros((count, width))
    output_biases = np.empty(count)
    units = np.zeros((count, depth_max), np.int64)
    nets = [convexity_network(shapes, params, triples) for _ in range(count)]
    for s, (net, U, V) in enumerate(nets):
        for i, layer in enumerate(net.layers):
            weights[s, i, : layer.width, : layer.input_width] = layer.weights
            biases[s, i, : layer.width] = layer.biases
            units[s, i] = layer.width
        weights[s, len(net.layers) :] = np.eye(width)  # identity layers, bias 0
        output_weights[s, : len(net.output_weights)] = net.output_weights
        output_biases[s] = net.output_bias
        inputs[s, :triples], inputs[s, triples : 2 * triples] = U, V
    inputs[:, 2 * triples : 3 * triples] = (inputs[:, :triples] + inputs[:, triples : 2 * triples]) / 2.0
    inputs[:, 3 * triples :, 0] = grid
    return audit._ReluStack(inputs, weights, biases, output_weights, output_biases, units), nets


def test_relu_stack_holds_the_drawn_networks_and_their_values():
    # the campaign's margins rest on stacked values within 1e-10 of each network's own
    coarse = audit._sqrt_grid(10000)[0][:: audit.SQRT_BOUND_STRIDE]
    triples, depths, worst = audit.CONVEXITY_TRIPLES, set(), 0.0
    for seed in range(20):
        ours, theirs = campaign_streams(seed), campaign_streams(seed)
        for count in (300, 11, 1):
            stack = audit._random_relu_stack(*ours, count, triples, coarse)
            want, nets = relu_stack_oracle(*theirs, count, triples, coarse)
            assert_same_arrays(stack, want)
            assert_streams_agree(ours, theirs)
            values = stack.values()
            for k, (net, U, V) in enumerate(nets):
                built = stack.network(k)
                for layer, want_layer in zip(built.layers, net.layers, strict=True):
                    assert layer.activation == want_layer.activation
                    assert layer.weights.tobytes() == want_layer.weights.tobytes()
                    assert layer.biases.tobytes() == want_layer.biases.tobytes()
                assert built.output_weights.tobytes() == net.output_weights.tobytes()
                assert built.output_bias == net.output_bias
                own = np.concatenate([net.evaluate_batch(X) for X in (U, V, (U + V) / 2.0, coarse[:, None])])
                worst = max(worst, float(np.abs(values[k] - own).max()))
                depths.add(len(net.layers))
    assert depths == {1, 2, 3}
    assert worst <= 1e-10


def activity_sets(net: ThresholdNetwork, points) -> list[frozenset]:
    """Per point, the set of first-layer units that fire there."""
    return [frozenset(np.flatnonzero(row).tolist()) for row in net.hidden_activations(points)[0]]


def chain_width_audit_oracle(net: ThresholdNetwork, ds) -> audit.AuditReport:
    """``chain_width_audit`` one chain at a time on per-point sets, without its precondition checks."""
    sets = activity_sets(net, ds.points)
    pairs = list(zip(sets, sets[1:]))
    k, n = net.layers[0].width, ds.n
    bad = next((i for i, (a, b) in enumerate(pairs) if not a <= b), None)
    details = {"first_layer_width": k, "chain_length": n, "ascending": bad is None,
               "strictly_ascending": all(a < b for a, b in pairs)}
    if bad is not None:
        witness = {"index": bad, "lost_units": sorted(sets[bad] - sets[bad + 1])}
        return audit.AuditReport("chain-width", passed=False, witness=witness, details=details)
    if k >= n:
        details["width_obstruction"] = "not-applicable"
        return audit.AuditReport("chain-width", passed=True, details=details)
    i = next((i for i, (a, b) in enumerate(pairs) if a == b), None)
    if i is None:
        details["width_obstruction"] = "vacuous-boundary"
        return audit.AuditReport("chain-width", passed=True, details=details)
    outputs = net.evaluate_batch(ds.points[i : i + 2])
    passed = bool(outputs[0] == outputs[1])
    details["pigeonhole_index"] = i
    details["width_obstruction"] = "witnessed" if passed else "inconsistent"
    witness = {"index": i, "activity_set": sorted(sets[i]),
               "outputs": outputs.tolist(), "labels": ds.labels[i : i + 2].tolist()}
    return audit.AuditReport("chain-width", passed=passed, witness=witness, details=details)


def random_chain_sample(shapes, params):
    """One chain and one narrow network, drawn as ``run_chain_width_campaign`` draws them.

    Each integer is ``lo + floor(u * span)`` of a double of ``shapes``: the
    length n, the dimension d, the width in 1..n-2, and each mask row's
    coordinate in 0..d-1.
    """
    n_u, d_u, width_u, *coords_u = shapes.random(audit.CHAIN_MAX_POINTS + 2).tolist()
    n = 3 + int(n_u * (audit.CHAIN_MAX_POINTS - 2))
    d = 1 + int(d_u * audit.CHAIN_MAX_DIM)
    ds = random_chain_dataset(params, n, d, coords=[int(u * d) for u in coords_u])
    scale = float(np.abs(ds.points).max() * d + 1.0)
    return ds, random_monotone_network(params, d, (1 + int(width_u * (n - 2)),), bias_scale=scale)


def chain_width_campaign_oracle(samples: int, seed: int) -> audit.AuditReport:
    """``run_chain_width_campaign`` one network at a time."""
    streams = campaign_streams(seed)
    for k in range(samples):
        ds, net = random_chain_sample(*streams)
        report = chain_width_audit_oracle(net, ds)
        if not report.passed or report.details.get("width_obstruction") != "witnessed":
            return audit.AuditReport("chain-width", passed=False, samples=samples, seed=seed,
                                     witness={"sample_index": k, **(report.witness or {})})
    return audit.AuditReport("chain-width", passed=True, samples=samples, seed=seed,
                             details={"witnessed": samples})


@pytest.mark.parametrize("samples", [1, 2, 30, 500])
def test_chain_width_campaign_matches_the_oracle(samples):
    for seed in range(50):
        report = run_chain_width_campaign(samples, seed)
        assert report.passed
        assert json.dumps(report.to_dict()) == json.dumps(chain_width_campaign_oracle(samples, seed).to_dict())


def chain_stack_oracle(shapes, params, count: int):
    """``_random_chain_stack`` one chain at a time, with the generators' own calls, and its samples."""
    points = np.zeros((count, audit.CHAIN_MAX_POINTS, audit.CHAIN_MAX_DIM))
    labels = np.zeros((count, audit.CHAIN_MAX_POINTS))
    weights = np.zeros((count, audit.CHAIN_MAX_WIDTH, audit.CHAIN_MAX_DIM))
    biases = np.zeros((count, audit.CHAIN_MAX_WIDTH))
    output_weights = np.zeros((count, audit.CHAIN_MAX_WIDTH))
    output_biases = np.empty(count)
    lengths = np.empty(count, np.intp)
    widths = np.empty(count, np.intp)
    samples = [random_chain_sample(shapes, params) for _ in range(count)]
    for s, (ds, net) in enumerate(samples):
        (n, d), layer = ds.points.shape, net.layers[0]
        points[s, :n, :d], labels[s, :n] = ds.points, ds.labels
        weights[s, : layer.width, :d] = layer.weights
        biases[s] = -(np.abs(ds.points).max() * d + 1.0)  # padding units: a draw of 0 at the chain's scale
        biases[s, : layer.width] = layer.biases
        output_weights[s, : layer.width] = net.output_weights
        output_biases[s] = net.output_bias
        lengths[s], widths[s] = n, layer.width
    stack = audit._ChainStack(points, labels, lengths, weights, biases, widths, output_weights, output_biases)
    return stack, samples


def test_chain_stack_holds_the_drawn_chains_and_their_activity_sets():
    for seed in range(20):
        ours, theirs = campaign_streams(seed), campaign_streams(seed)
        for count in (500, 1, 7):
            chains = audit._random_chain_stack(*ours, count)
            want, samples = chain_stack_oracle(*theirs, count)
            assert_same_arrays(chains, want)
            assert_streams_agree(ours, theirs)
            active = chains.activity()
            for k, (ds, net) in enumerate(samples):
                n, width = ds.n, net.layers[0].width
                assert np.array_equal(active[k, :n, :width], net.hidden_activations(ds.points)[0])
                assert not active[k, :, width:].any()  # padding units never fire


def test_chain_width_audit_matches_the_oracle_on_each_outcome():
    rng = np.random.default_rng(18)
    cases = [random_chain_sample(rng, rng) for _ in range(300)]
    for _ in range(100):  # wide networks: not-applicable, or repeat-free at width n-1
        n = int(rng.integers(1, 8))
        ds = random_chain_dataset(rng, n, int(rng.integers(1, 4)))
        scale = float(np.abs(ds.points).max() * ds.dimension + 1.0)
        cases.append((ds, random_monotone_network(rng, ds.dimension, (int(rng.integers(max(n - 1, 1), n + 2)),),
                                                  bias_scale=scale)))
    line = validate_dataset([[1.0], [2.0], [3.0], [4.0]], [0.0, 1.0, 2.0, 3.0])
    flag = ThresholdNetwork((ThresholdLayer(np.ones((3, 1)), [-2.0, -3.0, -4.0]),), np.ones(3), 0.0)
    empty = ThresholdNetwork((ThresholdLayer(np.zeros((0, 1)), []),), [], 0.5)
    deep, _ = build_chain_interpolator(line)
    cases += [(line, flag), (line, empty), (line, deep)]
    outcomes = set()
    for ds, net in cases:
        report = chain_width_audit(net, ds)
        assert json.dumps(report.to_dict()) == json.dumps(chain_width_audit_oracle(net, ds).to_dict())
        outcomes.add(report.details["width_obstruction"])
    assert outcomes == {"witnessed", "not-applicable", "vacuous-boundary"}


def test_chain_width_audit_reports_a_lost_unit_as_the_oracle_does():
    ds = validate_dataset([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]], [0.0, 1.0, 2.0])
    # unit 0 reads the first coordinate with a negative weight: active at x1 = 0 only
    layer = ThresholdLayer([[-1.0, 0.0], [1.0, 1.0]], [0.5, -2.5])
    net = ThresholdNetwork((layer,), [1.0, 1.0], 0.0)
    active = net.hidden_activations(ds.points)[0]
    loss, repeat = audit._chain_width_analysis(active[None], np.array([ds.n]))
    report = audit._chain_width_report(active, int(loss[0]), int(repeat[0]), None, ds.labels)
    assert json.dumps(report.to_dict()) == json.dumps(chain_width_audit_oracle(net, ds).to_dict())
    assert report.witness == {"index": 0, "lost_units": [0]}


def shift_network_draws(monkeypatch):
    """Shift the chain-width networks' draws by -0.1, in the campaign and in its oracle alike."""
    draw_fields, network_draw = audit._draw_fields, conftest._network_draw
    monkeypatch.setattr(audit, "_draw_fields",
                        lambda rng, sizes: [u - 0.1 if j >= 3 else u for j, u in enumerate(draw_fields(rng, sizes))])
    monkeypatch.setattr(conftest, "_network_draw", lambda *args: network_draw(*args) - 0.1)


@pytest.mark.parametrize("stack", [None, 7])
def test_falsified_chain_width_campaign_reports_the_same_network(monkeypatch, stack):
    # network draws shifted below zero give negative weights, and now and then a lost unit:
    # the same doubles in the stack (its fields from 3 on) and in the oracle (its network draw)
    shift_network_draws(monkeypatch)
    if stack:  # stacks of 7 chains, so that stack boundaries fall all through the samples
        monkeypatch.setattr(core, "WORKING_SET_BYTES", audit._CHAIN_SAMPLE_BYTES * stack)
    indices = []
    for seed in range(8):
        report = run_chain_width_campaign(3000, seed)
        want = chain_width_campaign_oracle(3000, seed)
        assert not report.passed and not want.passed
        assert report.witness["sample_index"] == want.witness["sample_index"]
        assert report.witness.keys() == want.witness.keys()
        assert_close(report.witness, want.witness)
        indices.append(want.witness["sample_index"])
    # some failure lies past the first stack
    assert max(indices) >= (stack or core.WORKING_SET_BYTES // audit._CHAIN_SAMPLE_BYTES)


CAMPAIGNS = {  # each campaign at d = 3 where it has one, and its planned bytes per sample
    "depth2": (lambda samples, seed: run_depth2_campaign(3, samples, seed), lambda: audit._depth2_sample_bytes(3)),
    "convexity": (run_convexity_campaign, lambda: convexity_sample_bytes(audit.CONVEXITY_TRIPLES)),
    "chain-width": (run_chain_width_campaign, lambda: audit._CHAIN_SAMPLE_BYTES),
}


def falsify(monkeypatch, campaign: str):
    """Make ``campaign`` fail now and then, as the falsified campaign tests above do."""
    if campaign == "chain-width":
        shift_network_draws(monkeypatch)
    else:  # a negative tolerance fails a tie: lhs == rhs, or a midpoint on a linear piece
        monkeypatch.setattr(audit, "_REL_TOL", -1e-12)
        monkeypatch.setattr(audit, "CONVEXITY_TRIPLES", 1)


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
@pytest.mark.parametrize("falsified", [False, True])
def test_reports_do_not_depend_on_the_stack_size(monkeypatch, campaign, falsified):
    # the streams split only between samples, so stacks of one sample, of 7 and of the
    # default size give the same report, to the sample index of a failure
    run, sample_bytes = CAMPAIGNS[campaign]
    if falsified:
        falsify(monkeypatch, campaign)
    reports = []
    for stack in (None, 7, 1):
        if stack:
            monkeypatch.setattr(core, "WORKING_SET_BYTES", sample_bytes() * stack)
        reports.append([run(samples, seed).to_dict() for seed in range(4) for samples in (1, 150)])
    assert json.dumps(reports[1]) == json.dumps(reports[0]) == json.dumps(reports[2])
    failures = [r["witness"]["sample_index"] for r in reports[0] if not r["passed"]]
    assert max(failures, default=0) >= 1 if falsified else not failures  # past the first stack of one


def test_activity_sets_run_only_the_first_layer(monkeypatch):
    # chain_width_audit runs the whole network only on the pair at a repeat
    rng = np.random.default_rng(19)
    ds = random_chain_dataset(rng, 40, 3)
    dense = random_monotone_network(rng, 3, (5, 4, 3), bias_scale=float(ds.points.max() * 3 + 1.0))
    chain = random_chain_dataset(rng, 6, 3)
    built, _ = build_interpolator(chain)
    calls = []
    forward = ThresholdLayer.forward
    monkeypatch.setattr(ThresholdLayer, "forward", lambda self, A: calls.append(self) or forward(self, A))
    repeats = []
    for net, data in ((dense, ds), (built, chain)):
        assert len(net.layers) == 3
        repeats.append("pigeonhole_index" in chain_width_audit(net, data).details)
        assert calls == [net.layers[0], *(net.layers if repeats[-1] else ())]
        calls.clear()
    assert repeats == [True, False]


def test_random_chain_dataset_is_validated_and_canonical():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        ds = random_chain_dataset(rng, int(rng.integers(1, 20)), int(rng.integers(1, 7)))
        assert ds == validate_dataset(ds.points, ds.labels)
        assert ds.points.tobytes() == validate_dataset(ds.points, ds.labels).points.tobytes()


def test_activity_sets_match_per_point_sets():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n, width = int(rng.integers(1, 9)), int(rng.integers(0, 5))
        active = rng.random((n, width)) < rng.random()
        if rng.random() < 0.5:  # ascending rows, the common case along a chain
            active = np.logical_or.accumulate(active, axis=0)
        sets = [frozenset(np.flatnonzero(row).tolist()) for row in active]
        pairs = list(zip(sets, sets[1:]))
        # padding rows past the chain's length must not count
        padded = np.vstack((active, rng.random((int(rng.integers(0, 4)), width)) < 0.5))
        loss, repeat = audit._chain_width_analysis(padded[None], np.array([n]))
        assert loss[0] == next((i for i, (a, b) in enumerate(pairs) if not a <= b), -1)
        assert repeat[0] == next((i for i, (a, b) in enumerate(pairs) if a == b), -1)


def test_depth2_campaign_memory_is_bounded_at_the_largest_d():
    # a stack of 256 networks of full width would hold 32 * 1023 * 8 * 256 bytes, 67 MB,
    # of weights alone; the stack is sized by bytes instead
    depth2_counterexample(1023)  # cached: the dataset is not the campaign's to count
    tracemalloc.start()
    try:
        report = run_depth2_campaign(1023, 300, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 * core.WORKING_SET_BYTES


def test_chain_width_campaign_memory_is_bounded():
    # the chains are drawn and audited stack by stack, so the peak does not grow with the samples
    tracemalloc.start()
    try:
        report = run_chain_width_campaign(20_000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 * core.WORKING_SET_BYTES


def test_convexity_campaign_memory_is_bounded():
    # the networks are drawn and probed stack by stack, so the peak does not grow with the
    # samples; a full search's 10,001-row batch takes more than a stack
    audit._sqrt_grid(10000)  # cached: the grid is not the campaign's to count
    tracemalloc.start()
    try:
        report = run_convexity_campaign(3000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 * core.WORKING_SET_BYTES


PINNED = json.loads((Path(__file__).parent / "data" / "audit_stdout.json").read_text())


@pytest.mark.parametrize("case", PINNED, ids=[c["argv"] for c in PINNED])
def test_audit_stdout_is_pinned(case, capsys):
    """stdout of ``audit`` as the network-by-network campaigns printed it, byte for byte."""
    assert main(case["argv"].split()) == 0
    assert capsys.readouterr().out == case["stdout"]
