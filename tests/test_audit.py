import numpy as np
import pytest

from mononet.audit import (
    ActivitySets,
    certify_monotone_structure,
    chain_width_audit,
    depth2_counterexample,
    depth2_inequality_audit,
    probe_monotonicity,
    random_chain_dataset,
    random_monotone_network,
    relu_convexity_probe,
    run_chain_width_campaign,
    run_convexity_campaign,
    run_depth2_campaign,
    sqrt_gap_witness,
)
from mononet.construct import build_chain_interpolator, build_interpolator
from mononet.core import RELU, ThresholdLayer, ThresholdNetwork, validate_dataset
from mononet.errors import (
    ActivationMismatch,
    ArchitectureMismatch,
    DimensionMismatch,
    DimensionTooSmall,
    InvalidArgument,
    PreconditionViolated,
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


class TestDepth2Counterexample:
    def test_d2(self):
        ds = depth2_counterexample(2)
        assert ds.items() == [((2.0, 0.0), 0.0), ((0.0, 2.0), 0.0), ((1.0, 1.0), 1.0)]

    def test_d3(self):
        ds = depth2_counterexample(3)
        assert ds.items() == [
            ((3.0, 0.0, 0.0), 0.0),
            ((0.0, 3.0, 0.0), 0.0),
            ((0.0, 0.0, 3.0), 0.0),
            ((1.0, 1.0, 1.0), 1.0),
        ]

    def test_d5_validates(self):
        ds = depth2_counterexample(5)
        assert ds.n == 6

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            depth2_counterexample(1)


class TestDepth2Audit:
    def test_zero_net(self):
        net = ThresholdNetwork((ThresholdLayer(np.zeros((1, 2)), [-1.0]),), [0.0], 0.0)
        report = depth2_inequality_audit(net, 2)
        assert report.passed
        assert report.details["lhs"] == report.details["rhs"] == 0.0

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

    def test_campaign_builds_the_dataset_once(self, monkeypatch):
        from mononet import audit as audit_mod

        calls = []

        def counting(pairs):
            calls.append(1)
            return validate_dataset(pairs)

        monkeypatch.setattr(audit_mod, "validate_dataset", counting)
        depth2_counterexample.cache_clear()
        try:
            assert run_depth2_campaign(3, 50, 0).passed
        finally:
            depth2_counterexample.cache_clear()
        assert len(calls) == 1


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
        sets = ActivitySets.from_network(net, ds.points)
        assert sets.is_strictly_ascending()

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
        ds = validate_dataset([((1.0,), 2.0)])
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        report = chain_width_audit(net, ds)
        assert report.passed

    def test_width_boundary_interpolation(self):
        # an ascending chain of n activity sets in a universe of n-1 units can
        # be repeat-free (the complete flag), and such a network really can
        # interpolate: units sigma(x - 2..x - n) on the chain 1..n, y = 0..n-1
        ds = validate_dataset([((float(i),), float(i - 1)) for i in range(1, 5)])
        net = ThresholdNetwork(
            (ThresholdLayer(np.ones((3, 1)), [-2.0, -3.0, -4.0]),), np.ones(3), 0.0
        )
        assert net.evaluate_batch(ds.points).tolist() == ds.labels.tolist()
        report = chain_width_audit(net, ds)
        assert report.passed
        assert report.details["width_obstruction"] == "vacuous-boundary"

    def test_preconditions(self):
        spread = validate_dataset([((2, 0), 0.0), ((0, 2), 0.0), ((1, 1), 1.0)])
        net = ThresholdNetwork((ThresholdLayer(np.ones((2, 2)), [0.0, -1.0]),), [1.0, 1.0], 0.0)
        with pytest.raises(PreconditionViolated):
            chain_width_audit(net, spread)
        flat = validate_dataset([((0.0,), 1.0), ((1.0,), 1.0)])
        net1 = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        with pytest.raises(PreconditionViolated):
            chain_width_audit(net1, flat)
        chain = validate_dataset([((0.0,), 0.0), ((1.0,), 1.0)])
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
