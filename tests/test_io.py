import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_monotone_dataset
from mononet.construct import build_interpolator
from mononet.core import ThresholdLayer, ThresholdNetwork
from mononet.errors import SchemaError
from mononet.io import (
    load_network,
    network_from_dict,
    parse_float,
    network_to_dict,
    read_dataset_csv,
    read_points_csv,
    save_network,
    write_dataset_csv,
)


def float_or_none(text):
    try:
        return float(text)
    except ValueError:
        return None


@given(st.text("0123456789+-._eEinfatyINFATY \t", max_size=10))
@example("1_000.000_1e1_0")
@example("١٢٣")
def test_parse_float_agrees_with_float(text):
    got, want = parse_float(text), float_or_none(text)
    if want is None or not math.isnan(want):
        assert got == want
    else:
        assert math.isnan(got)


class TestDatasetCsv:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        pairs = [((0.1, 0.2), 0.5), ((1.0, 1.0), 2.0)]
        write_dataset_csv(path, pairs, header=True)
        assert read_dataset_csv(path) == pairs

    def test_headerless(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3\n4,5,6\n")
        assert read_dataset_csv(path) == [((1.0, 2.0), 3.0), ((4.0, 5.0), 6.0)]

    def test_awkward_floats_survive(self, tmp_path):
        path = tmp_path / "data.csv"
        values = [5e-324, -0.0, 1e300, 0.1, math.nextafter(1.0, 2.0)]
        pairs = [((v,), v) for v in values]
        write_dataset_csv(path, pairs)
        back = read_dataset_csv(path)
        for (orig, _), (got, _) in zip(pairs, back):
            assert orig[0] == got[0]
            assert math.copysign(1, orig[0]) == math.copysign(1, got[0])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(SchemaError):
            read_dataset_csv(path)

    def test_non_numeric_mid_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3\nfoo,bar,baz\n")
        with pytest.raises(SchemaError):
            read_dataset_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_dataset_csv(path)

    def test_points_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x1,x2\n0.25,0.5\n1,2\n")
        assert read_points_csv(path).tolist() == [[0.25, 0.5], [1.0, 2.0]]


class TestNetworkJson:
    def test_round_trip_bit_exact(self, tmp_path):
        weights = np.array([[5e-324, 1e300], [math.nextafter(1.0, 2.0), 0.1]])
        biases = np.array([-0.0, 1e-300])
        net = ThresholdNetwork(
            (ThresholdLayer(weights, biases),), np.array([0.1, 0.2]), -0.3
        )
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        assert np.array_equal(back.layers[0].weights, weights)
        assert np.array_equal(back.layers[0].biases, biases)
        # sign of zero preserved
        assert math.copysign(1, back.layers[0].biases[0]) == -1.0
        assert np.array_equal(back.output_weights, net.output_weights)
        assert back.output_bias == net.output_bias

    def test_round_trip_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(30)
        ds = random_monotone_dataset(rng, max_n=12, max_d=3)
        net, _ = build_interpolator(ds)
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        probes = rng.random((1000, ds.dimension)) * 2
        assert np.array_equal(net.evaluate_batch(probes), back.evaluate_batch(probes))

    def test_exact_mode_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        ds = random_monotone_dataset(rng, max_n=6, max_d=2)
        net, _ = build_interpolator(ds)
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        assert back.is_exact
        assert back.output_weights == net.output_weights
        assert back.evaluate_batch_exact(ds.points) == [
            Fraction(float(y)) for y in ds.labels
        ]

    def test_monotone_flag_serialized(self, tmp_path):
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        doc = network_to_dict(net)
        assert doc["monotone_flag"] is True
        assert doc["version"] == 1
        assert doc["dimension"] == 1

    def test_bad_version(self):
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        doc = network_to_dict(net)
        doc["version"] = 99
        with pytest.raises(SchemaError):
            network_from_dict(doc)

    def test_declared_dimension_checked(self):
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        doc = network_to_dict(net)
        doc["dimension"] = 7
        with pytest.raises(SchemaError):
            network_from_dict(doc)

    def test_ragged_weights(self):
        doc = {
            "version": 1,
            "dimension": 2,
            "monotone_flag": True,
            "exact": False,
            "layers": [{"activation": "threshold", "weights": [[1.0], [1.0, 2.0]], "biases": [0.0, 0.0]}],
            "output": {"weights": [1.0, 1.0], "bias": 0.0},
        }
        with pytest.raises(SchemaError):
            network_from_dict(doc)

    def test_bad_fraction(self):
        doc = {
            "version": 1,
            "dimension": 1,
            "monotone_flag": True,
            "exact": True,
            "layers": [],
            "output": {"weights": ["1/0"], "bias": "0/1"},
        }
        with pytest.raises(SchemaError):
            network_from_dict(doc)

    def test_exact_weight_beyond_float_range_refused_at_load(self):
        # every network carries its float output stage, so an exact value
        # that has no float is refused when the network is made
        doc = {
            "version": 1,
            "dimension": 1,
            "monotone_flag": True,
            "exact": True,
            "layers": [],
            "output": {"weights": [f"{10**400}/1"], "bias": "0/1"},
        }
        with pytest.raises(SchemaError, match="fit in a float"):
            network_from_dict(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaError):
            load_network(path)

    def test_missing_keys(self):
        with pytest.raises(SchemaError):
            network_from_dict({"version": 1})

    def test_indented_layout_still_loads(self, tmp_path):
        rng = np.random.default_rng(32)
        net, _ = build_interpolator(random_monotone_dataset(rng, max_n=6, max_d=2))
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        save_network(net, compact)
        indented.write_text(json.dumps(network_to_dict(net), indent=2) + "\n")
        assert compact.read_text().count("\n") == 1
        old, new = load_network(indented), load_network(compact)
        assert network_to_dict(old) == network_to_dict(new) == network_to_dict(net)

    def test_bytes_stable(self, tmp_path):
        net = ThresholdNetwork((ThresholdLayer([[0.1]], [-0.7]),), [0.3], 0.0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_network(net, a)
        save_network(net, b)
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["output"]["weights"] == [0.3]
