import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathlib import Path

from conftest import densify, random_monotone_dataset
from mononet.construct import build_chain_interpolator, build_interpolator
from mononet.core import ExactStage, ThresholdLayer, ThresholdNetwork, WeightPattern, validate_dataset
from mononet.core import EXACT_SCALE_BITS
from mononet.errors import SchemaError, TooLarge
from mononet.io import (
    _parse_rows,
    load_network,
    network_from_dict,
    parse_float,
    read_json,
    network_to_dict,
    read_dataset_csv,
    read_points_csv,
    save_network,
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


def per_cell_rows(path) -> list[list[float]]:
    """The CSV reader as it was, ``parse_float`` on each stripped cell; the oracle for ``_parse_rows``."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for lineno, cells in enumerate(csv.reader(fh), start=1):
                cells = [c.strip() for c in cells if c.strip() != ""]
                if not cells:
                    continue
                row = [parse_float(c) for c in cells]
                if None not in row:
                    rows.append(row)
                elif lineno != 1:  # a non-numeric first line is a header
                    raise SchemaError(f"{path}: line {lineno} is not numeric: {cells}")
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaError(f"{path}: not a readable CSV file: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(f"{path}: row {k + 1} has {len(row)} columns, expected {width}")
    return rows


NUMERIC_CELLS = ["1_000", "1_000.000_1e1_0", "١٢٣", "٣.٥", "inf", "-Infinity", "nan", "-nan", "+1e3",
                 ".5", "5.", "-0", "-0.0", "1e999", "-1e-400", "5e-324", "\u00a01.5\u00a0", "\t2\t"]
ODD_CELLS = ["", " ", "x", "y1", "1e", "1__0", "_1", "1_", "0x10", "1,5", "1 2", "infinit", "--1",
             "\x1c", "1\x1c", "\u2003", "\x00", "NaN%", '"']


@st.composite
def csv_bytes(draw) -> bytes:
    """CSV text that is mostly valid: a header, padded, quoted and blank cells, odd
    numerals, ragged rows, non-numeric later lines, and now and then a byte that is not UTF-8."""
    width = draw(st.integers(1, 4))
    numeric = st.one_of(st.floats().map(repr), st.integers(-(10**20), 10**20).map(str),
                        st.sampled_from(NUMERIC_CELLS))
    odd = st.one_of(st.sampled_from(ODD_CELLS), st.text("0123456789+-._eEinfaINF \t", max_size=6))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(st.sampled_from(["x1", "x2", "y", "", " label "]),
                                            min_size=1, max_size=width + 1))))
    for _ in range(draw(st.integers(0, 6))):
        w = width if draw(st.integers(0, 7)) else draw(st.integers(0, width + 2))  # now and then ragged
        cells = []
        for _ in range(w):
            cell = draw(numeric) if draw(st.integers(0, 39)) else draw(odd)
            pad = draw(st.sampled_from(["", "", " ", "\t", "  "]))
            cell = pad + cell + pad
            if draw(st.integers(0, 5)) == 0:  # quoted, which also admits commas and newlines
                cell = '"' + cell.replace('"', '""') + draw(st.sampled_from(["", "", "", ",", "\n"])) + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    data = (draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))).encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(csv_bytes())
@example(b"x1,y\n1,2\n")
@example(b"\n\nx,y\n1,2\n")
@example(b"1,2\n3\n")
@example(b'"1","-0.0"\n" 2 ",nan\n')
@example("1\x1c,2\u00a0\n".encode())
def test_reader_matches_the_per_cell_oracle(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(data)
    try:
        want = np.array(per_cell_rows(path), dtype=float)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as err:
            _parse_rows(path)
        assert str(err.value) == str(exc)
        return
    got = _parse_rows(path)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # -0.0 and the NaN bits included
    assert read_points_csv(path).tobytes() == want.tobytes()


class TestDatasetCsv:
    def test_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2,y\n0.1,0.2,0.5\n1.0,1.0,2.0\n")
        points, labels = read_dataset_csv(path)
        assert points.tolist() == [[0.1, 0.2], [1.0, 1.0]]
        assert labels.tolist() == [0.5, 2.0]

    def test_headerless(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3\n4,5,6\n")
        points, labels = read_dataset_csv(path)
        assert points.tolist() == [[1.0, 2.0], [4.0, 5.0]]
        assert labels.tolist() == [3.0, 6.0]

    def test_awkward_floats_survive(self, tmp_path):
        path = tmp_path / "data.csv"
        values = [5e-324, -0.0, 1e300, 0.1, math.nextafter(1.0, 2.0)]
        path.write_text("".join(f"{v!r},{v!r}\n" for v in values))
        points, labels = read_dataset_csv(path)
        assert points.shape == (len(values), 1)
        assert points.tobytes() == labels.tobytes() == np.array(values).tobytes()  # -0.0 included

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


def fraction_stage(doc: dict) -> ExactStage:
    """The exact stage of a network document, read through one ``Fraction`` a text."""
    out = doc["output"]
    fractions = [Fraction(*map(int, text.split("/"))) for text in (*out["weights"], out["bias"])]
    return ThresholdNetwork((), fractions[:-1], fractions[-1]).exact_stage


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
        assert back.exact_stage == net.exact_stage
        assert back.evaluate_batch_exact(ds.points) == [
            Fraction(float(y)) for y in ds.labels
        ]

    def test_monotone_flag_serialized(self, tmp_path):
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        doc = network_to_dict(net)
        assert doc["monotone_flag"] is True
        assert doc["version"] == 3
        assert doc["dimension"] == 1

    def test_bad_version(self):
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        doc = network_to_dict(net)
        # True == 1 and 2.0 == 2, so a version must be an int, not only equal to one
        for version in (99, 0, True, 2.0, 3.0, "3", None):
            doc["version"] = version
            with pytest.raises(SchemaError, match="unsupported network version"):
                network_from_dict(doc)

    @pytest.mark.parametrize("dimension", [7, True, 1.0, "1"])
    def test_declared_dimension_checked(self, dimension):
        # a bool or a float equal to 1 is not the int 1
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [1.0], 0.0)
        doc = network_to_dict(net)
        doc["dimension"] = dimension
        with pytest.raises(SchemaError):
            network_from_dict(doc)

    @pytest.mark.parametrize("exact", ["no", "false", 1, 0, None, [], 1.0])
    def test_exact_must_be_a_bool(self, exact):
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [Fraction(1, 3)], 0.0)
        doc = network_to_dict(net)
        doc["exact"] = exact
        with pytest.raises(SchemaError, match="exact"):
            network_from_dict(doc)

    @pytest.mark.parametrize("weight, exact", [(Fraction(1, 3), True), (0.5, False), (0.5, "absent")])
    def test_exact_flag_read(self, weight, exact):
        net = ThresholdNetwork((ThresholdLayer([[1.0]], [0.0]),), [weight], 0.0)
        doc = network_to_dict(net)
        if exact == "absent":
            del doc["exact"]
        else:
            assert doc["exact"] is exact
        assert network_from_dict(doc).is_exact is (exact is True)

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

    @pytest.mark.parametrize("text", ["1/0", "-0/0", "1/-0", "1/x", "1/2/3", "1", "1.5/2", ""])
    def test_fraction_text_that_is_not_p_over_q_refused(self, text):
        doc = {"version": 3, "dimension": 1, "monotone_flag": True, "exact": True, "layers": [],
               "output": {"weights": ["1/2"], "bias": text}}
        with pytest.raises(SchemaError, match="bad fraction literal"):
            network_from_dict(doc)

    @pytest.mark.parametrize("name", ["v1_network.json", "v2_network.json"])
    def test_fixture_stage_loads_as_the_fractions_give_it(self, name):
        doc = read_json(Path(__file__).parent / "data" / name)
        assert network_from_dict(doc).exact_stage == fraction_stage(doc)

    @given(st.lists(st.tuples(st.one_of(st.integers(-10**300, 10**300).map(str), st.sampled_from(["-0", "+0", "+7"])),
                              st.integers(-10**6, 10**6).filter(bool).map(str)), min_size=1, max_size=8))
    @example([("-0", "3")])
    @example([("6", "-4"), ("-10", "-15"), ("0", "-1"), ("12", "8")])
    @settings(max_examples=200, deadline=None)
    def test_exact_stage_loads_as_the_fractions_give_it_property(self, pairs):
        texts = [f"{p}/{q}" for p, q in pairs]
        doc = {"version": 3, "dimension": len(texts) - 1, "monotone_flag": True, "exact": True, "layers": [],
               "output": {"weights": texts[:-1], "bias": texts[-1]}}
        net, want = network_from_dict(doc), fraction_stage(doc)
        assert net.exact_stage == want
        assert net.output_weights.tolist() == [p / want.scale for p in want.numerators]

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

    def test_pattern_layers_round_trip(self, tmp_path):
        rng = np.random.default_rng(33)
        ds = random_monotone_dataset(rng, max_n=30, max_d=4)
        net, _ = build_interpolator(ds)
        doc = network_to_dict(net)
        assert doc["version"] == 3
        assert [sorted(spec) for spec in doc["layers"]] == [
            ["activation", "biases", "index", "kind", "size"],
            ["activation", "biases", "kind", "size"],
            ["activation", "biases", "kind"],
        ]
        assert doc["layers"][0]["kind"] == "select" and doc["layers"][0]["size"] == ds.dimension
        assert doc["layers"][0]["index"] == list(range(ds.dimension)) * ds.n
        assert doc["layers"][1]["kind"] == "blocks" and doc["layers"][1]["size"] == ds.dimension
        assert doc["layers"][2]["kind"] == "suffix"
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        assert [layer.kind for layer in back.layers] == ["select", "blocks", "suffix"]
        assert network_to_dict(back) == doc
        X = np.vstack([ds.points, rng.random((20, ds.dimension)) * 4])
        assert back.evaluate_batch(X).tobytes() == net.evaluate_batch(X).tobytes()
        doc["layers"][2]["size"] = 1  # a suffix's one size, which the writer leaves out
        assert network_from_dict(doc).evaluate_batch(X).tobytes() == net.evaluate_batch(X).tobytes()

    def test_built_document_is_linear_in_n(self, tmp_path):
        # n = 400 points in d = 2: the dense layers 2 and 3 alone held 480,000 numbers
        rng = np.random.default_rng(34)
        X = rng.random((400, 2))
        ds = validate_dataset(X, X.sum(axis=1))
        path = tmp_path / "net.json"
        save_network(build_interpolator(ds)[0], path)
        assert path.stat().st_size < 100 * ds.n * ds.dimension

    @pytest.mark.parametrize("builder", [build_interpolator, build_chain_interpolator])
    def test_built_document_is_linear_in_d(self, tmp_path, builder):
        # a dense one-hot layer 1 of the general builder held n*d*d numbers:
        # 409,600 at n = 100, d = 64
        rng = np.random.default_rng(36)
        path, n, sizes = tmp_path / "net.json", 100, []
        for d in (4, 16, 64):
            X = np.cumsum(rng.random((n, d)) + 0.1, axis=0)  # a chain, so both builders apply
            save_network(builder(validate_dataset(X, np.arange(n)))[0], path)
            sizes.append(path.stat().st_size)
            assert sizes[-1] < 100 * n * d
        assert sizes[1] < 6 * sizes[0] and sizes[2] < 6 * sizes[1]  # d times 4, bytes at most times 6

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "diagonal"},
            {"kind": "blocks"},
            {"kind": "blocks", "size": 0},
            {"kind": "blocks", "size": 1.0},
            {"kind": "blocks", "size": "1"},
            {"kind": "blocks", "size": True},
            {"kind": "blocks", "size": 2},
            {"kind": None},
            {"kind": "suffix", "biases": [[0.0]]},
            {"kind": "blocks", "size": 1, "index": [0]},
            {"kind": "select", "index": [0]},
            {"kind": "select", "size": 1},
            {"kind": "select", "size": 1, "index": [1]},
            {"kind": "select", "size": 1, "index": [-1]},
            {"kind": "select", "size": 1, "index": [0.0]},
            {"kind": "select", "size": 1, "index": [True]},
            {"kind": "select", "size": 1, "index": [[0]]},
            {"kind": "select", "size": 1, "index": "0"},
            {"kind": "select", "size": 1, "index": [0, 0]},
            {"kind": "select", "size": 1.0, "index": [0]},
            {"kind": "suffix", "size": 7},
            {"kind": "suffix", "size": True},
            {"kind": "suffix", "size": 1.0},
        ],
    )
    def test_malformed_pattern_layer(self, spec):
        doc = {
            "version": 2,
            "dimension": 1,
            "monotone_flag": True,
            "exact": False,
            "layers": [{"activation": "threshold", "biases": [0.0], **spec}],
            "output": {"weights": [1.0], "bias": 0.0},
        }
        with pytest.raises(SchemaError):
            network_from_dict(doc)

    def test_exact_stage_at_the_scale_cap_loads_and_past_it_is_refused(self):
        def doc(k):  # the least scale is 3 * 2**k, of k + 2 bits
            return {"version": 3, "dimension": 1, "monotone_flag": True, "exact": True,
                    "layers": [{"activation": "threshold", "weights": [[1.0]] * 2, "biases": [0.0, -1.0]}],
                    "output": {"weights": ["3/4", f"1/{2**k}"], "bias": f"-1/{3 * 2**(k - 3)}"}}

        k = EXACT_SCALE_BITS - 2
        net = network_from_dict(doc(k))
        assert net.exact_stage.scale == 3 * 2**k and (3 * 2**k).bit_length() == EXACT_SCALE_BITS
        assert network_to_dict(net)["output"] == doc(k)["output"]
        want = Fraction(3, 4) + Fraction(1, 2**k) - Fraction(1, 3 * 2**(k - 3))
        assert net.evaluate_batch_exact([[1.0]]) == [want]
        with pytest.raises(TooLarge):
            network_from_dict(doc(k + 1))

    def test_version_1_file_loads_and_evaluates_identically(self):
        # written by `mononet synth` before layers could be weight patterns
        data = Path(__file__).parent / "data"
        old = load_network(data / "v1_network.json")
        assert json.loads((data / "v1_network.json").read_text())["version"] == 1
        ds = validate_dataset(*read_dataset_csv(data / "v1_dataset.csv"))
        net, _ = build_interpolator(ds)
        assert [layer.kind for layer in old.layers] == ["dense"] * 3
        assert network_to_dict(old)["layers"] == network_to_dict(densify(net))["layers"]
        X = np.vstack([ds.points, np.random.default_rng(35).random((200, ds.dimension)) * 4 - 0.5])
        exact = old.evaluate_batch_exact(X)
        assert net.evaluate_batch_exact(X) == exact
        assert net.evaluate_batch(X).tolist() == [float(v) for v in exact]
        for a, b in zip(old.hidden_activations(X), net.hidden_activations(X), strict=True):
            assert np.array_equal(a, b)
        assert old.monotone_flag and net.monotone_flag

    def test_version_2_file_loads_and_evaluates_identically(self):
        # written by `mononet synth` while layer 1 was a dense one-hot matrix
        data = Path(__file__).parent / "data"
        old = load_network(data / "v2_network.json")
        assert json.loads((data / "v2_network.json").read_text())["version"] == 2
        ds = validate_dataset(*read_dataset_csv(data / "v2_dataset.csv"))
        net, _ = build_interpolator(ds)
        assert [layer.kind for layer in old.layers] == ["dense", "blocks", "suffix"]
        assert network_to_dict(densify(old)) == network_to_dict(densify(net))
        X = np.vstack([ds.points, np.random.default_rng(37).random((200, ds.dimension)) * 6 - 0.5])
        assert old.evaluate_batch(X).tobytes() == net.evaluate_batch(X).tobytes()
        assert old.evaluate_batch_exact(X) == net.evaluate_batch_exact(X)
        assert old.monotone_flag and net.monotone_flag

    def test_chain_network_round_trip(self, tmp_path):
        X = np.cumsum(np.ones((12, 3)), axis=0)
        ds = validate_dataset(X, np.arange(12))
        net, _ = build_chain_interpolator(ds)
        path = tmp_path / "chain.json"
        save_network(net, path)
        back = load_network(path)
        assert [layer.kind for layer in back.layers] == ["select", "suffix"]
        assert back.evaluate_batch_exact(X + 0.5) == net.evaluate_batch_exact(X + 0.5)

    def test_bytes_stable(self, tmp_path):
        net = ThresholdNetwork((ThresholdLayer([[0.1]], [-0.7]),), [0.3], 0.0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_network(net, a)
        save_network(net, b)
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["output"]["weights"] == [0.3]
