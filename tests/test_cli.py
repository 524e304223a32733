import contextlib
import hashlib
import io
import json
import os
import string
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import mononet
from mononet import cli, core
from mononet.approx import BUILTIN_FUNCTIONS, build_approximator, resolve_function
from mononet.cli import main
from mononet.construct import build_interpolator
from mononet.core import ThresholdLayer, ThresholdNetwork, validate_dataset
from mononet.io import load_network, network_to_dict, save_network
from test_io import csv_bytes


def write(path, text):
    path.write_text(text)
    return str(path)


def diagnostic(stderr: str) -> dict:
    """The one JSON line that an invalid invocation leaves on stderr."""
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1, lines
    doc = json.loads(lines[0])
    assert "error" in doc
    return doc


@pytest.fixture
def spread_csv(tmp_path):
    return write(tmp_path / "spread.csv", "x1,x2,y\n2,0,0\n0,2,0\n1,1,1\n")


@pytest.fixture
def chain_csv(tmp_path):
    return write(tmp_path / "chain.csv", "0,0,0\n1,1,1\n2,2,2\n")


class TestSynth:
    def test_spread(self, tmp_path, spread_csv, capsys):
        out = tmp_path / "net.json"
        trace = tmp_path / "trace.json"
        code = main(["synth", spread_csv, "-o", str(out), "--trace", str(trace)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "hidden widths: [6, 3, 3]" in stdout
        assert "builder: general" in stdout
        tr = json.loads(trace.read_text())
        assert tr["layer_widths"] == [6, 3, 3]
        assert tr["embedding_matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        net = load_network(out)
        assert net.hidden_widths == (6, 3, 3)

    def test_chain_auto(self, tmp_path, chain_csv, capsys):
        out = tmp_path / "net.json"
        assert main(["synth", chain_csv, "-o", str(out)]) == 0
        assert "hidden widths: [3, 3]" in capsys.readouterr().out

    def test_force_general(self, tmp_path, chain_csv, capsys):
        out = tmp_path / "net.json"
        assert main(["synth", chain_csv, "-o", str(out), "--ordered", "force-general"]) == 0
        assert "hidden widths: [6, 3, 3]" in capsys.readouterr().out

    def test_violation_exit_2_with_diagnostic(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "0,0,1\n1,1,0\n")
        code = main(["synth", bad, "-o", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["error"] == "monotone-violation"
        assert (doc["first"], doc["second"]) == (0, 1)

    def test_duplicate_point_names_both_positions(self, tmp_path, capsys):
        data = write(tmp_path / "dup.csv", "0,0,1\n1,1,2\n0,0,3\n")
        assert main(["synth", data, "-o", str(tmp_path / "x.json")]) == 2
        assert diagnostic(capsys.readouterr().err) == {
            "error": "DuplicatePoint", "message": "points at input positions 0 and 2 are identical",
            "first": 0, "second": 2,
        }

    @pytest.mark.parametrize("ordered", ["auto", "force-general"])
    def test_label_gap_beyond_float_range_exit_2(self, tmp_path, ordered, capsys):
        data = write(tmp_path / "huge.csv", "0,-1e308\n1,1e308\n")
        out = tmp_path / "x.json"
        assert main(["synth", data, "-o", str(out), "--ordered", ordered]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert diagnostic(captured.err)["error"] == "InvalidNumber"
        assert not out.exists()

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["synth", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "x.json")]) == 1

    def test_exact_flag_is_gone(self, tmp_path, spread_csv, capsys):
        assert main(["synth", spread_csv, "-o", str(tmp_path / "x.json"), "--exact"]) == 2
        assert "unrecognized arguments: --exact" in diagnostic(capsys.readouterr().err)["message"]

    def test_byte_identical_reruns(self, tmp_path, spread_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["synth", spread_csv, "-o", str(a)])
        main(["synth", spread_csv, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_training_labels(self, tmp_path, spread_csv, capsys):
        out = tmp_path / "net.json"
        main(["synth", spread_csv, "-o", str(out)])
        capsys.readouterr()
        pts = write(tmp_path / "pts.csv", "2,0\n0,2\n1,1\n")
        assert main(["eval", str(out), pts]) == 0
        assert capsys.readouterr().out.splitlines() == ["0.0", "0.0", "1.0"]

    def test_round_trip_matches_memory(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        net = ThresholdNetwork(
            (ThresholdLayer(rng.random((4, 2)), rng.uniform(-1, 1, 4)),),
            rng.random(4),
            0.125,
        )
        path = tmp_path / "net.json"
        save_network(net, path)
        probes = rng.random((50, 2))
        pts = tmp_path / "pts.csv"
        pts.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in probes) + "\n")
        assert main(["eval", str(path), str(pts)]) == 0
        printed = [float(line) for line in capsys.readouterr().out.splitlines()]
        assert printed == net.evaluate_batch(probes).tolist()

    def test_no_points_print_nothing(self, tmp_path, spread_csv, monkeypatch, capsys):
        out = tmp_path / "net.json"
        main(["synth", spread_csv, "-o", str(out)])
        capsys.readouterr()
        monkeypatch.setattr(cli.io, "read_points_csv", lambda path: np.empty((0, 2)))
        assert main(["eval", str(out), "pts.csv"]) == 0
        assert capsys.readouterr().out == ""

    def test_dimension_mismatch_exit_2(self, tmp_path, spread_csv, capsys):
        out = tmp_path / "net.json"
        main(["synth", spread_csv, "-o", str(out)])
        pts = write(tmp_path / "pts.csv", "1,2,3\n")
        assert main(["eval", str(out), pts]) == 2

    def test_missing_dimension_exit_2(self, tmp_path, capsys):
        doc = {"version": 2, "layers": [], "output": {"weights": [1.0], "bias": 0.0}}
        net = write(tmp_path / "net.json", json.dumps(doc))
        pts = write(tmp_path / "pts.csv", "1\n")
        assert main(["eval", net, pts]) == 2
        assert diagnostic(capsys.readouterr().err)["error"] == "SchemaError"

    @pytest.mark.parametrize("field, value", [("version", True), ("version", 2.0), ("size", 7)])
    def test_version_and_suffix_size_checked_exit_2(self, tmp_path, spread_csv, field, value, capsys):
        out = tmp_path / "net.json"
        main(["synth", spread_csv, "-o", str(out)])
        doc = json.loads(out.read_text())
        assert doc["layers"][2]["kind"] == "suffix" and "size" not in doc["layers"][2]
        (doc["layers"][2] if field == "size" else doc)[field] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", str(out), write(tmp_path / "pts.csv", "1,2\n")]) == 2
        assert diagnostic(capsys.readouterr().err)["error"] == "SchemaError"

    @pytest.mark.parametrize("command", ["eval", "audit"])
    @pytest.mark.parametrize("spec", [
        {"kind": "diagonal"},
        {"kind": "blocks"},
        {"kind": "blocks", "size": 0},
        {"kind": "blocks", "size": 2.5},
        {"kind": "blocks", "size": "2"},
        {"kind": "blocks", "size": 3},
        {"kind": ["suffix"]},
        {"kind": "suffix", "biases": "x"},
    ])
    def test_malformed_pattern_layer_exit_2(self, tmp_path, spread_csv, command, spec, capsys):
        out = tmp_path / "net.json"
        main(["synth", spread_csv, "-o", str(out)])
        doc = json.loads(out.read_text())
        assert doc["layers"][1] == {"activation": "threshold", "kind": "blocks", "size": 2,
                                    "biases": [-2.0, -2.0, -2.0]}
        del doc["layers"][1]["size"]
        doc["layers"][1].update(spec)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        pts = write(tmp_path / "pts.csv", "1,2\n")
        argv = ["eval", str(out), pts] if command == "eval" else ["audit", "--check", "structure", "--net", str(out)]
        assert main(argv) == 2
        assert diagnostic(capsys.readouterr().err)["error"] == "SchemaError"


def child_peak_kb(script: str) -> int:
    """Run ``script`` in a fresh Python that imports mononet from this tree; its peak RSS in kB.

    The child reads its own ``VmHWM`` from /proc/self/status at exit.  The
    ``ru_maxrss`` of a child of this process starts from this process's
    high-water mark, so it would measure the earlier tests too.
    """
    script += (
        "print([line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')][0], file=sys.stderr)\n"
    )
    src = str(Path(mononet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    return int(child.stderr.split()[-1])


PINNED_EVAL = json.loads((Path(__file__).parent / "data" / "eval_stdout.json").read_text())


@pytest.mark.parametrize("case", PINNED_EVAL, ids=[f"{k}-{c['runs'][0]['argv'].split()[0]}"
                                                    for k, c in enumerate(PINNED_EVAL)])
def test_eval_stdout_is_pinned(case, tmp_path, monkeypatch, capsys):
    """stdout of ``synth`` then ``eval``, and of ``approx --probes``, as the float64 forward pass printed it.

    Each case writes its ``files`` and runs its argvs in that directory;
    ``{data}`` stands for ``tests/data``, home of the version 1 and 2
    fixture networks.  ``sha256`` pins the written network and trace files.
    """
    data = str(Path(__file__).parent / "data")
    monkeypatch.chdir(tmp_path)
    for name, text in case["files"].items():
        Path(name).write_text(text, encoding="utf-8")
    for run in case["runs"]:
        assert main(run["argv"].replace("{data}", data).split()) == 0
        assert capsys.readouterr().out == run["stdout"]
    for name, digest in case.get("sha256", {}).items():
        assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_synth_and_eval_at_n_4000_stay_under_450_mb(tmp_path):
    # the dense layers 2 and 3 of this network alone took 640 MB
    rng = np.random.default_rng(4000)
    X = rng.random((4000, 4))
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{a!r},{b!r},{c!r},{d!r},{a + 2 * b + 3 * c + 4 * d!r}\n"
                            for a, b, c, d in X.tolist()))
    points = tmp_path / "points.csv"
    points.write_text("".join(",".join(map(repr, q)) + "\n" for q in rng.random((2000, 4)).tolist()))
    net, trace = tmp_path / "net.json", tmp_path / "trace.json"
    script = (
        "import sys; from mononet.cli import main\n"
        f"assert main(['synth', {str(data)!r}, '-o', {str(net)!r}, '--trace', {str(trace)!r}]) == 0\n"
        f"assert main(['eval', {str(net)!r}, {str(points)!r}]) == 0\n"
    )
    peak = child_peak_kb(script)
    assert peak < 450 * 1024, peak
    assert net.stat().st_size < 1 << 20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_synth_trace_at_n_4000_stays_under_200_mb(tmp_path):
    # the trace as one nested int list took 298 MB
    X = np.random.default_rng(4000).random((4000, 4))
    data = tmp_path / "data.csv"
    data.write_text("".join(",".join(map(repr, [*x, sum(x)])) + "\n" for x in X.tolist()))
    net, trace = tmp_path / "net.json", tmp_path / "trace.json"
    script = (
        "import sys; from mononet.cli import main\n"
        f"assert main(['synth', {str(data)!r}, '-o', {str(net)!r}, '--trace', {str(trace)!r}]) == 0\n"
    )
    peak = child_peak_kb(script)
    assert peak < 200 * 1024, peak
    assert trace.stat().st_size > 4000 * 4000 * 3  # "0, " or "1, " per entry


class TestAudit:
    def test_depth2_pass(self, capsys):
        assert main(["audit", "--check", "depth2", "--d", "3", "--samples", "200", "--seed", "7"]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_convexity_pass(self, capsys):
        assert main(["audit", "--check", "convexity", "--samples", "20", "--seed", "3"]) == 0

    def test_chain_width_pass(self, capsys):
        assert main(["audit", "--check", "chain-width", "--samples", "50", "--seed", "3"]) == 0

    def test_structure_fail_reports_but_exits_0(self, tmp_path, capsys):
        net = ThresholdNetwork((ThresholdLayer([[-1.0]], [0.5]),), [1.0], 0.0)
        path = tmp_path / "net.json"
        save_network(net, path)
        code = main(["audit", "--check", "structure", "--net", str(path), "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["witness"]["location"] == "hidden"

    def test_monotone_probe_on_net(self, tmp_path, capsys):
        net = ThresholdNetwork((ThresholdLayer([[-1.0]], [0.5]),), [1.0], 0.0)
        path = tmp_path / "net.json"
        save_network(net, path)
        code = main(
            ["audit", "--check", "monotone", "--net", str(path), "--samples", "300", "--seed", "1"]
        )
        assert code == 0
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_depth2_large_d_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = main(["audit", "--check", "depth2", "--d", "100000", "--samples", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20, peak
        captured = capsys.readouterr()
        assert captured.out == ""
        assert diagnostic(captured.err)["error"] == "TooLarge"

    @pytest.mark.parametrize("check", ["depth2", "convexity", "chain-width"])
    def test_samples_past_the_byte_cap_refused_at_once(self, capsys, check):
        # 10**12 samples plan at least 4 PB of stacks: the campaign ran until it was killed
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["audit", "--check", check, "--samples", "1000000000000"])
            wall, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and wall < 1 and peak < 1 << 20, (wall, peak)
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert diagnostic(captured.err)["error"] == "TooLarge"

    def test_exact_stage_past_the_scale_cap_refused_before_allocating(self, tmp_path, capsys):
        # 1/p over distinct primes: the lcm of 50,000 seven-digit ones would take about 1 M bits
        primes = [p for p in range(2, 20_000) if all(p % q for q in range(2, int(p**0.5) + 1))]
        layer = {"activation": "threshold", "weights": [[1.0]] * len(primes), "biases": [0.0] * len(primes)}
        doc = {"version": 3, "dimension": 1, "monotone_flag": True, "exact": True, "layers": [layer],
               "output": {"weights": [f"1/{p}" for p in primes], "bias": "0/1"}}
        net = write(tmp_path / "net.json", json.dumps(doc))
        pts = write(tmp_path / "pts.csv", "1\n")
        tracemalloc.start()
        try:
            code = main(["audit", "--check", "structure", "--net", net])
            assert main(["eval", net, pts]) == code == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 23, peak
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()  # one diagnostic from each command
        assert len(lines) == 2 and all(diagnostic(line)["error"] == "TooLarge" for line in lines)

    def test_structure_requires_net(self, capsys):
        assert main(["audit", "--check", "structure"]) == 2


class TestApprox:
    def test_mean(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code = main(
            ["approx", "--fn", "mean", "--d", "2", "--L", "1", "--eps", "0.2",
             "--probes", "2000", "-o", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        sup = float(stdout.split("sup error over 2000 probes: ")[1].split()[0])
        assert sup <= 0.2
        assert load_network(out).monotone_flag

    def test_constant(self, capsys):
        assert main(["approx", "--fn", "constant:0.7", "--d", "1", "--L", "1", "--eps", "0.25",
                     "--probes", "100"]) == 0
        assert "sup error over 100 probes: 0" in capsys.readouterr().out

    def test_table_function(self, tmp_path, capsys):
        table = write(tmp_path / "table.csv", "0,0\n0.5,0.5\n1,1\n")
        assert main(["approx", "--table", table, "--d", "1", "--L", "1", "--eps", "0.5"]) == 0

    def test_rise_past_the_float_range_warns_only_of_g(self, tmp_path, capsys):
        # the grid at d = 2, eps 1 is 0, 0.707, 1 per axis: each axis step is 1e308, the cell's rise inf
        table = write(tmp_path / "table.csv", "0,0,-1e308\n0.7,0,0\n0,0.7,0\n0.7,0.7,1e308\n")
        assert main(["approx", "--table", table, "--d", "2", "--L", "1", "--eps", "1"]) == 0
        warning, config = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: ") and "G = inf" in warning
        assert config.startswith("d: 2  ")

    def test_g_warning_is_one_stderr_line(self, capsys):
        # the library raises a UserWarning; the CLI prints its message alone, with no source path or line
        assert main(["approx", "--fn", "sqrt", "--d", "1", "--L", "1", "--eps", "0.01"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: the error bound G = 0.1 exceeds eps 0.01: grid samples rise by more than eps across a "
            "grid cell, so the declared Lipschitz bound 1 does not hold",
            "d: 1  L: 1.0  eps: 0.01  seed: 1729",
        ]

    @pytest.mark.parametrize("action, lines", [("ignore", 1), ("always", 2)])
    def test_g_warning_follows_the_callers_filters(self, action, lines, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert main(["approx", "--fn", "sqrt", "--d", "1", "--L", "1", "--eps", "0.01"]) == 0
        assert len(capsys.readouterr().err.splitlines()) == lines
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="G = 0.1"):
                main(["approx", "--fn", "sqrt", "--d", "1", "--L", "1", "--eps", "0.01"])

    def test_table_that_cannot_be_built_is_refused_without_a_warning(self, tmp_path, capsys):
        # the two labels' step overflows the float range, so the network cannot be built
        table = write(tmp_path / "table.csv", "0,-1e308\n1,1e308\n")
        assert main(["approx", "--table", table, "--d", "1", "--L", "1", "--eps", "0.5"]) == 2
        assert diagnostic(capsys.readouterr().err)["error"] == "InvalidNumber"  # its one line: no warning

    def test_table_with_a_nan_value_refused(self, tmp_path, capsys):
        table = write(tmp_path / "table.csv", "0,0\n0.5,nan\n1,1\n")
        assert main(["approx", "--table", table, "--d", "1", "--L", "1", "--eps", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and diagnostic(captured.err)["error"] == "InvalidNumber"

    def test_table_with_a_nan_coordinate_refused(self, tmp_path, capsys):
        table = write(tmp_path / "table.csv", "0.1,0.2,1.0\nnan,0.2,2.0\n0.5,0.5,1.5\n")
        assert main(["approx", "--table", table, "--d", "2", "--L", "1", "--eps", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and diagnostic(captured.err)["error"] == "InvalidNumber"

    @pytest.mark.parametrize("table", ["0,0,0,0\n1,1,1,1\n", "0,0\n1,1\n"])
    def test_table_dimension_must_match_d(self, tmp_path, table, capsys):
        path = write(tmp_path / "table.csv", table)
        assert main(["approx", "--table", path, "--d", "2", "--L", "1", "--eps", "0.5",
                     "--probes", "10"]) == 2
        assert diagnostic(capsys.readouterr().err)["error"] == "DimensionMismatch"

    def test_fn_and_table_conflict(self, capsys):
        assert main(["approx", "--fn", "mean", "--table", "x.csv", "--d", "1", "--L", "1",
                     "--eps", "0.5"]) == 2
        assert diagnostic(capsys.readouterr().err)["error"] == "InvalidArgument"

    @pytest.mark.parametrize("config, target", [
        (None, []),
        ({"fn": "mean"}, ["--table", "x.csv"]),
    ], ids=["neither", "config-fn-and-table"])
    def test_exactly_one_of_fn_and_table(self, tmp_path, capsys, config, target):
        argv = ["approx", *target, "--d", "1", "--L", "1", "--eps", "0.5"]
        if config is not None:
            argv = ["--config", write(tmp_path / "cfg.json", json.dumps(config)), *argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert diagnostic(captured.err)["error"] == "InvalidArgument"

    def test_budget_exit_2(self, capsys):
        assert main(["approx", "--fn", "mean", "--d", "3", "--L", "1", "--eps", "0.001"]) == 2

    def test_probes_past_the_work_cap_refused_at_once(self, capsys):
        # 2e9 probes of 30 kept points at d = 2 plan 1.2e11 comparisons; the probes were 32 GB at once
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main("approx --fn min --d 2 --L 1 --eps 0.05 --probes 2000000000".split())
            wall, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and wall < 1 and peak < 4 << 20, (wall, peak)
        captured = capsys.readouterr()
        assert captured.out == "" and diagnostic(captured.err)["error"] == "TooLarge"
        assert main("approx --fn min --d 2 --L 1 --eps 0.05 --probes 100".split()) == 0

    @pytest.mark.parametrize("fn, d", [("mean", 2), ("min", 3)])
    def test_probes_drawn_in_blocks_give_the_line_of_one_batch(self, monkeypatch, capsys, fn, d):
        argv = f"approx --fn {fn} --d {d} --L 1 --eps 0.2 --probes 1000".split()
        net = build_approximator(resolve_function(fn), d, 1.0, 0.2)
        probes = np.random.default_rng(1729).random((1000, d))  # the default seed, all at once
        sup = float(np.abs(net.evaluate_batch(probes) - resolve_function(fn)(probes)).max())
        monkeypatch.setattr(core, "WORKING_SET_BYTES", 8 * (d + 3) * 37)  # blocks of 37 probes
        blocks = []
        evaluate = core.ThresholdNetwork.evaluate_batch
        monkeypatch.setattr(core.ThresholdNetwork, "evaluate_batch",
                            lambda self, X: blocks.append(len(X)) or evaluate(self, X))
        assert main(argv) == 0
        assert blocks == [37] * 27 + [1]
        assert capsys.readouterr().out.splitlines()[-1] == f"sup error over 1000 probes: {sup:.6g}"

    def test_many_probes_run_within_one_block(self, capsys):
        # mean keeps all 46,656 grid points: 2,000 probes of 46,656 output units
        # are 840 MB of bools and their float64 cast if kept whole
        tracemalloc.start()
        try:
            code = main("approx --fn mean --d 3 --L 1 --eps 0.05 --probes 2000".split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1 << 26, peak
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("sup error over 2000 probes: ") and float(last.split()[-1]) <= 0.05

    @pytest.mark.parametrize("eps", ["1e-8", "1e-320"])
    def test_fine_grid_refused_quickly(self, eps, capsys):
        start = time.perf_counter()
        assert main(["approx", "--fn", "linear", "--d", "1", "--L", "1", "--eps", eps]) == 2
        assert time.perf_counter() - start < 1.0
        assert diagnostic(capsys.readouterr().err)["error"] == "GridTooLarge"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 25, "seed": 11, "d": 3}))
        assert main(["--config", str(cfg), "audit", "--check", "depth2"]) == 0
        assert "seed: 11  samples: 25  d: 3" in capsys.readouterr().err
        assert main(["--config", str(cfg), "audit", "--check", "depth2", "--seed", "5"]) == 0
        assert "seed: 5  samples: 25" in capsys.readouterr().err

    def test_config_can_satisfy_required_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "p": "0.5", "mode": "exact"}))
        assert main(["--config", str(cfg), "matchprob"]) == 0
        assert capsys.readouterr().out.strip() == "0.4375"

    def test_config_defaults_stay_in_their_call(self, tmp_path, capsys):
        # every call shares one parser; a config call must not leave its values in it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "estimate", "eps": 0.2, "seed": 11, "samples": 25}))
        plain = ["matchprob", "--n", "2", "--p", "0.5"]
        for argv in (plain, ["--config", str(cfg), *plain], plain):
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert ("config: bits=" in captured.err) == (argv is not plain)
            if argv is plain:
                assert captured.out == "0.4375\n"
        assert main(["audit", "--check", "depth2"]) == 0
        assert "seed: 1729  samples: 1000  d: 2" in capsys.readouterr().err
        assert cli._parser() is cli._parser()

    def test_unknown_key_warns(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1, "n": 2, "p": "1", "mode": "exact"}))
        assert main(["--config", str(cfg), "matchprob"]) == 0
        assert "bogus" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["--config", str(cfg), "matchprob", "--n", "1", "--p", "1"]) == 2

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "matchprob",
                     "--n", "1", "--p", "1"]) == 1

    @pytest.mark.parametrize("doc, argv", [
        ({"samples": None}, ["audit", "--check", "depth2"]),
        ({"d": 2.5}, ["audit", "--check", "depth2"]),
        ({"seed": -1}, ["audit", "--check", "depth2", "--samples", "2"]),
        ({"check": "bogus", "samples": 2}, ["audit"]),
        ({"samples": True}, ["audit", "--check", "depth2"]),
        ({"samples": [2]}, ["audit", "--check", "depth2"]),
        ({"box": [0, 1, 2]}, ["audit", "--check", "convexity", "--samples", "2"]),
        ({"box": "0 1"}, ["audit", "--check", "convexity", "--samples", "2"]),
        ({"fail_prob": "often"}, ["matchprob", "--n", "1", "--p", "1", "--mode", "estimate"]),
        ({"n": {"value": 2}}, ["matchprob", "--p", "0.5"]),
    ])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, doc, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert diagnostic(captured.err)["error"] == "InvalidArgument"

    def test_explicit_box_beats_the_config_box(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        save_network(ThresholdNetwork((ThresholdLayer([[1.0]], [0.5]),), [1.0], 0.0), net)
        cfg = write(tmp_path / "cfg.json", json.dumps({"box": [1, 0]}))
        argv = ["--config", cfg, "audit", "--check", "monotone", "--net", str(net), "--samples", "5"]
        assert main(argv) == 2
        assert "box needs lo <= hi, got (1.0, 0.0)" in diagnostic(capsys.readouterr().err)["message"]
        assert main([*argv, "--box", "0", "1"]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_another_subcommands_key_is_ignored(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({"fail_prob": "often", "ordered": 3}))
        assert main(["--config", cfg, "audit", "--check", "depth2", "--samples", "2"]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_a_value_that_starts_with_a_dash_stays_a_value(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({"p": "-0.5", "n": 2}))
        assert main(["--config", cfg, "matchprob"]) == 2
        doc = diagnostic(capsys.readouterr().err)
        assert doc == {"error": "InvalidArgument", "message": "edge probabilities must lie in [0, 1]"}
        cfg = write(tmp_path / "cfg.json", json.dumps({"box": [-1e-7, 1], "samples": 2}))
        assert main(["--config", cfg, "audit", "--check", "convexity"]) == 0

    def test_type_errors_name_the_flag(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({"seed": -1}))
        assert main(["--config", cfg, "audit", "--check", "depth2", "--samples", "2"]) == 2
        message = diagnostic(capsys.readouterr().err)["message"]
        assert message == "argument --seed: must be >= 0, got -1"

    def test_config_values_are_converted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "p": 0.5, "box": [0, 2], "seed": 3}))
        assert main(["--config", str(cfg), "matchprob", "--mode", "exact"]) == 0
        assert capsys.readouterr().out.strip() == "0.4375"
        chain = write(tmp_path / "chain.csv", "0,0,0\n1,1,1\n")
        cfg.write_text(json.dumps({"ordered": "force-general"}))
        out = tmp_path / "net.json"
        assert main(["--config", str(cfg), "synth", chain, "-o", str(out)]) == 0
        assert "builder: general" in capsys.readouterr().out
        assert load_network(out).is_exact


class TestFalsificationExitCode:
    def test_failing_campaign_exits_3(self, monkeypatch, capsys):
        from mononet import audit as audit_mod
        from mononet.audit import AuditReport

        def fake_campaign(d, samples, seed):
            return AuditReport("depth2", passed=False, witness={"sample_index": 0},
                               samples=samples, seed=seed)

        monkeypatch.setattr(audit_mod, "run_depth2_campaign", fake_campaign)
        code = main(["audit", "--check", "depth2", "--samples", "1", "--seed", "0"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out


class TestMatchprob:
    def test_exact(self, capsys):
        assert main(["matchprob", "--n", "2", "--p", "0.5", "--mode", "exact"]) == 0
        assert capsys.readouterr().out.strip() == "0.4375"

    def test_estimate_deterministic(self, capsys):
        args = ["matchprob", "--n", "2", "--p", "0.5", "--mode", "estimate",
                "--eps", "0.2", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        value = float(first.strip())
        assert abs(value - 0.4375) <= 0.2

    @pytest.mark.parametrize("n, expected", [
        (3, "0.463768115942029"),
        (8, "0.9290540540540541"),
        (9, "0.9626890756302521"),
        (12, "0.9942703067071116"),
    ])
    def test_estimate_stdout_is_pinned(self, n, expected, capsys):
        # the draw stream and the sample count fix the output for a seed
        args = ["matchprob", "--n", str(n), "--p", "0.5", "--mode", "estimate", "--seed", "7"]
        assert main(args) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_matrix_csv(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "1,0\n0,1\n")
        assert main(["matchprob", "--n", "2", "--p", str(path), "--mode", "exact"]) == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_size_mismatch(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "1,0\n0,1\n")
        assert main(["matchprob", "--n", "3", "--p", str(path), "--mode", "exact"]) == 2

    def test_too_large_exit_2(self, capsys):
        assert main(["matchprob", "--n", "6", "--p", "0.5", "--mode", "exact"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--n", "2", "--p", "1.5"],
        ["--n", "2", "--p", "nan"],
        ["--n", "0", "--p", "0.5"],
    ])
    def test_bad_scalar_p_is_invalid_not_a_path(self, argv, capsys):
        assert main(["matchprob", *argv]) == 2
        assert diagnostic(capsys.readouterr().err)["error"] == "InvalidArgument"

    def test_large_n_refused_before_enumerating(self, capsys):
        start = time.perf_counter()
        assert main(["matchprob", "--n", "9", "--p", "0.5"]) == 2
        assert time.perf_counter() - start < 1.0
        assert diagnostic(capsys.readouterr().err)["error"] == "TooLarge"

    def test_small_eps_refused_before_sampling(self, capsys):
        start = time.perf_counter()
        argv = ["matchprob", "--n", "2", "--p", "0.5", "--mode", "estimate", "--eps", "1e-6"]
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert diagnostic(captured.err)["error"] == "TooLarge"

    def test_default_eps_at_n_64_is_not_refused(self, capsys):
        # p = 1 has one graph, so only the draws cost time; the budget
        # depends on n and the sample count alone, not on p
        assert main(["matchprob", "--n", "64", "--p", "1.0", "--mode", "estimate"]) == 0
        assert capsys.readouterr().out == "1.0\n"

    def test_large_n_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = main(["matchprob", "--n", "4000", "--p", "0.5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert diagnostic(capsys.readouterr().err)["error"] == "TooLarge"

    def test_limit_flag_is_gone(self, capsys):
        assert main(["matchprob", "--n", "9", "--p", "0.5", "--limit", "9"]) == 2
        doc = diagnostic(capsys.readouterr().err)
        assert doc["error"] == "InvalidArgument"
        assert "unrecognized arguments: --limit 9" in doc["message"]


class TestInvalidInput:
    @pytest.mark.parametrize("argv", [
        "approx --fn nope --d 1 --L 1 --eps 0.5",
        "approx --fn mean --d 1 --L 1 --eps 0",
        "matchprob --n 3 --p 0.5 --mode estimate --eps 2",
        "audit --check depth2 --samples -1",
        "audit --check convexity --samples 0",
        "audit --check chain-width --samples 0",
        "audit --check bogus",
        "approx --fn mean --d 1 --L 1 --eps 0.5 --probes=--",
        "approx --fn mean --d 1 --L=-- --eps 0.5",
        "approx --fn mean --d 1 --L 1 --eps 0.5 --probes -5",
        "approx --fn constant:inf --d 1 --L 1 --eps 0.1",
        "matchprob --n 2 --p 0.5 --mode estimate --eps 1e-155",
        "matchprob --n 2 --p 0.5 --mode estimate --eps 1e-300",
        "audit --check monotone --net {data}/v2_network.json --box 0 inf",
        "audit --check monotone --net {data}/v2_network.json --samples 2000000000",
        "",
    ])
    def test_exit_2_with_one_json_line(self, argv, capsys):
        # a warning would print on stderr ahead of the diagnostic; here it raises instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv.format(data=Path(__file__).parent / "data").split()) == 2
        diagnostic(capsys.readouterr().err)

    @pytest.mark.parametrize("argv, message", [
        ("audit --check monotone --net {data}/v2_network.json --box -1e-3 1 --samples 20", None),
        ("approx --fn mean --d 1 --L -1e-3 --eps 0.5", "Lipschitz bound must be positive and finite"),
        ("approx --fn mean --d 1 --L 1 --eps -1e-3", "accuracy must be positive and finite"),
    ])
    def test_negative_exponent_numbers_are_values(self, argv, message, capsys):
        code = main(argv.format(data=Path(__file__).parent / "data").split())
        if message is None:
            assert code == 0
            assert "verdict: pass" in capsys.readouterr().out
        else:
            assert code == 2
            assert diagnostic(capsys.readouterr().err)["message"].startswith(message)

    def test_p_that_float_refuses_names_a_file(self, tmp_path, monkeypatch, capsys):
        # str.split would drop the leading \x1c, but float() does not strip it
        monkeypatch.chdir(tmp_path)
        assert main(["matchprob", "--n", "2", "--p", "\x1c0.5"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_constant_that_float_refuses_is_unknown(self, capsys):
        assert main(["approx", "--fn", "constant:\x1f0.5", "--d", "1", "--L", "1", "--eps", "0.5"]) == 2
        assert diagnostic(capsys.readouterr().err)["message"].startswith("unknown function")

    @pytest.mark.parametrize("argv", [
        "eval {deep} {points}",
        "audit --check structure --net {deep}",
        "--config {deep} matchprob --n 1 --p 1",
        "eval {latin1_json} {points}",
        "eval {net} {latin1_csv}",
        "synth {latin1_csv} -o {out}",
    ], ids=["eval-deep", "audit-deep", "config-deep", "eval-latin1-network", "eval-latin1-points",
            "synth-latin1"])
    def test_hostile_file_exit_2_with_one_json_line(self, tmp_path, spread_csv, argv, capsys):
        depth = 200_000  # far past the recursion limit of the JSON parser
        files = {
            "deep": write(tmp_path / "deep.json", "[" * depth + "]" * depth),
            "latin1_json": str(tmp_path / "latin1.json"),
            "latin1_csv": str(tmp_path / "latin1.csv"),
            "points": write(tmp_path / "pts.csv", "1,2\n"),
            "net": str(tmp_path / "net.json"),
            "out": str(tmp_path / "out.json"),
        }
        Path(files["latin1_json"]).write_bytes('{"version": 3, "name": "caf\u00e9"}'.encode("latin-1"))
        Path(files["latin1_csv"]).write_bytes("x\u00e9,y\n1,2\n".encode("latin-1"))
        assert main(["synth", spread_csv, "-o", files["net"]]) == 0
        capsys.readouterr()
        assert main(argv.format(**files).split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert diagnostic(captured.err)["error"] == "SchemaError"


# Valid small invocations; the property test below makes exactly one of their
# values (or one extra flag) invalid, so no drawn command can run for long.
VALID_ARGS = {
    "audit": {"--check": "depth2", "--d": "2", "--samples": "2"},
    "approx": {"--fn": "mean", "--d": "1", "--L": "1", "--eps": "0.5", "--probes": "2"},
    "matchprob": {"--n": "2", "--p": "0.5", "--mode": "estimate", "--eps": "0.5",
                  "--fail-prob": "0.5"},
}
WORDS = ["abc", "two", "1.5.2", "0x10", "1e"]
NON_FINITE = ["nan", "inf", "-inf"]


def bad_int(max_value):
    return st.integers(-10**9, max_value).map(str) | st.sampled_from(WORDS + NON_FINITE + ["1.5"])


def bad_float(valid):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return finite.filter(lambda x: not valid(x)).map(repr) | st.sampled_from(WORDS + NON_FINITE)


def bad_choice(choices):
    return st.text(string.ascii_letters, min_size=1, max_size=8).filter(lambda t: t not in choices)


BAD_VALUES = {
    "audit": {
        "--check": bad_choice({"structure", "monotone", "convexity", "depth2", "chain-width"}),
        "--d": bad_int(1),
        "--samples": bad_int(0),
        "--seed": bad_int(-1),
        "--format": bad_choice({"table", "json"}),
    },
    "approx": {
        "--fn": bad_choice(set(BUILTIN_FUNCTIONS)) | st.sampled_from(WORDS).map("constant:".__add__),
        "--d": bad_int(0),
        "--L": bad_float(lambda x: x > 0),
        "--eps": bad_float(lambda x: x > 0),
        "--probes": bad_int(-1),
        "--budget": bad_int(0),
        "--seed": bad_int(-1),
    },
    "matchprob": {
        "--n": bad_int(0),
        "--p": bad_float(lambda x: 0 <= x <= 1).filter(lambda t: t not in WORDS),
        "--mode": bad_choice({"exact", "estimate"}),
        "--eps": bad_float(lambda x: 0 < x < 1),
        "--fail-prob": bad_float(lambda x: 0 < x < 1),
        "--seed": bad_int(-1),
    },
}


@st.composite
def invalid_argv(draw):
    command = draw(st.sampled_from(sorted(VALID_ARGS)))
    args = dict(VALID_ARGS[command])
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(BAD_VALUES[command])))
        args[flag] = draw(BAD_VALUES[command][flag])
        extra = []
    else:
        extra = ["--zz" + draw(st.text(string.ascii_lowercase, max_size=6)), "9"]
    return [command, *(t for kv in args.items() for t in kv), *extra]


@settings(max_examples=150, deadline=None)
@given(invalid_argv())
def test_invalid_argv_exits_2_with_one_json_line(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 2, (argv, stdout.getvalue(), stderr.getvalue())
    diagnostic(stderr.getvalue())


# Config documents for a bare subcommand: the valid values below, with some keys
# redrawn.  Drawn numbers stay small, so a run that is valid finishes fast.  The
# flags that write files (-o, --trace) are left out, so a run writes nothing.
VALID_CONFIG = {
    "audit": {"check": "depth2", "d": 2, "samples": 2},
    "approx": {"fn": "mean", "d": 1, "L": 1, "eps": 0.5, "probes": 2},
    "matchprob": {"n": 2, "p": 0.5, "mode": "estimate", "eps": 0.5, "fail_prob": 0.5},
}
CONFIG_KEYS = sorted({"check", "net", "d", "samples", "seed", "box", "format", "fn", "table",
                      "L", "eps", "probes", "budget", "n", "p", "mode", "fail_prob", "fail-prob",
                      "ordered", "help", "config", "command", "handler", "zz"})
CONFIG_SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.5])
    | st.sampled_from(["depth2", "monotone", "exact", "mean", "nope.csv", "0.5", "", "é", "--"])
    | st.text(string.ascii_letters + string.digits + ".-= ", max_size=6).map("-".__add__)
)
CONFIG_VALUES = st.recursive(
    CONFIG_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def config_file(draw):
    """The bytes of a config file: mostly a JSON object, sometimes a broken one."""
    command = draw(st.sampled_from(sorted(VALID_CONFIG)))
    doc = dict(VALID_CONFIG[command])
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=3)):
        doc[key] = draw(CONFIG_VALUES)
    text = json.dumps(doc, ensure_ascii=False)
    kind = draw(st.sampled_from(["json"] * 6 + ["latin-1", "truncated", "nested", "not-an-object"]))
    if kind == "latin-1":
        return command, text[:-1].encode("latin-1", "replace") + b', "caf\xe9": 1}'
    if kind == "truncated":
        return command, text[: draw(st.integers(0, len(text) - 1))].encode()
    if kind == "nested":
        depth = draw(st.sampled_from([3, 100_000]))
        return command, ("[" * depth + "]" * depth).encode()
    if kind == "not-an-object":
        return command, json.dumps(list(doc.items())).encode()
    return command, text.encode()


@settings(max_examples=150, deadline=None)
@given(config_file())
def test_any_config_file_exits_cleanly(tmp_path_factory, case):
    command, data = case
    path = tmp_path_factory.mktemp("config") / "cfg.json"
    path.write_bytes(data)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--config", str(path), command])
    err = stderr.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2), (data, code, err)
    assert "Traceback" not in err
    if code == 0:
        return
    lines = [line for line in err.splitlines() if not line.startswith("warning: config key ")]
    assert len(lines) == 1, (data, err)
    if code == 2:
        assert "error" in json.loads(lines[0])
    else:  # an I/O error: a drawn path to a network, table or matrix that does not exist
        assert lines[0].startswith("error: ")


def json_paths(doc, path=()):
    """The path of every key and list entry under ``doc``, at any depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from json_paths(value, (*path, key))


def valid_network_docs() -> list[dict]:
    """Two valid version-3 documents: a built (exact, weight-pattern) network and a dense float one."""
    built, _ = build_interpolator(validate_dataset([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]], [0.0, 0.0, 1.0]))
    first = ThresholdLayer([[1.0, 0.5], [0.25, 0.0]], [-0.5, -0.125])
    dense = ThresholdNetwork((first, ThresholdLayer([[1.0, 1.0]], [0.0], "relu")), [2.0], 0.5)
    return [network_to_dict(built), network_to_dict(dense)]


NETWORK_DOCS = valid_network_docs()
NETWORK_FIELDS = [
    (k, path)
    for k, doc in enumerate(NETWORK_DOCS)
    for path in json_paths({key: doc[key] for key in ("layers", "output", "version", "dimension", "exact")})
]
HOSTILE_VALUES = [None, True, False, 2**70, float("nan"), "abc", "", "1/0", [],
                  [[0.0], [0.0, 1.0]], [1.0, [2.0]]]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(NETWORK_FIELDS), st.sampled_from(HOSTILE_VALUES))
def test_hostile_network_json_exits_cleanly(tmp_path_factory, field, value):
    k, path = field
    doc = json.loads(json.dumps(NETWORK_DOCS[k]))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    base = tmp_path_factory.getbasetemp()
    net = base / "hostile.json"
    net.write_text(json.dumps(doc))
    points = write(base / "hostile_points.csv", "0.5,1.5\n2,2\n")
    for argv in (["eval", str(net), points],
                 ["audit", "--check", "structure", "--net", str(net)],
                 ["audit", "--check", "monotone", "--net", str(net), "--samples", "16"]):
        exits_cleanly(argv, (path, value))


def exits_cleanly(argv: list[str], case) -> int:
    """Run ``main(argv)`` in process: exit 0, or 1 or 2 with one line on stderr and no traceback."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2), (case, argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        return code
    # a warning prints a line of its own on stderr ahead of the diagnostic
    lines = err.splitlines() + [str(w.message) for w in caught]
    assert len(lines) == 1, (case, argv, lines)
    if code == 2:
        assert "error" in json.loads(lines[0])
    else:
        assert lines[0].startswith("error: ")
    return code


@pytest.fixture(scope="module")
def net_2d(tmp_path_factory) -> str:
    """A network built by ``synth`` on two input coordinates, for ``eval`` on drawn points."""
    base = tmp_path_factory.mktemp("net_2d")
    data = write(base / "data.csv", "0,1,0\n1,0,0\n1,1,1\n")
    assert main(["synth", data, "-o", str(base / "net.json")]) == 0
    return str(base / "net.json")


@settings(max_examples=300, deadline=None)
@given(csv_bytes())
def test_hostile_csv_exits_cleanly(tmp_path_factory, net_2d, data):
    base = tmp_path_factory.getbasetemp()
    path = base / "hostile.csv"
    path.write_bytes(data)
    for argv in (["synth", str(path), "-o", str(base / "hostile_net.json")], ["eval", net_2d, str(path)]):
        event(f"{argv[0]} exit {exits_cleanly(argv, data)}")
