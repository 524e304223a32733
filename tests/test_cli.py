import contextlib
import io
import json
import string
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mononet.approx import BUILTIN_FUNCTIONS
from mononet.cli import main
from mononet.core import ThresholdLayer, ThresholdNetwork
from mononet.io import load_network, save_network


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

    def test_dimension_mismatch_exit_2(self, tmp_path, spread_csv, capsys):
        out = tmp_path / "net.json"
        main(["synth", spread_csv, "-o", str(out)])
        pts = write(tmp_path / "pts.csv", "1,2,3\n")
        assert main(["eval", str(out), pts]) == 2


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

    def test_fn_and_table_conflict(self, capsys):
        assert main(["approx", "--fn", "mean", "--table", "x.csv", "--d", "1", "--L", "1",
                     "--eps", "0.5"]) == 2

    def test_budget_exit_2(self, capsys):
        assert main(["approx", "--fn", "mean", "--d", "3", "--L", "1", "--eps", "0.001"]) == 2

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
        (3, "0.48039975876626173"),
        (8, "0.9307458143074582"),
        (9, "0.9623790241520921"),
        (12, "0.9937250509749863"),
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
        "",
    ])
    def test_exit_2_with_one_json_line(self, argv, capsys):
        assert main(argv.split()) == 2
        diagnostic(capsys.readouterr().err)


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
