"""tools/bench_pairs.py on a stub benchmark in a throwaway git repository.

The stub ``perfbench/run.py`` prints one result line whose values are
fixed by the tree it runs in and the seed, and logs each run, so the
alternation, the win counting and the JSON record can be checked exactly.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 25,
    "workloads": [{"name": "stub-a"}, {"name": "stub-b"}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    ],
}

# SIDE is rewritten per tree; ops_per_s is 100 + seed at the base and 110 + seed
# at the change, latency ties, and peak RSS is lower at the change on odd seeds
STUB = """
import json, os, sys
SIDE = {side!r}
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open(os.environ["BENCH_STUB_LOG"], "a") as log:
    log.write(f"{{SIDE}} {{args['--workload']}} {{seed}} {{args['--seconds']}} {{args['--trace']}}\\n")
ops = (110 if SIDE == "change" else 100) + seed
rss = 40 - (SIDE == "change") * (seed % 2)
metrics = {{"ops_per_s": ops, "latency_ms.p50": 2.0, "peak_rss_mb": rss}}
print("progress")
print(json.dumps({{"correct": True, "attempted": seed, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": "u"}} for k, v in metrics.items()}}}}))
"""


def write_stub(root: Path, side: str) -> None:
    (root / "perfbench").mkdir(exist_ok=True)
    (root / "perfbench" / "run.py").write_text(STUB.format(side=side))


GIT = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]


def commit(root: Path, message: str) -> str:
    subprocess.run(GIT + ["add", "-A"], cwd=root, check=True)
    subprocess.run(GIT + ["commit", "-q", "-m", message], cwd=root, check=True)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A repository whose HEAD~1 runs the base stub and HEAD the change stub."""
    root = tmp_path / "repo"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    write_stub(root, "base")
    subprocess.run(GIT + ["init", "-q"], cwd=root, check=True)
    commit(root, "base")
    write_stub(root, "change")
    commit(root, "change")
    log = tmp_path / "runs.log"
    monkeypatch.setenv("BENCH_STUB_LOG", str(log))
    return root, log


def test_pairs_alternate_and_count_wins(repo):
    root, log = repo
    assert bench_pairs.main(["HEAD~1", "--pairs", "4"], root=root) == 0
    runs = [line.split() for line in log.read_text().splitlines()]
    # each workload in turn; the base first in odd pairs, the change first in even ones
    assert [(side, w, int(seed)) for side, w, seed, _, _ in runs] == [
        (side, w, seed)
        for w in ("stub-a", "stub-b")
        for seed in range(1, 5)
        for side in (("base", "change") if seed % 2 else ("change", "base"))
    ]
    assert {(s, t) for *_, s, t in runs} == {("25", "0")}  # run_seconds, untraced

    record = json.loads((root / "BENCH_pairs.json").read_text())
    rev = lambda name: subprocess.run(["git", "rev-parse", name], cwd=root, capture_output=True,
                                      text=True, check=True).stdout.strip()
    assert record["base"] == {"rev": "HEAD~1", "commit": rev("HEAD~1")}
    assert record["change"] == {"commit": rev("HEAD"), "dirty": False}
    for side in ("HEAD~1", "HEAD"):  # both sides run from an archived tree
        assert (root / ".bench_pairs" / rev(side) / "perfbench" / "run.py").is_file()
    assert set(record["workloads"]) == {"stub-a", "stub-b"}
    assert record["command"].endswith("--seconds 25 --trace 0")
    stub = record["workloads"]["stub-a"]
    assert stub["runs"][1] == {
        "seed": 2, "first": "change",
        "base": {"correct": True, "attempted": 2, "failed": 0},
        "change": {"correct": True, "attempted": 2, "failed": 0},
    }
    ops = stub["metrics"]["ops_per_s"]
    assert ops["base"] == [101, 102, 103, 104] and ops["change"] == [111, 112, 113, 114]
    assert ops["wins"] == 4 and ops["pairs"] == 4 and ops["better"] == "higher"
    assert ops["median"] == {"base": 102.5, "change": 112.5}
    assert ops["quartiles"]["base"] == [101.75, 102.5, 103.25]
    assert stub["metrics"]["latency_ms.p50"]["wins"] == 0  # ties win for neither
    rss = stub["metrics"]["peak_rss_mb"]
    assert rss["change"] == [39, 40, 39, 40] and rss["wins"] == 2  # lower is better


def test_summarize_counts_wins_by_direction():
    def result(**values):
        return {"metrics": {k: {"value": v} for k, v in values.items()}}

    pairs = [
        {"base": result(up=1.0, down=5.0), "change": result(up=2.0, down=6.0)},
        {"base": result(up=3.0, down=5.0), "change": result(up=2.0, down=4.0)},
        {"base": result(up=2.0, down=5.0), "change": result(up=2.0, down=5.0)},
    ]
    metrics = [{"name": "up", "unit": "u", "better": "higher"},
               {"name": "down", "unit": "u", "better": "lower"}]
    got = bench_pairs.summarize(pairs, metrics)
    assert got["up"]["wins"] == 1 and got["down"]["wins"] == 1
    assert got["down"]["median"] == {"base": 5.0, "change": 5.0}
    assert got["down"]["quartiles"]["change"] == [4.5, 5.0, 5.5]


def test_uncommitted_changes_are_recorded_and_not_run(repo):
    root, log = repo
    write_stub(root, "dirty")
    assert bench_pairs.main(["HEAD~1", "--workload", "stub-a", "--pairs", "2"], root=root) == 0
    assert {line.split()[0] for line in log.read_text().splitlines()} == {"base", "change"}
    assert json.loads((root / "BENCH_pairs.json").read_text())["change"]["dirty"] is True


def test_one_workload(repo):
    root, log = repo
    assert bench_pairs.main(["HEAD~1", "--workload", "stub-b", "--pairs", "2"], root=root) == 0
    assert {line.split()[1] for line in log.read_text().splitlines()} == {"stub-b"}
    record = json.loads((root / "BENCH_pairs.json").read_text())
    assert list(record["workloads"]) == ["stub-b"]


def test_too_few_pairs_refused(repo):
    root, _ = repo
    with pytest.raises(SystemExit):
        bench_pairs.main(["HEAD~1", "--pairs", "1"], root=root)
    assert not (root / "BENCH_pairs.json").exists()


@pytest.mark.parametrize("argv", [["no-such-rev"], ["HEAD~1", "--workload", "no-such-workload"]],
                         ids=["unknown-rev", "unknown-workload"])
def test_bad_input_refused_before_any_tree_is_extracted(repo, argv, capsys):
    root, log = repo
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(argv, root=root)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err.splitlines()[-1] and "Traceback" not in err
    assert not (root / ".bench_pairs").exists() and not log.exists()
    assert not (root / "BENCH_pairs.json").exists()
