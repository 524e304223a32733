"""Write BENCH_pairs.json: the benchmark in alternating pairs, a git revision against this checkout.

Run from anywhere:

    python3 tools/bench_pairs.py REV [--workload W] [--pairs N]

``REV`` (the base) and ``HEAD`` (the change) are each extracted with
``git archive`` into ``.bench_pairs/<commit>/`` inside the checkout, which
git ignores, so both sides run from the same kind of fresh tree and each
benchmark writes only there.  Uncommitted changes are not measured; the
record says whether the checkout had any.  Pair k (seed k) runs
``perfbench/run.py --workload W --seed k --seconds S --trace 0``, with S
the ``run_seconds`` of ``BENCHMARK.json``, once in each tree, one run at a
time.  The base runs first in odd pairs and the change in even
ones, so a drift of the host in time falls on both sides alike.  By
default every workload of ``BENCHMARK.json`` runs, 10 pairs each.

Per workload and end-to-end metric of ``BENCHMARK.json``, the record
holds both sides' values pair by pair, the pairs the change won in the
metric's ``better`` direction (a tie wins for neither), and each side's
median and quartiles; per run, ``correct``, ``attempted`` and ``failed``.
A claim of a gain needs its wins and the gap of the medians against the
base's spread; the tool computes both and judges neither.  Standard
library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout


def extract(root: Path, commit: str) -> Path:
    """The tree of ``commit``, extracted once under ``root/.bench_pairs``."""
    tree = root / ".bench_pairs" / commit
    if not tree.is_dir():
        partial = tree.with_name(commit + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", commit], cwd=root, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(partial)], input=archive.stdout, check=True)
        partial.rename(tree)
    return tree


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: the JSON result on the last line of its stdout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(pairs: list, metrics: list) -> dict:
    """Per end-to-end metric: both sides' values, the change's wins, medians and quartiles.

    ``pairs`` holds one ``{"base": result, "change": result}`` per pair;
    ``metrics`` is ``BENCHMARK.json``'s ``end_to_end`` list.
    """
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **values,
            "wins": wins,
            "pairs": len(pairs),
            "median": {side: statistics.median(values[side]) for side in SIDES},
            "quartiles": {side: statistics.quantiles(values[side], n=4, method="inclusive")
                          for side in SIDES},
        }
    return out


def main(argv=None, root: Path = ROOT) -> int:
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the base: any git revision")
    parser.add_argument("--workload", choices=names, help="one workload; default all")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    workloads = [args.workload] if args.workload else names
    seconds = bench["run_seconds"]
    try:
        commit = git(root, "rev-parse", "--verify", "--quiet", args.rev + "^{commit}").strip()
    except subprocess.CalledProcessError:
        parser.error(f"{args.rev!r} names no commit")
    head = git(root, "rev-parse", "HEAD").strip()
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_pairs.json").strip())
    if dirty:
        print("uncommitted changes are not measured: the change is HEAD", file=sys.stderr)
    trees = {"base": extract(root, commit), "change": extract(root, head)}
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed K --seconds {seconds} --trace 0",
        "base": {"rev": args.rev, "commit": commit},
        # tracked files other than this record differed from HEAD, which is what ran
        "change": {"commit": head, "dirty": dirty},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "workloads": {},
    }
    for workload in workloads:
        pairs, runs = [], []
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {side: run(trees[side], workload, seed, seconds) for side in order}
            pairs.append(pair)
            runs.append({"seed": seed, "first": order[0],
                         **{side: {k: pair[side][k] for k in ("correct", "attempted", "failed")}
                            for side in SIDES}})
            print(workload, seed, *(f"{side} {pair[side]['metrics']['ops_per_s']['value']:.4g} ops/s"
                                    for side in order), file=sys.stderr, flush=True)
        record["workloads"][workload] = {"runs": runs, "metrics": summarize(pairs, bench["end_to_end"])}
    out = root / "BENCH_pairs.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
