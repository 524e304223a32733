"""Write BENCH_baseline.json: every benchmark workload, untraced, at seeds 31-33.

Run from anywhere, with no flags:

    python3 tools/bench_baseline.py

It runs ``perfbench/run.py --workload W --seed S --seconds 25 --trace 0``
for each workload and seed, one run at a time, and writes, per workload and
end-to-end metric, the three values with their median, minimum and
maximum, each run's ``correct``, ``attempted`` and ``failed``, and the
commit, Python version and numpy version they ran on.  Standard library
only.
"""

from __future__ import annotations

import importlib.metadata
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_baseline.json"
WORKLOADS = ("synth-eval", "audit", "match-exact", "match-estimate")
SEEDS = (31, 32, 33)
SECONDS = 25


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def run(workload: str, seed: int) -> dict:
    """One benchmark run: the JSON result on the last line of its stdout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    workloads = {}
    for workload in WORKLOADS:
        results = []
        for seed in SEEDS:
            results.append(run(workload, seed))
            print(workload, seed, json.dumps(results[-1]), file=sys.stderr, flush=True)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {
                "unit": first["unit"],
                "values": values,
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
            }
        runs = [{"seed": seed, **{k: r[k] for k in ("correct", "attempted", "failed")}}
                for seed, r in zip(SEEDS, results)]
        workloads[workload] = {"runs": runs, "metrics": metrics}
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "commit": git("rev-parse", "HEAD").strip(),
        # uncommitted changes to the measured code when it ran
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench").strip()),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "workloads": workloads,
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
