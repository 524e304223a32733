"""Check CI's resource bounds: the exit code, wall time, peak RSS and output of 18 fixed runs.

Run from the root of the repository, with no flags:

    PYTHONPATH=src python tools/bounds.py

Each case runs ``python -c CODE ARGS`` in a child of its own, most of them
the ``mononet`` CLI, and is measured by ``os.wait4``: wall time from the
spawn to the reap, and the child's ``ru_maxrss``.  A child still running
at ``DEADLINE`` seconds, far above every bound, is killed and reaped and
its case fails, so a case that stops refusing cannot hang the job.  The
script prints one line per case and exits 1 if any case fails.

Linux carries a parent's peak RSS through ``exec`` into the child's
``ru_maxrss``, so this process stays small: it imports nothing beyond the
standard library, and a child writes the input files, with numpy.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional

DEADLINE = 60  # seconds
CLI = "import sys; from mononet.cli import main; sys.exit(main(sys.argv[1:]))"

# writes, into the directory argv[1], the 20,000-row table at d = 2 and a
# network file whose exact output stage is 1/p over 50,000 seven-digit primes
INPUTS = r"""
import json, sys
import numpy as np
tmp = sys.argv[1]
with open(f"{tmp}/table.csv", "w") as fh:
    fh.writelines(f"{a!r},{b!r},{y!r}\n" for a, b, y in np.random.default_rng(20000).random((20000, 3)).tolist())
sieve = np.ones(10**7, bool)
sieve[:2] = False
for p in range(2, 3163):
    if sieve[p]:
        sieve[p * p :: p] = False
primes = np.flatnonzero(sieve[10**6 :])[:50_000] + 10**6
n = len(primes)
layer = {"activation": "threshold", "kind": "select", "size": 1, "index": [0] * n, "biases": [0.0] * n}
doc = {"version": 3, "dimension": 1, "monotone_flag": True, "exact": True, "layers": [layer],
       "output": {"weights": [f"1/{p}" for p in primes.tolist()], "bias": "0/1"}}
with open(f"{tmp}/hostile.json", "w") as fh:
    json.dump(doc, fh)
"""

# the top-corner fall f(1, 1) = 1.5 below x0 + x1 at d = 2, eps 0.001
# (2,005,056 points) is refused without pairwise work
FALLING = """
import sys
from mononet.approx import build_approximator
from mononet.errors import MonotoneViolation
def f(X):
    values = X.sum(axis=1)
    values[(X == 1.0).all(axis=1)] = 1.5
    return values
try:
    build_approximator(f, 2, 1.0, 0.001)
except MonotoneViolation as err:
    print(err.first, err.second)
    sys.exit(0)
sys.exit(1)
"""

# the 1024-point spread dataset at d = 1023, one dominance index of 16 column
# blocks for all its rows; the child times validation alone
SPREAD = """
import time
from mononet.audit import depth2_counterexample
from mononet.core import validate_dataset
ds = depth2_counterexample(1023)
start = time.perf_counter()
validate_dataset(ds.points, ds.labels)
print(time.perf_counter() - start)
"""


class Run(NamedTuple):
    exit: int  # minus the signal number if a signal ended the child
    wall: float  # seconds
    mb: float  # peak RSS, ru_maxrss in MiB
    stdout: str
    stderr: str


class Case(NamedTuple):
    name: str
    code: str  # run as python -c code *args
    args: tuple = ()
    wall: Optional[float] = None  # seconds
    mb: Optional[float] = None
    exit: int = 0
    stdout: Optional[str] = None  # the exact stdout
    error: Optional[str] = None  # the error kind of the one JSON line on stderr
    timed: bool = False  # the child prints the seconds of its timed span, and the wall bound holds those


def measure(argv: list, deadline: float = DEADLINE) -> Run:
    """Run ``argv`` until it exits, or kill it at ``deadline`` seconds, and reap it."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err)
        pidfd = os.pidfd_open(child.pid)
        try:
            if not select.select([pidfd], [], [], deadline)[0]:
                os.kill(child.pid, signal.SIGKILL)  # not yet reaped, so the pid is still the child's
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen waits no more
        out.seek(0)
        err.seek(0)
        return Run(child.returncode, wall, usage.ru_maxrss / 1024,
                   out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def span(case: Case, run: Run) -> float:
    """The seconds that ``case.wall`` bounds: the child's timed span if ``case.timed``, else its wall."""
    if not case.timed:
        return run.wall
    try:
        return float(run.stdout)
    except ValueError:
        return float("inf")


def failures(case: Case, run: Run) -> list:
    """What ``run`` breaks of ``case``'s bounds; empty when it passes."""
    out = []
    if run.exit != case.exit:
        out.append(f"exit {run.exit}, expected {case.exit}")
    if case.wall is not None and span(case, run) > case.wall:
        out.append(f"{span(case, run):.2f} s over {case.wall} s")
    if case.mb is not None and run.mb > case.mb:
        out.append(f"{run.mb:.0f} MB over {case.mb} MB")
    if case.stdout is not None and run.stdout != case.stdout:
        out.append(f"stdout {run.stdout!r}, expected {case.stdout!r}")
    if case.error is not None:
        lines = run.stderr.splitlines()
        try:
            kind = json.loads(lines[0])["error"] if len(lines) == 1 else None
        except (ValueError, TypeError, KeyError):
            kind = None
        if kind != case.error:
            out.append(f"stderr {run.stderr.strip()!r}, expected one {case.error} line")
    return out


def cli(words: str, **bounds) -> Case:
    """A case that runs ``mononet`` with the whitespace-separated ``words``."""
    return Case(words, CLI, tuple(words.split()), **bounds)


def cases(tmp: str) -> list:
    """The table of cases; ``tmp`` holds the files ``INPUTS`` writes."""
    approx = [
        ("--fn mean --d 2 --L 1 --eps 0.01 --probes 1000", 5),
        ("--fn mean --d 3 --L 1 --eps 0.05 --probes 1000", 5),
        ("--fn constant:0.5 --d 2 --L 1 --eps 0.01 --probes 1000", 10),
        ("--fn linear --d 1 --L 1 --eps 1e-5", 5),
        (f"--fn linear --d 1 --L 1 --eps 1e-5 -o {tmp}/net.json", 5),
        ("--fn min --d 3 --L 1 --eps 0.05 --probes 2000", 10),
        ("--fn min --d 3 --L 1 --eps 0.05 --probes 20000", 3),
        (f"--table {tmp}/table.csv --d 2 --L 1 --eps 0.01 --probes 1000", 10),
    ]
    audits = ("--check depth2 --d 3 --samples 100000", "--check chain-width --samples 20000",
              "--check convexity --samples 5000")
    return [
        *(cli(f"approx {args}", wall=wall, mb=600) for args, wall in approx),
        Case("falling top-corner grid, d = 2, eps 0.001", FALLING, wall=5, mb=300),
        Case("validate_dataset(depth2_counterexample(1023)), timed in the child", SPREAD,
             wall=1, mb=200, timed=True),
        cli("matchprob --n 700 --p 0.5 --mode estimate --eps 0.05", mb=200, stdout="1.0\n"),
        *(cli(f"audit {args}", wall=5, mb=80) for args in audits),
        *(cli(f"audit --check {check} --samples 1000000000000", wall=1, exit=2, stdout="", error="TooLarge")
          for check in ("depth2", "convexity", "chain-width")),
        cli(f"audit --check structure --net {tmp}/hostile.json", wall=5, mb=80, exit=2, error="TooLarge"),
    ]


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-c", INPUTS, tmp], check=True)
        for case in cases(tmp):
            run = measure([sys.executable, "-c", case.code, *case.args])
            broken = failures(case, run)
            failed |= bool(broken)
            verdict = "FAILED: " + "; ".join(broken) if broken else "ok"
            print(f"{case.name}: exit {run.exit}, {span(case, run):.2f} s, {run.mb:.0f} MB peak RSS, {verdict}",
                  flush=True)
            if broken and run.stderr:
                print(run.stderr.rstrip(), flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
