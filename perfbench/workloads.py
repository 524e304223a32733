"""The benchmark's workloads: seeded inputs, mononet command lines, checks.

Each workload's ``prepare(rng, workdir)`` draws one operation's inputs from
``rng``, writes them under ``workdir`` and returns a :class:`Case`: the argv
lists the operation passes to ``mononet.cli.main`` in order, a check that
turns their results into a list of failures (empty when correct), and the
output files whose sizes the traced run reports.  All inputs of one
workload have the same size, so operations differ only in their draws.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from oracles import (
    interpolant_closed_form,
    matching_probability_dp,
    truncate,
)


@dataclass(frozen=True)
class Result:
    """Exit code and captured output of one ``mononet.cli.main`` call."""

    code: int
    stdout: str
    stderr: str


@dataclass
class Case:
    commands: list[list[str]]
    check: Callable[[list[Result]], list[str]]
    sized_outputs: dict[str, Path] = field(default_factory=dict)


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _field(text: str, key: str) -> str:
    match = re.search(rf"^{re.escape(key)}:\s*(.*)$", text, re.MULTILINE)
    return match.group(1).strip() if match else ""


# -- synth-eval ----------------------------------------------------------------

SYNTH_N = 700
SYNTH_D = 4
SYNTH_LABEL_LEVELS = 16
SYNTH_EXTRA_QUERIES = 700
TOLERANCE = 1e-9


def prepare_synth_eval(rng: np.random.Generator, workdir: Path) -> Case:
    """``synth data.csv -o net.json --trace trace.json``, then ``eval net.json points.csv``.

    Points are uniform in [0, 1)^4, so the data is far from a chain.  Labels
    are a monotone staircase of a random positive linear form: 16 levels in
    [-0.5, 0.5), so ties are common and the baseline is the smallest label.
    Queries are every training point plus as many uniform points in
    [-0.05, 1.05]^4, about a sixth of which lie below every data point.
    """
    n, d = SYNTH_N, SYNTH_D
    X = rng.random((n, d))
    w = rng.uniform(0.5, 1.5, d)
    y = np.floor(SYNTH_LABEL_LEVELS * (X @ w) / w.sum()) / SYNTH_LABEL_LEVELS - 0.5
    queries = np.vstack([X, rng.uniform(-0.05, 1.05, (SYNTH_EXTRA_QUERIES, d))])
    data, points = workdir / "data.csv", workdir / "points.csv"
    net, trace = workdir / "net.json", workdir / "trace.json"
    _write_csv(data, np.column_stack([X, y]))
    _write_csv(points, queries)

    def check(results: list[Result]) -> list[str]:
        errors = []
        synth, evaluated = results
        if _field(synth.stdout, "builder") != "general":
            errors.append(f"synth used builder {_field(synth.stdout, 'builder')!r}")
        widths = _field(synth.stdout, "hidden widths")
        if widths != str([d * n, n, n]):
            errors.append(f"synth reported hidden widths {widths}")
        got = np.array([float(v) for v in evaluated.stdout.split()])
        if got.shape != (len(queries),):
            return errors + [f"eval printed {got.size} values for {len(queries)} points"]
        want = interpolant_closed_form(X, y, queries)
        worst = float(np.max(np.abs(got - want)))
        if worst > TOLERANCE:
            errors.append(f"eval differs from max{{y_i : x_i <= x}} by {worst:.3g}")
        label_gap = float(np.max(np.abs(got[:n] - y)))
        if label_gap > TOLERANCE:
            errors.append(f"training labels reproduced only within {label_gap:.3g}")
        return errors

    return Case(
        commands=[
            ["synth", str(data), "-o", str(net), "--trace", str(trace)],
            ["eval", str(net), str(points)],
        ],
        check=check,
        sized_outputs={"io.network_json.bytes": net, "io.trace_json.bytes": trace},
    )


# -- audit ---------------------------------------------------------------------

AUDIT_DEPTH2_SAMPLES = 4000
AUDIT_CONVEXITY_SAMPLES = 300
AUDIT_CHAIN_WIDTH_SAMPLES = 500


def prepare_audit(rng: np.random.Generator, workdir: Path) -> Case:
    """The three randomized campaigns at fixed sample counts, each with its own seed."""
    seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
    commands = [
        ["audit", "--check", "depth2", "--d", "3",
         "--samples", str(AUDIT_DEPTH2_SAMPLES), "--seed", str(seeds[0])],
        ["audit", "--check", "convexity",
         "--samples", str(AUDIT_CONVEXITY_SAMPLES), "--seed", str(seeds[1])],
        ["audit", "--check", "chain-width",
         "--samples", str(AUDIT_CHAIN_WIDTH_SAMPLES), "--seed", str(seeds[2])],
    ]

    def check(results: list[Result]) -> list[str]:
        errors = []
        depth2, convexity, chain = (r.stdout for r in results)
        for name, text in zip(("depth2", "convexity", "chain-width"), (depth2, convexity, chain)):
            if _field(text, "verdict") != "pass":
                errors.append(f"{name} verdict {_field(text, 'verdict')!r}")
        if _field(depth2, "interpolating_networks") != "0":
            errors.append(f"depth2 interpolating_networks {_field(depth2, 'interpolating_networks')}")
        gap = _field(convexity, "min_sqrt_gap")
        if not gap or float(gap) < 0.125:
            errors.append(f"convexity min_sqrt_gap {gap!r} below 1/8")
        if _field(chain, "witnessed") != str(AUDIT_CHAIN_WIDTH_SAMPLES):
            errors.append(f"chain-width witnessed {_field(chain, 'witnessed')!r}")
        return errors

    return Case(commands=commands, check=check)


# -- match-exact ---------------------------------------------------------------

EXACT_N = 5
EXACT_TOLERANCE = 1e-12


def prepare_match_exact(rng: np.random.Generator, workdir: Path) -> Case:
    """``matchprob --n 5 --mode exact`` on a matrix of independent U[0, 1) entries."""
    p = rng.random((EXACT_N, EXACT_N))
    path = workdir / "p.csv"
    _write_csv(path, p)

    def check(results: list[Result]) -> list[str]:
        errors = []
        got = float(results[0].stdout)
        want = matching_probability_dp(p)
        if abs(got - want) > EXACT_TOLERANCE:
            errors.append(f"exact m(p) {got!r} but the DP gives {want!r}")
        return errors

    return Case(
        commands=[["matchprob", "--n", str(EXACT_N), "--p", str(path), "--mode", "exact"]],
        check=check,
    )


# -- match-estimate ------------------------------------------------------------

ESTIMATE_N = 8
ESTIMATE_BLOCK = 4
ESTIMATE_EPS = "0.1"
ESTIMATE_FAIL_PROB = "1e-6"
STANDARD_ERRORS = 6.0


def prepare_match_estimate(rng: np.random.Generator, workdir: Path) -> Case:
    """``matchprob --n 8 --mode estimate`` on a permuted block upper-triangular ``p``.

    ``p = [[A, C], [0, B]]`` with A, B, C of independent U[0, 1) entries,
    rows and columns permuted at random.  The bottom rows can only use the
    right columns, so ``m(p) = m(A) * m(B)`` exactly, which checks the
    estimate at a size the exact oracle cannot reach.
    """
    k = ESTIMATE_BLOCK
    A, B, C = rng.random((k, k)), rng.random((k, k)), rng.random((k, k))
    block = np.block([[A, C], [np.zeros((k, k)), B]])
    rows, cols = rng.permutation(2 * k), rng.permutation(2 * k)
    p = block[rows][:, cols]
    path = workdir / "p.csv"
    _write_csv(path, p)
    seed = int(rng.integers(0, 2**31))

    def check(results: list[Result]) -> list[str]:
        errors = []
        got = float(results[0].stdout)
        config = re.search(r"bits=(\d+) samples=(\d+)", results[0].stderr)
        radius = re.search(r"error <= (\S+)", results[0].stderr)
        if not config or not radius:
            return [f"matchprob stderr lacks its config: {results[0].stderr!r}"]
        bits, samples = int(config.group(1)), int(config.group(2))
        truth = matching_probability_dp(A) * matching_probability_dp(B)
        if abs(got - truth) > float(radius.group(1)):
            errors.append(f"estimate {got} outside radius {radius.group(1)} of m(p) = {truth}")
        q = matching_probability_dp(truncate(A, bits)) * matching_probability_dp(truncate(B, bits))
        spread = STANDARD_ERRORS * np.sqrt(q * (1.0 - q) / samples)
        if abs(got - q) > spread:
            errors.append(f"estimate {got} more than 6 standard errors from m(trunc p) = {q}")
        return errors

    return Case(
        commands=[[
            "matchprob", "--n", str(ESTIMATE_N), "--p", str(path), "--mode", "estimate",
            "--eps", ESTIMATE_EPS, "--fail-prob", ESTIMATE_FAIL_PROB, "--seed", str(seed),
        ]],
        check=check,
    )


WORKLOADS = {
    "synth-eval": prepare_synth_eval,
    "audit": prepare_audit,
    "match-exact": prepare_match_exact,
    "match-estimate": prepare_match_estimate,
}
