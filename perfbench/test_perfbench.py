"""Tests of the benchmark's own references and tracer.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    interpolant_closed_form,
    matching_probability_brute,
    matching_probability_dp,
    truncate,
)
from tracing import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dp_matches_permutation_enumeration(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        p = rng.random((n, n))
        assert matching_probability_dp(p) == pytest.approx(matching_probability_brute(p), abs=1e-13)


def test_dp_on_degenerate_matrices():
    assert matching_probability_dp(np.ones((4, 4))) == pytest.approx(1.0, abs=1e-15)
    assert matching_probability_dp(np.zeros((3, 3))) == 0.0
    assert matching_probability_dp(np.eye(3)) == pytest.approx(1.0, abs=1e-15)
    # 2p^2 - p^4 at p = 1/2
    assert matching_probability_dp(np.full((2, 2), 0.5)) == pytest.approx(0.4375, abs=1e-15)


def test_block_triangular_matrix_factorises():
    rng = np.random.default_rng(7)
    for _ in range(3):
        A, B, C = rng.random((2, 2)), rng.random((2, 2)), rng.random((2, 2))
        p = np.block([[A, C], [np.zeros((2, 2)), B]])
        p = p[rng.permutation(4)][:, rng.permutation(4)]
        want = matching_probability_brute(A) * matching_probability_brute(B)
        assert matching_probability_brute(p) == pytest.approx(want, abs=1e-13)
        assert matching_probability_dp(p) == pytest.approx(want, abs=1e-13)


def test_truncate_is_dyadic_and_below():
    p = np.random.default_rng(3).random((5, 5))
    t = truncate(p, 10)
    assert np.all(t <= p) and np.all(p - t < 2.0**-10)
    assert np.array_equal(t * 2**10, np.floor(t * 2**10))


def test_closed_form_matches_brute_force():
    rng = np.random.default_rng(5)
    X = rng.random((30, 3))
    y = np.floor(4 * X.sum(axis=1)) / 4 - 1.0
    Q = np.vstack([X, rng.uniform(-0.2, 1.2, (60, 3))])
    got = interpolant_closed_form(X, y, Q)
    for q, value in zip(Q, got):
        below = [yi for xi, yi in zip(X, y) if np.all(xi <= q)]
        assert value == (max(below) if below else min(0.0, y.min()))
    assert np.array_equal(got[:30], y)


def _fake_module():
    module = types.ModuleType("perfbench_fake.layers")

    def leaf(x):
        time.sleep(0.002)
        return x

    def inner(x):
        time.sleep(0.001)
        return module.leaf(x) + module.leaf(x)

    def outer(x):
        return module.inner(x) + module.counted(x)

    module.leaf, module.inner, module.outer, module.counted = leaf, inner, outer, lambda x: x
    return module


def test_self_times_account_for_the_root_span(monkeypatch):
    module = _fake_module()
    monkeypatch.setitem(sys.modules, module.__name__, module)
    originals = (module.leaf, module.inner, module.outer)
    tracer = Tracer()
    tracer.install([
        Target(module, "outer", "outer"),
        Target(module, "inner", "inner"),
        Target(module, "leaf", "leaf"),
        Target(module, "counted", "counted", count_only=True),
    ])
    tracer.op = 1
    assert module.outer(2) == 6
    tracer.uninstall()
    assert (module.leaf, module.inner, module.outer) == originals

    self_times = tracer.self_times()
    assert sum(self_times.values()) == pytest.approx(tracer.root_times()[1], rel=1e-12)
    assert self_times[(1, "leaf")] >= 0.004
    assert tracer.counts[(1, "leaf")] == 2 and tracer.counts[(1, "counted")] == 1
    assert {s[0] for s in tracer.spans} == {"outer", "inner", "leaf"}


def test_benchmark_json_matches_the_runner():
    import run
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
