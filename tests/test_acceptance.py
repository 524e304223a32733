"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each criterion's test prints a single ``ACCEPTANCE <k> PASS`` line (visible
with -s or in captured output) and enforces its runtime budget.  All
randomness is seeded, so the suite is deterministic.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np

from conftest import (
    axis_minimal,
    dense_interpolator,
    densify,
    random_chain_dataset,
    random_monotone_dataset,
    random_monotone_network,
)
from mononet.approx import build_approximator, plan_grid
from mononet.audit import (
    certify_monotone_structure,
    chain_width_audit,
    relu_convexity_probe,
    run_depth2_campaign,
    sqrt_gap_witness,
)
from mononet.construct import build_chain_interpolator, build_interpolator
from mononet.core import RELU, pairwise_leq
from mononet.matching import (
    EdgeProbabilityMatrix,
    EstimatorConfig,
    estimate_matching_probability,
    exact_matching_probability,
    lipschitz_probe,
    monotone_probe_m,
)

_corpus_cache = None


def _corpus():
    """500 seeded random monotone datasets with their built networks."""
    global _corpus_cache
    if _corpus_cache is None:
        rng = np.random.default_rng(20250810)
        out = []
        for _ in range(500):
            ds = random_monotone_dataset(rng, max_n=64, max_d=8)
            net, trace = build_interpolator(ds)
            out.append((ds, net, trace))
        _corpus_cache = out
    return _corpus_cache


def _report(k, label, detail, elapsed=None):
    timing = f", {elapsed:.1f}s" if elapsed is not None else ""
    print(f"ACCEPTANCE {k} PASS {label}: {detail}{timing}")


def test_criterion_1_interpolation_exactness():
    start = time.perf_counter()
    corpus = _corpus()
    worst_float = 0.0
    for ds, net, trace in corpus:
        n, d = ds.n, ds.dimension
        assert trace.layer_widths == (d * n, n, n)
        err = float(np.max(np.abs(net.evaluate_batch(ds.points) - ds.labels)))
        assert err <= 1e-9
        worst_float = max(worst_float, err)
        got = net.evaluate_batch_exact(ds.points)
        assert got == [Fraction(float(y)) for y in ds.labels]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(1, "interpolation-exactness",
            f"500 datasets, widths (dn, n, n), zero exact error, "
            f"max float error {worst_float:.2e}", elapsed)


def test_criterion_2_chain_construction():
    start = time.perf_counter()
    rng = np.random.default_rng(1402)
    for _ in range(200):
        n = int(rng.integers(1, 129))
        d = int(rng.integers(1, 9))
        ds = random_chain_dataset(rng, n, d)
        net, trace = build_chain_interpolator(ds)
        assert trace.layer_widths == (n, n)
        assert net.evaluate_batch_exact(ds.points) == [
            Fraction(float(y)) for y in ds.labels
        ]
        general, _ = build_interpolator(ds)
        assert np.array_equal(net.evaluate_batch(ds.points), general.evaluate_batch(ds.points))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, "chain-construction",
            "200 chains (n <= 128), widths (n, n), exact interpolation, "
            "agrees with the general builder on training points", elapsed)


def test_criterion_3_embedding_and_suffix_lemmas():
    violations = 0
    for ds, net, trace in _corpus():
        geq = pairwise_leq(ds.points).T
        if not np.array_equal(trace.embedding_matrix, geq):
            violations += 1
        third = net.hidden_activations(ds.points)[2]
        expect = (np.arange(ds.n)[:, None] >= np.arange(ds.n)[None, :]).astype(float)
        if not np.array_equal(third, expect):
            violations += 1
    assert violations == 0
    _report(3, "embedding-and-suffix-lemmas",
            "500 traces: embedding iff dominance, suffix unit fires iff j >= i, "
            "0 violations")


def test_weight_patterns_match_the_dense_construction():
    """The built networks against the dense matrices their patterns stand for.

    The general interpolator is checked against ``dense_interpolator`` on the
    criterion-1 corpus, and the chain interpolator against its own layers
    written out, each on the training points plus random queries.  The dense
    networks are the oracle for the bools and the exact values; the built ones
    return the exact value rounded once.
    """
    rng = np.random.default_rng(20261018)
    pairs = [(net, dense_interpolator(ds), ds) for ds, net, _ in _corpus()]
    for _ in range(100):
        ds = random_chain_dataset(rng, int(rng.integers(1, 65)), int(rng.integers(1, 9)))
        chain, _ = build_chain_interpolator(ds)
        pairs.append((chain, densify(chain), ds))
    for net, dense, ds in pairs:
        lo, hi = ds.points.min(axis=0), ds.points.max(axis=0)
        queries = lo - 0.5 + (hi - lo + 1.0) * rng.random((16, ds.dimension))
        X = np.vstack([ds.points, queries])
        exact = dense.evaluate_batch_exact(X)
        assert net.evaluate_batch_exact(X) == exact
        assert net.evaluate_batch(X).tolist() == [float(v) for v in exact]
        for a, b in zip(net.hidden_activations(X), dense.hidden_activations(X), strict=True):
            assert np.array_equal(a, b)
        assert net.monotone_flag is dense.monotone_flag is True
        assert certify_monotone_structure(net).to_dict() == certify_monotone_structure(dense).to_dict()


def test_criterion_4_depth2_inequality():
    start = time.perf_counter()
    total = 0
    for d, seed in ((2, 42), (3, 43), (4, 44)):
        samples = 3400
        report = run_depth2_campaign(d, samples, seed)
        assert report.passed
        assert report.details["interpolating_networks"] == 0
        total += samples
    elapsed = time.perf_counter() - start
    assert total >= 10_000
    assert elapsed < 60.0
    _report(4, "depth2-inequality",
            f"{total} random monotone depth-2 networks over d in {{2,3,4}}: "
            "summed inequality holds, none interpolate, 0 falsifications", elapsed)


def test_criterion_5_chain_width_lower_bound():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(3, 25))
        d = int(rng.integers(1, 7))
        ds = random_chain_dataset(rng, n, d)
        width = int(rng.integers(1, n - 1))  # forced-collision regime k <= n-2
        scale = float(np.abs(ds.points).max() * d + 1.0)
        net = random_monotone_network(rng, d, (width,), bias_scale=scale)
        report = chain_width_audit(net, ds)
        assert report.passed
        assert report.details["width_obstruction"] == "witnessed"
        i = report.details["pigeonhole_index"]
        acts = net.hidden_activations(ds.points)[0]
        assert np.array_equal(acts[i], acts[i + 1])
    for _ in range(20):
        n = int(rng.integers(1, 17))
        ds = random_chain_dataset(rng, n, int(rng.integers(1, 5)))
        net, _ = build_chain_interpolator(ds)
        sets = [frozenset(np.flatnonzero(row)) for row in net.hidden_activations(ds.points)[0]]
        assert net.layers[0].width == n
        assert all(a < b for a, b in zip(sets, sets[1:]))
    _report(5, "chain-width-lower-bound",
            "100 narrow random nets: pigeonhole witness with identical "
            "first-layer outputs every time; constructed nets strictly ascend")


def test_criterion_6_universal_approximation():
    start = time.perf_counter()
    targets = {
        "mean": lambda X: X.sum(axis=1) / X.shape[1],
        "min": lambda X: X.min(axis=1),
        "max": lambda X: X.max(axis=1),
        "constant": lambda X: np.full(len(X), 0.7),
    }
    rng = np.random.default_rng(66)
    checked = 0
    for (name, f), d, eps in product(targets.items(), (1, 2), (0.1, 0.25)):
        grid = plan_grid(d, 1.0, eps)
        net = build_approximator(f, d, 1.0, eps)
        kept = int(axis_minimal(grid, f(grid.points())).sum())
        assert net.hidden_unit_count == (d + 2) * kept <= (d + 2) * grid.point_count
        probes = rng.random((10_000, d))
        sup = float(np.max(np.abs(net.evaluate_batch(probes) - f(probes))))
        assert sup <= eps
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, "universal-approximation",
            f"{checked} (target, d, eps) combinations: sup error within eps over "
            "10^4 probes, hidden size (d+2) per grid point above its lower axis neighbours", elapsed)


def test_criterion_7_relu_convexity_and_sqrt_gap():
    rng = np.random.default_rng(77)
    min_gap = np.inf
    for _ in range(1000):
        depth = int(rng.integers(1, 4))
        widths = tuple(int(rng.integers(1, 17)) for _ in range(depth))
        net = random_monotone_network(rng, 1, widths, activation=RELU)
        assert relu_convexity_probe(net, triples=64, seed=int(rng.integers(2**32))).passed
        _, gap = sqrt_gap_witness(net, resolution=1e-4)
        assert gap >= 0.125 - 1e-9
        min_gap = min(min_gap, gap)
    _report(7, "relu-convexity-and-sqrt-gap",
            f"1000 random monotone ReLU nets: midpoint convexity holds, "
            f"min sqrt gap {min_gap:.6f} >= 0.125")


def test_criterion_8_matching_exactness():
    for k in range(11):
        p = k / 10
        got = exact_matching_probability(EdgeProbabilityMatrix.uniform(2, p))
        assert abs(got - (2 * p**2 - p**4)) <= 1e-12
    from test_matching import enumeration_oracle

    rng = np.random.default_rng(88)
    for _ in range(50):
        entries = rng.integers(0, 17, size=(3, 3)) / 16.0
        mine = exact_matching_probability(EdgeProbabilityMatrix(entries))
        reference = enumeration_oracle(entries)
        assert abs(mine - reference) <= 1e-15
    _report(8, "matching-exactness",
            "closed form matched to 1e-12 at 11 probabilities; 50 dyadic n=3 "
            "matrices match permutation-search enumeration")


def test_criterion_9_estimator_guarantee():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    count = 0
    for n in (2, 3, 4):
        batch = 7 if n == 2 else 7 if n == 3 else 6
        for _ in range(batch):
            p = EdgeProbabilityMatrix(rng.random((n, n)))
            exact = exact_matching_probability(p)
            cfg = EstimatorConfig(
                bits=16, samples=100_000, seed=int(rng.integers(2**32)), delta=0.01
            )
            est = estimate_matching_probability(p, cfg)
            err = abs(est - exact)
            assert err <= 0.01
            worst = max(worst, err)
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 20
    assert elapsed < 120.0
    _report(9, "estimator-guarantee",
            f"20-matrix battery at n in {{2,3,4}}, bits=16, samples=1e5: "
            f"max |estimate - exact| = {worst:.4f} <= 0.01", elapsed)


def test_criterion_10_lipschitz_and_monotonicity_of_m():
    start = time.perf_counter()
    lip = lipschitz_probe(1000, 3, seed=1010)
    assert lip.passed
    mono = monotone_probe_m(1000, 3, seed=1011)
    assert mono.passed
    elapsed = time.perf_counter() - start
    _report(10, "matching-function-regularity",
            "1000 pair probes at n=3: n-Lipschitz (plus single-entry bound) and "
            "entrywise monotonicity, 0 violations", elapsed)
