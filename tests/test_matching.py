import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mononet.matching import (
    ESTIMATE_MAX_DRAWS,
    EXACT_MAX_N,
    BipartiteGraph,
    EdgeProbabilityMatrix,
    EstimatorConfig,
    default_parameters,
    estimate_matching_probability,
    estimator_error_bound,
    exact_matching_probability,
    has_perfect_matching,
    lipschitz_probe,
    monotone_probe_m,
    require_estimate_size,
    require_exact_size,
    truncate_probabilities,
    truncation_error_bounds,
)
from mononet.errors import TooLarge


def perm_has_matching(n: int, rows) -> bool:
    """Test oracle: try every assignment of left vertices to distinct columns."""
    return any(
        all(rows[i] >> c & 1 for i, c in enumerate(perm))
        for perm in permutations(range(n))
    )


def hopcroft_karp(g: BipartiteGraph) -> bool:
    """Test oracle: Hopcroft-Karp (1973) on bitmask adjacency.

    Each phase finds the shortest augmenting-path length by a layered BFS
    from the free left vertices, then augments along vertex-disjoint
    shortest paths by a DFS that follows the layers.
    """
    n, rows = g.n, g.rows
    match_left = [-1] * n
    match_right = [-1] * n
    matched = 0
    INF = n + 1
    dist = [0] * n

    def bfs() -> bool:
        queue = []
        for u in range(n):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = INF
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if dist[u] >= found:
                continue
            adj = rows[u]
            while adj:
                j = (adj & -adj).bit_length() - 1
                adj &= adj - 1
                w = match_right[j]
                if w == -1:
                    found = dist[u] + 1
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found != INF

    def dfs(u: int) -> bool:
        adj = rows[u]
        while adj:
            j = (adj & -adj).bit_length() - 1
            adj &= adj - 1
            w = match_right[j]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = j
                match_right[j] = u
                return True
        dist[u] = INF
        return False

    while matched < n and bfs():
        for u in range(n):
            if match_left[u] == -1 and dfs(u):
                matched += 1
    return matched == n


def enumeration_oracle(p: np.ndarray) -> float:
    """Test oracle: sum subset probabilities using the permutation matcher."""
    n = p.shape[0]
    total = 0.0
    for bits in product((0, 1), repeat=n * n):
        rows = [
            sum(bits[n * i + j] << j for j in range(n)) for i in range(n)
        ]
        if not perm_has_matching(n, rows):
            continue
        prob = 1.0
        for e, b in enumerate(bits):
            prob *= p[e // n, e % n] if b else 1.0 - p[e // n, e % n]
        total += prob
    return total


class TestHasPerfectMatching:
    def test_complete_graphs(self):
        for n in range(1, 7):
            assert has_perfect_matching(BipartiteGraph.complete(n))

    def test_identity_diagonal(self):
        for n in range(1, 7):
            g = BipartiteGraph.from_edges(n, [(i, i) for i in range(n)])
            assert has_perfect_matching(g)

    def test_two_left_one_right(self):
        g = BipartiteGraph.from_edges(2, [(0, 0), (1, 0)])
        assert not has_perfect_matching(g)

    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for mask in range(1 << (n * n)):
                rows = tuple((mask >> (n * i)) & ((1 << n) - 1) for i in range(n))
                got = has_perfect_matching(BipartiteGraph(n, rows))
                assert got == perm_has_matching(n, rows), (n, mask)

    def test_random_medium(self):
        rng = np.random.default_rng(17)
        for n in (4, 5, 6):
            for _ in range(200):
                adj = rng.random((n, n)) < rng.random()
                g = BipartiteGraph.from_matrix(adj)
                assert has_perfect_matching(g) == perm_has_matching(n, g.rows)

    def test_against_hopcroft_karp(self):
        # G(n, q) around the matching threshold ln(n)/n, and lower staircases
        # (row i sees columns 0..i, each kept with probability 0.95, the
        # diagonal kept whole in half of them) under random row and column
        # permutations; both families hold graphs with and without a
        # perfect matching.
        rng = np.random.default_rng(28)
        for n in [*range(1, 41), 64]:
            for _ in range(30):
                q = min(1.0, rng.uniform(0.5, 2.0) * math.log(n + 1) / n)
                adj = rng.random((n, n)) < q
                g = BipartiteGraph.from_matrix(adj)
                assert has_perfect_matching(g) == hopcroft_karp(g), (n, g.rows)
                stair = np.tril(rng.random((n, n)) < 0.95)
                if rng.random() < 0.5:
                    np.fill_diagonal(stair, True)
                stair = stair[rng.permutation(n)][:, rng.permutation(n)]
                g = BipartiteGraph.from_matrix(stair)
                assert has_perfect_matching(g) == hopcroft_karp(g), (n, g.rows)

    def test_greedy_start_needs_a_long_augmenting_path(self):
        # Row i sees columns i and i+1, the last row only column 0: the greedy
        # pass matches row i to column i, so the last row is matched only by
        # the augmenting path that shifts every other row one column right.
        # At n = 1200 that path is longer than Python's recursion limit.
        for n in (2, 5, 64, 200, 1200):
            rows = [0b11 << i for i in range(n - 1)] + [1]
            assert has_perfect_matching(BipartiteGraph(n, tuple(rows)))
            # with column n-2 as well, the search tries column 0 first and
            # runs down the whole chain before it backs out to the two-step path
            g = BipartiteGraph(n, tuple(rows[:-1]) + (1 | 1 << (n - 2),))
            assert has_perfect_matching(g) == hopcroft_karp(g) is True
            rows[n - 2] = 1 << (n - 2)  # now no row sees column n-1
            assert not has_perfect_matching(BipartiteGraph(n, tuple(rows)))

    def test_from_matrix_wide_rows(self):
        # more than 64 columns: the masks outgrow a machine word
        for n in (63, 64, 65, 100):
            adj = np.zeros((n, n), dtype=bool)
            adj[:, -1] = adj[0] = True
            g = BipartiteGraph.from_matrix(adj)
            assert g.rows == ((1 << n) - 1,) + (1 << (n - 1),) * (n - 1)

    def test_from_edges_bounds(self):
        with pytest.raises(ValueError):
            BipartiteGraph.from_edges(2, [(0, 2)])


class TestExactProbability:
    def test_single_edge(self):
        assert exact_matching_probability(EdgeProbabilityMatrix.uniform(1, 0.3)) == 0.3

    def test_certain_graph(self):
        for n in (1, 2, 3):
            assert exact_matching_probability(EdgeProbabilityMatrix.uniform(n, 1.0)) == 1.0

    def test_half_two(self):
        got = exact_matching_probability(EdgeProbabilityMatrix.uniform(2, 0.5))
        assert got == pytest.approx(7 / 16, abs=1e-15)

    def test_closed_form_two(self):
        for k in range(11):
            p = k / 10
            got = exact_matching_probability(EdgeProbabilityMatrix.uniform(2, p))
            assert abs(got - (2 * p**2 - p**4)) <= 1e-12

    def test_against_permutation_enumeration(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            p = rng.integers(0, 17, size=(3, 3)) / 16.0
            got = exact_matching_probability(EdgeProbabilityMatrix(p))
            assert got == pytest.approx(enumeration_oracle(p), abs=1e-13)

    def test_dp_against_enumeration_non_dyadic(self):
        rng = np.random.default_rng(26)
        for n, count in ((1, 5), (2, 5), (3, 5), (4, 1)):
            for _ in range(count):
                p = rng.random((n, n))
                got = exact_matching_probability(EdgeProbabilityMatrix(p))
                assert abs(got - enumeration_oracle(p)) <= 1e-13, (n, p)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            exact_matching_probability(EdgeProbabilityMatrix.uniform(6, 0.5))
        with pytest.raises(TooLarge):
            require_exact_size(EXACT_MAX_N + 1)
        require_exact_size(EXACT_MAX_N)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            EdgeProbabilityMatrix([[1.5]])
        with pytest.raises(ValueError):
            EdgeProbabilityMatrix([[0.1, 0.2]])


class TestTruncate:
    def test_one_stays_one(self):
        t = truncate_probabilities(EdgeProbabilityMatrix.uniform(1, 1.0), 3)
        assert t.entries[0, 0] == 1.0

    def test_floor(self):
        t = truncate_probabilities(EdgeProbabilityMatrix.uniform(1, 0.3), 2)
        assert t.entries[0, 0] == 0.25

    def test_dyadic_fixed_point(self):
        t = truncate_probabilities(EdgeProbabilityMatrix.uniform(1, 7 / 16), 4)
        assert t.entries[0, 0] == 7 / 16

    @given(st.floats(0, 1, allow_nan=False), st.integers(1, 40))
    @settings(max_examples=200)
    def test_idempotent_and_close(self, p, bits):
        m = EdgeProbabilityMatrix.uniform(1, p)
        once = truncate_probabilities(m, bits)
        twice = truncate_probabilities(once, bits)
        assert once == twice
        assert 0 <= p - once.entries[0, 0] < 2.0**-bits

    def test_norm_bounds(self):
        rng = np.random.default_rng(19)
        p = EdgeProbabilityMatrix(rng.random((3, 3)))
        for bits in (1, 4, 10):
            t = truncate_probabilities(p, bits)
            dist = float(np.linalg.norm(p.entries - t.entries))
            coarse, sharp = truncation_error_bounds(3, bits)
            assert dist <= sharp <= coarse


class TestEstimator:
    def test_certain_and_impossible(self):
        cfg = EstimatorConfig(bits=8, samples=500, seed=1)
        assert estimate_matching_probability(EdgeProbabilityMatrix.uniform(3, 1.0), cfg) == 1.0
        assert estimate_matching_probability(EdgeProbabilityMatrix.uniform(3, 0.0), cfg) == 0.0

    def test_near_exact_value(self):
        p = EdgeProbabilityMatrix.uniform(2, 0.5)
        cfg = EstimatorConfig(bits=10, samples=100_000, seed=42, delta=0.02)
        est = estimate_matching_probability(p, cfg)
        radius, failure = estimator_error_bound(cfg, 2)
        assert radius == pytest.approx(0.02 + 4 / 2**5)
        assert failure <= 2 * math.exp(-(10**5) * 0.0004 / 3)
        assert abs(est - 7 / 16) <= 0.02 + 4 / 2**5
        # empirically much tighter at this sample count
        assert abs(est - 7 / 16) <= 0.01

    def test_deterministic_given_seed(self):
        p = EdgeProbabilityMatrix.uniform(3, 0.4)
        cfg = EstimatorConfig(bits=12, samples=2000, seed=9)
        assert estimate_matching_probability(p, cfg) == estimate_matching_probability(p, cfg)
        other = estimate_matching_probability(p, cfg.with_seed(10))
        assert other != estimate_matching_probability(p, cfg)

    def test_truncation_is_applied(self):
        # with 1 bit of precision, any p below 1/2 truncates to 0
        p = EdgeProbabilityMatrix.uniform(2, 0.49)
        cfg = EstimatorConfig(bits=1, samples=500, seed=3)
        assert estimate_matching_probability(p, cfg) == 0.0

    def test_larger_graph_path(self):
        # n = 9 exercises the packed-bytes deduplication path
        p = EdgeProbabilityMatrix.uniform(9, 0.9)
        cfg = EstimatorConfig(bits=8, samples=200, seed=4)
        est = estimate_matching_probability(p, cfg)
        assert 0.0 <= est <= 1.0

    @pytest.mark.parametrize("n", [3, 9, 17])  # packed rows of 1, 2 and 3 bytes
    def test_against_unpacked_reference(self, n):
        rng = np.random.default_rng(27 + n)
        p = EdgeProbabilityMatrix(rng.uniform(0.5, 1.0, (n, n)) * min(1.0, 3.0 * math.log(n) / n))
        cfg = EstimatorConfig(bits=12, samples=400, seed=n)
        trunc = truncate_probabilities(p, cfg.bits).entries
        draws = np.random.default_rng(cfg.seed).random((cfg.samples, n, n))
        hits = sum(hopcroft_karp(BipartiteGraph.from_matrix(g)) for g in draws < trunc)
        got = estimate_matching_probability(p, cfg)
        assert 0.0 < got < 1.0
        assert got == hits / cfg.samples

    def test_repeated_graphs_across_blocks(self):
        # 0/1 entries and four fair edges give at most 16 distinct graphs,
        # and 20000 samples at n = 12 span three blocks of draws, so each
        # graph's counts from every block must add up
        n = 12
        p = np.eye(n)
        p[:4, :4] = 0.5 * np.eye(4) + 0.5 * np.eye(4, k=1)
        p[3, 4] = 0.5
        p = EdgeProbabilityMatrix(p)
        cfg = EstimatorConfig(bits=12, samples=20000, seed=5)
        trunc = truncate_probabilities(p, cfg.bits).entries
        draws = np.random.default_rng(cfg.seed).random((cfg.samples, n, n))
        hits = sum(hopcroft_karp(BipartiteGraph.from_matrix(g)) for g in draws < trunc)
        got = estimate_matching_probability(p, cfg)
        assert 0.0 < got < 1.0
        assert got == hits / cfg.samples

    def test_draw_budget(self):
        # the default run at n = 12, and the largest runs served before the budget
        for n, eps in [(12, 0.05), (64, 0.02), (100, 0.05), (100, 0.02), (351, 0.05), (140, 0.02)]:
            require_estimate_size(n, default_parameters(n, eps, 1e-6).samples)
        with pytest.raises(TooLarge):
            require_estimate_size(352, default_parameters(352, 0.05, 1e-6).samples)
        samples = ESTIMATE_MAX_DRAWS // 16
        require_estimate_size(4, samples)
        with pytest.raises(TooLarge):
            require_estimate_size(4, samples + 1)
        with pytest.raises(TooLarge):
            estimate_matching_probability(
                EdgeProbabilityMatrix.uniform(2, 0.5), default_parameters(2, 1e-6, 0.5)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(bits=0, samples=10)
        with pytest.raises(ValueError):
            EstimatorConfig(bits=4, samples=0)
        with pytest.raises(ValueError):
            EstimatorConfig(bits=4, samples=10, delta=1.5)


class TestDefaultParameters:
    def test_frozen_example(self):
        cfg = default_parameters(2, 0.1, 1e-6)
        assert cfg.bits == 14
        assert cfg.delta == 0.05
        # ceil(3 * ln(2e6) / 0.0025) = ceil(17410.39) = 17411
        assert cfg.samples == 17411

    def test_accuracy_split(self):
        for n in (2, 3, 5):
            for eps in (0.5, 0.1, 0.03):
                cfg = default_parameters(n, eps, 1e-9)
                assert n * n / 2 ** (cfg.bits / 2) <= eps / 2
                assert cfg.delta == eps / 2

    def test_bits_clamped(self):
        cfg = default_parameters(1, 0.999, 0.5)
        assert cfg.bits >= 1

    def test_failure_probability_round_trips(self):
        for samples in (1000, 5000, 17411):
            cfg = EstimatorConfig(bits=8, samples=samples, delta=0.05)
            _, failure = estimator_error_bound(cfg, 2)
            again = default_parameters(2, 0.1, failure)
            assert again.samples == samples

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            default_parameters(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            default_parameters(2, 1.5, 0.1)
        with pytest.raises(ValueError):
            default_parameters(2, 0.1, 0.0)


class TestStructuralProbes:
    def test_lipschitz_identical_pair(self):
        p = EdgeProbabilityMatrix.uniform(2, 0.3)
        m = exact_matching_probability(p)
        assert abs(m - m) <= 2 * np.linalg.norm(p.entries - p.entries)

    def test_single_entry_perturbation(self):
        base = np.full((2, 2), 0.4)
        moved = base.copy()
        moved[0, 1] = 0.7
        m1 = exact_matching_probability(EdgeProbabilityMatrix(base))
        m2 = exact_matching_probability(EdgeProbabilityMatrix(moved))
        assert abs(m1 - m2) <= 0.3 + 1e-12

    def test_lipschitz_probe_passes(self):
        report = lipschitz_probe(100, 3, seed=23)
        assert report.passed
        assert report.samples == 100

    def test_monotone_probe_passes(self):
        report = monotone_probe_m(100, 3, seed=24)
        assert report.passed

    def test_extreme_matrices(self):
        zero = exact_matching_probability(EdgeProbabilityMatrix.uniform(3, 0.0))
        one = exact_matching_probability(EdgeProbabilityMatrix.uniform(3, 1.0))
        assert zero == 0.0 <= one == 1.0

    def test_raise_one_entry_is_monotone(self):
        rng = np.random.default_rng(25)
        base = rng.random((3, 3))
        m1 = exact_matching_probability(EdgeProbabilityMatrix(base))
        raised = base.copy()
        raised[1, 2] = min(1.0, raised[1, 2] + 0.3)
        m2 = exact_matching_probability(EdgeProbabilityMatrix(raised))
        assert m1 <= m2 + 1e-12

    def test_probe_size_limit(self):
        with pytest.raises(TooLarge):
            lipschitz_probe(1, 7, seed=0)
        with pytest.raises(TooLarge):
            monotone_probe_m(1, 7, seed=0)
