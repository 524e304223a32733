import dataclasses
import json
import math
import tracemalloc
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mononet import core, matching
from mononet.cli import main
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
)
from mononet.errors import InvalidArgument, TooLarge


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


def batched(n: int, graphs) -> list:
    """``matching._perfect_matchings`` on graphs given as sequences of n row bitmasks.

    Each graph is packed as the estimator packs it: n rows of ceil(n/8)
    little-endian bytes, one opaque item per graph.
    """
    width = (n + 7) // 8
    data = b"".join(r.to_bytes(width, "little") for rows in graphs for r in rows)
    packed = np.frombuffer(data, dtype=(np.void, n * width))
    found = matching._perfect_matchings(packed, n, width)
    assert found.dtype == bool and found.shape == (len(graphs),)
    return found.tolist()


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
        for n in (1, 2, 3, 4):
            graphs = [
                tuple((mask >> (n * i)) & ((1 << n) - 1) for i in range(n))
                for mask in range(1 << (n * n))
            ]
            want = [matching._matches(rows) for rows in graphs]
            if n <= 3:
                for mask, rows in enumerate(graphs):
                    assert want[mask] == perm_has_matching(n, rows), (n, mask)
            # Hall's condition over all graphs at once agrees with the Kuhn matcher
            assert batched(n, graphs) == want, n

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
        # perfect matching.  The empty and the complete graph and permuted
        # block-triangular graphs [[A, C], [0, B]] join them in the batched
        # check, which runs Hall's condition up to n = 8 and the Kuhn
        # matcher above.
        rng = np.random.default_rng(28)
        for n in [*range(1, 41), 64]:
            graphs = [BipartiteGraph(n, (0,) * n), BipartiteGraph.complete(n)]
            for _ in range(30):
                q = min(1.0, rng.uniform(0.5, 2.0) * math.log(n + 1) / n)
                adj = rng.random((n, n)) < q
                g = BipartiteGraph.from_matrix(adj)
                assert has_perfect_matching(g) == hopcroft_karp(g), (n, g.rows)
                graphs.append(g)
                stair = np.tril(rng.random((n, n)) < 0.95)
                if rng.random() < 0.5:
                    np.fill_diagonal(stair, True)
                stair = stair[rng.permutation(n)][:, rng.permutation(n)]
                g = BipartiteGraph.from_matrix(stair)
                assert has_perfect_matching(g) == hopcroft_karp(g), (n, g.rows)
                graphs.append(g)
                k = int(rng.integers(1, n + 1))  # A is k x k, B the rest
                block = rng.random((n, n)) < rng.uniform(0.3, 1.0)
                block[k:, :k] = False
                block = block[rng.permutation(n)][:, rng.permutation(n)]
                graphs.append(BipartiteGraph.from_matrix(block))
            want = [hopcroft_karp(g) for g in graphs]
            assert [matching._matches(g.rows) for g in graphs] == want, n
            assert batched(n, [g.rows for g in graphs]) == want, n

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
        with pytest.raises(InvalidArgument):
            BipartiteGraph.from_edges(2, [(0, 2)])


def dict_dp_oracle(p: np.ndarray) -> float:
    """Test oracle: exact m(p) by the row DP with one dict update per (family, neighbourhood).

    A family is an int whose bit S is set iff the first rows can be matched
    onto the right-vertex set S.  Each row adds ``prob * hood_prob[h]`` to
    the successor of every family under every neighbourhood h, families in
    dict order and h ascending, and the result is the ``sum`` of the last
    row's weights in dict order.  The array DP must give the same float.
    """
    n = len(p)
    hoods = range(1 << n)
    # bit S of without[j] is set iff j is not in S
    without = [sum(1 << s for s in hoods if not s >> j & 1) for j in range(n)]
    states = {1: 1.0}  # the empty set is the only 0-subset
    for row in p:
        q = row.tolist()
        hood_prob = [
            math.prod(q[j] if h >> j & 1 else 1.0 - q[j] for j in range(n)) for h in hoods
        ]
        nxt: dict[int, float] = {}
        for family, prob in states.items():
            # S -> S | {j} for every S in the family that misses j
            grown = [(family & without[j]) << (1 << j) for j in range(n)]
            succ = [0] * (1 << n)
            for h in range(1, 1 << n):
                low = h & -h
                succ[h] = s = succ[h ^ low] | grown[low.bit_length() - 1]
                if s:
                    nxt[s] = nxt.get(s, 0.0) + prob * hood_prob[h]
        states = nxt
    return min(1.0, sum(states.values()))


def seeded_matrices(seed: int, n: int, count: int):
    """``count`` seeded n x n matrices: U[0, 1) entries, some set to 0 and 1,
    sixteenths, upper triangles and uniform values, in turn."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        p = rng.random((n, n))
        if k % 5 == 1:
            p[rng.random((n, n)) < 0.3] = 0.0
            p[rng.random((n, n)) < 0.3] = 1.0
        elif k % 5 == 2:
            p = rng.integers(0, 17, size=(n, n)) / 16.0
        elif k % 5 == 3:
            p = np.triu(p)
        elif k % 5 == 4:
            p = np.full((n, n), (0.0, 1.0, 0.5, 1 / 3, rng.random())[k // 5 % 5])
        yield p


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

    def test_array_dp_equals_dict_dp_bit_for_bit(self):
        count = 0
        for n in range(1, EXACT_MAX_N + 1):
            for p in seeded_matrices(100 + n, n, 45):
                got = exact_matching_probability(EdgeProbabilityMatrix(p))
                want = dict_dp_oracle(p)
                assert type(got) is float and got == want, (n, p.tolist(), got, want)
                count += 1
        assert count >= 200

    def test_array_dp_at_six(self):
        # the size cap sits in front of the DP body; n = 6 is the largest whose
        # families fit in 64 mask bits
        for p in seeded_matrices(6, 6, 5):
            assert matching._family_dp(p) == dict_dp_oracle(p)

    def test_array_dp_at_six_factorizes(self):
        # rows 3..5 can only use columns 3..5, so m([[A, C], [0, B]]) = m(A) * m(B)
        rng = np.random.default_rng(66)
        for _ in range(3):
            A, B, C = rng.random((3, 3)), rng.random((3, 3)), rng.random((3, 3))
            p = np.block([[A, C], [np.zeros((3, 3)), B]])
            want = exact_matching_probability(EdgeProbabilityMatrix(A)) * \
                exact_matching_probability(EdgeProbabilityMatrix(B))
            assert matching._family_dp(p) == pytest.approx(want, abs=1e-14)

    def test_per_call_path_builds_no_families(self, monkeypatch):
        # the families and their successors depend only on n: once the plan
        # for each n is built, a call needs no family construction at all
        for n in range(1, EXACT_MAX_N + 1):
            matching._dp_plan(n)

        def no_families(values):
            raise AssertionError("a call built families")

        monkeypatch.setattr(matching, "_first_seen", no_families)
        for n in range(1, EXACT_MAX_N + 1):
            for p in seeded_matrices(700 + n, n, 15):
                got = exact_matching_probability(EdgeProbabilityMatrix(p))
                assert got == dict_dp_oracle(p), (n, p.tolist())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_plan_is_read_only(self, n):
        members, steps = matching._dp_plan(n)
        assert members.shape == (1 << n, n) and len(steps) == n
        arrays = [members, *(a for keep, label, _ in steps for a in (keep, label))]
        for table in arrays:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0
        # each row's labels number its successor families 0 .. count - 1
        for keep, label, count in steps:
            assert len(keep) == len(label) and label.max() == count - 1
        assert steps[-1][2] == 1  # after n rows, only the family {[n]} is left

    def test_too_large(self):
        with pytest.raises(TooLarge):
            exact_matching_probability(EdgeProbabilityMatrix.uniform(6, 0.5))
        with pytest.raises(TooLarge):
            require_exact_size(EXACT_MAX_N + 1)
        require_exact_size(EXACT_MAX_N)

    def test_matrix_validation(self):
        with pytest.raises(InvalidArgument):
            EdgeProbabilityMatrix([[1.5]])
        with pytest.raises(InvalidArgument):
            EdgeProbabilityMatrix([[0.1, 0.2]])

    def test_the_callers_matrix_is_copied(self):
        P = np.full((2, 2), 0.5)
        p = EdgeProbabilityMatrix(P)
        P *= 2  # the caller's array stays writeable
        assert p.entries.tolist() == [[0.5, 0.5], [0.5, 0.5]] and not p.entries.flags.writeable


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
        # each entry loses less than 2**-bits: the Frobenius distance is below
        # n * 2**-bits, and the entrywise sum, which bounds |m(p) - m(trunc p)|
        # in the estimator's radius, below n**2 * 2**-bits
        rng = np.random.default_rng(19)
        p = EdgeProbabilityMatrix(rng.random((3, 3)))
        for bits in (1, 4, 10):
            t = truncate_probabilities(p, bits)
            loss = p.entries - t.entries
            assert float(np.linalg.norm(loss)) <= 3 * 2.0**-bits
            assert float(loss.sum()) <= 9 * 2.0**-bits


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
        assert radius == pytest.approx(0.02 + 4 / 2**10)
        assert failure <= 2 * math.exp(-2 * 10**5 * 0.0004)
        assert abs(est - 7 / 16) <= 0.02 + 4 / 2**10
        # empirically much tighter at this sample count
        assert abs(est - 7 / 16) <= 0.01

    @pytest.mark.parametrize("n", [3, 9, 32, 351])
    def test_certain_graph_is_checked_once(self, n, monkeypatch):
        # when every truncated entry is 0 or 1 every draw is the same graph:
        # it is checked once and nothing is drawn, even near the draw cap
        def no_draws(seed):
            raise AssertionError("the estimator drew a certain graph")

        monkeypatch.setattr(matching.np.random, "default_rng", no_draws)
        cfg = default_parameters(n, 0.0104, 1e-6)
        adj = np.eye(n, dtype=bool) | (np.arange(n)[:, None] < np.arange(n))  # upper triangle
        hopeless = adj.copy()
        hopeless[n // 2] = False  # a row with no edge
        tiny = 2.0 ** -(cfg.bits + 1)  # truncates to 0
        for entries, want in [
            (np.ones((n, n)), 1.0),
            (adj.astype(float), 1.0),
            (np.where(adj, 1.0, tiny), 1.0),
            (hopeless.astype(float), 0.0),
            (np.where(hopeless, 1.0, tiny), 0.0),
        ]:
            got = estimate_matching_probability(EdgeProbabilityMatrix(entries), cfg)
            assert type(got) is float and got == want
            assert want == hopcroft_karp(BipartiteGraph.from_matrix(entries == 1.0))

    def test_deterministic_given_seed(self):
        p = EdgeProbabilityMatrix.uniform(3, 0.4)
        cfg = EstimatorConfig(bits=12, samples=2000, seed=9)
        assert estimate_matching_probability(p, cfg) == estimate_matching_probability(p, cfg)
        other = estimate_matching_probability(p, dataclasses.replace(cfg, seed=10))
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

    # packed rows of 1 byte (Hall's condition: n = 3, 6, 7, 8), and of 2, 3,
    # 2, 4, 8 and 9 bytes (the Kuhn matcher): every word view and the
    # int.from_bytes fallback
    @pytest.mark.parametrize("n", [3, 6, 7, 9, 17, 8, 16, 32, 64, 65])
    def test_against_unpacked_reference(self, n):
        rng = np.random.default_rng(27 + n)
        p = EdgeProbabilityMatrix(rng.uniform(0.5, 1.0, (n, n)) * min(1.0, 2.0 * math.log(n) / n))
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
        for n, eps in [(12, 0.05), (64, 0.02), (100, 0.05), (351, 0.05), (1697, 0.05), (680, 0.02)]:
            require_estimate_size(n, default_parameters(n, eps, 1e-6).samples)
        for n, eps in [(1698, 0.05), (681, 0.02)]:
            with pytest.raises(TooLarge):
                require_estimate_size(n, default_parameters(n, eps, 1e-6).samples)
        samples = ESTIMATE_MAX_DRAWS // 16
        require_estimate_size(4, samples)
        with pytest.raises(TooLarge):
            require_estimate_size(4, samples + 1)
        with pytest.raises(TooLarge):
            estimate_matching_probability(
                EdgeProbabilityMatrix.uniform(2, 0.5), default_parameters(2, 1e-6, 0.5)
            )

    def test_config_validation(self):
        with pytest.raises(InvalidArgument):
            EstimatorConfig(bits=0, samples=10)
        with pytest.raises(InvalidArgument):
            EstimatorConfig(bits=4, samples=0)
        with pytest.raises(InvalidArgument):
            EstimatorConfig(bits=4, samples=10, delta=1.5)


class TestDefaultParameters:
    def test_frozen_example(self):
        cfg = default_parameters(2, 0.1, 1e-6)
        # ceil(log2(64 * 4 / 0.1)) = ceil(11.32) = 12
        assert cfg.bits == 12
        assert cfg.delta == 0.1 - 4 / 2**12 == 0.0990234375
        # ceil(ln(2e6) / (2 * 0.0990234375**2)) = ceil(739.81) = 740
        assert cfg.samples == 740
        for n, bits, samples in [(4, 14, 740), (8, 16, 740), (12, 17, 742)]:
            cfg = default_parameters(n, 0.1, 1e-6)
            assert (cfg.bits, cfg.samples) == (bits, samples)

    def test_accuracy_split(self):
        for n in (2, 3, 5):
            for eps in (0.5, 0.1, 0.03):
                cfg = default_parameters(n, eps, 1e-9)
                # bits is the least with n**2 * 2**-bits <= eps/64
                assert n * n * 2.0**-cfg.bits <= eps / 64 < n * n * 2.0 ** (1 - cfg.bits)
                assert cfg.delta == eps - n * n * 2.0**-cfg.bits

    @pytest.mark.parametrize("n, eps", [(2, 1e-155), (2, 1e-300), (2, 5e-324), (10**400, 0.1)],
                             ids=["eps-1e-155", "eps-1e-300", "eps-5e-324", "n-1e400"])
    def test_count_past_the_float_range_refused(self, n, eps):
        # delta**2 is subnormal (1e-155) or 0 (1e-300), 64 * n**2 / eps overflows (5e-324),
        # or n is past the float range: no finite count exists
        with pytest.raises(TooLarge, match="float range"):
            default_parameters(n, eps, 1e-6)

    def test_bits_clamped(self):
        cfg = default_parameters(1, 0.999, 0.5)
        assert cfg.bits >= 1

    def test_failure_probability_round_trips(self):
        delta = default_parameters(2, 0.1, 1e-6).delta
        for samples in (740, 1000, 5000, 17411):
            cfg = EstimatorConfig(bits=8, samples=samples, delta=delta)
            _, failure = estimator_error_bound(cfg, 2)
            again = default_parameters(2, 0.1, failure)
            assert again.samples == samples

    def test_promise_holds(self):
        for n in (1, 2, 8, 64, 1697):
            for eps in (0.5, 0.1, 0.02):
                for fail_prob in (0.5, 0.05, 1e-6, 1e-12):
                    cfg = default_parameters(n, eps, fail_prob)
                    radius, failure = estimator_error_bound(cfg, n)
                    assert radius <= eps and failure <= fail_prob, (n, eps, fail_prob)

    @pytest.mark.parametrize("eps, fail_prob", [(0.1, 0.2), (0.05, 0.05)])
    def test_radius_covers_exact_value(self, eps, fail_prob):
        # 150 seeded matrices at each n in {2, 3, 4}: the estimate misses the
        # exact m(p) by more than the printed radius at most a fail_prob share
        # of the time
        rng = np.random.default_rng(30)
        misses = 0
        for n in (2, 3, 4):
            for _ in range(150):
                p = EdgeProbabilityMatrix(rng.random((n, n)))
                cfg = default_parameters(n, eps, fail_prob, seed=int(rng.integers(2**32)))
                radius, _ = estimator_error_bound(cfg, n)
                err = abs(estimate_matching_probability(p, cfg) - exact_matching_probability(p))
                misses += err > radius
        assert misses <= fail_prob * 450, misses

    def test_radius_covers_exact_value_at_six_and_seven(self):
        # beyond the exact oracle's size cap: at n = 6 the DP body is the
        # truth, at n = 7 a permuted [[A, C], [0, B]] with A 3 x 3 and B 4 x 4,
        # whose m is m(A) * m(B) (rows of B can only use columns of B)
        rng = np.random.default_rng(67)
        cases = [(p, matching._family_dp(p)) for p in seeded_matrices(606, 6, 10)]
        for _ in range(10):
            A, B, C = rng.random((3, 3)), rng.random((4, 4)), rng.random((3, 4))
            p = np.block([[A, C], [np.zeros((4, 3)), B]])
            p = p[rng.permutation(7)][:, rng.permutation(7)]
            m_a = exact_matching_probability(EdgeProbabilityMatrix(A))
            m_b = exact_matching_probability(EdgeProbabilityMatrix(B))
            cases.append((p, m_a * m_b))
        for seed, (p, truth) in enumerate(cases):
            n = len(p)
            cfg = default_parameters(n, 0.1, 1e-6, seed=seed)
            radius, _ = estimator_error_bound(cfg, n)
            est = estimate_matching_probability(EdgeProbabilityMatrix(p), cfg)
            assert abs(est - truth) <= radius, (n, seed, est, truth)

    def test_bad_arguments(self):
        with pytest.raises(InvalidArgument):
            default_parameters(0, 0.1, 0.1)
        with pytest.raises(InvalidArgument):
            default_parameters(2, 1.5, 0.1)
        with pytest.raises(InvalidArgument):
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


@pytest.mark.parametrize(
    "n, prob, draw_bytes, samples, bound",
    [
        # p = 1 gives the same graph in every sample; at one sample per block
        # of draws, holding each block's key until the end would grow with the
        # samples (4.7 MB)
        (32, 1.0, 8 << 10, 6000, 500_000),
        # random p gives distinct graphs in every block; holding them until the
        # end would grow as samples * n**2 / 8 bytes plus decoded rows (13.7 MB)
        (64, 0.5, 8 << 14, 4000, 1_000_000),
    ],
    ids=["p=1", "p=0.5"],
)
def test_estimator_memory_follows_one_block(monkeypatch, n, prob, draw_bytes, samples, bound):
    monkeypatch.setattr(core, "WORKING_SET_BYTES", draw_bytes)
    p = EdgeProbabilityMatrix.uniform(n, prob)
    cfg = EstimatorConfig(bits=8, samples=samples, seed=3)
    estimate_matching_probability(p, EstimatorConfig(bits=8, samples=2))  # first calls import
    tracemalloc.start()
    try:
        estimate = estimate_matching_probability(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate == 1.0
    assert peak < bound, peak


def test_hall_check_memory_follows_one_block(monkeypatch):
    # n = 8, eps 0.02: 18,587 samples of mostly distinct graphs.  One Hall table
    # over a whole block of 2**20 / 64 samples, with its scratch table, would take
    # 8 MiB; a block is planned so that its draws and their bools, and so its
    # table, take at most core.WORKING_SET_BYTES
    p = EdgeProbabilityMatrix(np.random.default_rng(8).random((8, 8)))
    cfg = default_parameters(8, 0.02, 1e-6, seed=4)
    estimate_matching_probability(p, EstimatorConfig(bits=8, samples=2))  # first calls import
    tracemalloc.start()
    try:
        got = estimate_matching_probability(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trunc = truncate_probabilities(p, cfg.bits).entries
    draws = np.random.default_rng(cfg.seed).random((cfg.samples, 8, 8)) < trunc
    assert got == sum(hopcroft_karp(BipartiteGraph.from_matrix(g)) for g in draws) / cfg.samples
    # the draws of one block, their bools and a few vectors of one block
    assert peak < core.WORKING_SET_BYTES * 5 // 4, peak
    # one sample per block gives the same estimate, on the Hall check and on augmenting paths
    for n in (8, 12, 32):  # p scaled to a mean degree of at most 4, so that some graphs do not match
        p = EdgeProbabilityMatrix(np.random.default_rng(n).random((n, n)) * min(1.0, 8 / n))
        few = EstimatorConfig(bits=cfg.bits, samples=300, seed=5)
        want = estimate_matching_probability(p, few)
        with monkeypatch.context() as mp:
            mp.setattr(core, "WORKING_SET_BYTES", 1)
            assert estimate_matching_probability(p, few) == want


PINNED_EXACT = json.loads((Path(__file__).parent / "data" / "matchprob_exact_stdout.json").read_text())


@pytest.mark.parametrize(
    "case", PINNED_EXACT, ids=[f"{k}-n{c['n']}" for k, c in enumerate(PINNED_EXACT)]
)
def test_matchprob_exact_stdout_is_pinned(case, tmp_path, capsys):
    """stdout of ``matchprob --mode exact`` as the dict DP printed it, byte for byte.

    ``p`` is a scalar (``--p 0.25``) or a matrix, passed as a CSV of the
    floats' reprs.
    """
    p = case["p"]
    if isinstance(p, list):
        path = tmp_path / "p.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in p))
        p = path
    assert main(["matchprob", "--n", str(case["n"]), "--p", str(p), "--mode", "exact"]) == 0
    assert capsys.readouterr().out == case["stdout"]
