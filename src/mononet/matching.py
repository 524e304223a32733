"""Perfect-matching probability of inhomogeneous random bipartite graphs.

``G(p)`` is the random bipartite graph on [n] x [n] where edge (i, j)
appears independently with probability ``p[i, j]``; ``m(p)`` is the
probability that ``G(p)`` contains a perfect matching.  The module provides

* an exact oracle (a row-wise DP over the right-vertex sets that the first
  rows can be matched onto, kept to n <= ``EXACT_MAX_N`` and used as the
  reference in every estimator test),
* a sampling estimator: truncate each entry to ``bits`` binary digits, draw
  ``samples`` independent graphs, return the fraction containing a perfect
  matching (a greedy start plus augmenting paths on each distinct graph),
  with the standard
  exponential concentration guarantee
  ``P(|m(p) - estimate| > delta + n^2 / 2**(bits/2)) <= 2*exp(-samples*delta^2/3)``,
* probes for the structural facts the estimator analysis rests on:
  ``m`` is entrywise monotone and n-Lipschitz (and 1-Lipschitz in any
  single entry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .audit import AuditReport, require_positive
from .errors import InvalidArgument, TooLarge

# Largest n the exact oracle accepts.  The DP costs (families per row) *
# 2**n steps per row: about 2 ms at n = 5 and 40 ms at n = 6.
EXACT_MAX_N = 5
# Most edge uniforms one estimate may draw (samples * n**2): n <= 351 at
# eps = 0.05 and n <= 140 at eps = 0.02 (fail_prob 1e-6).  At the cap, n = 351
# with p = 1 took 17 s and 561 MB peak RSS on a 2-vCPU host.
ESTIMATE_MAX_DRAWS = 2**33
_CHUNK_BITS = 20  # the estimator draws at most 2**20 edge uniforms per block


@dataclass(frozen=True, eq=False)
class EdgeProbabilityMatrix:
    """An (n, n) matrix of independent edge probabilities in [0, 1]."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 1:
            raise InvalidArgument(f"entries must be a square matrix, got shape {e.shape}")
        if not np.isfinite(e).all() or e.min() < 0 or e.max() > 1:
            raise InvalidArgument("edge probabilities must lie in [0, 1]")
        e = np.ascontiguousarray(e)
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def uniform(cls, n: int, p: float) -> "EdgeProbabilityMatrix":
        if n < 1:
            raise InvalidArgument(f"n must be >= 1, got {n}")
        return cls(np.full((n, n), float(p)))

    def __eq__(self, other):
        if not isinstance(other, EdgeProbabilityMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __repr__(self):
        return f"EdgeProbabilityMatrix(n={self.n})"


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on [n] x [n]; ``rows[i]`` is the bitmask of right
    neighbors of left vertex i."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.rows) != self.n:
            raise InvalidArgument("need one adjacency mask per left vertex")
        full = (1 << self.n) - 1
        if any(r < 0 or r > full for r in self.rows):
            raise InvalidArgument("adjacency mask outside the vertex range")

    @classmethod
    def from_edges(cls, n: int, edges) -> "BipartiteGraph":
        rows = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidArgument(f"edge ({i}, {j}) outside [0, {n})")
            rows[i] |= 1 << j
        return cls(n, tuple(rows))

    @classmethod
    def from_matrix(cls, adj) -> "BipartiteGraph":
        A = np.asarray(adj, dtype=bool)
        packed = np.packbits(A, axis=1, bitorder="little")
        return cls(A.shape[0], tuple(int.from_bytes(row.tobytes(), "little") for row in packed))

    @classmethod
    def complete(cls, n: int) -> "BipartiteGraph":
        return cls(n, ((1 << n) - 1,) * n)


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling parameters: precision bits, replica count, seed, accuracy."""

    bits: int
    samples: int
    seed: int = 0
    delta: float = 0.1

    def __post_init__(self):
        if self.bits < 1:
            raise InvalidArgument("bits must be >= 1")
        if self.samples < 1:
            raise InvalidArgument("samples must be >= 1")
        if not 0 < self.delta < 1:
            raise InvalidArgument("delta must lie in (0, 1)")

    def with_seed(self, seed: int) -> "EstimatorConfig":
        return replace(self, seed=seed)


def has_perfect_matching(g: BipartiteGraph) -> bool:
    """True iff ``g`` has a perfect matching: a greedy start, then augmenting paths.

    The greedy pass gives each left vertex its lowest free neighbour.  Each
    left vertex it leaves unmatched then needs an augmenting path (Kuhn
    1955), found depth-first with the visited right vertices kept in one
    bitmask per search.  The search keeps its path on an explicit stack, so
    no path length meets Python's recursion limit.  A left vertex with no
    augmenting path stays unmatched in every maximum matching, so the
    answer is False at once.
    """
    rows = g.rows
    owner = [0] * g.n  # owner[j]: the left vertex matched to right vertex j
    free = (1 << g.n) - 1  # bitmask of the unmatched right vertices
    unmatched = []
    for u, adj in enumerate(rows):
        hit = adj & free
        if hit:
            bit = hit & -hit
            free ^= bit
            owner[bit.bit_length() - 1] = u
        else:
            unmatched.append(u)
    for u in unmatched:
        seen = adj = rows[u]  # seen: the right vertices this search has reached
        path = []  # (left vertex, its untried neighbours, the right vertex it tries)
        while not adj & free:
            while not adj:
                if not path:
                    return False
                u, adj, _ = path.pop()
            bit = adj & -adj
            j = bit.bit_length() - 1
            path.append((u, adj ^ bit, j))
            u = owner[j]
            adj = rows[u] & ~seen
            seen |= adj
        hit = adj & free
        bit = hit & -hit
        free ^= bit
        owner[bit.bit_length() - 1] = u
        for w, _, j in path:
            owner[j] = w
    return True


def require_exact_size(n: int) -> None:
    """Raise :class:`TooLarge` when the exact oracle cannot take ``n``."""
    if n > EXACT_MAX_N:
        raise TooLarge(f"exact m(p) is limited to n <= {EXACT_MAX_N}, got {n}")


def require_estimate_size(n: int, samples: int) -> None:
    """Raise :class:`TooLarge` when ``samples`` graphs on n x n need too many draws."""
    if samples * n * n > ESTIMATE_MAX_DRAWS:
        raise TooLarge(
            f"the estimate needs {samples} samples of {n * n} edges, more than "
            f"{ESTIMATE_MAX_DRAWS} draws; raise eps or fail-prob"
        )


def exact_matching_probability(p: EdgeProbabilityMatrix) -> float:
    """Exact m(p) by a row-wise DP over the matchable right-sets.

    After k rows the state is the family of k-subsets S of right vertices
    onto which the first k left vertices can be perfectly matched (the
    bases of a transversal matroid), encoded as an integer whose bit S is
    set iff S is in the family.  Rows are independent, so each row maps
    every family to its successor under each of the 2**n neighbourhoods,
    weighted by the neighbourhood's probability.  m(p) is the total weight
    of the non-empty families after n rows.  Raises :class:`TooLarge` above
    ``EXACT_MAX_N``.
    """
    n = p.n
    require_exact_size(n)
    hoods = range(1 << n)
    # bit S of without[j] is set iff j is not in S
    without = [sum(1 << s for s in hoods if not s >> j & 1) for j in range(n)]
    states = {1: 1.0}  # the empty set is the only 0-subset
    for row in p.entries:
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


def truncate_probabilities(p: EdgeProbabilityMatrix, bits: int) -> EdgeProbabilityMatrix:
    """Keep the ``bits`` most significant binary digits: floor(p * 2**bits) / 2**bits.

    The result is exactly dyadic (scaling by a power of two is exact in
    float64), idempotent, and entrywise within 2**-bits below the input.
    """
    if bits < 1:
        raise InvalidArgument("bits must be >= 1")
    scale = 2.0**bits
    out = np.floor(p.entries * scale) / scale
    return EdgeProbabilityMatrix(np.clip(out, 0.0, 1.0))


def truncation_error_bounds(n: int, bits: int) -> tuple[float, float]:
    """Euclidean distance bounds ||p - truncated p|| -> (coarse, sharp).

    The coarse bound ``sqrt(n**2 / 2**bits)`` is the one used in the
    estimator guarantee; entrywise truncation error below ``2**-bits``
    actually gives the sharper ``n * 2**-bits``.
    """
    coarse = math.sqrt(n * n / 2.0**bits)
    sharp = n * 2.0**-bits
    return coarse, sharp


def estimator_error_bound(cfg: EstimatorConfig, n: int) -> tuple[float, float]:
    """(error radius, failure probability) of the concentration guarantee."""
    radius = cfg.delta + n * n / 2.0 ** (cfg.bits / 2.0)
    failure = 2.0 * math.exp(-cfg.samples * cfg.delta**2 / 3.0)
    return radius, failure


def estimate_matching_probability(p: EdgeProbabilityMatrix, cfg: EstimatorConfig) -> float:
    """Monte Carlo estimate of m(p), deterministic given ``cfg.seed``.

    Entries are truncated to ``cfg.bits`` binary digits, ``cfg.samples``
    graphs are drawn (edge present iff its uniform draw is < the truncated
    probability), and the perfect-matching fraction is returned.  Samples
    are drawn replica-major, so distinct replicas use independent stream
    sections.  Each block of draws is deduplicated as it is drawn, and one
    last ``np.unique`` over the blocks' distinct graphs leaves each distinct
    graph to be matched once, so memory follows the distinct graphs rather
    than the samples.  Raises :class:`TooLarge` when the draws would exceed
    ``ESTIMATE_MAX_DRAWS``.
    """
    n = p.n
    require_estimate_size(n, cfg.samples)
    trunc = truncate_probabilities(p, cfg.bits).entries
    rng = np.random.default_rng(cfg.seed)
    max_rows = max(1, (1 << _CHUNK_BITS) // (n * n))
    width = (n + 7) // 8  # bytes per packed row
    graph = np.dtype((np.void, n * width))  # one packed graph as one opaque item
    keys, counts = [], []
    for start in range(0, cfg.samples, max_rows):
        draws = rng.random((min(max_rows, cfg.samples - start), n, n))
        # bit j of row i (little-endian bytes) is edge (i, j)
        block = np.packbits(draws < trunc, axis=2, bitorder="little")
        uniq, count = np.unique(block.reshape(len(block), -1).view(graph), return_counts=True)
        keys.append(uniq)
        counts.append(count)
    uniq, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    found = np.zeros(len(uniq), dtype=bool)
    for k, sample in enumerate(uniq):
        key = sample.tobytes()
        rows = tuple(int.from_bytes(key[i * width : (i + 1) * width], "little") for i in range(n))
        found[k] = has_perfect_matching(BipartiteGraph(n, rows))
    hits = int(np.concatenate(counts)[found[inverse]].sum())
    return hits / cfg.samples


def default_parameters(
    n: int, eps: float, fail_prob: float, seed: int = 0
) -> EstimatorConfig:
    """Instantiate the estimator so that |m(p) - estimate| <= eps except with
    probability ``fail_prob``.

    Precision covers half the budget (``n**2 / 2**(bits/2) <= eps/2``) and
    the sampling deviation ``delta = eps/2`` covers the rest, with the
    replica count inverted from the concentration bound
    ``2*exp(-samples*delta^2/3) <= fail_prob``.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    if not 0 < eps < 1:
        raise InvalidArgument("eps must lie in (0, 1)")
    if not 0 < fail_prob < 1:
        raise InvalidArgument("fail_prob must lie in (0, 1)")
    bits = max(1, math.ceil(math.log2(4.0 * n**4 / eps**2)) + 1)
    delta = eps / 2.0
    # the 1e-9 backoff keeps the ceil stable when fail_prob was itself
    # produced by the bound for an integer sample count
    samples = math.ceil(3.0 * math.log(2.0 / fail_prob) / delta**2 - 1e-9)
    return EstimatorConfig(bits=bits, samples=max(1, samples), seed=seed, delta=delta)


# -- structural probes of m ---------------------------------------------------

_PROBE_TOL = 1e-10


def lipschitz_probe(pairs: int, n: int, seed: int) -> AuditReport:
    """Check |m(p) - m(p')| <= n * ||p - p'|| on random matrix pairs.

    Each round also perturbs a single entry and checks the sharper bound
    that m moves by at most the size of that perturbation.  Ground truth is
    the exact oracle, so ``n`` is limited to ``EXACT_MAX_N``.
    """
    require_positive(pairs, "pairs")
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        a = EdgeProbabilityMatrix(rng.random((n, n)))
        b = EdgeProbabilityMatrix(rng.random((n, n)))
        ma, mb = exact_matching_probability(a), exact_matching_probability(b)
        dist = float(np.linalg.norm(a.entries - b.entries))
        if abs(ma - mb) > n * dist + _PROBE_TOL:
            return AuditReport(
                "lipschitz-m",
                passed=False,
                witness={"p": a.entries.tolist(), "p2": b.entries.tolist(),
                         "m": ma, "m2": mb, "distance": dist},
                samples=pairs,
                seed=seed,
            )
        i, j = rng.integers(n), rng.integers(n)
        entries = np.array(a.entries)
        entries[i, j] = rng.random()
        rho = abs(float(entries[i, j] - a.entries[i, j]))
        mc = exact_matching_probability(EdgeProbabilityMatrix(entries))
        if abs(ma - mc) > rho + _PROBE_TOL:
            return AuditReport(
                "lipschitz-m",
                passed=False,
                witness={"p": a.entries.tolist(), "entry": [int(i), int(j)],
                         "rho": rho, "m": ma, "m2": mc},
                samples=pairs,
                seed=seed,
            )
    return AuditReport("lipschitz-m", passed=True, samples=pairs, seed=seed)


def monotone_probe_m(pairs: int, n: int, seed: int) -> AuditReport:
    """Check m(p) <= m(p') for random entrywise-ordered pairs p <= p'.

    Ground truth is the exact oracle, so ``n`` is limited to ``EXACT_MAX_N``.
    """
    require_positive(pairs, "pairs")
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        lo = rng.random((n, n))
        hi = lo + (1.0 - lo) * rng.random((n, n))
        m_lo = exact_matching_probability(EdgeProbabilityMatrix(lo))
        m_hi = exact_matching_probability(EdgeProbabilityMatrix(hi))
        if m_lo > m_hi + _PROBE_TOL:
            return AuditReport(
                "monotone-m",
                passed=False,
                witness={"p": lo.tolist(), "p2": hi.tolist(), "m": m_lo, "m2": m_hi},
                samples=pairs,
                seed=seed,
            )
    return AuditReport("monotone-m", passed=True, samples=pairs, seed=seed)
