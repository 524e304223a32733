"""Perfect-matching probability of inhomogeneous random bipartite graphs.

``G(p)`` is the random bipartite graph on [n] x [n] where edge (i, j)
appears independently with probability ``p[i, j]``; ``m(p)`` is the
probability that ``G(p)`` contains a perfect matching.  The module provides

* an exact oracle (a row-wise DP over the right-vertex sets that the first
  rows can be matched onto, kept to n <= ``EXACT_MAX_N`` and used as the
  reference in every estimator test); its transitions depend only on n, so
  they are planned once per n and a call does only the float work,
* a sampling estimator: truncate each entry to ``bits`` binary digits, draw
  ``samples`` independent graphs, return the fraction containing a perfect
  matching (Hall's condition on every subset of rows, as array operations
  over all distinct graphs at once, for n <= 8; a greedy start plus
  augmenting paths on each distinct graph above),
  with the guarantee
  ``P(|m(p) - estimate| > delta + n^2 * 2**-bits) <= 2*exp(-2*samples*delta^2)``
  (truncation costs less than n^2 * 2**-bits by coupling, Hoeffding's
  inequality bounds the sampling error; see :func:`estimator_error_bound`),
* probes for the structural facts the estimator analysis rests on:
  ``m`` is entrywise monotone and n-Lipschitz (and 1-Lipschitz in any
  single entry).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .audit import AuditReport, require_positive
from .errors import InvalidArgument, TooLarge

# Largest n the exact oracle accepts.  A call costs (families per row) *
# 2**n float steps per row, as array operations: about 0.08 ms at n = 5 and
# 1.2 ms at n = 6 on a 2-vCPU host with one BLAS thread, after a plan built
# once per n (0.7 ms and 0.18 MiB at n = 5, 17 ms and 3.6 MiB at n = 6).
# Its uint64 families hold n <= 6.
EXACT_MAX_N = 5
# Most edge uniforms one estimate may draw (samples * n**2): n <= 1697 at
# eps = 0.05 and n <= 680 at eps = 0.02 (fail_prob 1e-6).  Near the cap (n = 351, eps 0.0104: 68,576
# samples, p = 0.5) a run took 43 s and 40 MB peak RSS on a 2-vCPU host with one BLAS thread; above
# n = 341 a block is one sample, so each sample's graph is checked alone.  A p whose truncated
# entries are all 0 or 1 is one graph, checked once with no draw: 0.3 s for the whole process.
ESTIMATE_MAX_DRAWS = 2**33


@dataclass(frozen=True, eq=False)
class EdgeProbabilityMatrix:
    """An (n, n) matrix of independent edge probabilities in [0, 1]."""

    entries: np.ndarray

    def __post_init__(self):
        e = core.frozen(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 1:
            raise InvalidArgument(f"entries must be a square matrix, got shape {e.shape}")
        if not np.isfinite(e).all() or e.min() < 0 or e.max() > 1:
            raise InvalidArgument("edge probabilities must lie in [0, 1]")
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
    return _matches(g.rows)


def _matches(rows) -> bool:
    """The body of :func:`has_perfect_matching` on a sequence of row bitmasks.

    The estimator calls it above n = 8 on raw decoded rows, which are in
    range by construction, so no :class:`BipartiteGraph` is validated per
    sample.
    """
    owner = [0] * len(rows)  # owner[j]: the left vertex matched to right vertex j
    free = (1 << len(rows)) - 1  # bitmask of the unmatched right vertices
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
    require_exact_size(p.n)
    return _family_dp(p.entries)


@functools.cache
def _dp_plan(n: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray, int], ...]]:
    """The read-only plan of :func:`_family_dp` on n right vertices.

    ``members[h, j]``: j is in neighbourhood h.  Row k's step is ``(keep,
    label, count)``: the families after k rows, each with every
    neighbourhood, give the flat (families, 2**n) successor table, whose
    nonzero cells ``keep`` go to the ``count`` families after row k + 1,
    numbered by first appearance, as ``label``.  No step depends on p: the
    DP keeps every family reachable from the empty set, weight 0 or not.

    A family is a ``uint64`` (2**n <= 64 bits).  Bit S of ``without[j]`` is
    set iff j is not in S, and ``shift[j]`` is 2**j, so ``(family &
    without[j]) << shift[j]`` maps S to S | {j}.  Bit operations mix only
    ``uint64`` operands: numpy 1.x casts ``uint64`` with a Python int to
    float64.
    """
    hoods = range(1 << n)
    members = np.array([[h >> j & 1 for j in range(n)] for h in hoods], dtype=bool)
    without = np.array(
        [sum(1 << s for s in hoods if not s >> j & 1) for j in range(n)], dtype=np.uint64
    )
    shift = np.array([1 << j for j in range(n)], dtype=np.uint64)
    families = np.ones(1, dtype=np.uint64)  # the empty set is the only 0-subset
    steps = []
    for _ in range(n):
        # S -> S | {j} for every S in the family that misses j
        grown = (families[:, None] & without) << shift
        succ = np.zeros((len(families), 1), dtype=np.uint64)
        for j in range(n):  # column h ORs the grown sets of the bits of h
            succ = np.concatenate([succ, succ | grown[:, j : j + 1]], axis=1)
        succ = succ.ravel()
        keep = np.flatnonzero(succ)
        families, label = _first_seen(succ[keep])
        keep.flags.writeable = label.flags.writeable = False
        steps.append((keep, label, len(families)))
    members.flags.writeable = False
    return members, tuple(steps)


def _family_dp(entries: np.ndarray) -> float:
    """The body of :func:`exact_matching_probability`, for n <= 6.

    The families and their successors come from the cached plan
    :func:`_dp_plan`, so a call does only float work.  The probability of
    neighbourhood h in row i is its factors multiplied left to right, one
    column at a time, for all rows at once.  Each row's weights are summed
    family-major, neighbourhood-minor by ``np.bincount``, which adds from
    0.0 in array order, and the families are numbered in order of first
    appearance, so every sum is the same sequence of float additions as a
    dict accumulated in that order, bit for bit.  The total is Python's
    left-to-right ``sum`` (``np.sum`` adds pairwise).
    """
    members, steps = _dp_plan(len(entries))
    rows = entries[:, None, :]
    factors = np.where(members, rows, 1.0 - rows)  # (row, neighbourhood, column)
    hood_prob = factors[:, :, 0].copy()
    for j in range(1, len(entries)):
        hood_prob *= factors[:, :, j]
    weights = np.ones(1)
    for (keep, label, count), prob in zip(steps, hood_prob):
        weights = np.bincount(label, (weights[:, None] * prob).ravel()[keep], minlength=count)
    return min(1.0, sum(weights.tolist()))


def _first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in order of first appearance, and each value's index there.

    One unstable argsort: the first appearance of a value is the least
    position among its equal run, whatever order the sort leaves them in.
    """
    perm = np.argsort(values)
    ordered = values[perm]
    new_run = np.empty(len(ordered), dtype=bool)
    new_run[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    order = np.argsort(np.minimum.reduceat(perm, starts))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    label = np.empty_like(perm)
    label[perm] = rank[np.cumsum(new_run) - 1]
    return ordered[starts][order], label


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


def estimator_error_bound(cfg: EstimatorConfig, n: int) -> tuple[float, float]:
    """(error radius, failure probability) of the estimator's guarantee.

    ``P(|m(p) - estimate| > delta + n^2 * 2**-bits) <= 2*exp(-2*samples*delta^2)``.

    Truncation: draw G(p) and G(trunc p) from the same edge uniforms U_ij.
    They differ only if some U_ij falls in [trunc p_ij, p_ij), which has
    probability p_ij - trunc p_ij < 2**-bits, so by the union bound
    ``|m(p) - m(trunc p)| <= sum_ij (p_ij - trunc p_ij) < n^2 * 2**-bits``.
    Sampling: the estimate is the mean of ``samples`` i.i.d. 0/1 draws with
    mean m(trunc p), and Hoeffding's inequality (1963) bounds its deviation
    beyond ``delta`` by ``2*exp(-2*samples*delta^2)``.
    """
    radius = cfg.delta + n * n * 2.0**-cfg.bits
    failure = 2.0 * math.exp(-2.0 * cfg.samples * cfg.delta**2)
    return radius, failure


def estimate_matching_probability(p: EdgeProbabilityMatrix, cfg: EstimatorConfig) -> float:
    """Monte Carlo estimate of m(p), deterministic given ``cfg.seed``.

    Entries are truncated to ``cfg.bits`` binary digits, ``cfg.samples``
    graphs are drawn (edge present iff its uniform draw is < the truncated
    probability), and the perfect-matching fraction is returned.  Samples
    are drawn replica-major, so distinct replicas use independent stream
    sections.  Each block of :func:`core.row_blocks` is drawn, packed,
    deduplicated and checked before the next, so memory follows one block
    and only the count of hits carries over.  A block's draws and their
    bools, and so its Hall table, take at most ``core.WORKING_SET_BYTES``
    (or one sample).  The estimate does not depend on the blocks.  When
    every truncated entry is 0 or 1, every draw gives the same graph, so
    that graph is checked once and nothing is drawn.  Raises
    :class:`TooLarge` above ``ESTIMATE_MAX_DRAWS`` draws.
    """
    n = p.n
    require_estimate_size(n, cfg.samples)
    trunc = truncate_probabilities(p, cfg.bits).entries
    if ((trunc == 0.0) | (trunc == 1.0)).all():  # every draw is this one graph
        return float(_matches(BipartiteGraph.from_matrix(trunc).rows))
    rng = np.random.default_rng(cfg.seed)
    width = (n + 7) // 8  # bytes per packed row
    graph = np.dtype((np.void, n * width))  # one packed graph as one opaque item
    hits = 0
    # a sample's draws and their bools; at n <= 8 its Hall table, 2**(n+1) + n bytes, is smaller
    for s in core.row_blocks(cfg.samples, 9 * n * n, core.WORKING_SET_BYTES):
        # bit j of row i (little-endian bytes) is edge (i, j)
        block = np.packbits(rng.random((s.stop - s.start, n, n)) < trunc, axis=2, bitorder="little")
        uniq, count = np.unique(block.reshape(len(block), -1).view(graph), return_counts=True)
        hits += int(count[_perfect_matchings(uniq, n, width)].sum())
    return hits / cfg.samples


def _perfect_matchings(graphs: np.ndarray, n: int, width: int) -> np.ndarray:
    """Whether each packed graph has a perfect matching, as a bool array.

    Rows of one byte (n <= 8) are checked by Hall's theorem (1935): a
    perfect matching exists iff every set S of rows sees at least |S|
    columns.  The neighbourhoods of all 2**n row sets of all graphs are one
    (2**n, graphs) ``uint8`` table, built by doubling: N[S] = N[S without
    its top row] | that row, in one pass: ``2**(n+1) + n`` bytes per graph
    with a scratch table and the rows, less than the ``9 * n**2`` bytes of a
    sample's draws and their bools.  The table grows as 2**n per graph, so
    wider rows go to :func:`_matches` one graph at a time, faster there.
    """
    if width > 1:
        return np.fromiter(map(_matches, _decode_rows(graphs, n, width)), bool, len(graphs))
    cols = np.ascontiguousarray(graphs.view("<u1").reshape(-1, n).T)  # cols[i]: row i of every graph
    sets = np.arange(1 << n, dtype=np.uint8)
    slack = (np.uint8(n) - _popcount8(sets, np.empty_like(sets)))[:, None]  # n - |S|
    table = np.empty((1 << n, len(graphs)), dtype=np.uint8)
    table[0] = 0
    for i in range(n):
        np.bitwise_or(table[: 1 << i], cols[i], out=table[1 << i : 2 << i])
    _popcount8(table, np.empty_like(table))
    table += slack  # |N(S)| + n - |S| <= 2n, and >= n iff |N(S)| >= |S|
    return table.min(axis=0) >= n


def _popcount8(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The bit count of each byte of a ``uint8`` array, in place, with ``t`` as scratch.

    Three SWAR steps (SIMD within a register); ``np.bitwise_count`` needs numpy 2.0.
    """
    np.right_shift(x, 1, out=t)
    t &= 0x55
    x -= t  # bit pairs hold their counts
    np.right_shift(x, 2, out=t)
    t &= 0x33
    x &= 0x33
    x += t  # nibbles hold their counts
    np.right_shift(x, 4, out=t)
    x += t
    x &= 0x0F
    return x


def _decode_rows(graphs: np.ndarray, n: int, width: int) -> list:
    """The row bitmasks of packed graphs, one list of n ints per graph.

    Rows of 2, 4 or 8 bytes are read as little-endian machine words in one
    pass; other widths are read with ``int.from_bytes``.
    """
    if width in (2, 4, 8):
        return graphs.view(f"<u{width}").reshape(len(graphs), n).tolist()
    data = graphs.tobytes()
    rows = [int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width)]
    return [rows[k : k + n] for k in range(0, len(rows), n)]


def default_parameters(
    n: int, eps: float, fail_prob: float, seed: int = 0
) -> EstimatorConfig:
    """Instantiate the estimator so that |m(p) - estimate| <= eps except with
    probability ``fail_prob``.

    Precision takes at most eps/64 of the budget: ``bits`` is the least
    with ``n**2 * 2**-bits <= eps/64``.  The sampling deviation ``delta`` is
    the rest, ``eps - n**2 * 2**-bits``, and the replica count is the least
    with ``2*exp(-2*samples*delta^2) <= fail_prob`` (see
    :func:`estimator_error_bound`).
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    if not 0 < eps < 1:
        raise InvalidArgument("eps must lie in (0, 1)")
    if not 0 < fail_prob < 1:
        raise InvalidArgument("fail_prob must lie in (0, 1)")
    try:
        bits = math.ceil(math.log2(64.0 * n * n / eps))
        delta = eps - n * n * 2.0**-bits
        # the 1e-9 backoff keeps the ceil stable when fail_prob was itself
        # produced by the bound for an integer sample count
        samples = math.ceil(math.log(2.0 / fail_prob) / (2.0 * delta**2) - 1e-9)
    except (OverflowError, ZeroDivisionError):  # a count past the float range, or delta**2 == 0
        raise TooLarge(
            f"the estimate at n = {n} and eps = {eps} needs a bit or sample count "
            "past the float range; raise eps"
        ) from None
    return EstimatorConfig(bits=bits, samples=samples, seed=seed, delta=delta)


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
