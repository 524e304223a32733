"""Reference computations the benchmark checks mononet's outputs against.

They share no code with ``mononet``: the interpolant is checked against its
closed form, the perfect-matching probability against a row-wise dynamic
program, and both of those against brute force in ``test_oracles.py``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np


def interpolant_closed_form(points, labels, queries) -> np.ndarray:
    """``f(x) = max{y_i : x_i <= x}``, or ``min(0, min_i y_i)`` when no point lies below ``x``.

    This is the function the paper's depth-4 interpolator computes.  The
    baseline is the label shift of the telescoping output stage: 0 for
    nonnegative labels, else the smallest label.
    """
    X = np.asarray(points, dtype=float)
    y = np.asarray(labels, dtype=float)
    Q = np.asarray(queries, dtype=float)
    below = np.all(X[None, :, :] <= Q[:, None, :], axis=2)
    baseline = min(0.0, float(y.min()))
    return np.where(below.any(axis=1), np.where(below, y, -np.inf).max(axis=1), baseline)


def matching_probability_dp(p) -> float:
    """Exact ``m(p)`` by a row-wise DP over the matchable right-sets.

    After k rows the state is the family of k-subsets S of right vertices
    (as bitmasks) onto which the first k left vertices can be perfectly
    matched.  Rows are independent, so the next family is a function of the
    current one and the next row's neighbourhood, summed over all 2**n
    neighbourhoods.  The graph has a perfect matching iff the final family
    is non-empty.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    hoods = np.arange(1 << n)
    present = ((hoods[:, None] >> np.arange(n)) & 1).astype(bool)
    members = [[j for j in range(n) if hood >> j & 1] for hood in range(1 << n)]
    states = {frozenset([0]): 1.0}
    for i in range(n):
        hood_prob = np.where(present, p[i], 1.0 - p[i]).prod(axis=1)
        nxt: dict[frozenset, float] = defaultdict(float)
        for family, prob in states.items():
            for hood in range(1 << n):
                grown = frozenset(
                    s | 1 << j for s in family for j in members[hood] if not s >> j & 1
                )
                if grown:
                    nxt[grown] += prob * float(hood_prob[hood])
        states = nxt
    return float(sum(states.values()))


def matching_probability_brute(p) -> float:
    """``m(p)`` by enumerating every edge set and every permutation (n <= 4)."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    flat = p.reshape(-1)
    masks = np.arange(1 << (n * n))
    edges = ((masks[:, None] >> np.arange(n * n)) & 1).astype(bool)
    prob = np.where(edges, flat, 1.0 - flat).prod(axis=1)
    matched = np.zeros(len(masks), dtype=bool)
    for perm in itertools.permutations(range(n)):
        matched |= edges[:, [i * n + perm[i] for i in range(n)]].all(axis=1)
    return float(prob[matched].sum())


def truncate(p, bits: int) -> np.ndarray:
    """``floor(p * 2**bits) / 2**bits``: the estimator's dyadic truncation."""
    return np.floor(np.asarray(p, dtype=float) * 2.0**bits) / 2.0**bits
