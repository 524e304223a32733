"""Domain types: threshold semantics, monotone datasets, threshold networks.

Conventions used throughout the package:

* A *point* is a row of finite reals: a dataset is an (n, d) array of
  points and an (n,) array of labels, float64 inside.  The partial order is
  coordinatewise: ``x >= y`` iff every coordinate of ``x`` is >= the
  matching coordinate of ``y``.
* A hidden layer computes ``sigma(W @ a + b)`` elementwise, where ``sigma``
  is either the unit step (1 for arguments >= 0, else 0) or ReLU.  Note the
  bias is *added*; a unit that should fire when a coordinate reaches a
  stored value ``c`` therefore carries bias ``-c``.
* The final stage is affine: ``output_weights @ a + output_bias``, in float
  summed row by row, one block of rows at a time.  An exact stage also keeps
  its exact values, as Python ints over one scale (:class:`ExactStage`).
* A network is *monotone* when every hidden weight and every output weight
  is nonnegative (biases are unrestricted).  With monotone activations this
  is a sufficient structural certificate for the network computing a
  monotone function.

Float comparisons against stored coordinates are exact: IEEE-754 subtraction
of two finite doubles is zero only when they are equal (gradual underflow),
so ``sigma(x - c)`` fires exactly when ``x >= c``.  The builders in
:mod:`mononet.construct` rely on this.  ``ThresholdLayer.forward`` is the one
layer body: it takes a float64 batch, a bool batch or an object array of
Fractions, and ``evaluate_batch_exact`` runs each layer in float where that
is provably exact and on Fractions otherwise.

A threshold layer returns a bool batch, one byte per unit.  A select unit
compares its input with ``-b`` directly, by the argument above, and a
weight-pattern unit on a bool input counts its set inputs in an integer
dtype: a count ``S`` below 2**53 is exact in float, so ``S + b >= 0`` iff
``S >= ceil(-b)``.  Either way the bits are those of ``sigma(W @ a + b)``
in float64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    EmptyDataset,
    InvalidArgument,
    InvalidNumber,
    MonotoneViolation,
    TooLarge,
)

THRESHOLD = "threshold"
RELU = "relu"

_ACTIVATIONS = (THRESHOLD, RELU)
DENSE, BLOCKS, SUFFIX, SELECT = "dense", "blocks", "suffix", "select"  # the kinds of layer weights

# Exact float integer arithmetic is guaranteed below this magnitude.
_EXACT_INT_LIMIT = 2.0**53

WORKING_SET_BYTES = 1 << 20  # the one byte budget: every blocked loop (see row_blocks) and a dominance index

EXACT_SCALE_BITS = 2048  # an exact output stage's largest scale; a float's denominator has <= 1,075 bits


def threshold(z) -> int:
    """Unit step with a closed boundary: 1 if ``z >= 0``, else 0.

    Accepts floats, ints, and Fractions.  NaN or infinite input raises
    :class:`InvalidNumber`.
    """
    if isinstance(z, (float, np.floating)) and not math.isfinite(z):
        raise InvalidNumber(f"threshold() needs a finite number, got {z!r}")
    return 1 if z >= 0 else 0


def frozen(values, dtype=float) -> np.ndarray:
    """A read-only C-ordered copy of ``values`` as ``dtype``.

    It is always a copy: freezing the caller's own array in place would make
    a later write to it raise, and a write through a view would change the
    object that holds it.
    """
    a = np.array(values, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


def row_blocks(rows: int, row_bytes: int) -> Iterator[slice]:
    """Slices that partition ``range(rows)``, in order, into blocks of ``WORKING_SET_BYTES`` (read at
    each call) at ``row_bytes`` a row.  A larger row gets a slice of its own, and ``rows = 0`` one
    empty slice.  The slices are made as they are taken: a plan of many blocks holds none."""
    step = max(1, WORKING_SET_BYTES // max(row_bytes, 1))
    return (slice(s, min(s + step, rows)) for s in range(0, max(rows, 1), step))


def pairwise_leq(points: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
    """Boolean M with M[i, j] = (points[i] <= others[j] coordinatewise); others defaults to points.

    One :class:`DominanceIndex` of ``others`` answers the rows in the blocks of :func:`row_blocks`,
    so the peak is M, the index and one block."""
    others = points if others is None else others
    index = DominanceIndex(others)
    M = np.empty((len(points), len(others)), dtype=bool)
    for s in row_blocks(len(points), index.row_bytes):
        M[s] = index.leq(points[s])
    return M


def _index_blocks(n: int, d: int) -> tuple[int, int]:
    """``(blocks, width)`` of a :class:`DominanceIndex` of n points in d coordinates: the fewest blocks
    of ``width`` columns, a multiple of 64 and at least 64, whose index of at most
    ``d * blocks * width * (width + 129) / 8`` bytes fits ``WORKING_SET_BYTES``."""
    budget = 8 * WORKING_SET_BYTES
    room = budget // (d * n) - 129 if d * n else n  # the widest block that n columns could fill
    blocks = max(1, -(-n // max(room, 1)))
    while True:
        width = 64 * max(1, -(-n // (64 * blocks)))
        if width == 64 or d * blocks * width * (width + 129) <= budget:
            return max(1, -(-n // width)), width
        blocks += 1


class DominanceIndex:
    """The points ``others``, an (n, d) array, indexed once so that :meth:`leq` answers
    ``points[i] <= others[j]`` coordinatewise for any number of blocks of queries.

    Per coordinate the values are sorted once, and ``others[j] >= q`` becomes a suffix of that
    order: with ``k`` the count of values below ``q`` and ``r_j`` the count below ``others[j]``,
    ``others[j] >= q`` iff ``r_j >= k``.  The columns are cut into blocks of ``width``, a multiple
    of 64; within a block they are sorted by ``r_j``, and row p of the block's table is the bitset of
    its columns at sorted positions p and after, one ``bitwise_or.accumulate`` from the end.  A
    query finds ``k`` by one ``searchsorted`` of the values, the position of ``k`` in every block by
    one ``searchsorted`` of the blocks' sorted ranks (each block offset by n + 1), gathers those
    table rows as ``uint64`` words and ANDs them over the coordinates; ``np.unpackbits`` gives the
    bools.  This is the sort-based dominance of Kung, Luccio and Preparata (JACM 1975), bit-parallel.

    IEEE semantics: a NaN coordinate on either side is never ``<=``.  A NaN of ``others`` sets no bit
    (nor does a padding column), and a NaN query counts every other value below it, so it reads
    only NaN columns.  ``-0.0`` and ``0.0`` sort and compare as equal.

    The index takes ``d * blocks * width * (width + 129) / 8`` bytes, planned by
    :func:`_index_blocks` to fit ``WORKING_SET_BYTES``; at the floor of 64 columns a block it
    exceeds the budget once d·n passes about 43,000.
    """

    def __init__(self, others: np.ndarray):
        others = np.asarray(others, dtype=float)
        n, d = others.shape
        blocks, width = _index_blocks(n, d)
        self.n, self.blocks, self.width = n, blocks, width
        self._offsets = np.arange(blocks) * (n + 1)  # ranks are 0 .. n, so the blocks stay apart
        self._keys = np.empty((d, n))
        self._ranks = np.empty((d, blocks * width), dtype=np.intp)
        self._tables = np.zeros((d, blocks * (width + 1), width // 64), dtype="<u8")
        for g in row_blocks(d, 64 * (n + blocks * width)):  # a coordinate's temporaries: about 8 words a column
            self._index(others[:, g].T, g)

    def _index(self, values: np.ndarray, g: slice) -> None:
        """Index the coordinates ``g``, whose (k, n) ``values`` are the rows, into their rows of the index."""
        k, n = values.shape
        blocks, width = self.blocks, self.width
        order = np.argsort(values, axis=1, kind="stable")  # NaN sorts last
        keys = self._keys[g]
        keys[...] = np.take_along_axis(values, order, axis=1)
        # a value's rank is where its run of equal values starts; NaN != NaN, so each NaN is its own run
        starts = np.zeros((k, n), dtype=np.intp)
        starts[:, 1:] = np.where(keys[:, 1:] != keys[:, :-1], np.arange(1, n), 0)
        ranks = np.full((k, blocks, width), n)  # a padding column ranks after every value
        np.put_along_axis(ranks.reshape(k, blocks * width)[:, :n], order, np.maximum.accumulate(starts, axis=1), axis=1)
        valid = np.zeros((k, blocks, width), dtype=bool)  # NaN and padding set no bit
        valid.reshape(k, blocks * width)[:, :n] = ~np.isnan(values)
        within = np.argsort(ranks, axis=2)  # each block's columns by rank
        ranks = np.take_along_axis(ranks, within, axis=2)
        ranks += self._offsets[:, None]
        self._ranks[g] = ranks.reshape(k, blocks * width)
        bits = np.take_along_axis(valid, within, axis=2).astype(np.uint64) << (within % 64).astype(np.uint64)
        tables = self._tables[g].reshape(k, blocks, width + 1, width // 64)
        c, b, t = np.ogrid[:k, :blocks, :width]
        tables[c, b, t, within // 64] = bits
        suffixes = tables[:, :, ::-1]
        np.bitwise_or.accumulate(suffixes, axis=2, out=suffixes)

    @property
    def row_bytes(self) -> int:
        """Bytes a query row takes in :meth:`leq`: its n bools, two rows of words and its positions."""
        return self.n + self.width * self.blocks // 4 + 16 * self.blocks

    def leq(self, points: np.ndarray) -> np.ndarray:
        """The (m, n) bools ``points[i] <= others[j]`` coordinatewise, for an (m, d) array ``points``."""
        points = np.asarray(points, dtype=float)
        blocks, width = self.blocks, self.width
        words = np.full((len(points), blocks, width // 64), np.uint64(2**64 - 1), dtype="<u8")
        row = np.empty_like(words)
        for keys, ranks, table, q in zip(self._keys, self._ranks, self._tables, points.T):
            at = np.searchsorted(keys, q)[:, None]  # k; in a lone block it is also the position
            if blocks > 1:
                at = np.searchsorted(ranks, at + self._offsets) + np.arange(blocks)  # B rows past its ranks
            words &= table.take(at, axis=0, out=row)
        bytes_ = words.view(np.uint8).reshape(len(points), blocks * width // 8)
        return np.unpackbits(bytes_, axis=1, count=self.n, bitorder="little").view(bool)


def first_set(R: np.ndarray) -> np.ndarray:
    """Per row of the bool matrix ``R``, the column of its first True, or -1 when it has none."""
    if not R.shape[1]:
        return np.full(len(R), -1)
    r = R.argmax(axis=1)
    return np.where(R[np.arange(len(R)), r], r, -1)


def prefix_lookup(table: np.ndarray, R: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per row of the bool matrix ``R``, whose reads run last first, ``table[k]``: k is ``R.shape[1] - r``
    for the first set column r, one more than the last read set, or 0 when no column is set."""
    r = first_set(R)
    return np.take(table, np.where(r >= 0, R.shape[1] - r, 0), out=out)


def monotone_violation(points: np.ndarray, labels: np.ndarray, i: int, j: int) -> MonotoneViolation:
    """The error naming input rows ``i`` and ``j``, where ``points[i] <= points[j]`` and ``labels[i] > labels[j]``."""
    first, second = (f"x={tuple(map(float, points[k]))} y={float(labels[k])}" for k in (i, j))
    return MonotoneViolation(i, j, f"{first} vs {second}")


@dataclass(frozen=True, eq=False)
class MonotoneDataset:
    """Canonically ordered monotone labeled points.

    ``points`` is an (n, d) float64 array, ``labels`` an (n,) array with
    labels nondecreasing along the canonical order.  Equal labels are
    ordered lexicographically by point, so a smaller point of a comparable
    pair comes first, and the order depends only on the set of labeled
    points, not on their input order.  Construct through
    :func:`validate_dataset`.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", frozen(self.points))
        object.__setattr__(self, "labels", frozen(self.labels))
        if self.points.ndim != 2 or self.labels.ndim != 1:
            raise DimensionMismatch("points must be (n, d), labels (n,)")
        if len(self.points) != len(self.labels):
            raise DimensionMismatch("points and labels must have equal length")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other):
        if not isinstance(other, MonotoneDataset):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.labels, other.labels
        )

    def __repr__(self):
        return f"MonotoneDataset(n={self.n}, d={self.dimension})"


def validate_dataset(points, labels) -> MonotoneDataset:
    """Check and canonically order an (n, d) array of points and their (n,) labels.

    Raises :class:`EmptyDataset`, :class:`DimensionMismatch`,
    :class:`InvalidNumber`, :class:`DuplicatePoint`, or
    :class:`MonotoneViolation` (whose indices refer to input rows).
    """
    try:
        points, labels = np.asarray(points, dtype=float), np.asarray(labels, dtype=float)
    except (TypeError, ValueError) as exc:  # a ragged list, or an iterator of pairs
        raise DimensionMismatch(f"points and labels must form arrays of numbers: {exc}") from None
    if points.shape[:1] == (0,):
        raise EmptyDataset("a dataset needs at least one point")
    if points.ndim != 2 or labels.shape != points.shape[:1]:
        raise DimensionMismatch(
            f"points must be (n, d) and labels (n,), got {points.shape} and {labels.shape}"
        )
    if not np.isfinite(points).all():
        raise InvalidNumber("point coordinates must be finite")
    if not np.isfinite(labels).all():
        raise InvalidNumber("labels must be finite")

    _check_distinct(points)

    # a violation is x_i <= x_j with y_i > y_j; the diagonal never is one
    index = DominanceIndex(points)
    for s in row_blocks(len(points), index.row_bytes + len(points)):  # a query row and its label mask
        bad = index.leq(points[s])
        bad &= labels[s, None] > labels
        if bad.any():
            i, j = np.argwhere(bad)[0] + (s.start, 0)
            raise monotone_violation(points, labels, int(i), int(j))

    return canonical_dataset(points, labels)


def canonical_dataset(points: np.ndarray, labels: np.ndarray) -> MonotoneDataset:
    """The dataset of monotone, finite, distinct ``points`` and ``labels`` in canonical order.

    The order is by label, then lexicographically by point, which extends the
    coordinatewise order.  It checks nothing: :func:`validate_dataset` checks,
    then calls it.
    """
    order = np.lexsort((*points.T[::-1], labels))
    return MonotoneDataset(points[order], labels[order])


def _check_distinct(points: np.ndarray) -> None:
    """Raise :class:`DuplicatePoint` for the least index whose point occurred earlier.

    A stable lexsort puts equal points next to each other in input order,
    so each run of equal rows starts at its point's first index, and the
    run's least later index comes right after it.  ``-0.0`` and ``0.0``
    compare equal.
    """
    order = np.lexsort(points.T[::-1]) if points.shape[1] else np.arange(len(points))
    ranked = points[order]
    later = np.flatnonzero((ranked[1:] == ranked[:-1]).all(axis=1)) + 1  # equal to the row before
    if len(later):
        k = later[np.argmin(order[later])]  # the least input index among the repeats
        raise DuplicatePoint(int(order[k - 1]), int(order[k]))


def is_totally_ordered(ds: MonotoneDataset) -> bool:
    """True iff every pair of dataset points is coordinatewise comparable.

    Consecutive points suffice: the canonical order of a chain is its
    coordinatewise order (within equal labels the lexicographic order puts
    smaller points first, across labels monotonicity does).  By
    transitivity the test never calls a non-chain a chain, even on a
    hand-made :class:`MonotoneDataset`; it can only miss a chain whose
    points are out of order, and the chain builder then refuses it.
    """
    return bool(np.all(ds.points[:-1] <= ds.points[1:]))


class WeightPattern(NamedTuple):
    """A 0/1 weight matrix kept as its kind, with no matrix stored:

    * ``("blocks", k)``: unit i sums inputs ``i*k .. i*k+k-1``;
    * ``("suffix", 1)``: unit i sums inputs ``i .. end``;
    * ``("select", d, index)``: unit u reads input ``index[u]`` of ``d`` inputs,
      the one-hot rows of a dense matrix.
    """

    kind: str
    size: int = 1
    index: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class ThresholdLayer:
    """One hidden layer: elementwise ``activation(weights @ a + biases)``.

    ``weights`` is a matrix or a :class:`WeightPattern`; ``kind`` says which.
    """

    weights: np.ndarray | WeightPattern
    biases: np.ndarray
    activation: str = THRESHOLD

    def __post_init__(self):
        w, b = self.weights, frozen(self.biases)
        if isinstance(w, WeightPattern):
            w, shape = _checked_pattern(w, b.size)
            kind = w.kind
        else:
            w = frozen(w)
            kind, shape = DENSE, w.shape
        if len(shape) != 2 or b.ndim != 1 or shape[0] != b.shape[0]:
            raise DimensionMismatch(f"layer shapes disagree: weights {shape}, biases {b.shape}")
        if not (np.isfinite(b).all() and (kind != DENSE or np.isfinite(w).all())):
            raise InvalidNumber("layer weights and biases must be finite")
        if self.activation not in _ACTIVATIONS:
            raise InvalidArgument(f"unknown activation {self.activation!r}")
        width, input_width = shape  # the class is frozen: set its fields in __dict__
        vars(self).update(weights=w, biases=b, kind=kind, width=width, input_width=input_width)

    def first_negative_weight(self) -> tuple[int, int] | None:
        """``(unit, input_index)`` of the first negative weight, if any."""
        bad = np.flatnonzero(self.weights < 0) if self.kind == DENSE else ()
        return divmod(int(bad[0]), self.input_width) if len(bad) else None

    def float_exact(self, zero_one_input: bool) -> bool:
        """Can this layer be evaluated in float64 with provably exact results?

        Three airtight cases, for threshold activations only (they
        re-quantize to 0/1):

        * every row holds at most one nonzero weight, equal to 1.0: each
          pre-activation is a single ``a + b`` whose sign (and zeroness) is
          exact in IEEE-754 arithmetic;
        * a weight pattern on 0/1 input: :meth:`forward` counts the set
          inputs exactly and compares the count with ``ceil(-b)``, which is
          exact for any bias;
        * dense weights on 0/1 input, with weights and biases integers small
          enough that all sums stay below 2**53.
        """
        if self.activation != THRESHOLD:
            return False
        w, b = self.weights, self.biases
        if self.kind == SELECT:  # one weight 1.0 per row, the first case
            return True
        if self.kind != DENSE:
            return zero_one_input
        if np.all(np.count_nonzero(w, axis=1) <= 1) and np.all(w[w != 0] == 1.0):
            return True
        sums = np.abs(w).sum(axis=1)
        integers = np.all(w == np.rint(w)) and np.all(b == np.rint(b))
        return bool(zero_one_input and integers and np.all(sums + np.abs(b) < _EXACT_INT_LIMIT))

    @cached_property
    def _integers(self) -> tuple[object, np.ndarray, int]:
        """``(W, b, scale)``: ``weights * scale`` (a pattern's: ``scale``) and ``biases * scale``."""
        w = self.weights if self.kind == DENSE else np.ones((self.width, 1))
        ints, scale = _as_integers(np.column_stack([w, self.biases]))
        return (ints[:, :-1] if self.kind == DENSE else scale), ints[:, -1], scale

    @cached_property
    def _cuts(self) -> np.ndarray:
        """``-biases``: a select unit on a float input ``x`` fires iff ``x >= -b``."""
        return frozen(-self.biases)

    @cached_property
    def _count_cuts(self) -> np.ndarray:
        """A pattern unit on a 0/1 input fires iff its count reaches this cut.

        The cuts are ``ceil(-b)`` clipped to ``0 .. fan_in + 1``, in the least
        unsigned dtype that holds ``fan_in + 1``, the dtype the counts take.
        """
        fan_in = {SELECT: 1, BLOCKS: self.weights.size}.get(self.kind, self.input_width)
        dtype = np.min_scalar_type(fan_in + 1)
        return frozen(np.clip(np.ceil(-self.biases), 0, fan_in + 1), dtype)

    def _sums(self, A: np.ndarray, W=None, dtype=None) -> np.ndarray:
        """``A @ W.T`` as a new C-ordered array; a pattern sums in ``dtype``, by default ``A``'s.

        ``W`` is the weights, the ints of ``_integers``, or ``None`` for a pattern's plain counts.
        """
        if self.kind == DENSE:
            # with one input each sum is one product, so np.dot, several times faster than @
            # on an inner dimension of 1, gives the same bits
            return np.dot(A, W.T) if self.input_width == 1 else A @ W.T
        if self.kind == SELECT:
            S = A.take(self.weights.index, axis=1)
        elif self.kind == BLOCKS:
            S = A.reshape(len(A), self.width, self.weights.size)
            # np.einsum takes object arrays only from numpy 1.25 on
            S = S.sum(axis=2) if A.dtype == object else np.einsum("rnk->rn", S, dtype=dtype)
        else:
            S = np.empty_like(A, dtype=dtype, order="C")
            np.cumsum(A[:, ::-1], axis=1, dtype=dtype, out=S[:, ::-1])
        return S * W if isinstance(W, int) else S

    def forward(self, A: np.ndarray) -> np.ndarray:
        """Activations ``activation(A @ weights.T + biases)`` for rows of ``A``.

        ``A`` is a float64 batch, a bool batch (the output of a threshold
        layer), or an object array of exact numbers (Fractions, ints, or
        floats taken at their exact value).  Threshold units return a bool
        batch; ReLU units return float64, or on an object batch Fractions,
        clamped at the int 0.

        Two threshold cases skip the float sums, with the same bits:

        * a select unit on a float input fires iff ``x >= -b``: for finite
          doubles the rounded ``x + b`` is >= 0 exactly when ``x + b`` is (the
          argument of ``float_exact``);
        * a pattern unit on a bool input counts its set inputs in an integer
          dtype.  A count ``S`` below 2**53 is exact in float, so ``S + b >= 0``
          iff ``S >= -b`` iff ``S >= ceil(-b)``.

        Dense and ReLU layers cast a bool input to float64 once.  The object
        batch and the parameters are scaled to ints, so its products and sums
        are exact int arithmetic.
        """
        if A.dtype == object:
            W, b, scale = self._integers
            N, den = _as_integers(A)
            Z = self._sums(N, W) + b * den  # the pre-activations times den * scale
            if self.activation == THRESHOLD:
                return Z >= 0
            scale *= den
            return np.frompyfunc(lambda z: Fraction(z, scale) if z > 0 else 0, 1, 1)(Z)
        if self.activation == THRESHOLD and self.kind != DENSE:
            if A.dtype == bool:
                cuts = self._count_cuts
                return self._sums(A.view(np.uint8), dtype=cuts.dtype) >= cuts
            if self.kind == SELECT:
                return A.take(self.weights.index, axis=1) >= self._cuts
        if A.dtype == bool:
            A = A.astype(float)
        # in place: each new array of the batch costs its page faults
        Z = self._sums(A, self.weights)
        Z += self.biases
        if self.activation == THRESHOLD:
            return Z >= 0.0
        return np.maximum(Z, 0.0, out=Z)


def _checked_pattern(w: WeightPattern, width: int) -> tuple[WeightPattern, tuple[int, int]]:
    """``w`` with a read-only ``intp`` index, and the shape of its matrix for ``width`` units."""
    sized = type(w.size) is int and w.size >= 1
    if sized and w.kind == SELECT:
        index = np.asarray(w.index)  # a missing index is a 0-d object array
        if index.ndim == 1 and index.dtype.kind in "iu" and (
            index.size == 0 or (index.min() >= 0 and index.max() < w.size)
        ):
            return w._replace(index=frozen(index, np.intp)), (index.size, w.size)
    elif sized and w.index is None and (w.kind == BLOCKS or (w.kind, w.size) == (SUFFIX, 1)):
        return w, (width, width * w.size)
    raise InvalidArgument(f"invalid weight pattern {(w.kind, w.size)!r}")


def _over_one_scale(ratios: list[tuple[int, int]], max_bits: int | None = None) -> tuple[list[int], int]:
    """``([p * scale // q, ...], scale)`` for reduced ratios ``(p, q)``, ``q != 0``, and the least ``scale``.
    The lcm, of magnitudes, grows one distinct denominator at a time, and past ``max_bits`` bits
    raises :class:`TooLarge` before any product is made."""
    scale = 1
    for q in {q for _, q in ratios}:
        scale = math.lcm(scale, q)
        if max_bits is not None and scale.bit_length() > max_bits:
            raise TooLarge(f"the exact output stage needs a scale of more than {max_bits} bits")
    return [p * (scale // q) for p, q in ratios], scale


def _as_integers(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``(values * scale, scale)`` as Python ints, for the least such ``scale``.

    ``values`` holds floats, ints or Fractions.  For floats, which are
    integers over powers of two, ``scale`` is the largest of those powers.
    """
    ints, scale = _over_one_scale([v.as_integer_ratio() for v in values.ravel().tolist()])
    return np.array(ints, dtype=object).reshape(values.shape), scale


class ExactStage(NamedTuple):
    """An exact output stage: weights ``numerators[i] / scale`` and bias ``bias / scale``, all Python ints."""

    numerators: tuple[int, ...]
    bias: int
    scale: int

    @classmethod
    def of(cls, ratios: list[tuple[int, int]]) -> ExactStage:
        """The stage of reduced ratios ``(p, q)``, ``q != 0``: weights ``ratios[:-1]``, bias ``ratios[-1]``.
        A scale of more than ``EXACT_SCALE_BITS`` bits raises :class:`TooLarge`."""
        (*numerators, bias), scale = _over_one_scale(ratios, EXACT_SCALE_BITS)
        return cls(tuple(numerators), bias, scale)


def _coerce_output(weights, bias) -> tuple[np.ndarray, float, ExactStage | None]:
    """The float64 weights, the float bias and the exact stage, or None, of an output stage.

    Any Fraction among the weights or the bias makes the stage exact, ints
    over one scale of at most ``EXACT_SCALE_BITS`` bits.  Its floats are
    ``numerator / scale``, Python's correctly rounded int division; a value
    beyond the float range raises :class:`InvalidNumber`.
    """
    stage = None
    if isinstance(weights, ExactStage):
        if bias != 0:
            raise InvalidArgument("an ExactStage holds its own bias")
        stage = weights
    elif isinstance(bias, Fraction) or (
        np.asarray(weights).dtype == object and any(isinstance(w, Fraction) for w in weights)
    ):
        # a numpy integer has no as_integer_ratio: take numpy scalars at their Python value
        values = [v.item() if isinstance(v, np.generic) else v for v in (*weights, bias)]
        stage = ExactStage.of([v.as_integer_ratio() for v in values])
    if stage is None:
        w, b = np.asarray(weights, dtype=float), float(bias)
    else:
        try:
            w, b = np.array([p / stage.scale for p in stage.numerators]), stage.bias / stage.scale
        except OverflowError as exc:
            raise InvalidNumber("output weights and bias must fit in a float") from exc
    if w.ndim != 1:
        raise DimensionMismatch(f"output weights must be a vector, got shape {w.shape}")
    if not (np.isfinite(w).all() and math.isfinite(b)):
        raise InvalidNumber("output weights and bias must be finite")
    return frozen(w), b, stage


@dataclass(frozen=True, eq=False)
class ThresholdNetwork:
    """Hidden threshold/ReLU layers followed by one affine output stage.

    ``output_weights`` is a float64 vector and ``output_bias`` a float.  An
    exact stage, such as every built interpolator carries, is also kept as
    ``exact_stage`` (None for a float one), so that :meth:`evaluate_batch_exact`
    reproduces labels with zero error.  Pass it as an :class:`ExactStage` in
    place of the weights, or as weights and a bias that hold a Fraction.
    """

    layers: tuple[ThresholdLayer, ...]
    output_weights: object
    output_bias: object = 0.0

    def __post_init__(self):
        layers = tuple(self.layers)
        w, b, stage = _coerce_output(self.output_weights, self.output_bias)
        vars(self).update(layers=layers, output_weights=w, output_bias=b, exact_stage=stage)
        widths = [l.input_width for l in layers] + [len(w)]
        for i, layer in enumerate(layers):
            if layer.width != widths[i + 1]:
                raise DimensionMismatch(
                    f"layer {i} outputs {layer.width} values but the next stage expects {widths[i + 1]}"
                )

    @property
    def input_dimension(self) -> int:
        if self.layers:
            return self.layers[0].input_width
        return len(self.output_weights)

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(l.width for l in self.layers)

    @property
    def hidden_unit_count(self) -> int:
        return sum(self.hidden_widths)

    @property
    def is_exact(self) -> bool:
        return self.exact_stage is not None

    @cached_property
    def monotone_flag(self) -> bool:
        """True iff all hidden and output weights are nonnegative."""
        return self.first_negative_weight() is None

    def first_negative_weight(self) -> tuple[int, int, int] | None:
        """``(layer, unit, input_index)`` of the first negative weight, if any.

        The output stage counts as layer ``len(layers)`` with the one unit 0.  An exact weight's
        sign is its numerator's: ``-1/10**400`` rounds to ``-0.0``.
        """
        for li, layer in enumerate(self.layers):
            bad = layer.first_negative_weight()
            if bad:
                return (li, *bad)
        stage = self.exact_stage
        bad = np.flatnonzero(self.output_weights < 0 if stage is None else [p < 0 for p in stage.numerators])
        return (len(self.layers), 0, int(bad[0])) if len(bad) else None

    # -- float evaluation ------------------------------------------------

    @cached_property
    def _prefix_table(self) -> np.ndarray | None:
        """``T`` when the output on any input is ``T[k]`` (see :func:`prefix_lookup`), else None.

        The network needs an exact stage, and a last hidden layer that is a suffix-OR (a threshold
        ``SUFFIX`` whose count cuts are all 1) of a threshold layer's bools.  The suffix units that
        fire are then ``0 .. k-1``, so the output is ``T[k] = (bias + sum(numerators[:k])) / scale``,
        the exact value rounded once by Python's int division.  A ``T`` past the float range is not
        recognised.
        """
        if self.exact_stage is None or len(self.layers) < 2:
            return None
        head, suffix = self.layers[-2:]
        if not (head.activation == suffix.activation == THRESHOLD and suffix.kind == SUFFIX
                and suffix.width and (suffix._count_cuts == 1).all()):
            return None
        numerators, bias, scale = self.exact_stage
        try:
            return frozen([s / scale for s in itertools.accumulate(numerators, initial=bias)])
        except OverflowError:
            return None

    @cached_property
    def _dominance_index(self) -> DominanceIndex | None:
        """The :class:`DominanceIndex` of ``-x_i`` for the points ``x_i`` of a ``build_interpolator``
        head, last point first, else None.  Built on first use, it serves every later block.

        The head is three layers deep: a threshold select whose index is ``tile(arange(d), n)`` and
        whose cuts are the points, then threshold blocks of d whose count cuts are all d, an AND.  Its
        unit i fires on ``q`` iff ``x_i <= q`` coordinatewise, which is ``-q <= -x_i``: negation is exact.
        """
        if len(self.layers) != 3:
            return None
        select, blocks, _ = self.layers
        d, n = select.input_width, blocks.width
        if (select.activation == blocks.activation == THRESHOLD and select.kind == SELECT
                and blocks.kind == BLOCKS and blocks.weights.size == d
                and np.array_equal(select.weights.index, np.tile(np.arange(d), n))
                and (blocks._count_cuts == d).all()):
            return DominanceIndex(-select._cuts.reshape(n, d)[::-1])
        return None

    def _suffix_reads(self, X: np.ndarray) -> np.ndarray:
        """The bools the last hidden layer reads on a checked block ``X``, its units in reverse order.

        A ``build_interpolator`` head is one query of its :class:`DominanceIndex`; any other runs its layers.
        """
        index = self._dominance_index
        if index is not None:
            return index.leq(-X)
        for layer in self.layers[:-1]:
            X = layer.forward(X)
        return X[:, ::-1]

    @property
    def _row_bytes(self) -> int:
        """A row's planned bytes in :meth:`evaluate_batch`: a built interpolator's index query, else 8 a widest unit."""
        index = self._dominance_index if self._prefix_table is not None else None
        return index.row_bytes if index is not None else 8 * max(self.hidden_widths, default=self.input_dimension)

    def _check_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.input_dimension:
            raise DimensionMismatch(
                f"expected points of dimension {self.input_dimension}, got shape {X.shape}"
            )
        if not np.isfinite(X).all():
            raise InvalidNumber("evaluation points must be finite")
        return X

    def hidden_activations(self, X) -> list[np.ndarray]:
        """Per-layer activation matrices (m, width) for a batch of points."""
        A = self._check_batch(X)
        out = []
        for layer in self.layers:
            A = layer.forward(A)
            out.append(A)
        return out

    def evaluate_batch(self, X) -> np.ndarray:
        """Forward pass for a batch of points, returning an (m,) float array.

        Each block of rows is finished before the next, so memory follows one
        block.  A network whose output is a prefix table (see ``_prefix_table``),
        such as every built interpolator, returns ``T[k]`` for each row: the
        exact value rounded once, so a built network returns exactly
        ``max{y_i : x_i <= x}``, or its baseline.  The head of
        ``build_interpolator`` is one dominance comparison of the points with
        the block; any other head runs its layers.

        Any other network runs the block through the hidden layers and the
        output stage, which ``np.einsum`` sums row by row, as every pattern
        layer does.  A dense layer runs a BLAS matrix product, which can sum a
        row in an order that depends on the batch and the block: a dense float
        layer's values can differ in their last bits between batches.  Small
        integer weights on a threshold layer's 0/1 activations sum exactly in
        any order.
        """
        X = self._check_batch(X)
        out = np.empty(len(X))
        table = self._prefix_table
        for s in row_blocks(len(X), self._row_bytes):
            if table is not None:
                prefix_lookup(table, self._suffix_reads(X[s]), out=out[s])
                continue
            A = X[s]
            for layer in self.layers:
                A = layer.forward(A)
            A = np.ascontiguousarray(A, dtype=float)  # bools cast per block; in C order einsum sums a row alone
            np.einsum("ij,j->i", A, self.output_weights, out=out[s])
            out[s] += self.output_bias
        return out

    def evaluate(self, x) -> float:
        """Forward pass for one point."""
        return float(self.evaluate_batch(np.asarray(x, float).reshape(1, -1))[0])

    # -- exact evaluation ------------------------------------------------

    def evaluate_batch_exact(self, X) -> list[Fraction]:
        """Exact rational forward pass for a batch of points.

        A layer runs in float64 when its input batch is float and that is
        provably exact (see ``ThresholdLayer.float_exact``); otherwise it
        runs on Fractions.  The output stage runs on ints: after a threshold
        layer it sums the numerators of the active units, otherwise it scales
        the batch to ints as ``ThresholdLayer.forward`` does.  Each row makes
        one Fraction, and exact networks reproduce their labels exactly.
        """
        A = self._check_batch(X)
        zero_one = False  # is A a threshold layer's bool batch?
        for layer in self.layers:
            if A.dtype != object and not layer.float_exact(zero_one):
                A = A.astype(object)
            A = layer.forward(A)
            zero_one = layer.activation == THRESHOLD
        stage = self.exact_stage  # a float stage's ints are made here, as only this pass needs them
        stage = stage or ExactStage.of([v.as_integer_ratio() for v in (*self.output_weights, self.output_bias)])
        W, b, scale = np.array(stage.numerators, dtype=object), stage.bias, stage.scale
        if zero_one:
            den, Z = 1, [sum(W[row].tolist(), b) for row in A]
        else:
            N, den = _as_integers(A)
            Z = (N @ W + b * den).tolist()  # the outputs times den * scale
        return [Fraction(z, den * scale) for z in Z]

    def evaluate_exact(self, x) -> Fraction:
        """Exact rational forward pass for one point."""
        return self.evaluate_batch_exact(np.asarray(x, float).reshape(1, -1))[0]

    def __repr__(self):
        return (
            f"ThresholdNetwork(dim={self.input_dimension}, widths={self.hidden_widths}, "
            f"monotone={self.monotone_flag}, exact={self.is_exact})"
        )


def affine_network(weights, bias) -> ThresholdNetwork:
    """A network with no hidden layers: ``x -> weights @ x + bias``."""
    return ThresholdNetwork(layers=(), output_weights=weights, output_bias=bias)
