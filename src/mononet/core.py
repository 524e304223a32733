"""Domain types: threshold semantics, monotone datasets, threshold networks.

Conventions used throughout the package:

* A *point* is any sequence of finite reals; internally points live in
  float64 arrays.  The partial order is coordinatewise: ``x >= y`` iff every
  coordinate of ``x`` is >= the matching coordinate of ``y``.
* A hidden layer computes ``sigma(W @ a + b)`` elementwise, where ``sigma``
  is either the unit step (1 for arguments >= 0, else 0) or ReLU.  Note the
  bias is *added*; a unit that should fire when a coordinate reaches a
  stored value ``c`` therefore carries bias ``-c``.
* The final stage is affine: ``output_weights @ a + output_bias``.
* A network is *monotone* when every hidden weight and every output weight
  is nonnegative (biases are unrestricted).  With monotone activations this
  is a sufficient structural certificate for the network computing a
  monotone function.

Float comparisons against stored coordinates are exact: IEEE-754 subtraction
of two finite doubles is zero only when they are equal (gradual underflow),
so ``sigma(x - c)`` fires exactly when ``x >= c``.  The builders in
:mod:`mononet.construct` rely on this; see ``evaluate_batch_exact`` for the
fully rational evaluation path.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    EmptyDataset,
    InvalidArgument,
    InvalidNumber,
    MonotoneViolation,
)

THRESHOLD = "threshold"
RELU = "relu"

_ACTIVATIONS = (THRESHOLD, RELU)

# Exact float integer arithmetic is guaranteed below this magnitude.
_EXACT_INT_LIMIT = 2.0**53


def threshold(z) -> int:
    """Unit step with a closed boundary: 1 if ``z >= 0``, else 0.

    Accepts floats, ints, and Fractions.  NaN or infinite input raises
    :class:`InvalidNumber`.
    """
    if isinstance(z, (float, np.floating)) and not math.isfinite(z):
        raise InvalidNumber(f"threshold() needs a finite number, got {z!r}")
    return 1 if z >= 0 else 0


def _as_point_array(p) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatch(f"a point must be a flat sequence, got shape {v.shape}")
    return v


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def pairwise_leq(points: np.ndarray) -> np.ndarray:
    """Boolean matrix M with M[i, j] = (points[i] <= points[j] coordinatewise)."""
    return np.all(points[:, None, :] <= points[None, :, :], axis=2)


@dataclass(frozen=True, eq=False)
class MonotoneDataset:
    """Canonically ordered monotone labeled points.

    ``points`` is an (n, d) float64 array, ``labels`` an (n,) array with
    labels nondecreasing along the canonical order.  Among equal labels,
    comparable pairs are ordered smaller-point-first; remaining ties keep
    the original input order.  Construct through :func:`validate_dataset`.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(np.asarray(self.points, float)))
        object.__setattr__(self, "labels", _readonly(np.asarray(self.labels, float)))
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

    def items(self) -> list[tuple[tuple[float, ...], float]]:
        """The (point, label) pairs in canonical order."""
        return [
            (tuple(float(c) for c in p), float(y))
            for p, y in zip(self.points, self.labels)
        ]

    def __eq__(self, other):
        if not isinstance(other, MonotoneDataset):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.labels, other.labels
        )

    def __repr__(self):
        return f"MonotoneDataset(n={self.n}, d={self.dimension})"


def _canonical_order(labels: np.ndarray, leq: np.ndarray) -> np.ndarray:
    """Stable label sort, refined so comparable equal-label pairs go smaller-first.

    ``leq`` is the strict coordinatewise order: ``pairwise_leq`` with a
    false diagonal.
    """
    order = np.argsort(labels, kind="stable")
    out = []
    i = 0
    n = len(order)
    while i < n:
        j = i
        while j < n and labels[order[j]] == labels[order[i]]:
            j += 1
        group = order[i:j]
        if len(group) > 1:
            group = _topological_group(group, leq)
        out.extend(group)
        i = j
    return np.asarray(out, dtype=int)


def _topological_group(group: np.ndarray, leq: np.ndarray) -> list[int]:
    # Kahn's algorithm on the strict partial order restricted to the group,
    # always releasing the earliest input position first.  Re-running on its
    # own output is the identity, which makes validate_dataset idempotent.
    sub = leq[np.ix_(group, group)]
    indeg = sub.sum(axis=0)
    ready = [int(k) for k in range(len(group)) if indeg[k] == 0]
    heapq.heapify(ready)
    result = []
    while ready:
        k = heapq.heappop(ready)
        result.append(int(group[k]))
        for t in np.flatnonzero(sub[k]):
            indeg[t] -= 1
            if indeg[t] == 0:
                heapq.heappush(ready, int(t))
    assert len(result) == len(group), "coordinatewise order on distinct points is acyclic"
    return result


def validate_dataset(raw: Iterable[tuple[Sequence[float], float]]) -> MonotoneDataset:
    """Check and canonically order a list of (point, label) pairs.

    Raises :class:`EmptyDataset`, :class:`DimensionMismatch`,
    :class:`InvalidNumber`, :class:`DuplicatePoint`, or
    :class:`MonotoneViolation` (whose indices refer to input positions).
    """
    if isinstance(raw, MonotoneDataset):
        raw = raw.items()
    pairs = list(raw)
    if not pairs:
        raise EmptyDataset("a dataset needs at least one point")
    pts = []
    ys = []
    for p, y in pairs:
        pts.append(_as_point_array(p))
        ys.append(float(y))
    d = len(pts[0])
    for k, v in enumerate(pts):
        if len(v) != d:
            raise DimensionMismatch(
                f"point at position {k} has {len(v)} coordinates, expected {d}"
            )
    points = np.array(pts, dtype=float)
    labels = np.array(ys, dtype=float)
    if not np.isfinite(points).all():
        raise InvalidNumber("point coordinates must be finite")
    if not np.isfinite(labels).all():
        raise InvalidNumber("labels must be finite")

    seen: dict[tuple, int] = {}
    for k in range(len(points)):
        key = tuple(points[k])
        if key in seen:
            raise DuplicatePoint(seen[key], k)
        seen[key] = k

    leq = pairwise_leq(points)
    np.fill_diagonal(leq, False)
    bad = leq & (labels[:, None] > labels[None, :])
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise MonotoneViolation(
            int(i),
            int(j),
            f"x={tuple(map(float, points[i]))} y={float(labels[i])} "
            f"vs x={tuple(map(float, points[j]))} y={float(labels[j])}",
        )

    order = _canonical_order(labels, leq)
    return MonotoneDataset(points[order], labels[order])


def is_totally_ordered(ds: MonotoneDataset) -> bool:
    """True iff every pair of dataset points is coordinatewise comparable."""
    leq = pairwise_leq(ds.points)
    return bool(np.all(leq | leq.T))


@dataclass(frozen=True)
class ThresholdLayer:
    """One hidden layer: elementwise ``activation(weights @ a + biases)``."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str = THRESHOLD

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.biases, dtype=float)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise DimensionMismatch(
                f"layer shapes disagree: weights {w.shape}, biases {b.shape}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise InvalidNumber("layer weights and biases must be finite")
        if self.activation not in _ACTIVATIONS:
            raise InvalidArgument(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "biases", _readonly(b))

    @property
    def width(self) -> int:
        return self.weights.shape[0]

    @property
    def input_width(self) -> int:
        return self.weights.shape[1]

    def forward(self, A: np.ndarray) -> np.ndarray:
        """Activations ``activation(A @ weights.T + biases)`` for rows of ``A``."""
        Z = A @ self.weights.T + self.biases
        if self.activation == THRESHOLD:
            return (Z >= 0).astype(float)
        return np.maximum(Z, 0.0)


def _coerce_output(weights, bias):
    """Normalize output weights/bias to (float64 array, float) or Fractions."""
    if isinstance(weights, np.ndarray) and weights.dtype == object:
        weights = tuple(weights)
    if isinstance(weights, (tuple, list)) and any(
        isinstance(w, Fraction) for w in weights
    ):
        frac_w = tuple(Fraction(w) for w in weights)
        return frac_w, Fraction(bias), True
    if isinstance(bias, Fraction):
        frac_w = tuple(Fraction(float(w)) for w in weights)
        return frac_w, bias, True
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise DimensionMismatch(f"output weights must be a vector, got shape {w.shape}")
    b = float(bias)
    if not (np.isfinite(w).all() and math.isfinite(b)):
        raise InvalidNumber("output weights and bias must be finite")
    return _readonly(w), b, False


@dataclass(frozen=True, eq=False)
class ThresholdNetwork:
    """Hidden threshold/ReLU layers followed by one affine output stage.

    ``output_weights`` is normally a float64 vector.  Networks built in
    exact mode instead carry a tuple of Fractions (and a Fraction bias), so
    that :meth:`evaluate_batch_exact` reproduces labels with zero error; the
    float fast path then rounds them once per evaluation.
    """

    layers: tuple[ThresholdLayer, ...]
    output_weights: object
    output_bias: object = 0.0

    def __post_init__(self):
        layers = tuple(self.layers)
        w, b, exact = _coerce_output(self.output_weights, self.output_bias)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "output_weights", w)
        object.__setattr__(self, "output_bias", b)
        object.__setattr__(self, "_exact", exact)
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
        return self._exact

    @cached_property
    def _output_float(self) -> tuple[np.ndarray, float]:
        if self.is_exact:
            return (
                np.array([float(w) for w in self.output_weights]),
                float(self.output_bias),
            )
        return self.output_weights, self.output_bias

    @cached_property
    def monotone_flag(self) -> bool:
        """True iff all hidden and output weights are nonnegative."""
        for layer in self.layers:
            if np.any(layer.weights < 0):
                return False
        if self.is_exact:
            return all(w >= 0 for w in self.output_weights)
        return bool(np.all(self.output_weights >= 0))

    # -- float evaluation ------------------------------------------------

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
        """Forward pass for a batch of points, returning an (m,) float array."""
        A = self._check_batch(X)
        for layer in self.layers:
            A = layer.forward(A)
        w, b = self._output_float
        return A @ w + b

    def evaluate(self, x) -> float:
        """Forward pass for one point."""
        return float(self.evaluate_batch(np.asarray(x, float).reshape(1, -1))[0])

    # -- exact evaluation ------------------------------------------------

    def _layer_float_exact(self, layer: ThresholdLayer, zero_one_input: bool) -> bool:
        """Can this layer be evaluated in float64 with provably exact results?

        Two airtight cases:

        * every row holds at most one nonzero weight, equal to 1.0: each
          pre-activation is a single ``a + b`` whose sign (and zeroness) is
          exact in IEEE-754 arithmetic;
        * the incoming activations are exactly 0/1 and weights and biases
          are integers small enough that all sums stay below 2**53.

        Only threshold activations qualify (they re-quantize to 0/1).
        """
        if layer.activation != THRESHOLD:
            return False
        w = layer.weights
        b = layer.biases
        if zero_one_input:
            if (
                np.all(w == np.rint(w))
                and np.all(b == np.rint(b))
                and np.all(np.abs(w).sum(axis=1) + np.abs(b) < _EXACT_INT_LIMIT)
            ):
                return True
        nonzero_per_row = np.count_nonzero(w, axis=1)
        if np.all(nonzero_per_row <= 1) and np.all(w[w != 0] == 1.0):
            return True
        return False

    def evaluate_batch_exact(self, X, *, _force_rational: bool = False) -> list[Fraction]:
        """Exact rational forward pass for a batch of points.

        Hidden layers run vectorized in float64 whenever that is provably
        exact (see ``_layer_float_exact``); otherwise they fall back to
        Fraction arithmetic.  The output stage is always rational, so exact
        networks reproduce their construction labels with zero error.
        """
        A = self._check_batch(X)
        rational: list[list] | None = None  # per-point exact activations
        zero_one = False
        for layer in self.layers:
            if rational is None and not _force_rational and self._layer_float_exact(
                layer, zero_one
            ):
                A = layer.forward(A)
                zero_one = True
                continue
            if rational is None:
                rational = [[Fraction(v) for v in row] for row in A]
            rational = _rational_layer(layer, rational)
        if rational is None:
            acts = [[int(v) for v in row] for row in A] if self.layers else [
                [Fraction(v) for v in row] for row in A
            ]
        else:
            acts = rational
        if self.is_exact:
            w_out = self.output_weights
            b_out = self.output_bias
        else:
            w_out = [Fraction(float(v)) for v in self.output_weights]
            b_out = Fraction(self.output_bias)
        results = []
        for row in acts:
            s = b_out
            for wv, av in zip(w_out, row):
                if wv and av:
                    s = s + wv * av
            results.append(Fraction(s))
        return results

    def evaluate_exact(self, x) -> Fraction:
        """Exact rational forward pass for one point."""
        return self.evaluate_batch_exact(np.asarray(x, float).reshape(1, -1))[0]

    def __repr__(self):
        return (
            f"ThresholdNetwork(dim={self.input_dimension}, widths={self.hidden_widths}, "
            f"monotone={self.monotone_flag}, exact={self.is_exact})"
        )


def _rational_layer(layer: ThresholdLayer, acts: list[list]) -> list[list]:
    rows = []
    for i in range(layer.width):
        w = layer.weights[i]
        nz = np.flatnonzero(w)
        rows.append((
            [int(j) for j in nz],
            [Fraction(float(w[j])) for j in nz],
            Fraction(float(layer.biases[i])),
        ))
    step = layer.activation == THRESHOLD
    out = []
    for a in acts:
        new = []
        for idx, wts, b in rows:
            s = b
            for j, wv in zip(idx, wts):
                if a[j]:
                    s = s + wv * a[j]
            if step:
                new.append(1 if s >= 0 else 0)
            else:
                new.append(s if s > 0 else Fraction(0))
        out.append(new)
    return out


def affine_network(weights, bias) -> ThresholdNetwork:
    """A network with no hidden layers: ``x -> weights @ x + bias``."""
    return ThresholdNetwork(layers=(), output_weights=weights, output_bias=bias)
