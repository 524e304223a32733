"""Builders for monotone threshold networks that interpolate monotone data.

Two constructions are provided, both producing networks whose hidden weights
are sums of standard basis vectors (hence nonnegative):

* :func:`build_interpolator` - works for any monotone dataset with n points
  in dimension d, using hidden widths (d*n, n, n):

  - layer 1, unit ``i*d + c``: fires iff input coordinate ``c`` is >= the
    same coordinate of the i-th dataset point;
  - layer 2, unit ``i``: ANDs the block of d layer-1 units for point i, so
    it fires iff the input dominates point i coordinatewise (the rows of
    this "embedding" stage indicate the dominated dataset points);
  - layer 3, unit ``i``: ORs all embedding indicators with index >= i
    (a suffix-OR), so on the j-th dataset point it fires iff j >= i;
  - output: telescoping weights ``w[i] = y[i] - y[i-1]``, which sum to the
    wanted label on each dataset point.

* :func:`build_chain_interpolator` - for totally ordered (chain) data,
  hidden widths (n, n): layer 1 compresses the embedding into one unit per
  point by thresholding a single separating coordinate, layer 2 is the same
  suffix-OR, and the output stage is unchanged.

Labels may be negative: the output bias absorbs ``min(0, y[0])`` so the
telescoping weights stay nonnegative.

The output stage is always built from Fractions, so ``evaluate_batch_exact``
reproduces every training label with zero error.  Float evaluation loses
nothing by it: for finite floats ``float(Fraction(a) - Fraction(b))`` is
``a - b``, since both are correctly rounded, so the float stage holds the
same label differences as float subtraction would give (the float path is
within a few ulps of the labels).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    THRESHOLD,
    MonotoneDataset,
    ThresholdLayer,
    ThresholdNetwork,
    is_totally_ordered,
)
from .errors import NotTotallyOrdered


@dataclass(frozen=True)
class ConstructionTrace:
    """Evidence emitted by the builders.

    ``embedding_matrix[j, i]`` records whether embedding unit ``i`` fired on
    the j-th training point; for a correct build this equals
    ``x_j >= x_i`` coordinatewise.  ``output_weights`` are the telescoping
    label differences (floats, for reporting).
    """

    layer_widths: tuple[int, ...]
    embedding_matrix: np.ndarray
    output_weights: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "layer_widths": list(self.layer_widths),
            "embedding_matrix": self.embedding_matrix.astype(int).tolist(),
            "output_weights": list(self.output_weights),
        }


def _telescoping_output(labels: np.ndarray) -> tuple[tuple[Fraction, ...], Fraction]:
    """Output weights y_i - y_{i-1} (nonnegative) plus the label-shift bias.

    The virtual y_0 is 0 for nonnegative labels; for a negative smallest
    label the bias shifts the baseline down to y_1 instead, so the first
    weight becomes 0 and all weights stay nonnegative.
    """
    steps = [Fraction(min(0.0, float(labels[0])))]
    steps += [Fraction(v) for v in labels.tolist()]
    return tuple(b - a for a, b in zip(steps, steps[1:])), steps[0]


def _finish(
    layers: tuple[ThresholdLayer, ...], ds: MonotoneDataset, embedding_layer: int
) -> tuple[ThresholdNetwork, ConstructionTrace]:
    """Add the telescoping output stage to ``layers`` and trace the build.

    ``embedding_layer`` indexes the layer whose units indicate the training
    points dominated by the input.
    """
    weights, bias = _telescoping_output(ds.labels)
    net = ThresholdNetwork(layers, weights, bias)
    trace = ConstructionTrace(
        layer_widths=net.hidden_widths,
        embedding_matrix=net.hidden_activations(ds.points)[embedding_layer] != 0,
        output_weights=tuple(float(w) for w in weights),
    )
    return net, trace


def build_interpolator(ds: MonotoneDataset) -> tuple[ThresholdNetwork, ConstructionTrace]:
    """Build the general interpolating monotone network, widths (d*n, n, n).

    The returned network evaluates to ``y_i`` on every training point
    (exactly on the rational path; within ~n ulps on the float path).
    """
    n, d = ds.n, ds.dimension

    w1 = np.tile(np.eye(d), (n, 1))
    b1 = -ds.points.reshape(-1)
    layer1 = ThresholdLayer(w1, b1, THRESHOLD)

    w2 = np.zeros((n, n * d))
    for i in range(n):
        w2[i, i * d : (i + 1) * d] = 1.0
    layer2 = ThresholdLayer(w2, np.full(n, -float(d)), THRESHOLD)

    return _finish((layer1, layer2, _suffix_or_layer(n)), ds, embedding_layer=1)


def _suffix_or_layer(n: int) -> ThresholdLayer:
    """Unit i fires iff any input with index >= i is set (inputs are 0/1)."""
    return ThresholdLayer(np.triu(np.ones((n, n))), np.full(n, -1.0), THRESHOLD)


def separating_coordinate(ds: MonotoneDataset, i: int) -> tuple[int, float]:
    """For a chain dataset, a coordinate splitting point i from its predecessors.

    ``i`` is 1-based; returns ``(r, t)`` with ``r`` 1-based such that
    coordinate ``r`` of every earlier point is strictly below ``t``, and of
    every later point is >= ``t``, where ``t`` is coordinate ``r`` of point
    ``i``.  For ``i == 1`` the first coordinate is returned.
    """
    if not 1 <= i <= ds.n:
        raise IndexError(f"point index {i} outside 1..{ds.n}")
    if not is_totally_ordered(ds):
        raise NotTotallyOrdered("separating coordinates exist only for chain datasets")
    r = _separating_index(ds.points, i - 1)
    return r + 1, float(ds.points[i - 1, r])


def _separating_index(X: np.ndarray, i: int) -> int:
    if i == 0:
        return 0
    # The canonical order of a chain is the coordinatewise order, so some
    # coordinate strictly increases from the predecessor; by transitivity it
    # separates point i from every earlier point.
    increased = np.flatnonzero(X[i] > X[i - 1])
    assert increased.size > 0, "chain points are distinct and ordered"
    return int(increased[0])


def build_chain_interpolator(ds: MonotoneDataset) -> tuple[ThresholdNetwork, ConstructionTrace]:
    """Build the compressed interpolator for totally ordered data, widths (n, n).

    Layer-1 unit i thresholds a single separating coordinate against its
    value at point i, which reproduces the embedding indicators on the
    training points; a suffix-OR and the telescoping output complete the
    network.  Raises :class:`NotTotallyOrdered` when the data is not a chain.
    """
    if not is_totally_ordered(ds):
        raise NotTotallyOrdered(
            "chain construction needs every pair of points comparable"
        )
    n, d = ds.n, ds.dimension
    X = ds.points

    w1 = np.zeros((n, d))
    b1 = np.empty(n)
    for i in range(n):
        r = _separating_index(X, i)
        w1[i, r] = 1.0
        b1[i] = -X[i, r]
    layer1 = ThresholdLayer(w1, b1, THRESHOLD)

    return _finish((layer1, _suffix_or_layer(n)), ds, embedding_layer=0)
