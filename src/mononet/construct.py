"""Builders for monotone threshold networks that interpolate monotone data.

Two constructions are provided, both producing networks whose hidden weights
are 0/1 (hence nonnegative) and that store O(n*d) numbers: no layer holds a
matrix, each holds a :class:`~mononet.core.WeightPattern`.

* :func:`build_interpolator` - works for any monotone dataset with n points
  in dimension d, using hidden widths (d*n, n, n):

  - layer 1, unit ``i*d + c``: selects input coordinate ``c`` and fires iff
    it is >= the same coordinate of the i-th dataset point;
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

The output stage is exact: the labels are integers over one power of two,
so the weights are differences of ints over that scale (a
:class:`~mononet.core.ExactStage`), and ``evaluate_batch_exact`` reproduces
every training label with zero error.  The suffix-OR's active units are
always a prefix {0, ..., k-1}, so float evaluation returns the exact output
of that prefix rounded once (``ThresholdNetwork.evaluate_batch``), which is
the label ``y[k-1]``, or the baseline ``min(0, y[0])`` when k = 0.  A
:func:`build_interpolator` network thus returns exactly
``max{y_i : x_i <= x}`` on any input x, or the baseline when no point lies
below x.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    BLOCKS,
    SELECT,
    SUFFIX,
    THRESHOLD,
    ExactStage,
    MonotoneDataset,
    ThresholdLayer,
    ThresholdNetwork,
    WeightPattern,
    _as_integers,
    is_totally_ordered,
    row_blocks,
)
from .errors import DuplicatePoint, InvalidArgument, NotTotallyOrdered


@dataclass(frozen=True, eq=False)
class ConstructionTrace:
    """Evidence emitted by the builders, worked out when it is first read.

    ``embedding_matrix[j, i]`` records whether unit ``i`` of the layer the
    suffix-OR reads fires on the j-th training point; for a correct build
    this equals ``x_j >= x_i`` coordinatewise.  ``output_weights`` are the
    telescoping label differences (floats, for reporting).
    """

    network: ThresholdNetwork
    points: np.ndarray

    @property
    def layer_widths(self) -> tuple[int, ...]:
        return self.network.hidden_widths

    @property
    def output_weights(self) -> tuple[float, ...]:
        return tuple(self.network.output_weights.tolist())

    @cached_property
    def embedding_matrix(self) -> np.ndarray:
        return np.concatenate(list(self._embedding_blocks()))

    def _embedding_blocks(self, text_bytes: int = 0):
        """The rows of ``embedding_matrix``, planned at a row of ``evaluate_batch`` plus ``text_bytes``: the
        bools that the suffix-OR reads, which for ``build_interpolator`` are one dominance comparison."""
        for s in row_blocks(len(self.points), self.network._row_bytes + text_bytes):
            yield self.network._suffix_reads(self.points[s])[:, ::-1]

    def write_json(self, fh) -> None:
        """Write the trace as one line of JSON, the embedding matrix as 0/1 rows.

        The text is ``json.dumps`` of the dict with keys ``layer_widths``,
        ``embedding_matrix`` and ``output_weights``, written one block of rows
        at a time so the n x n matrix never exists as Python lists.  A row's
        text is its byte template ``[0, 0, ..., 0], `` with its digits set.  A
        block is planned at its text and its reads, and its text is decoded
        straight from its bytes: one string a block, and no other copy.
        """
        width = self.layer_widths[-1]  # the suffix-OR's, as wide as the layer it reads
        template = np.frombuffer(f"[{', '.join('0' * width)}], ".encode(), np.uint8)
        fh.write(f'{{"layer_widths": {json.dumps(list(self.layer_widths))}, "embedding_matrix": [')
        sep = ""
        for block in self._embedding_blocks(len(template)):
            rows = np.tile(template, (len(block), 1))
            rows[:, 1 : 3 * width : 3] += block  # "0" + 1 is "1"
            fh.write(sep)
            fh.write(str(rows.reshape(-1)[:-2].data, "ascii"))  # the block's last ", " dropped
            sep = ", "
        fh.write(f'], "output_weights": {json.dumps(list(self.output_weights))}}}\n')


def _finish(layers: tuple[ThresholdLayer, ...], ds: MonotoneDataset) -> tuple[ThresholdNetwork, ConstructionTrace]:
    """Add the telescoping output stage to ``layers`` and trace the build.

    The stage's weights are y_i - y_{i-1} (nonnegative) and its bias y_0, as
    ints over one scale.  The virtual y_0 is 0 for nonnegative labels; for a
    negative smallest label it is y_1 instead, so the first weight becomes 0
    and all weights stay nonnegative.
    """
    steps, scale = _as_integers(np.concatenate(([min(0.0, ds.labels[0])], ds.labels)))
    stage = ExactStage(tuple(np.diff(steps).tolist()), steps[0], scale)
    net = ThresholdNetwork(layers, stage)
    return net, ConstructionTrace(net, ds.points)


def build_interpolator(ds: MonotoneDataset) -> tuple[ThresholdNetwork, ConstructionTrace]:
    """Build the general interpolating monotone network, widths (d*n, n, n).

    The returned network evaluates to ``y_i`` on every training point, and
    on any input ``x`` to ``max{y_i : x_i <= x}`` (``min(0, y[0])`` when no
    point lies below ``x``), exactly on both the rational and the float path.
    """
    n, d = ds.n, ds.dimension
    index = np.arange(n * d) % d  # unit i*d + c reads coordinate c
    layer1 = ThresholdLayer(WeightPattern(SELECT, d, index), -ds.points.reshape(-1), THRESHOLD)
    layer2 = ThresholdLayer(WeightPattern(BLOCKS, d), np.full(n, -float(d)), THRESHOLD)
    return _finish((layer1, layer2, _suffix_or_layer(n)), ds)


def _suffix_or_layer(n: int) -> ThresholdLayer:
    """Unit i fires iff any input with index >= i is set (inputs are 0/1)."""
    return ThresholdLayer(WeightPattern(SUFFIX), np.full(n, -1.0), THRESHOLD)


def separating_coordinate(ds: MonotoneDataset, i: int) -> tuple[int, float]:
    """For a chain dataset, a coordinate splitting point i from its predecessors.

    ``i`` is 1-based; returns ``(r, t)`` with ``r`` 1-based such that
    coordinate ``r`` of every earlier point is strictly below ``t``, and of
    every later point is >= ``t``, where ``t`` is coordinate ``r`` of point
    ``i``.  For ``i == 1`` the first coordinate is returned.  An ``i``
    outside ``1..n`` raises :class:`InvalidArgument`.
    """
    if not 1 <= i <= ds.n:
        raise InvalidArgument(f"point index {i} outside 1..{ds.n}")
    if not is_totally_ordered(ds):
        raise NotTotallyOrdered("separating coordinates exist only for chain datasets")
    r = _separating_index(ds.points, i - 1)
    return r + 1, float(ds.points[i - 1, r])


def _separating_index(X: np.ndarray, i: int) -> int:
    if i == 0:
        return 0
    # The canonical order of a chain is the coordinatewise order, so some
    # coordinate strictly increases from the predecessor; by transitivity it
    # separates point i from every earlier point.  Only a hand-made dataset
    # can hold two equal consecutive points.
    increased = np.flatnonzero(X[i] > X[i - 1])
    if increased.size == 0:
        raise DuplicatePoint(i - 1, i)
    return int(increased[0])


def build_chain_interpolator(ds: MonotoneDataset) -> tuple[ThresholdNetwork, ConstructionTrace]:
    """Build the compressed interpolator for totally ordered data, widths (n, n).

    Layer-1 unit i thresholds a single separating coordinate against its
    value at point i, which reproduces the embedding indicators on the
    training points; a suffix-OR and the telescoping output complete the
    network.  Raises :class:`NotTotallyOrdered` when the data is not a chain
    and :class:`DuplicatePoint` when two of its points are equal.
    """
    if not is_totally_ordered(ds):
        raise NotTotallyOrdered(
            "chain construction needs every pair of points comparable"
        )
    r = [_separating_index(ds.points, i) for i in range(ds.n)]
    layer1 = ThresholdLayer(WeightPattern(SELECT, ds.dimension, r), -ds.points[range(ds.n), r], THRESHOLD)
    return _finish((layer1, _suffix_or_layer(ds.n)), ds)
