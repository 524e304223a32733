"""Shared generators for randomized tests, and the dense reference network.

Datasets are produced by scoring random points with a random monotone
function (nonnegative linear part plus nonnegative step terms, optionally
rounded to create label ties), so monotone consistency holds by
construction and only needs to be re-checked by validate_dataset.

``dense_interpolator`` builds the general interpolator with every weight
matrix written out, the way the library built it before its layers were
stored as weight patterns; it is the oracle for the pattern layers, and
``densify`` writes out the patterns of any network the same way.

``telescoping_output`` is the output stage the builders made as a tuple of
Fractions before they made it as ints over one scale; it is the oracle for
``ExactStage``, and ``output_fractions`` reads any network's stage back as
Fractions.

``pairs_validate_oracle`` is the validator that took a list of
(point, label) pairs, point by point, before ``validate_dataset`` took the
two arrays; it is the oracle for the array checks.

``random_monotone_network`` and ``random_chain_dataset`` draw one network
or one chain with the generator's own calls, one sample at a time; they
are the oracles for the campaigns' stacks, which take the same doubles
from one ``random`` call per stack.

``full_grid_approximator`` builds the grid approximator from every grid
point, as ``build_approximator`` did before it kept only the points above
their lower axis neighbours; it is the oracle for that prune, and
``axis_minimal`` finds those points one at a time.
``tabulated_oracle`` is the ``--table`` target one point per call, as the
CLI evaluated it before ``approx.tabulated_function`` took arrays.
"""

from fractions import Fraction

import numpy as np

from mononet import audit
from mononet.approx import plan_grid
from mononet.construct import build_interpolator
from mononet.core import (
    THRESHOLD,
    MonotoneDataset,
    ThresholdLayer,
    ThresholdNetwork,
    _check_distinct,
    pairwise_leq,
    row_blocks,
    validate_dataset,
)
from mononet.errors import DimensionMismatch, EmptyDataset, InvalidNumber, MonotoneViolation


def _network_draw(rng: np.random.Generator, input_dim: int, widths: tuple[int, ...]) -> np.ndarray:
    """The U[0, 1) doubles of one random network, from one ``rng.random`` call.

    Layer by layer, ``width * fan_in`` weights and then ``width`` bias draws;
    last, ``fan_in`` output weights and one output bias draw.  Drawing each
    array in turn (``random((width, fan_in))``, ``uniform(-s, s, width)``,
    ..., ``uniform(-o, o)``) takes the same doubles, one per entry.
    """
    fan_ins = (input_dim, *widths)
    return rng.random(sum(w * (f + 1) for w, f in zip(widths, fan_ins)) + fan_ins[-1] + 1)


def _network_parts(
    u: np.ndarray, input_dim: int, widths: tuple[int, ...]
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.float64]:
    """Views of draw ``u``: each layer's (weights, bias draws), the output weights, the output bias draw."""
    layers, at, fan_in = [], 0, input_dim
    for width in widths:
        end = at + width * fan_in
        layers.append((u[at:end].reshape(width, fan_in), u[end : end + width]))
        at, fan_in = end + width, width
    return layers, u[at:-1], u[-1]


def _random_chain(rng: np.random.Generator, n: int, d: int, coords=None) -> tuple[np.ndarray, np.ndarray]:
    """The points (n, d) and labels (n,) of a random coordinatewise chain.

    Consecutive points differ by a nonnegative increment that is zero in a
    random subset of coordinates (never all of them), exercising the
    separating-coordinate selection: mask row i, if it masks every
    coordinate of step i + 1, leaves ``coords[i]`` unmasked, or a coordinate
    drawn from ``rng`` when ``coords`` is None.  The points increase and so
    do the labels, so the arrays are already a valid dataset in canonical
    order.
    """
    steps = 0.01 + rng.random((n, d))
    if n > 1:
        mask = rng.random((n - 1, d)) < 0.5
        for row in np.flatnonzero(mask.all(axis=1)):
            mask[row, rng.integers(d) if coords is None else coords[row]] = False
        steps[1:][mask] = 0.0
    return np.cumsum(steps, axis=0), np.cumsum(0.05 + rng.random(n))


def random_monotone_network(
    rng: np.random.Generator,
    input_dim: int,
    widths: tuple[int, ...],
    activation: str = THRESHOLD,
    bias_scale: float = 1.0,
    output_bias_scale: float = 1.0,
) -> ThresholdNetwork:
    """Random network with U[0,1] weights and symmetric uniform biases, from one draw.

    The bias range should roughly cover the input scale times fan-in so that
    units land on both sides of their thresholds.  ``_network_draw`` is
    looked up at each call, so a test that patches it patches this
    generator too.
    """
    u = _network_draw(rng, input_dim, widths)
    layers, output_weights, output_bias = _network_parts(u, input_dim, widths)
    return ThresholdNetwork(
        tuple(ThresholdLayer(w, audit._symmetric(b, bias_scale), activation) for w, b in layers),
        output_weights,
        float(audit._symmetric(output_bias, output_bias_scale)),
    )


def random_chain_dataset(rng: np.random.Generator, n: int, d: int, coords=None) -> MonotoneDataset:
    """Random coordinatewise chain with strictly increasing labels, in canonical order (see ``_random_chain``)."""
    return MonotoneDataset(*_random_chain(rng, n, d, coords))


def random_monotone_score(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    d = X.shape[1]
    y = X @ rng.random(d)
    for _ in range(int(rng.integers(0, 3))):
        j = int(rng.integers(d))
        t = float(rng.uniform(X[:, j].min(), X[:, j].max() + 0.1))
        y = y + rng.random() * (X[:, j] >= t)
    if rng.random() < 0.3:
        y = np.round(y, 1)  # rounding is nondecreasing, so ties stay consistent
    if rng.random() < 0.3:
        y = y - float(y.max()) * rng.random()  # exercise negative labels
    return y


def random_monotone_dataset(
    rng: np.random.Generator, max_n: int = 64, max_d: int = 8
) -> MonotoneDataset:
    d = int(rng.integers(1, max_d + 1))
    n = int(rng.integers(1, max_n + 1))
    if rng.random() < 0.5:
        X = rng.random((n, d)) * float(rng.choice([1.0, 10.0]))
    else:
        # small integer grids force comparable pairs and shared coordinates
        X = rng.integers(0, 4, size=(n, d)).astype(float)
    X = np.unique(X, axis=0)
    rng.shuffle(X)
    y = random_monotone_score(rng, X)
    return validate_dataset(X, y)


def pairs_validate_oracle(raw) -> MonotoneDataset:
    """Check and canonically order a list of (point, label) pairs, one pair at a time.

    A scalar point counts as a point of one coordinate.  Raises the errors
    of ``validate_dataset``, with the same input positions.
    """
    pairs = list(raw)
    if not pairs:
        raise EmptyDataset("a dataset needs at least one point")
    pts = []
    ys = []
    for p, y in pairs:
        v = np.asarray(p, dtype=float)
        if v.ndim == 0:
            v = v.reshape(1)
        if v.ndim != 1:
            raise DimensionMismatch(f"a point must be a flat sequence, got shape {v.shape}")
        pts.append(v)
        ys.append(float(y))
    d = len(pts[0])
    for k, v in enumerate(pts):
        if len(v) != d:
            raise DimensionMismatch(f"point at position {k} has {len(v)} coordinates, expected {d}")
    points = np.array(pts, dtype=float)
    labels = np.array(ys, dtype=float)
    if not np.isfinite(points).all():
        raise InvalidNumber("point coordinates must be finite")
    if not np.isfinite(labels).all():
        raise InvalidNumber("labels must be finite")

    _check_distinct(points)

    for s in row_blocks(len(points), len(points)):
        bad = pairwise_leq(points[s], points) & (labels[s, None] > labels)
        if bad.any():
            i, j = np.argwhere(bad)[0] + (s.start, 0)
            raise MonotoneViolation(int(i), int(j))

    order = np.lexsort((*points.T[::-1], labels))
    return MonotoneDataset(points[order], labels[order])


def blocks_matrix(width: int, size: int) -> np.ndarray:
    """Unit i sums inputs i*size .. i*size+size-1."""
    w = np.zeros((width, width * size))
    for i in range(width):
        w[i, i * size : (i + 1) * size] = 1.0
    return w


def suffix_matrix(width: int) -> np.ndarray:
    """Unit i sums inputs i .. width-1."""
    return np.triu(np.ones((width, width)))


def select_matrix(inputs: int, index) -> np.ndarray:
    """Unit u reads input index[u]: one-hot rows."""
    return np.eye(inputs)[np.asarray(index, dtype=int)]


def dense_weights(layer: ThresholdLayer) -> np.ndarray:
    """The layer's weight matrix, written out for a weight pattern."""
    if layer.kind == "select":
        return select_matrix(layer.input_width, layer.weights.index)
    if layer.kind == "blocks":
        return blocks_matrix(layer.width, layer.weights.size)
    if layer.kind == "suffix":
        return suffix_matrix(layer.width)
    return layer.weights


def densify(net: ThresholdNetwork) -> ThresholdNetwork:
    """``net`` with every weight pattern replaced by its dense matrix."""
    layers = tuple(ThresholdLayer(dense_weights(l), l.biases, l.activation) for l in net.layers)
    if net.exact_stage is not None:
        return ThresholdNetwork(layers, net.exact_stage)
    return ThresholdNetwork(layers, net.output_weights, net.output_bias)


def telescoping_output(labels: np.ndarray) -> tuple[tuple[Fraction, ...], Fraction]:
    """Output weights y_i - y_{i-1} (nonnegative) plus the label-shift bias, as Fractions.

    The virtual y_0 is 0 for nonnegative labels; for a negative smallest
    label the bias shifts the baseline down to y_1 instead, so the first
    weight becomes 0 and all weights stay nonnegative.
    """
    steps = [Fraction(min(0.0, float(labels[0])))]
    steps += [Fraction(v) for v in labels.tolist()]
    return tuple(b - a for a, b in zip(steps, steps[1:])), steps[0]


def output_fractions(net: ThresholdNetwork) -> tuple[list[Fraction], Fraction]:
    """The output weights and bias of ``net`` as Fractions, from its exact stage if it has one."""
    stage = net.exact_stage
    if stage is None:
        return [Fraction(w) for w in net.output_weights.tolist()], Fraction(net.output_bias)
    return [Fraction(p, stage.scale) for p in stage.numerators], Fraction(stage.bias, stage.scale)


def dense_interpolator(ds: MonotoneDataset) -> ThresholdNetwork:
    """The general interpolator, widths (d*n, n, n), with dense weights throughout."""
    n, d = ds.n, ds.dimension
    layers = (
        ThresholdLayer(np.tile(np.eye(d), (n, 1)), -ds.points.reshape(-1)),
        ThresholdLayer(blocks_matrix(n, d), np.full(n, -float(d))),
        ThresholdLayer(suffix_matrix(n), np.full(n, -1.0)),
    )
    return ThresholdNetwork(layers, *telescoping_output(ds.labels))


def full_grid_approximator(f, d: int, lipschitz: float, eps: float) -> ThresholdNetwork:
    """The interpolator of target ``f`` on every point of the grid for (d, lipschitz, eps)."""
    points = plan_grid(d, lipschitz, eps).points()
    net, _ = build_interpolator(validate_dataset(points, f(points)))
    return net


def axis_minimal(grid, values) -> np.ndarray:
    """Mask of the grid points whose sample is above that of every lower axis neighbour, point by point."""
    V = np.asarray(values).reshape((grid.points_per_axis,) * grid.dimension)
    keep = np.ones(V.shape, dtype=bool)
    for index in np.ndindex(V.shape):
        for ax, i in enumerate(index):
            lower = index[:ax] + (i - 1,) + index[ax + 1 :]
            if i > 0 and not V[index] > V[lower]:
                keep[index] = False
    return keep.reshape(-1)


def tabulated_oracle(points: np.ndarray, values: np.ndarray):
    """The table's target at one point ``x``: the largest value among table points <= x, else the least value."""
    if np.isnan(values).any():
        raise InvalidNumber("table values must not be NaN")
    floor_value = float(values.min())

    def f(x):
        below = np.all(points <= np.asarray(x, dtype=float), axis=1)
        if below.any():
            return float(values[below].max())
        return floor_value

    return f


def masked_max_table(points: np.ndarray, values: np.ndarray):
    """The table's target on a batch as one masked ``np.max`` over ``pairwise_leq(points, X)``, the least
    value where no point lies below: the ``--table`` target as it was before it read a sorted table.

    On a batch of one query numpy reduces the column through SIMD lanes, and which of a tied +0.0 and
    -0.0 it returns depends on them; on two or more it returns the last tied row's."""
    floor = values.min()

    def f(X):
        below = pairwise_leq(points, X)
        return np.max(np.broadcast_to(values[:, None], below.shape), axis=0, where=below, initial=floor)

    return f
