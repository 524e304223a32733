"""Shared generators for randomized tests, and the dense reference network.

Datasets are produced by scoring random points with a random monotone
function (nonnegative linear part plus nonnegative step terms, optionally
rounded to create label ties), so monotone consistency holds by
construction and only needs to be re-checked by validate_dataset.

``dense_interpolator`` builds the general interpolator with every weight
matrix written out, the way the library built it before its layers were
stored as weight patterns; it is the oracle for the pattern layers, and
``densify`` writes out the patterns of any network the same way.
"""

from fractions import Fraction

import numpy as np

from mononet.core import MonotoneDataset, ThresholdLayer, ThresholdNetwork, validate_dataset


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
    return validate_dataset(list(zip(map(tuple, X), y)))


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
    return ThresholdNetwork(layers, net.output_weights, net.output_bias)


def dense_interpolator(ds: MonotoneDataset) -> ThresholdNetwork:
    """The general interpolator, widths (d*n, n, n), with dense weights throughout."""
    n, d = ds.n, ds.dimension
    layers = (
        ThresholdLayer(np.tile(np.eye(d), (n, 1)), -ds.points.reshape(-1)),
        ThresholdLayer(blocks_matrix(n, d), np.full(n, -float(d))),
        ThresholdLayer(suffix_matrix(n), np.full(n, -1.0)),
    )
    steps = [Fraction(min(0.0, float(ds.labels[0])))] + [Fraction(v) for v in ds.labels.tolist()]
    return ThresholdNetwork(layers, [b - a for a, b in zip(steps, steps[1:])], steps[0])
