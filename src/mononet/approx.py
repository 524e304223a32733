"""Uniform approximation of monotone functions on [0,1]^d by threshold nets.

The approximator samples the target on a uniform grid and interpolates the
samples with :func:`mononet.construct.build_interpolator`.  For a monotone,
L-Lipschitz target and accuracy ``eps`` the grid spacing is
``eps / (L * sqrt(d))`` per axis, which keeps every point of the cube within
subcube diameter ``eps / L`` of a lower and an upper grid neighbor; since
both the target and the built network are monotone, the network value at
any point is sandwiched between the target values at those neighbors, so
the uniform error is at most ``eps``.

The last axis point 1.0 is appended when the uniform sweep does not land on
it, so an upper neighbor always exists.

A *target* maps an (m, d) float64 array of points to their (m,) values.
The network is built from the grid points strictly above every lower axis
neighbour: ``max{y_i : x_i <= x}`` loses nothing, as by induction each
dropped point has a kept point below it with its value, and the least grid
point (the baseline's ``y_1``) is kept; so it is the full grid's on all R^d.

The samples are checked by array passes over the grid, O(points * d); no
pair of samples is compared (see :func:`build_approximator`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .construct import build_interpolator
from .core import DominanceIndex, ThresholdNetwork, canonical_dataset, monotone_violation, prefix_lookup, row_blocks
from .errors import DimensionMismatch, EmptyDataset, GridTooLarge, InvalidArgument, InvalidNumber, TooLarge
from .io import parse_float

DEFAULT_GRID_BUDGET = 10_000_000
# Most work one probe check may plan: probes * kept grid points * d, the coordinate comparisons of
# evaluating the built network on every probe.  CI's largest, mean at d = 3, eps 0.05 over 1,000
# probes, plans 1.4e8 and takes about 0.2 s on a 2-vCPU host; a probe costs some 80 ns however few
# points are kept, so the cap is kept low: 4.3e9 probes of one kept point would take about 6 min.
PROBE_MAX_WORK = 2**32


@dataclass(frozen=True)
class GridSpec:
    """A uniform sampling grid over [0,1]^d.

    ``axis_points`` are shared by every axis: multiples of ``spacing``
    starting at 0, plus the endpoint 1.0.
    """

    dimension: int
    spacing: float
    axis_points: tuple[float, ...]

    @property
    def points_per_axis(self) -> int:
        return len(self.axis_points)

    @property
    def point_count(self) -> int:
        return self.points_per_axis**self.dimension

    def points(self) -> np.ndarray:
        """The read-only (point_count, d) array of grid points in row-major order (last axis varies fastest)."""
        axes = [np.array(self.axis_points)] * self.dimension
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dimension)
        points.flags.writeable = False
        return points


def plan_grid(
    d: int, lipschitz: float, eps: float, budget: int = DEFAULT_GRID_BUDGET
) -> GridSpec:
    """Choose the sampling grid for accuracy ``eps`` at Lipschitz bound ``lipschitz``.

    Raises :class:`GridTooLarge` when the exact point count exceeds
    ``budget``; the count is worked out before any axis point is made.
    """
    if d < 1:
        raise InvalidArgument(f"dimension must be >= 1, got {d}")
    if not 0 < lipschitz < math.inf:
        raise InvalidArgument(f"Lipschitz bound must be positive and finite, got {lipschitz}")
    if not 0 < eps < math.inf:
        raise InvalidArgument(f"accuracy must be positive and finite, got {eps}")
    spacing = (eps / lipschitz) / math.sqrt(d)
    # With round-to-nearest, k = floor(1 / spacing) has k * spacing <= 1.0,
    # and (k + 1) * spacing is either above 1.0 or exactly 1.0, which is the
    # endpoint appended below; a larger 1 / spacing is cut at the budget
    last = math.floor(min(1.0 / spacing, budget)) if spacing > 0 else budget
    per_axis = last + 1 + (last * spacing < 1.0)  # 0 .. last * spacing, then 1.0
    if per_axis > budget:
        raise GridTooLarge(
            f"grid needs more than {budget} points per axis at spacing {spacing}"
        )
    # per_axis >= 2, so at d >= budget.bit_length() the count exceeds budget
    if d >= budget.bit_length() or per_axis**d > budget:
        raise GridTooLarge(
            f"grid would hold {per_axis}**{d} points, budget is {budget}"
        )
    axis = [k * spacing for k in range(last + 1)]
    if axis[-1] < 1.0:
        axis.append(1.0)
    return GridSpec(dimension=d, spacing=spacing, axis_points=tuple(axis))


def build_approximator(
    f: Callable[[np.ndarray], np.ndarray], d: int, lipschitz: float, eps: float,
    budget: int = DEFAULT_GRID_BUDGET,
) -> ThresholdNetwork:
    """Monotone network within ``eps`` of the target ``f`` uniformly on [0,1]^d.

    ``f`` is called once, on the read-only array of :meth:`GridSpec.points`;
    a result not of shape (point_count,) raises :class:`DimensionMismatch`, and
    one not finite :class:`InvalidNumber`.  It must be monotone: a violation on
    the samples raises :class:`MonotoneViolation`, naming the pair that
    :func:`~mononet.core.validate_dataset` names, the first in row-major order.

    The sup error on [0,1]^d is at most G, the largest rise of the samples
    across a grid cell, from its least corner a to its greatest b: for x in
    the cell, f(a) <= N(x) <= f(x) <= f(b) by monotonicity alone.  When
    ``lipschitz`` bounds the slope, G <= eps; a G above eps triggers a
    warning that names it.

    One pass over the axes compares each sample with its lower neighbours, in
    O(points * d): a step between comparable grid points is a sum of axis steps,
    so by transitivity these pairs order every comparable pair.  When a sample
    falls, the minimum of each upper orthant names the pair (:func:`_falling_pair`).
    The network is built from the points the pass keeps (see the module docstring).
    """
    grid = plan_grid(d, lipschitz, eps, budget)
    points = grid.points()
    values = np.asarray(f(points), dtype=float)
    if values.shape != points.shape[:1]:
        raise DimensionMismatch(f"the target returned shape {values.shape} for {len(points)} points")
    if not np.isfinite(values).all():
        raise InvalidNumber("labels must be finite")
    falls, keep, rise = _axis_pass(values, grid)
    if falls:
        raise monotone_violation(points, values, *_falling_pair(values, grid))
    # build first: samples that cannot be built (a label step past the float range) are refused with no warning
    net, _ = build_interpolator(canonical_dataset(points[keep], values[keep]))
    if rise > eps * (1 + 1e-9):
        warnings.warn(
            f"the error bound G = {rise:.6g} exceeds eps {eps:.6g}: grid samples rise by more than eps "
            f"across a grid cell, so the declared Lipschitz bound {lipschitz:.6g} does not hold",
            stacklevel=2,
        )
    return net


def require_probe_work(probes: int, net: ThresholdNetwork) -> None:
    """Raise :class:`TooLarge` when checking ``probes`` probes on the built ``net`` plans more than
    ``PROBE_MAX_WORK`` coordinate comparisons: probes times its kept points times d."""
    work = probes * net.hidden_widths[-1] * net.input_dimension
    if work > PROBE_MAX_WORK:
        raise TooLarge(
            f"{probes} probes of {net.hidden_widths[-1]} grid points in {net.input_dimension} dimensions plan "
            f"{work} comparisons, more than {PROBE_MAX_WORK}; use fewer probes"
        )


def _axis_pass(values: np.ndarray, grid: GridSpec) -> tuple[bool, np.ndarray, float]:
    """Whether finite grid samples fall along an axis, the mask of points strictly above every
    lower axis neighbour, and G, the largest rise of the samples across a grid cell."""
    V = values.reshape((grid.points_per_axis,) * grid.dimension)
    keep = np.ones(V.shape, dtype=bool)
    falls = False
    # a finite step or rise past the float range is inf, of its sign
    with np.errstate(over="ignore"):
        for ax in range(grid.dimension):
            step = np.moveaxis(np.diff(V, axis=ax), ax, -1)
            falls |= bool((step < 0).any())
            np.moveaxis(keep, ax, -1)[..., 1:] &= step > 0
        rise = V[(slice(1, None),) * grid.dimension] - V[(slice(None, -1),) * grid.dimension]
    return falls, keep.reshape(-1), float(rise.max())


def _falling_pair(values: np.ndarray, grid: GridSpec) -> tuple[int, int]:
    """The first pair ``(i, j)`` in row-major order of grid points ``x_i <= x_j`` whose finite samples
    fall, ``y_i > y_j``: the pair :func:`~mononet.core.validate_dataset` names.  Some pair must fall.

    ``i`` is the first sample above the minimum of its upper orthant, a running minimum along each
    axis from the top; ``j`` is the first sample below ``y_i`` in ``i``'s upper box, whose row-major
    order is the grid's.
    """
    V = values.reshape((grid.points_per_axis,) * grid.dimension)
    least = V
    for ax in range(grid.dimension):
        least = np.flip(np.minimum.accumulate(np.flip(least, ax), axis=ax), ax)
    i = int(np.argmax(V > least))
    at = np.unravel_index(i, V.shape)
    box = V[tuple(slice(c, None) for c in at)]
    below = np.unravel_index(int(np.argmax(box < V[at])), box.shape)
    return i, int(np.ravel_multi_index(np.add(at, below), V.shape))


def tabulated_function(points: np.ndarray, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The target ``x -> max{values[i] : points[i] <= x}``, else ``min(values)``: monotone for any
    (n, d) ``points`` and (n,) ``values``, n >= 1.  An empty table raises :class:`EmptyDataset`,
    other shapes :class:`DimensionMismatch` and a NaN value or point coordinate :class:`InvalidNumber`.

    The table is sorted by value once, stably: ``table[k]`` is the k-th least value.  One
    :class:`~mononet.core.DominanceIndex` of the negated points, greatest value first, is built with
    the target; each block of queries is one query of it, read by :func:`~mononet.core.prefix_lookup`
    as a built interpolator's head is.  Of tied values the last row's is returned, and below every
    point the first row's: one rule for the sign of a zero.
    """
    points, values = np.asarray(points, dtype=float), np.asarray(values, dtype=float)
    if not len(values):
        raise EmptyDataset("a table needs at least one point")
    if points.ndim != 2 or values.shape != points.shape[:1]:
        raise DimensionMismatch(f"table points must be (n, d) and values (n,), got {points.shape}, {values.shape}")
    if np.isnan(values).any():
        raise InvalidNumber("table values must not be NaN")
    if np.isnan(points).any():
        raise InvalidNumber("table point coordinates must not be NaN")
    order = np.argsort(values, kind="stable")
    table = values[np.concatenate((order[:1], order))]
    index = DominanceIndex(-points[order[::-1]])  # negation is exact: -x_i <= -q iff x_i <= q

    def f(X: np.ndarray) -> np.ndarray:
        if X.shape[1:] != points.shape[1:]:
            raise DimensionMismatch(f"queries of shape {X.shape} for table points of {points.shape[1]} coordinates")
        out = np.empty(len(X))
        for s in row_blocks(len(X), len(points), core.WORKING_SET_BYTES):  # bytes a table point: the leq matrix
            prefix_lookup(table, index.leq(-X[s]), out=out[s])
        return out

    return f


BUILTIN_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    # All monotone on [0,1]^d; suitable Lipschitz bounds (Euclidean) are
    # 1 for linear/min/max, 1/sqrt(d) for mean, and unbounded near 0 for
    # sqrt (callers must supply their own L for a restricted domain).
    "linear": lambda X: X[:, 0],
    "mean": lambda X: functools.reduce(np.add, X.T) / X.shape[1],  # left to right: one result on every Python
    "min": lambda X: X.min(axis=1),
    "max": lambda X: X.max(axis=1),
    "sqrt": lambda X: np.sqrt(X[:, 0]),
}


def resolve_function(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Look up a builtin target by name; ``constant:c`` builds a constant."""
    if name.startswith("constant:"):
        c = parse_float(name.split(":", 1)[1])
        if c is not None:
            return lambda X: np.full(len(X), c)
    elif name in BUILTIN_FUNCTIONS:
        return BUILTIN_FUNCTIONS[name]
    known = ", ".join(sorted(BUILTIN_FUNCTIONS) + ["constant:c"])
    raise InvalidArgument(f"unknown function {name!r}; choose from {known}")
