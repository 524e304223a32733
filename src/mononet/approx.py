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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .construct import build_interpolator
from .core import ThresholdNetwork, canonical_dataset, validate_dataset
from .errors import GridTooLarge, InvalidArgument
from .io import parse_float

DEFAULT_GRID_BUDGET = 10_000_000


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

    def iter_points(self):
        """Grid points in row-major order (last axis varies fastest)."""
        return product(self.axis_points, repeat=self.dimension)


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


def empirical_lipschitz(values: Sequence[float], grid: GridSpec) -> float:
    """Largest |delta f| / |delta x| over axis-adjacent grid points."""
    shape = (grid.points_per_axis,) * grid.dimension
    V = np.asarray(values, dtype=float).reshape(shape)
    gaps = np.diff(np.asarray(grid.axis_points))
    worst = 0.0
    for ax in range(grid.dimension):
        gap_shape = [1] * grid.dimension
        gap_shape[ax] = len(gaps)
        with np.errstate(over="ignore"):  # a rate past the float range is inf
            rate = np.abs(np.diff(V, axis=ax)) / gaps.reshape(gap_shape)
        if rate.size:
            worst = max(worst, float(rate.max()))
    return worst


def build_approximator(
    f: Callable[[tuple[float, ...]], float],
    d: int,
    lipschitz: float,
    eps: float,
    budget: int = DEFAULT_GRID_BUDGET,
) -> ThresholdNetwork:
    """Monotone network within ``eps`` of ``f`` uniformly on [0,1]^d.

    ``f`` is sampled on every grid point (row-major).  It must be monotone
    (a violation on the samples raises :class:`MonotoneViolation`) and
    ``lipschitz`` must genuinely bound its slope for the error guarantee to
    hold; a steeper slope between samples triggers a warning.

    The samples are checked by comparing neighbours along each axis, in
    O(points * d): a step between comparable grid points is a sum of steps
    along the axes, so by transitivity these pairs order every comparable
    pair.  Samples that fail this check, or that are not finite, go through
    :func:`validate_dataset` for its error.
    """
    grid = plan_grid(d, lipschitz, eps, budget)
    points = list(grid.iter_points())
    values = np.array([float(f(p)) for p in points])
    points = np.array(points)
    # build first: samples that cannot be built (a label not finite, say) are refused with no warning
    if np.isfinite(values).all() and _axis_monotone(values, grid):
        ds = canonical_dataset(points, values)
    else:
        ds = validate_dataset(points, values)  # raises, naming the pair or the number
    net, _ = build_interpolator(ds)
    observed = empirical_lipschitz(values, grid)
    if observed > lipschitz * (1 + 1e-9):
        warnings.warn(
            f"grid samples show slope {observed:.6g} exceeding the declared "
            f"Lipschitz bound {lipschitz:.6g}; the error guarantee may not hold",
            stacklevel=2,
        )
    return net


def _axis_monotone(values: np.ndarray, grid: GridSpec) -> bool:
    """Whether grid samples never fall along an axis, by comparison: a difference may overflow."""
    V = values.reshape((grid.points_per_axis,) * grid.dimension)
    return all((W[:-1] <= W[1:]).all() for W in (np.moveaxis(V, ax, 0) for ax in range(grid.dimension)))


def constant_function(c: float) -> Callable[[tuple[float, ...]], float]:
    return lambda x: float(c)


BUILTIN_FUNCTIONS: dict[str, Callable[[tuple[float, ...]], float]] = {
    # All monotone on [0,1]^d; suitable Lipschitz bounds (Euclidean) are
    # 1 for linear/min/max, 1/sqrt(d) for mean, and unbounded near 0 for
    # sqrt (callers must supply their own L for a restricted domain).
    "linear": lambda x: float(x[0]),
    "mean": lambda x: float(sum(x) / len(x)),
    "min": lambda x: float(min(x)),
    "max": lambda x: float(max(x)),
    "sqrt": lambda x: float(math.sqrt(x[0])),
}


def resolve_function(name: str) -> Callable[[tuple[float, ...]], float]:
    """Look up a builtin target by name; ``constant:c`` builds a constant."""
    if name.startswith("constant:"):
        c = parse_float(name.split(":", 1)[1])
        if c is not None:
            return constant_function(c)
    elif name in BUILTIN_FUNCTIONS:
        return BUILTIN_FUNCTIONS[name]
    known = ", ".join(sorted(BUILTIN_FUNCTIONS) + ["constant:c"])
    raise InvalidArgument(f"unknown function {name!r}; choose from {known}")
