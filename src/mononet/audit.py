"""Executable certificates and falsification probes for monotone networks.

Each check returns an :class:`AuditReport`; a failing report always carries
a witness that can be replayed from the recorded seed.  Three of the checks
are falsification harnesses for facts that are theorems for the audited
class, so a failure indicates a bug (the CLI maps it to a distinguished
exit code):

* ``relu_convexity_probe`` - a ReLU network with nonnegative weights is a
  convex function, so midpoint convexity can never be violated.
* ``depth2_inequality_audit`` - for a one-hidden-layer threshold network
  with nonnegative weights, on the spread dataset (d scaled basis vectors
  labeled 0 and the all-ones point labeled 1) the bias-corrected outputs
  satisfy ``sum_i N~(x_i) >= N~(x_{d+1})``: every hidden unit active on the
  all-ones point is also active on the basis point of its largest weight
  coordinate.  With output bias zero this is why no such network can
  interpolate the dataset; the audit reports interpolation status as a
  separate observation.
* ``chain_width_audit`` - along a coordinatewise chain, the sets of active
  first-layer units of a monotone threshold network can only grow, so a
  first layer narrower than the chain repeats an activation pattern on two
  consecutive points and forces equal outputs there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import core
from .core import (
    RELU,
    THRESHOLD,
    MonotoneDataset,
    ThresholdLayer,
    ThresholdNetwork,
    first_set,
    is_totally_ordered,
    row_blocks,
)
from .io import fraction_text
from .errors import (
    ActivationMismatch,
    ArchitectureMismatch,
    DimensionMismatch,
    DimensionTooSmall,
    InvalidArgument,
    InvalidNumber,
    PreconditionViolated,
    TooLarge,
)

_REL_TOL = 1e-9

# Sizes of the randomized campaigns' networks and chains.
DEPTH2_MAX_WIDTH = 32  # hidden width of a depth2 network, drawn from 1..this
CONVEXITY_MAX_DEPTH = 3  # hidden layers of a convexity network, drawn from 1..this
CONVEXITY_MAX_WIDTH = 16  # width of each ReLU layer, drawn from 1..this
CONVEXITY_TRIPLES = 64  # midpoint-convexity triples per network
SQRT_GAP_BOUND = 0.125  # the least sup-gap to sqrt on [0, 1] of a convex function
SQRT_BOUND_STRIDE = 100  # the convexity campaign bounds each gap on every 100th grid point
CHAIN_MAX_POINTS = 16  # chain length, drawn from 3..this
CHAIN_MAX_DIM = 6  # chain dimension, drawn from 1..this
CHAIN_MAX_WIDTH = CHAIN_MAX_POINTS - 2  # first-layer width, drawn from 1..n-2 for n points
DEPTH2_MAX_DOUBLES = 2**20  # the spread dataset holds (d+1)*d doubles, so d <= 1023
MONOTONE_MAX_DOUBLES = 2**25  # the monotone probe's pairs U, V hold 2 * samples * d doubles (256 MiB)


def require_positive(count: int, name: str) -> None:
    if count < 1:
        raise InvalidArgument(f"{name} must be >= 1, got {count}")


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one check: verdict, replay seed, and failure witness."""

    check: str
    passed: bool
    witness: dict | None = None
    samples: int = 0
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _sample_failure(check: str, index: int, witness: dict, samples: int, seed: int) -> AuditReport:
    """The failed report of a campaign whose sample ``index`` failed with ``witness``."""
    return AuditReport(
        check, passed=False, witness={"sample_index": index, **witness}, samples=samples, seed=seed
    )


def certify_monotone_structure(net: ThresholdNetwork) -> AuditReport:
    """Pass iff every hidden weight and every output weight is >= 0.

    This is the structural sufficient condition for monotonicity; the
    witness pinpoints the first negative entry (an exact one as "p/q" text).
    """
    bad = net.first_negative_weight()
    if bad is None:
        return AuditReport("structure", passed=True)
    li, unit, idx = bad
    if li < len(net.layers):
        value = float(net.layers[li].weights[unit, idx])
        witness = {"location": "hidden", "layer": li, "unit": unit, "input_index": idx, "value": value}
    else:
        stage = net.exact_stage
        value = float(net.output_weights[idx]) if stage is None else fraction_text(stage.numerators[idx], stage.scale)
        witness = {"location": "output", "input_index": idx, "value": value}
    return AuditReport("structure", passed=False, witness=witness)


def probe_monotonicity(
    net: ThresholdNetwork,
    box: tuple[float, float] = (0.0, 1.0),
    samples: int = 256,
    seed: int = 0,
) -> AuditReport:
    """Sample comparable pairs u <= v in the box and check N(u) <= N(v).

    Raises :class:`TooLarge`, before drawing, when the pairs would hold
    more than ``MONOTONE_MAX_DOUBLES`` coordinates.
    """
    require_positive(samples, "samples")
    lo, hi = float(box[0]), float(box[1])
    if not lo <= hi:
        raise InvalidArgument(f"box needs lo <= hi, got ({lo}, {hi})")
    if not math.isfinite(hi - lo):  # an infinite side would put inf - inf in the draws
        raise InvalidNumber(f"box needs finite bounds and width, got ({lo}, {hi})")
    d = net.input_dimension
    if 2 * samples * d > MONOTONE_MAX_DOUBLES:
        raise TooLarge(
            f"the monotone probe draws 2 * {samples} samples * {d} coordinates, "
            f"above the limit of {MONOTONE_MAX_DOUBLES} doubles"
        )
    rng = np.random.default_rng(seed)
    U = lo + (hi - lo) * rng.random((samples, d))
    V = U + (hi - U) * rng.random((samples, d))
    fu = net.evaluate_batch(U)
    fv = net.evaluate_batch(V)
    bad = np.flatnonzero(fu > fv)
    if len(bad):
        k = int(bad[0])
        return AuditReport(
            "monotone",
            passed=False,
            witness={
                "lower_point": U[k].tolist(),
                "upper_point": V[k].tolist(),
                "lower_value": float(fu[k]),
                "upper_value": float(fv[k]),
            },
            samples=samples,
            seed=seed,
        )
    return AuditReport("monotone", passed=True, samples=samples, seed=seed)


def _require_relu_monotone(net: ThresholdNetwork):
    for layer in net.layers:
        if layer.activation != RELU:
            raise ActivationMismatch("this probe applies to all-ReLU networks")
    if not net.monotone_flag:
        raise PreconditionViolated("this probe applies to nonnegative-weight networks")


def relu_convexity_probe(
    net: ThresholdNetwork, triples: int = 256, seed: int = 0
) -> AuditReport:
    """Check midpoint convexity N((u+v)/2) <= (N(u)+N(v))/2 on random pairs.

    Convexity is a theorem for monotone ReLU networks, so this probe can
    only fail on a broken implementation.
    """
    _require_relu_monotone(net)
    require_positive(triples, "triples")
    d = net.input_dimension
    rng = np.random.default_rng(seed)
    witness = _midpoint_witness(net, rng.random((triples, d)), rng.random((triples, d)))
    return AuditReport("convexity", passed=witness is None, witness=witness, samples=triples, seed=seed)


def _midpoint_witness(net: ThresholdNetwork, U: np.ndarray, V: np.ndarray) -> dict | None:
    """The first pair of rows of ``U`` and ``V`` whose midpoint value exceeds their mean value, or None."""
    fu = net.evaluate_batch(U)
    fv = net.evaluate_batch(V)
    fm = net.evaluate_batch((U + V) / 2.0)
    slack = _REL_TOL * (1.0 + np.abs(fu) + np.abs(fv))
    bad = np.flatnonzero(fm > (fu + fv) / 2.0 + slack)
    if not len(bad):
        return None
    k = int(bad[0])
    return {
        "u": U[k].tolist(),
        "v": V[k].tolist(),
        "midpoint_value": float(fm[k]),
        "endpoint_mean": float((fu[k] + fv[k]) / 2.0),
    }


def sqrt_gap_witness(
    net: ThresholdNetwork, resolution: float = 1e-4
) -> tuple[float, float]:
    """Grid-search x in [0,1] maximizing |N(x) - sqrt(x)|.

    For a monotone ReLU network (hence convex) the returned gap is at least
    1/8: no convex function tracks the square root more closely at all of
    x = 0, 1/4, 1 simultaneously.
    """
    _require_relu_monotone(net)
    if net.input_dimension != 1:
        raise DimensionMismatch("sqrt gap search needs a 1-dimensional network")
    xs, roots = _sqrt_grid(int(round(1.0 / resolution)))
    gaps = np.abs(net.evaluate_batch(xs[:, None]) - roots)
    k = int(np.argmax(gaps))
    return float(xs[k]), float(gaps[k])


@functools.lru_cache(maxsize=4)
def _sqrt_grid(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid ``linspace(0, 1, steps + 1)`` and its square roots, read-only.

    Cached per ``steps``, so a convexity campaign builds its grid once.
    """
    xs = np.linspace(0.0, 1.0, steps + 1)
    roots = np.sqrt(xs)
    xs.flags.writeable = roots.flags.writeable = False
    return xs, roots


@functools.lru_cache(maxsize=16)
def depth2_counterexample(d: int) -> MonotoneDataset:
    """The spread dataset: d points ``d * e_i`` labeled 0, all-ones labeled 1.

    The points are pairwise incomparable, so the data is monotone; it is the
    input of :func:`depth2_inequality_audit`.  It is built in canonical order
    without validation: the basis points in reverse index order, ``d * e_d``
    first, then the all-ones point.  Cached per ``d``: the dataset is frozen
    and its arrays are read-only, so a campaign builds it once.  Raises
    :class:`TooLarge`, before allocating, when its (d+1)*d coordinates would
    exceed ``DEPTH2_MAX_DOUBLES``.
    """
    if d < 2:
        raise DimensionTooSmall(f"the spread dataset needs dimension >= 2, got {d}")
    if (d + 1) * d > DEPTH2_MAX_DOUBLES:
        raise TooLarge(
            f"the spread dataset at d = {d} holds (d+1)*d doubles, "
            f"above the limit of {DEPTH2_MAX_DOUBLES} (d <= 1023)"
        )
    points = np.vstack((float(d) * np.eye(d)[::-1], np.ones((1, d))))
    return MonotoneDataset(points, np.append(np.zeros(d), 1.0))


def depth2_inequality_audit(net: ThresholdNetwork, d: int) -> AuditReport:
    """Check ``sum_i N~(x_i) >= N~(x_{d+1})`` on the spread dataset.

    ``N~`` is the network minus its output bias.  The inequality holds for
    every one-hidden-layer threshold network with nonnegative weights (see
    the module docstring), so pass/fail reflects only that inequality;
    whether the network happens to interpolate the dataset is reported in
    ``details`` as an observation.
    """
    bias = np.array([float(net.output_bias)])
    return _depth2_audits(net, d, starts=np.zeros(1, np.intp), output_biases=bias).report(0)


class _Depth2Audits(NamedTuple):
    """The depth2 audit of each network of a stack, as arrays over the networks."""

    shifted: np.ndarray  # (networks, d + 1): outputs on the spread dataset minus the output bias
    lhs: np.ndarray
    rhs: np.ndarray
    passed: np.ndarray
    interpolation_gap: np.ndarray

    @property
    def interpolates(self) -> np.ndarray:
        return self.interpolation_gap <= 1e-9

    def report(self, k: int) -> AuditReport:
        lhs, rhs, passed = float(self.lhs[k]), float(self.rhs[k]), bool(self.passed[k])
        return AuditReport(
            "depth2",
            passed=passed,
            witness=None
            if passed
            else {"shifted_outputs": self.shifted[k].tolist(), "lhs": lhs, "rhs": rhs},
            details={
                "lhs": lhs,
                "rhs": rhs,
                "interpolates": bool(self.interpolates[k]),
                "interpolation_gap": float(self.interpolation_gap[k]),
            },
        )


def _depth2_audits(
    stack: ThresholdNetwork, d: int, starts: np.ndarray, output_biases: np.ndarray
) -> _Depth2Audits:
    """The depth2 audit of networks side by side, through one forward pass.

    ``stack``'s one hidden layer holds the networks' units one network after
    another, network k's from unit ``starts[k]`` on, and its output weights
    are theirs; ``output_biases[k]`` is network k's output bias.  Each
    network's output is the sum of its segment of weighted activations.
    """
    if len(stack.layers) != 1:
        raise ArchitectureMismatch("audit needs exactly one hidden layer")
    layer = stack.layers[0]
    if layer.activation != THRESHOLD:
        raise ArchitectureMismatch("audit needs a threshold hidden layer")
    if not stack.monotone_flag:
        raise ArchitectureMismatch("audit needs nonnegative weights throughout")
    if stack.input_dimension != d:
        raise DimensionMismatch(
            f"network has input dimension {stack.input_dimension}, expected {d}"
        )
    ds = depth2_counterexample(d)
    A = layer.forward(ds.points).astype(float)
    A *= np.asarray(stack.output_weights, dtype=float)
    # reduceat needs a unit to start each segment: a network of no units sums to 0
    sums = np.add.reduceat(A, starts, axis=1) if A.size else np.zeros((d + 1, len(starts)))
    raw = sums.T + output_biases[:, None]
    shifted = raw - output_biases[:, None]
    lhs = shifted[:, :d].sum(axis=1)
    rhs = shifted[:, d]
    slack = _REL_TOL * (1.0 + np.abs(lhs) + np.abs(rhs))
    gap = np.abs(raw - ds.labels).max(axis=1)
    return _Depth2Audits(shifted, lhs, rhs, lhs >= rhs - slack, gap)


def chain_width_audit(net: ThresholdNetwork, ds: MonotoneDataset) -> AuditReport:
    """Verify ascending activity sets along a chain and the width obstruction.

    Preconditions: ``ds`` is totally ordered with strictly increasing
    labels, and ``net`` is a monotone threshold network.  Along the chain
    the first-layer activity sets must be ascending.  When the first layer
    has at most n-2 units for an n-point chain, some consecutive pair must
    share an activation pattern; the audit locates it and confirms the
    outputs agree there (so the network cannot interpolate the chain).

    Width exactly n-1 is a genuine boundary: the n activity sets can form a
    complete strictly ascending flag (sizes 0 through n-1) with no repeat,
    and such networks can interpolate.  The audit then passes with
    ``details["width_obstruction"] == "vacuous-boundary"``.

    The chain runs as a stack of one through the analysis of
    :func:`run_chain_width_campaign`; the outputs at the repeat come from
    the whole network.
    """
    if not net.layers:
        raise ArchitectureMismatch("audit needs at least one hidden layer")
    if net.layers[0].activation != THRESHOLD:
        raise ActivationMismatch("audit needs a threshold first layer")
    if not net.monotone_flag:
        raise PreconditionViolated("audit applies to monotone networks")
    if not is_totally_ordered(ds):
        raise PreconditionViolated("dataset must be a coordinatewise chain")
    if ds.n > 1 and not np.all(np.diff(ds.labels) > 0):
        raise PreconditionViolated("chain labels must be strictly increasing")

    # only the first layer: a threshold layer's bool batch is its activity sets
    active = net.layers[0].forward(net._check_batch(ds.points))
    loss, repeat = _chain_width_analysis(active[None], np.array([ds.n]))
    i = int(repeat[0])
    outputs = net.evaluate_batch(ds.points[i : i + 2]) if i >= 0 else None
    return _chain_width_report(active, int(loss[0]), i, outputs, ds.labels)


def _chain_width_analysis(active: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per chain of a stack, its first activity loss and its first repeat, or -1.

    ``active[k]`` holds chain k's activity sets, row i for point i; rows
    from ``lengths[k]`` on are padding, and so is a pair (i, i+1) that
    reaches them.  A loss at i is a unit active at point i and not at i+1;
    a repeat at i is an equal set at both.
    """
    own = np.arange(active.shape[1] - 1) < lengths[:, None] - 1
    before, after = active[:, :-1], active[:, 1:]
    lost = (before & ~after).any(axis=2) & own
    same = (before == after).all(axis=2) & own
    return first_set(lost), first_set(same)


def _chain_width_report(
    active: np.ndarray, loss: int, repeat: int, outputs: np.ndarray | None, labels: np.ndarray
) -> AuditReport:
    """The chain-width audit of one chain from its analysis.

    ``active`` is its (n, width) activity matrix, ``loss`` and ``repeat``
    are its first loss and first repeat (-1 for none), and ``outputs`` the
    network's outputs at points ``repeat`` and ``repeat + 1``.
    """
    n, k = active.shape
    details = {
        "first_layer_width": k,
        "chain_length": n,
        "ascending": loss < 0,
        "strictly_ascending": loss < 0 and repeat < 0,
    }
    if loss >= 0:
        return AuditReport(
            "chain-width",
            passed=False,
            witness={
                "index": loss,
                "lost_units": np.flatnonzero(active[loss] & ~active[loss + 1]).tolist(),
            },
            details=details,
        )
    if k >= n:
        details["width_obstruction"] = "not-applicable"
        return AuditReport("chain-width", passed=True, details=details)
    if repeat < 0:
        # No repeat among n ascending sets in [k] forces strictly increasing
        # sizes, so sizes are exactly 0..n-1 and k == n-1: the one boundary
        # configuration where a narrow first layer evades the collision.
        assert k == n - 1 and active.sum(axis=1).tolist() == list(range(n))
        details["width_obstruction"] = "vacuous-boundary"
        return AuditReport("chain-width", passed=True, details=details)
    # A threshold layer's activations are 0/1, so equal activity sets are
    # equal activation patterns; the outputs must then agree.
    passed = bool(outputs[0] == outputs[1])
    details["pigeonhole_index"] = repeat
    details["width_obstruction"] = "witnessed" if passed else "inconsistent"
    return AuditReport(
        "chain-width",
        passed=passed,
        witness={
            "index": repeat,
            "activity_set": np.flatnonzero(active[repeat]).tolist(),
            "outputs": outputs.tolist(),
            "labels": labels[repeat : repeat + 2].tolist(),
        },
        details=details,
    )


# -- randomized campaigns ----------------------------------------------------


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """A campaign's shape stream and parameter stream, the two children of ``SeedSequence(seed)``.

    Each stack takes its samples' shapes (widths, depth, chain length and
    dimension) in one call to the shape stream and their doubles in one
    ``random`` call to the parameter stream, sample after sample.  A sample
    takes a fixed number of shape draws, and its number of doubles follows
    from its shape, so a stack boundary only splits a stream between samples:
    sample k is the same at any stack size and any sample count.
    """
    shapes, params = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(shapes), np.random.default_rng(params)


def _draw_fields(params: np.random.Generator, sizes: np.ndarray) -> list[np.ndarray]:
    """Draw samples' doubles in one run and cut it into fields.

    Sample k's doubles are ``sizes[k, 0]`` of field 0, then ``sizes[k, 1]``
    of field 1, and so on, one sample after another.  Field j comes back as
    its doubles over every sample, in sample order.
    """
    u = params.random(int(sizes.sum()))
    field = np.repeat(np.tile(np.arange(sizes.shape[1]), len(sizes)), sizes.ravel())
    return [u[field == j] for j in range(sizes.shape[1])]


def _one_layer_sizes(fan_ins, widths: np.ndarray) -> np.ndarray:
    """Per network, the sizes of its weights, bias draws, output weights and output bias draw."""
    return np.column_stack((widths * fan_ins, widths, widths, np.ones_like(widths)))


def _symmetric(u, scale: float):
    """``uniform(-scale, scale)`` from its U[0, 1) draw ``u``, as numpy computes it."""
    return -scale + (scale + scale) * u


def _random_depth2_stack(
    shapes: np.random.Generator, params: np.random.Generator, d: int, count: int
) -> tuple[ThresholdNetwork, np.ndarray, np.ndarray]:
    """``count`` networks drawn as ``run_depth2_campaign`` draws them, side by side.

    Each network takes its width from ``shapes``, then from ``params`` its
    ``width * d`` weights row by row, its ``width`` bias draws, its ``width``
    output weights and its output bias draw.  Returns the arguments of
    :func:`_depth2_audits` after ``d``: the stack, each network's first unit
    and each network's output bias.
    """
    widths = shapes.integers(1, DEPTH2_MAX_WIDTH + 1, size=count)
    weights, biases, output_weights, output_biases = _draw_fields(params, _one_layer_sizes(d, widths))
    layer = ThresholdLayer(weights.reshape(-1, d), _symmetric(biases, float(d * d)))
    starts = np.cumsum(widths) - widths
    return ThresholdNetwork((layer,), output_weights), starts, _symmetric(output_biases, 1.0)


def _depth2_sample_bytes(d: int) -> int:
    """A network's planned bytes: its draws, their field labels, its parameters and its activations,
    each about this many."""
    return 4 * 8 * DEPTH2_MAX_WIDTH * (d + 2)


def run_depth2_campaign(d: int, samples: int, seed: int) -> AuditReport:
    """Audit ``samples`` random monotone one-hidden-layer networks.

    Passes when the summed-activation inequality holds for every network;
    ``details`` additionally counts how many networks interpolated the
    spread dataset (none is expected for continuously random weights).
    The networks are audited in stacks of at most ``core.WORKING_SET_BYTES``
    of planned arrays, one forward pass per stack.
    """
    require_positive(samples, "samples")
    depth2_counterexample(d)  # refuses a d too small or too large before the first network
    shapes, params = _streams(seed)
    interpolated = 0
    for s in row_blocks(samples, _depth2_sample_bytes(d), core.WORKING_SET_BYTES):
        net, starts, output_biases = _random_depth2_stack(shapes, params, d, s.stop - s.start)
        audits = _depth2_audits(net, d, starts, output_biases)
        failed = np.flatnonzero(~audits.passed)
        if len(failed):
            k = int(failed[0])
            return _sample_failure("depth2", s.start + k, audits.report(k).witness, samples, seed)
        interpolated += int(np.count_nonzero(audits.interpolates))
    return AuditReport(
        "depth2",
        passed=True,
        samples=samples,
        seed=seed,
        details={"dimension": d, "interpolating_networks": interpolated},
    )


class _ReluStack(NamedTuple):
    """Random 1-dimensional monotone ReLU networks and their probe points side by side.

    Network k's layer i has ``units[k, i]`` units (0 for a layer it lacks),
    weights ``weights[k, i]`` and biases ``biases[k, i]``, zero-padded to
    ``CONVEXITY_MAX_WIDTH`` units; the first layer has fan-in 1 and reads
    column 0 only.  A padding unit has weight 0, bias 0 and output weight 0,
    and a network shallower than ``CONVEXITY_MAX_DEPTH`` gets identity layers
    of bias 0.  ``inputs[k]`` holds its probe points: ``triples`` rows U,
    ``triples`` rows V, their midpoints, then the coarse grid of the
    square-root gap bound.
    """

    inputs: np.ndarray  # (networks, 3 * triples + coarse points, 1)
    weights: np.ndarray  # (networks, CONVEXITY_MAX_DEPTH, CONVEXITY_MAX_WIDTH, CONVEXITY_MAX_WIDTH)
    biases: np.ndarray  # (networks, CONVEXITY_MAX_DEPTH, CONVEXITY_MAX_WIDTH)
    output_weights: np.ndarray  # (networks, CONVEXITY_MAX_WIDTH)
    output_biases: np.ndarray  # (networks,)
    units: np.ndarray  # (networks, CONVEXITY_MAX_DEPTH)

    def values(self) -> np.ndarray:
        """Every network's value on each of its input rows, (networks, rows), in one pass."""
        # fan-in 1: one product per unit, the bits of np.dot on the network alone
        A = self.inputs * self.weights[:, None, 0, :, 0]
        A += self.biases[:, None, 0]
        np.maximum(A, 0.0, out=A)
        for i in range(1, CONVEXITY_MAX_DEPTH):
            A = np.matmul(A, self.weights[:, i].transpose(0, 2, 1))
            A += self.biases[:, None, i]
            np.maximum(A, 0.0, out=A)
        return np.matmul(A, self.output_weights[:, :, None])[:, :, 0] + self.output_biases[:, None]

    def network(self, k: int) -> ThresholdNetwork:
        """Network k on its own, from its rows of the stack, which hold the bits of its draw."""
        widths = self.units[k][self.units[k] > 0].tolist()
        fan_ins = (1, *widths)
        layers = tuple(
            ThresholdLayer(self.weights[k, i, :w, :f], self.biases[k, i, :w], RELU)
            for i, (w, f) in enumerate(zip(widths, fan_ins))
        )
        return ThresholdNetwork(layers, self.output_weights[k, : fan_ins[-1]], float(self.output_biases[k]))


def _relu_sample_bytes(rows: int) -> int:
    """A network's planned bytes in a stack of ``rows`` input rows each.

    Its parameters; its inputs and values; the input and the output of a
    matmul, both live during it; and the output stage's product.
    """
    width = CONVEXITY_MAX_WIDTH
    return 8 * (CONVEXITY_MAX_DEPTH * width * (width + 1) + width + 1 + rows * (2 * width + 3))


def _random_relu_stack(
    shapes: np.random.Generator, params: np.random.Generator, count: int, triples: int, grid: np.ndarray
) -> _ReluStack:
    """``count`` networks drawn as ``run_convexity_campaign`` draws them, and their probe points.

    Each sample takes from ``shapes`` its depth and a width for each of
    ``CONVEXITY_MAX_DEPTH`` layers, of which it keeps the first depth; then
    from ``params`` its network's parameters (layer by layer weights and bias
    draws, then output weights and an output bias draw) and its probe points
    U and V, ``triples`` each.  ``grid`` follows them.
    """
    depth_max, width = CONVEXITY_MAX_DEPTH, CONVEXITY_MAX_WIDTH
    drawn = shapes.integers(1, (depth_max + 1,) + (width + 1,) * depth_max, size=(count, depth_max + 1))
    depths = drawn[:, 0]
    units = np.where(np.arange(depth_max) < depths[:, None], drawn[:, 1:], 0)
    fan_ins = np.hstack((np.ones((count, 1), np.intp), units[:, :-1]))
    last = units[np.arange(count), depths - 1]
    layer_sizes = np.stack((units * fan_ins, units), axis=2).reshape(count, -1)
    *layer_draws, output_weights_u, output_biases_u, probes = _draw_fields(
        params, np.column_stack((layer_sizes, last, np.ones_like(last), np.full_like(last, 2 * triples)))
    )
    unit = np.arange(width)
    weights = np.zeros((count, depth_max, width, width))
    biases = np.zeros((count, depth_max, width))
    for i in range(depth_max):
        rows = unit < units[:, i, None]
        weights[:, i][rows[:, :, None] & (unit < fan_ins[:, i, None])[:, None, :]] = layer_draws[2 * i]
        biases[:, i][rows] = _symmetric(layer_draws[2 * i + 1], 1.0)
    weights[depths[:, None] <= np.arange(depth_max)] = np.eye(width)  # identity layers, bias 0
    output_weights = np.zeros((count, width))
    output_weights[unit < last[:, None]] = output_weights_u
    inputs = np.empty((count, 3 * triples + len(grid), 1))
    inputs[:, : 2 * triples, 0] = probes.reshape(count, 2 * triples)
    inputs[:, 2 * triples : 3 * triples] = (inputs[:, :triples] + inputs[:, triples : 2 * triples]) / 2.0
    inputs[:, 3 * triples :, 0] = grid
    return _ReluStack(inputs, weights, biases, output_weights, _symmetric(output_biases_u, 1.0), units)


def run_convexity_campaign(samples: int, seed: int) -> AuditReport:
    """Probe midpoint convexity on random 1-dimensional monotone ReLU networks.

    Each network is also checked for the square-root approximation gap of
    at least ``SQRT_GAP_BOUND`` (1/8), and the report gives the least gap.

    The networks run in stacks of at most ``core.WORKING_SET_BYTES`` of
    planned arrays, one batched forward pass per stack (:class:`_ReluStack`)
    over each network's probe points and coarse grid.  Only the networks that
    need a result of their own are built and run alone, in sample order:

    * The probe's test on the stacked values, with a margin of
      ``5e-10 * (1 + |N(u)| + |N(v)|)``, flags every network whose probe
      can fail; the test of ``relu_convexity_probe`` on the flagged network
      alone, at its own U and V, decides, so a witness holds its bits.
    * The square-root gap is branch and bound.  Every
      ``SQRT_BOUND_STRIDE``-th point of the grid of :func:`sqrt_gap_witness`
      (101 exact grid points) gives ``bound``, a lower bound on a network's
      grid gap.  The full search runs only when
      ``bound <= min_gap + _REL_TOL * (1 + min_gap)``; otherwise the
      network's gap exceeds the least gap so far, which is at least 1/8, so
      it can neither set the minimum nor fail.  The minimum and every
      failure therefore come from the same ``sqrt_gap_witness`` calls on
      the same networks as a search of every network.

    The margins cover rounding: BLAS sums a row in an order that depends on
    the shape of the batch, so a network's value at a point may differ
    between the stack, its own probe batch and its full grid batch.  The
    first layer has fan-in 1, one product per sum, so its values agree.  A
    later sum has at most 16 terms with weights in [0, 1) and inputs below
    2, 33 and 529, the largest activations of layers 1 to 3 (biases lie in
    (-1, 1)); two orders of such a sum differ by at most 2 * 15 * 2**-53
    times the sum of its terms, plus the differences its inputs carry.
    Through three hidden layers and the output stage, with an ulp for each
    bias add, that is below 1e-10.  The padding adds no rounding: a padding
    unit's activation is an exact 0, each of its terms in a later sum is
    an exact 0, and an identity layer gives each activation, which is
    >= 0, times 1 plus exact zeros.  So a stacked value lies within 1e-10 of
    the network's own: a tenth of the bound's margin at its least, 1e-9,
    and a fifth of the probe's, which covers the midpoint value and the
    endpoint mean with 3e-10 to spare.
    """
    require_positive(samples, "samples")
    shapes, params = _streams(seed)
    triples = CONVEXITY_TRIPLES
    xs, roots = _sqrt_grid(10000)  # the grid of sqrt_gap_witness at its default resolution
    coarse_xs, coarse_roots = xs[::SQRT_BOUND_STRIDE], roots[::SQRT_BOUND_STRIDE]
    min_gap = np.inf
    for s in row_blocks(samples, _relu_sample_bytes(3 * triples + len(coarse_xs)), core.WORKING_SET_BYTES):
        nets = _random_relu_stack(shapes, params, s.stop - s.start, triples, coarse_xs)
        values = nets.values()
        fu, fv, fm = (values[:, i * triples : (i + 1) * triples] for i in range(3))
        slack = (_REL_TOL - 5e-10) * (1.0 + np.abs(fu) + np.abs(fv))
        flagged = (fm > (fu + fv) / 2.0 + slack).any(axis=1)
        bounds = np.abs(values[:, 3 * triples :] - coarse_roots).max(axis=1)
        # the least gap only falls, so a network past both tests now stays past them
        for k in np.flatnonzero(flagged | (bounds <= min_gap + _REL_TOL * (1.0 + min_gap))).tolist():
            net = nets.network(k)
            if flagged[k]:
                U, V = nets.inputs[k, :triples], nets.inputs[k, triples : 2 * triples]
                witness = _midpoint_witness(net, U, V)
                if witness is not None:
                    return _sample_failure("convexity", s.start + k, witness, samples, seed)
            if bounds[k] > min_gap + _REL_TOL * (1.0 + min_gap):
                continue
            x, gap = sqrt_gap_witness(net)
            min_gap = min(min_gap, gap)
            if gap < SQRT_GAP_BOUND - _REL_TOL:
                return _sample_failure("convexity", s.start + k, {"x": x, "gap": gap}, samples, seed)
    details = {"min_sqrt_gap": float(min_gap)}
    return AuditReport("convexity", passed=True, samples=samples, seed=seed, details=details)


class _ChainStack(NamedTuple):
    """Random chains and their narrow networks side by side, zero-padded.

    Chain k has ``lengths[k]`` points in its first rows of ``points`` and its
    dimension's first columns; its network has ``widths[k]`` first-layer
    units.  A padding unit has weight 0 and a negative bias, so it never
    fires, and output weight 0.
    """

    points: np.ndarray  # (chains, CHAIN_MAX_POINTS, CHAIN_MAX_DIM)
    labels: np.ndarray  # (chains, CHAIN_MAX_POINTS)
    lengths: np.ndarray
    weights: np.ndarray  # (chains, CHAIN_MAX_WIDTH, CHAIN_MAX_DIM)
    biases: np.ndarray  # (chains, CHAIN_MAX_WIDTH)
    widths: np.ndarray
    output_weights: np.ndarray  # (chains, CHAIN_MAX_WIDTH)
    output_biases: np.ndarray  # (chains,)

    def activity(self) -> np.ndarray:
        """Every chain's first-layer activity sets, (chains, points, units), in one matmul."""
        Z = np.matmul(self.points, self.weights.transpose(0, 2, 1))
        Z += self.biases[:, None, :]
        return Z >= 0.0


# the bytes of a chain's points and labels, its network's parameters and its pre-activations,
# and as many again for its draws (at most 333 with its shape draws) and their field labels
_CHAIN_SAMPLE_BYTES = 2 * 8 * (
    CHAIN_MAX_POINTS * (CHAIN_MAX_DIM + 1 + CHAIN_MAX_WIDTH)
    + CHAIN_MAX_WIDTH * (CHAIN_MAX_DIM + 2)
    + 1
)


def _random_chain_stack(shapes: np.random.Generator, params: np.random.Generator, count: int) -> _ChainStack:
    """``count`` chains and networks drawn as ``run_chain_width_campaign`` draws them.

    Each sample takes ``CHAIN_MAX_POINTS + 2`` doubles from ``shapes``, each
    the integer ``lo + floor(u * span)`` of its range: its length n in
    3..CHAIN_MAX_POINTS, its dimension d in 1..CHAIN_MAX_DIM, its width in
    1..n-2, and for each of the CHAIN_MAX_POINTS - 1 mask rows a chain can
    have, a coordinate in 0..d-1.  From ``params`` it takes its chain, n x d
    steps, (n-1) x d mask draws and n label steps, then its network's
    parameters.  A step is 0.01 plus its draw, or 0 where a mask draw below
    0.5 masks it (never the first step; a row masked throughout leaves its
    drawn coordinate unmasked); the points and labels are the sums of their
    steps (the labels' steps are 0.05 plus their draws), so they increase
    and the chain is already a valid dataset in canonical order.
    """
    points_max, dim_max, width_max = CHAIN_MAX_POINTS, CHAIN_MAX_DIM, CHAIN_MAX_WIDTH
    u = shapes.random((count, points_max + 2))
    lengths = 3 + (u[:, 0] * (points_max - 2)).astype(np.intp)
    dims = 1 + (u[:, 1] * dim_max).astype(np.intp)
    widths = 1 + (u[:, 2] * (lengths - 2)).astype(np.intp)
    coords = (u[:, 3:] * dims[:, None]).astype(np.intp)  # mask row i's coordinate, row i masking step i + 1
    step_u, mask_u, label_u, w, b, out_w, out_b = _draw_fields(
        params, np.column_stack((lengths * dims, (lengths - 1) * dims, lengths, _one_layer_sizes(dims, widths)))
    )
    own = np.arange(points_max) < lengths[:, None]
    inside = own[:, :, None] & (np.arange(dim_max) < dims[:, None])[:, None, :]
    steps = np.zeros((count, points_max, dim_max))
    steps[inside] = 0.01 + step_u
    masked = np.zeros((count, points_max, dim_max), bool)
    masked[:, 1:][inside[:, 1:]] = mask_u < 0.5
    chain, row = np.nonzero((masked[:, 1:] | ~inside[:, 1:]).all(axis=2) & own[:, 1:])  # masked throughout
    masked[chain, row + 1, coords[chain, row]] = False
    steps[masked] = 0.0
    points = np.cumsum(steps, axis=1)
    points[~own] = 0.0
    label_steps = np.zeros((count, points_max))
    label_steps[own] = 0.05 + label_u
    labels = np.cumsum(label_steps, axis=1)
    labels[~own] = 0.0
    units = np.arange(width_max) < widths[:, None]
    weights = np.zeros((count, width_max, dim_max))
    weights[units[:, :, None] & (np.arange(dim_max) < dims[:, None])[:, None, :]] = w
    biases = np.zeros((count, width_max))
    biases[units] = b
    output_weights = np.zeros((count, width_max))
    output_weights[units] = out_w
    # a chain's largest coordinate: its padding is 0 and its points are positive
    scales = np.abs(points).max(axis=(1, 2)) * dims + 1.0
    # a padding unit's draw is 0, so its bias is -scale <= -1
    biases = _symmetric(biases, scales[:, None])
    return _ChainStack(
        points, labels, lengths, weights, biases, widths, output_weights, _symmetric(out_b, 1.0)
    )


def run_chain_width_campaign(samples: int, seed: int) -> AuditReport:
    """Random chains versus random narrow monotone networks.

    Networks are drawn with first-layer width at most n-2 for an n-point
    chain (the regime where a repeated activation pattern is forced), so
    the audit must locate the pigeonhole witness each time; a passing
    campaign has witnessed it ``samples`` times.  The chains are audited in
    stacks of at most ``core.WORKING_SET_BYTES`` of planned arrays: one
    batched matmul gives every activity set of a stack, and array reductions
    over it the first loss, the first repeat and the outputs there, as
    :func:`chain_width_audit` finds them for one chain.
    """
    require_positive(samples, "samples")
    shapes, params = _streams(seed)
    for s in row_blocks(samples, _CHAIN_SAMPLE_BYTES, core.WORKING_SET_BYTES):
        chains = _random_chain_stack(shapes, params, s.stop - s.start)
        active = chains.activity()
        loss, repeat = _chain_width_analysis(active, chains.lengths)
        # the activity sets at each repeat and the one after it, through the output stage
        rows = np.maximum(repeat, 0)[:, None, None] + np.arange(2)[:, None]
        pairs = np.take_along_axis(active, rows, axis=1)
        outputs = (pairs * chains.output_weights[:, None, :]).sum(axis=2)
        outputs += chains.output_biases[:, None]
        # every width is at most n-2, so each chain must show a repeat with equal outputs
        failed = np.flatnonzero((loss >= 0) | (repeat < 0) | (outputs[:, 0] != outputs[:, 1]))
        if len(failed):
            k = int(failed[0])
            n, width = chains.lengths[k], chains.widths[k]
            report = _chain_width_report(
                active[k, :n, :width], int(loss[k]), int(repeat[k]), outputs[k], chains.labels[k, :n]
            )
            return _sample_failure("chain-width", s.start + k, report.witness or {}, samples, seed)
    return AuditReport(
        "chain-width", passed=True, samples=samples, seed=seed, details={"witnessed": samples}
    )
