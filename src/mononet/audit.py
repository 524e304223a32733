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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    RELU,
    THRESHOLD,
    MonotoneDataset,
    ThresholdLayer,
    ThresholdNetwork,
    is_totally_ordered,
    validate_dataset,
)
from .errors import (
    ActivationMismatch,
    ArchitectureMismatch,
    DimensionMismatch,
    DimensionTooSmall,
    InvalidArgument,
    PreconditionViolated,
)

_REL_TOL = 1e-9

# Sizes of the randomized campaigns' networks and chains.
DEPTH2_MAX_WIDTH = 32  # hidden width of a depth2 network, drawn from 1..this
CONVEXITY_MAX_WIDTH = 16  # width of each ReLU layer, drawn from 1..this
CONVEXITY_TRIPLES = 64  # midpoint-convexity triples per network
CHAIN_MAX_POINTS = 16  # chain length, drawn from 3..this
CHAIN_MAX_DIM = 6  # chain dimension, drawn from 1..this


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
        return {
            "check": self.check,
            "passed": self.passed,
            "witness": self.witness,
            "samples": self.samples,
            "seed": self.seed,
            "details": self.details,
        }


@dataclass(frozen=True)
class ActivitySets:
    """Per input point, the indices of first-layer units with nonzero output."""

    sets: tuple[frozenset[int], ...]

    @classmethod
    def from_network(cls, net: ThresholdNetwork, points) -> "ActivitySets":
        if not net.layers:
            raise ArchitectureMismatch("activity sets need at least one hidden layer")
        acts = net.hidden_activations(points)[0]
        return cls(tuple(frozenset(np.flatnonzero(row != 0).tolist()) for row in acts))

    def is_ascending(self) -> bool:
        return all(a <= b for a, b in zip(self.sets, self.sets[1:]))

    def is_strictly_ascending(self) -> bool:
        return all(a < b for a, b in zip(self.sets, self.sets[1:]))

    def first_repeat(self) -> int | None:
        """Index i of the first consecutive pair with equal sets, if any."""
        for i, (a, b) in enumerate(zip(self.sets, self.sets[1:])):
            if a == b:
                return i
        return None


def certify_monotone_structure(net: ThresholdNetwork) -> AuditReport:
    """Pass iff every hidden weight and every output weight is >= 0.

    This is the structural sufficient condition for monotonicity; the
    witness pinpoints the first negative entry.
    """
    for li, layer in enumerate(net.layers):
        bad = np.argwhere(layer.weights < 0)
        if len(bad):
            unit, idx = map(int, bad[0])
            return AuditReport(
                "structure",
                passed=False,
                witness={
                    "location": "hidden",
                    "layer": li,
                    "unit": unit,
                    "input_index": idx,
                    "value": float(layer.weights[unit, idx]),
                },
            )
    for idx, w in enumerate(net.output_weights):
        if w < 0:
            return AuditReport(
                "structure",
                passed=False,
                witness={"location": "output", "input_index": idx, "value": float(w)},
            )
    return AuditReport("structure", passed=True)


def probe_monotonicity(
    net: ThresholdNetwork,
    box: tuple[float, float] = (0.0, 1.0),
    samples: int = 256,
    seed: int = 0,
) -> AuditReport:
    """Sample comparable pairs u <= v in the box and check N(u) <= N(v)."""
    require_positive(samples, "samples")
    lo, hi = float(box[0]), float(box[1])
    if not lo <= hi:
        raise InvalidArgument(f"box needs lo <= hi, got ({lo}, {hi})")
    d = net.input_dimension
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
    U = rng.random((triples, d))
    V = rng.random((triples, d))
    fu = net.evaluate_batch(U)
    fv = net.evaluate_batch(V)
    fm = net.evaluate_batch((U + V) / 2.0)
    slack = _REL_TOL * (1.0 + np.abs(fu) + np.abs(fv))
    bad = np.flatnonzero(fm > (fu + fv) / 2.0 + slack)
    if len(bad):
        k = int(bad[0])
        return AuditReport(
            "convexity",
            passed=False,
            witness={
                "u": U[k].tolist(),
                "v": V[k].tolist(),
                "midpoint_value": float(fm[k]),
                "endpoint_mean": float((fu[k] + fv[k]) / 2.0),
            },
            samples=triples,
            seed=seed,
        )
    return AuditReport("convexity", passed=True, samples=triples, seed=seed)


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
    steps = int(round(1.0 / resolution))
    xs = np.linspace(0.0, 1.0, steps + 1)
    gaps = np.abs(net.evaluate_batch(xs[:, None]) - np.sqrt(xs))
    k = int(np.argmax(gaps))
    return float(xs[k]), float(gaps[k])


@functools.lru_cache(maxsize=16)
def depth2_counterexample(d: int) -> MonotoneDataset:
    """The spread dataset: d points ``d * e_i`` labeled 0, all-ones labeled 1.

    The points are pairwise incomparable, so the data is monotone; it is the
    input of :func:`depth2_inequality_audit`.  Cached per ``d``: the dataset
    is frozen and its arrays are read-only, so a campaign builds it once.
    """
    if d < 2:
        raise DimensionTooSmall(f"the spread dataset needs dimension >= 2, got {d}")
    pairs = [(tuple(float(d) * np.eye(d)[i]), 0.0) for i in range(d)]
    pairs.append(((1.0,) * d, 1.0))
    return validate_dataset(pairs)


def depth2_inequality_audit(net: ThresholdNetwork, d: int) -> AuditReport:
    """Check ``sum_i N~(x_i) >= N~(x_{d+1})`` on the spread dataset.

    ``N~`` is the network minus its output bias.  The inequality holds for
    every one-hidden-layer threshold network with nonnegative weights (see
    the module docstring), so pass/fail reflects only that inequality;
    whether the network happens to interpolate the dataset is reported in
    ``details`` as an observation.
    """
    if len(net.layers) != 1:
        raise ArchitectureMismatch("audit needs exactly one hidden layer")
    if net.layers[0].activation != THRESHOLD:
        raise ArchitectureMismatch("audit needs a threshold hidden layer")
    if not net.monotone_flag:
        raise ArchitectureMismatch("audit needs nonnegative weights throughout")
    if net.input_dimension != d:
        raise DimensionMismatch(
            f"network has input dimension {net.input_dimension}, expected {d}"
        )
    ds = depth2_counterexample(d)
    raw = net.evaluate_batch(ds.points)
    shifted = raw - float(net.output_bias)
    lhs = float(shifted[:d].sum())
    rhs = float(shifted[d])
    slack = _REL_TOL * (1.0 + abs(lhs) + abs(rhs))
    passed = lhs >= rhs - slack
    interp_gap = float(np.max(np.abs(raw - ds.labels)))
    report = AuditReport(
        "depth2",
        passed=passed,
        witness=None
        if passed
        else {
            "shifted_outputs": shifted.tolist(),
            "lhs": lhs,
            "rhs": rhs,
        },
        details={
            "lhs": lhs,
            "rhs": rhs,
            "interpolates": bool(interp_gap <= 1e-9),
            "interpolation_gap": interp_gap,
        },
    )
    return report


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

    activity = ActivitySets.from_network(net, ds.points)
    k = net.layers[0].width
    n = ds.n
    details = {
        "first_layer_width": k,
        "chain_length": n,
        "ascending": activity.is_ascending(),
        "strictly_ascending": activity.is_strictly_ascending(),
    }
    if not activity.is_ascending():
        bad = next(
            i for i, (a, b) in enumerate(zip(activity.sets, activity.sets[1:])) if not a <= b
        )
        return AuditReport(
            "chain-width",
            passed=False,
            witness={
                "index": bad,
                "lost_units": sorted(activity.sets[bad] - activity.sets[bad + 1]),
            },
            details=details,
        )
    if k >= n:
        details["width_obstruction"] = "not-applicable"
        return AuditReport("chain-width", passed=True, details=details)
    i = activity.first_repeat()
    if i is None:
        # No repeat among n ascending sets in [k] forces strictly increasing
        # sizes, so sizes are exactly 0..n-1 and k == n-1: the one boundary
        # configuration where a narrow first layer evades the collision.
        sizes = [len(s) for s in activity.sets]
        assert k == n - 1 and sizes == list(range(n))
        details["width_obstruction"] = "vacuous-boundary"
        return AuditReport("chain-width", passed=True, details=details)
    # A threshold layer's activations are 0/1, so equal activity sets are
    # equal activation patterns; the outputs must then agree.
    outputs = net.evaluate_batch(ds.points[i : i + 2])
    passed = bool(outputs[0] == outputs[1])
    details["pigeonhole_index"] = i
    details["width_obstruction"] = "witnessed" if passed else "inconsistent"
    return AuditReport(
        "chain-width",
        passed=passed,
        witness={
            "index": i,
            "activity_set": sorted(activity.sets[i]),
            "outputs": outputs.tolist(),
            "labels": ds.labels[i : i + 2].tolist(),
        },
        details=details,
    )


# -- randomized campaigns ----------------------------------------------------


def random_monotone_network(
    rng: np.random.Generator,
    input_dim: int,
    widths: tuple[int, ...],
    activation: str = THRESHOLD,
    bias_scale: float = 1.0,
    output_bias_scale: float = 1.0,
) -> ThresholdNetwork:
    """Random network with U[0,1] weights and symmetric uniform biases.

    The bias range should roughly cover the input scale times fan-in so that
    units land on both sides of their thresholds.
    """
    layers = []
    fan_in = input_dim
    for width in widths:
        w = rng.random((width, fan_in))
        b = rng.uniform(-bias_scale, bias_scale, size=width)
        layers.append(ThresholdLayer(w, b, activation))
        fan_in = width
    out_w = rng.random(fan_in)
    out_b = rng.uniform(-output_bias_scale, output_bias_scale)
    return ThresholdNetwork(tuple(layers), out_w, out_b)


def random_chain_dataset(rng: np.random.Generator, n: int, d: int) -> MonotoneDataset:
    """Random coordinatewise chain with strictly increasing labels.

    Consecutive points differ by a nonnegative increment that is zero in a
    random subset of coordinates (never all of them), exercising the
    separating-coordinate selection.
    """
    steps = 0.01 + rng.random((n, d))
    if n > 1:
        mask = rng.random((n - 1, d)) < 0.5
        for row in range(n - 1):
            if mask[row].all():
                mask[row, rng.integers(d)] = False
        steps[1:][mask] = 0.0
    X = np.cumsum(steps, axis=0)
    y = np.cumsum(0.05 + rng.random(n))
    return validate_dataset(list(zip(map(tuple, X), y)))


def run_depth2_campaign(d: int, samples: int, seed: int) -> AuditReport:
    """Audit ``samples`` random monotone one-hidden-layer networks.

    Passes when the summed-activation inequality holds for every network;
    ``details`` additionally counts how many networks interpolated the
    spread dataset (none is expected for continuously random weights).
    """
    require_positive(samples, "samples")
    if d < 2:
        raise DimensionTooSmall(f"the spread dataset needs dimension >= 2, got {d}")
    rng = np.random.default_rng(seed)
    interpolated = 0
    for k in range(samples):
        width = int(rng.integers(1, DEPTH2_MAX_WIDTH + 1))
        net = random_monotone_network(
            rng,
            d,
            (width,),
            activation=THRESHOLD,
            bias_scale=float(d * d),
            output_bias_scale=1.0,
        )
        report = depth2_inequality_audit(net, d)
        if not report.passed:
            return AuditReport(
                "depth2",
                passed=False,
                witness={"sample_index": k, **(report.witness or {})},
                samples=samples,
                seed=seed,
            )
        if report.details["interpolates"]:
            interpolated += 1
    return AuditReport(
        "depth2",
        passed=True,
        samples=samples,
        seed=seed,
        details={"dimension": d, "interpolating_networks": interpolated},
    )


def run_convexity_campaign(samples: int, seed: int) -> AuditReport:
    """Probe midpoint convexity on random 1-dimensional monotone ReLU networks.

    Each network is also checked for the square-root approximation gap of
    at least 1/8.
    """
    require_positive(samples, "samples")
    rng = np.random.default_rng(seed)
    min_gap = np.inf
    for k in range(samples):
        depth = int(rng.integers(1, 4))
        widths = tuple(int(rng.integers(1, CONVEXITY_MAX_WIDTH + 1)) for _ in range(depth))
        net = random_monotone_network(rng, 1, widths, activation=RELU, bias_scale=1.0)
        report = relu_convexity_probe(
            net, triples=CONVEXITY_TRIPLES, seed=int(rng.integers(2**32))
        )
        if not report.passed:
            return AuditReport(
                "convexity",
                passed=False,
                witness={"sample_index": k, **(report.witness or {})},
                samples=samples,
                seed=seed,
            )
        x, gap = sqrt_gap_witness(net)
        min_gap = min(min_gap, gap)
        if gap < 0.125 - 1e-9:
            return AuditReport(
                "convexity",
                passed=False,
                witness={"sample_index": k, "x": x, "gap": gap},
                samples=samples,
                seed=seed,
            )
    details = {"min_sqrt_gap": float(min_gap)}
    return AuditReport("convexity", passed=True, samples=samples, seed=seed, details=details)


def run_chain_width_campaign(samples: int, seed: int) -> AuditReport:
    """Random chains versus random narrow monotone networks.

    Networks are drawn with first-layer width at most n-2 for an n-point
    chain (the regime where a repeated activation pattern is forced), so
    the audit must locate the pigeonhole witness each time; a passing
    campaign has witnessed it ``samples`` times.
    """
    require_positive(samples, "samples")
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n = int(rng.integers(3, CHAIN_MAX_POINTS + 1))
        d = int(rng.integers(1, CHAIN_MAX_DIM + 1))
        ds = random_chain_dataset(rng, n, d)
        width = int(rng.integers(1, n - 1))
        scale = float(np.abs(ds.points).max() * d + 1.0)
        net = random_monotone_network(
            rng, d, (width,), activation=THRESHOLD, bias_scale=scale
        )
        report = chain_width_audit(net, ds)
        if not report.passed or report.details.get("width_obstruction") != "witnessed":
            return AuditReport(
                "chain-width",
                passed=False,
                witness={"sample_index": k, **(report.witness or {})},
                samples=samples,
                seed=seed,
            )
    return AuditReport(
        "chain-width", passed=True, samples=samples, seed=seed, details={"witnessed": samples}
    )
