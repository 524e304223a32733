"""Command-line front end.

Subcommands: ``synth`` (dataset -> interpolating network), ``eval``
(network + points -> outputs), ``audit`` (structural and randomized
checks), ``approx`` (grid approximator for a named target), ``matchprob``
(exact or estimated perfect-matching probability).

Exit codes: 0 success, 1 I/O problem, 2 invalid input, usage errors
included (with one JSON diagnostic line on stderr), 3 a randomized audit
falsified a fact that is a theorem for its network class (a bug, never
expected).  Seeds and derived configuration go to stderr so stdout stays
byte-stable for a given invocation.

``--config FILE`` (before the subcommand) loads a JSON object of defaults
whose keys are the long flag names; explicitly passed flags win.  Each value
is checked like the same flag on the command line, and it may also supply a
required flag.  Positional arguments stay on the command line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import approx, audit, construct, core, io, matching
from .errors import DimensionMismatch, Error, InvalidArgument, MonotoneViolation, SchemaError

DEFAULT_SEED = 1729
EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_FALSIFIED = 3


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config, argv = _extract_config(argv)
        args = _build_parser(config).parse_args(argv)
        return args.handler(args)
    except MonotoneViolation as exc:
        _diagnostic("monotone-violation", str(exc), first=exc.first, second=exc.second)
        return EXIT_INVALID
    except Error as exc:
        _diagnostic(type(exc).__name__, str(exc))
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def _extract_config(argv: list[str]) -> tuple[dict, list[str]]:
    """Pull ``--config FILE`` out of argv and load its JSON object."""
    for i, a in enumerate(argv):
        if a == "--config":
            if i + 1 >= len(argv):
                raise SchemaError("--config needs a file path")
            path = argv[i + 1]
            rest = argv[:i] + argv[i + 2 :]
            break
        if a.startswith("--config="):
            path = a.split("=", 1)[1]
            rest = argv[:i] + argv[i + 1 :]
            break
    else:
        return {}, argv
    try:
        doc = json.loads(open(path, encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    return {k.replace("-", "_"): v for k, v in doc.items()}, rest


def _diagnostic(kind: str, message: str, **extra) -> None:
    doc = {"error": kind, "message": message, **extra}
    print(json.dumps(doc), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as :class:`InvalidArgument` instead of exiting."""

    def error(self, message):
        raise InvalidArgument(message)


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mononet",
        description="Monotone threshold networks: synthesis, evaluation, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = []

    p = sub.add_parser("synth", help="build an interpolating monotone network from CSV data")
    p.add_argument("dataset", help="CSV with d coordinate columns plus a label column")
    p.add_argument("-o", "--output", required=True, help="where to write the network JSON")
    p.add_argument(
        "--ordered",
        choices=["auto", "force-general"],
        default="auto",
        help="auto: use the compact chain builder for totally ordered data",
    )
    p.add_argument("--trace", help="also write the construction trace JSON here")
    p.set_defaults(handler=_cmd_synth)
    subparsers.append(p)

    p = sub.add_parser("eval", help="evaluate a network on points from CSV")
    p.add_argument("network", help="network JSON file")
    p.add_argument("points", help="CSV of evaluation points")
    p.set_defaults(handler=_cmd_eval)
    subparsers.append(p)

    p = sub.add_parser("audit", help="run a structural certificate or randomized check")
    p.add_argument(
        "--check",
        required=True,
        choices=["structure", "monotone", "convexity", "depth2", "chain-width"],
    )
    p.add_argument("--net", help="network JSON (structure and monotone checks)")
    p.add_argument("--d", type=int, default=2, help="input dimension for the depth2 check")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=nonnegative_int, default=DEFAULT_SEED)
    p.add_argument("--box", type=float, nargs=2, default=(0.0, 1.0), metavar=("LO", "HI"))
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(handler=_cmd_audit)
    subparsers.append(p)

    p = sub.add_parser("approx", help="build a grid approximator for a monotone target")
    p.add_argument("--fn", help="builtin target: linear, mean, min, max, sqrt, constant:c")
    p.add_argument("--table", help="CSV of (point, value) samples defining the target")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=float, required=True, help="declared Lipschitz bound")
    p.add_argument("--eps", type=float, required=True, help="target uniform accuracy")
    p.add_argument("--probes", type=int, default=0, help="report sup error over this many random probes")
    p.add_argument("--budget", type=int, default=approx.DEFAULT_GRID_BUDGET)
    p.add_argument("--seed", type=nonnegative_int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", help="where to write the network JSON")
    p.set_defaults(handler=_cmd_approx)
    subparsers.append(p)

    p = sub.add_parser("matchprob", help="perfect-matching probability of a random bipartite graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help="scalar probability or CSV file with an n x n matrix")
    p.add_argument("--mode", choices=["exact", "estimate"], default="exact")
    p.add_argument("--eps", type=float, default=0.05, help="estimate mode: accuracy target")
    p.add_argument("--fail-prob", type=float, default=1e-6, help="estimate mode: failure probability")
    p.add_argument("--seed", type=nonnegative_int, default=DEFAULT_SEED)
    p.set_defaults(handler=_cmd_matchprob)
    subparsers.append(p)

    if config:
        used = set()
        for sp in subparsers:
            for action in sp._actions:
                if action.option_strings and action.dest in config:
                    action.default = _config_value(sp, action, config[action.dest])
                    action.required = False
                    used.add(action.dest)
        for key in config:
            if key not in used:
                print(f"warning: config key {key!r} does not match any flag", file=sys.stderr)

    return parser


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, value):
    """A config value converted and checked as if ``action`` had read it from argv.

    A list is accepted only for a fixed-``nargs`` flag at that length.
    """
    flag = action.option_strings[-1]
    if action.nargs is None:
        return _config_scalar(parser, action, value)
    if isinstance(value, list) and len(value) == action.nargs:
        return [_config_scalar(parser, action, v) for v in value]
    raise InvalidArgument(
        f"config argument {flag}: expected a list of {action.nargs}, got {value!r}"
    )


def _config_scalar(parser: argparse.ArgumentParser, action: argparse.Action, value):
    """Apply the flag's ``type`` and ``choices`` to a JSON string or number."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InvalidArgument(
            f"config argument {action.option_strings[-1]}: "
            f"expected a string or a number, got {value!r}"
        )
    try:
        converted = parser._get_value(action, str(value))
        parser._check_value(action, converted)
    except argparse.ArgumentError as exc:
        raise InvalidArgument(f"config {exc}") from exc
    return converted


def _cmd_synth(args) -> int:
    pairs = io.read_dataset_csv(args.dataset)
    ds = core.validate_dataset(pairs)
    use_chain = args.ordered == "auto" and core.is_totally_ordered(ds)
    if use_chain:
        net, trace = construct.build_chain_interpolator(ds)
    else:
        net, trace = construct.build_interpolator(ds)
    io.save_network(net, args.output)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(trace.to_dict()) + "\n")
    print(f"builder: {'chain' if use_chain else 'general'}")
    print(f"hidden widths: {list(net.hidden_widths)}")
    print(f"hidden units: {net.hidden_unit_count}")
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    net = io.load_network(args.network)
    points = io.read_points_csv(args.points)
    values = net.evaluate_batch(points)
    for v in values:
        print(repr(float(v)))
    return EXIT_OK


def _cmd_audit(args) -> int:
    check = args.check
    if check in ("structure", "monotone"):
        if not args.net:
            raise InvalidArgument(f"--net is required for --check {check}")
        net = io.load_network(args.net)
        if check == "structure":
            report = audit.certify_monotone_structure(net)
        else:
            report = audit.probe_monotonicity(
                net, box=tuple(args.box), samples=args.samples, seed=args.seed
            )
        _emit_report(report, args.format)
        return EXIT_OK
    if check == "depth2":
        report = audit.run_depth2_campaign(args.d, args.samples, args.seed)
    elif check == "convexity":
        report = audit.run_convexity_campaign(args.samples, args.seed)
    else:
        report = audit.run_chain_width_campaign(args.samples, args.seed)
    dimension = f"  d: {args.d}" if check == "depth2" else ""
    print(f"seed: {args.seed}  samples: {args.samples}{dimension}", file=sys.stderr)
    _emit_report(report, args.format)
    if not report.passed:
        return EXIT_FALSIFIED
    return EXIT_OK


def _emit_report(report: audit.AuditReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return
    print(f"check:   {report.check}")
    print(f"verdict: {'pass' if report.passed else 'FAIL'}")
    print(f"samples: {report.samples}")
    if report.seed is not None:
        print(f"seed:    {report.seed}")
    for key, value in report.details.items():
        print(f"{key}: {value}")
    if report.witness is not None:
        print(f"witness: {json.dumps(report.witness)}")


def _cmd_approx(args) -> int:
    if bool(args.fn) == bool(args.table):
        raise InvalidArgument("exactly one of --fn or --table is required")
    if args.fn:
        f = approx.resolve_function(args.fn)
    else:
        f = _tabulated_function(args.table)
    grid = approx.plan_grid(args.d, args.L, args.eps, args.budget)
    net = approx.build_approximator(f, args.d, args.L, args.eps, args.budget)
    print(f"d: {args.d}  L: {args.L}  eps: {args.eps}  seed: {args.seed}", file=sys.stderr)
    print(f"grid: {grid.points_per_axis} points per axis, {grid.point_count} total")
    print(f"hidden units: {net.hidden_unit_count}")
    if args.probes > 0:
        rng = np.random.default_rng(args.seed)
        probes = rng.random((args.probes, args.d))
        errors = np.abs(net.evaluate_batch(probes) - np.asarray([f(tuple(x)) for x in probes]))
        print(f"sup error over {args.probes} probes: {float(errors.max()):.6g}")
    if args.output:
        io.save_network(net, args.output)
        print(f"wrote {args.output}")
    return EXIT_OK


def _tabulated_function(path):
    """Monotone lower extension of tabulated samples.

    The value at x is the largest sample value among table points <= x,
    defaulting to the smallest sample value; this is monotone for any table.
    """
    pairs = io.read_dataset_csv(path)
    points = np.asarray([p for p, _ in pairs], dtype=float)
    values = np.asarray([v for _, v in pairs], dtype=float)
    floor_value = float(values.min())

    def f(x):
        x = np.asarray(x, dtype=float)
        below = np.all(points <= x, axis=1)
        if below.any():
            return float(values[below].max())
        return floor_value

    return f


def _cmd_matchprob(args) -> int:
    if args.mode == "exact":
        matching.require_exact_size(args.n)
    else:
        cfg = matching.default_parameters(args.n, args.eps, args.fail_prob, seed=args.seed)
        matching.require_estimate_size(args.n, cfg.samples)
    p = io.parse_float(str(args.p))
    if p is None:
        p_matrix = matching.EdgeProbabilityMatrix(io.read_points_csv(args.p))
    else:
        p_matrix = matching.EdgeProbabilityMatrix.uniform(args.n, p)
    if p_matrix.n != args.n:
        raise DimensionMismatch(f"matrix is {p_matrix.n} x {p_matrix.n}, --n is {args.n}")
    if args.mode == "exact":
        value = matching.exact_matching_probability(p_matrix)
        print(repr(value))
        return EXIT_OK
    radius, failure = matching.estimator_error_bound(cfg, args.n)
    print(
        f"config: bits={cfg.bits} samples={cfg.samples} delta={cfg.delta} seed={cfg.seed}",
        file=sys.stderr,
    )
    print(
        f"guarantee: error <= {radius:.6g} except with probability {failure:.3g}",
        file=sys.stderr,
    )
    value = matching.estimate_matching_probability(p_matrix, cfg)
    print(repr(value))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
