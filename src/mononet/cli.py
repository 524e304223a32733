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

``--config FILE`` (before the subcommand) loads a JSON object keyed by long
flag names.  The keys that name flags of the invoked subcommand become flags
right after it, so each is checked like the same flag on the command line and
may supply a required one; explicit flags come later and win.  Positional
arguments stay on the command line.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings

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
    with warnings.catch_warnings():  # the caller's filters apply; a shown warning is one line, as a config key's
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config, argv = _extract_config(argv)
            parser = _parser()
            if config:
                argv = _config_argv(parser, config, argv)
            args = parser.parse_args(argv)
            return args.handler(args)
        except Error as exc:  # the input positions that a violation or a duplicate names become keys
            kind = "monotone-violation" if isinstance(exc, MonotoneViolation) else type(exc).__name__
            _diagnostic(kind, str(exc), **{k: getattr(exc, k) for k in ("first", "second") if hasattr(exc, k)})
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
    doc = io.read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    return {k.replace("-", "_"): v for k, v in doc.items()}, rest


def _diagnostic(kind: str, message: str, **extra) -> None:
    doc = {"error": kind, "message": message, **extra}
    print(json.dumps(doc), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as :class:`InvalidArgument` instead of exiting.

    A negative number in exponent notation, such as ``-1e-3``, is a value,
    not a flag; argparse on Python 3.10-3.12 reads only ``-1`` and ``-.5``
    forms as numbers.  Subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise InvalidArgument(message)

    def parse_known_args(self, args=None, namespace=None):
        # some argparse versions drop the value of "--flag=--" and store an empty list
        for a in args or ():
            flag, _, value = a.partition("=")
            if flag.startswith("-") and value == "--":
                self.error(f"argument {flag}: expected one argument, got '--'")
        return super().parse_known_args(args, namespace)


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves a parser as it was, so every call shares this one.
    ``commands`` maps each subcommand's name to its parser.
    """
    parser = _Parser(
        prog="mononet",
        description="Monotone threshold networks: synthesis, evaluation, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

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

    p = sub.add_parser("eval", help="evaluate a network on points from CSV")
    p.add_argument("network", help="network JSON file")
    p.add_argument("points", help="CSV of evaluation points")
    p.set_defaults(handler=_cmd_eval)

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

    p = sub.add_parser("approx", help="build a grid approximator for a monotone target")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--fn", help="builtin target: linear, mean, min, max, sqrt, constant:c")
    target.add_argument("--table", help="CSV of (point, value) samples defining the target")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=float, required=True, help="declared Lipschitz bound")
    p.add_argument("--eps", type=float, required=True, help="target uniform accuracy")
    p.add_argument(
        "--probes", type=nonnegative_int, default=0, help="report sup error over this many random probes"
    )
    p.add_argument("--budget", type=int, default=approx.DEFAULT_GRID_BUDGET)
    p.add_argument("--seed", type=nonnegative_int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", help="where to write the network JSON")
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("matchprob", help="perfect-matching probability of a random bipartite graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help="scalar probability or CSV file with an n x n matrix")
    p.add_argument("--mode", choices=["exact", "estimate"], default="exact")
    p.add_argument("--eps", type=float, default=0.05, help="estimate mode: accuracy target")
    p.add_argument("--fail-prob", type=float, default=1e-6, help="estimate mode: failure probability")
    p.add_argument("--seed", type=nonnegative_int, default=DEFAULT_SEED)
    p.set_defaults(handler=_cmd_matchprob)

    return parser


def _config_argv(parser: argparse.ArgumentParser, config: dict, argv: list[str]) -> list[str]:
    """``argv`` with the config's values as flags right after the subcommand.

    A scalar becomes ``--flag=value``, so a value that starts with ``-`` stays
    a value.  A list is accepted only for a fixed-``nargs`` flag at its length,
    and its numbers follow the flag as separate tokens.
    """
    flags = {
        name: {a.dest: a for a in sp._actions if a.option_strings and a.dest != "help"}
        for name, sp in parser.commands.items()
    }
    for key in config:
        if not any(key in f for f in flags.values()):
            print(f"warning: config key {key!r} does not match any flag", file=sys.stderr)
    command = next((a for a in argv if not a.startswith("-")), None)
    if command not in flags:
        return argv  # the parser reports the missing or unknown subcommand
    tokens = []
    for dest, action in flags[command].items():
        if dest not in config:
            continue
        value, flag = config[dest], action.option_strings[-1]
        if action.nargs is None:
            values = [value]
        elif isinstance(value, list) and len(value) == action.nargs:
            values = value
        else:
            raise InvalidArgument(f"config argument {flag}: expected a list of {action.nargs}, got {value!r}")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (str, int, float)):
                raise InvalidArgument(f"config argument {flag}: expected a string or a number, got {v!r}")
        if action.nargs is None:
            tokens.append(f"{flag}={value}")
        else:
            tokens += [flag, *map(str, values)]
    i = argv.index(command) + 1
    return argv[:i] + tokens + argv[i:]


def _cmd_synth(args) -> int:
    ds = core.validate_dataset(*io.read_dataset_csv(args.dataset))
    use_chain = args.ordered == "auto" and core.is_totally_ordered(ds)
    if use_chain:
        net, trace = construct.build_chain_interpolator(ds)
    else:
        net, trace = construct.build_interpolator(ds)
    io.save_network(net, args.output)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            trace.write_json(fh)
    print(f"builder: {'chain' if use_chain else 'general'}")
    print(f"hidden widths: {list(net.hidden_widths)}")
    print(f"hidden units: {net.hidden_unit_count}")
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    net = io.load_network(args.network)
    points = io.read_points_csv(args.points)
    values = net.evaluate_batch(points)
    if len(values):  # the reader gives at least one point; print no blank line for none
        print("\n".join(map(repr, values.tolist())))
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
    if args.fn is not None:
        f = approx.resolve_function(args.fn)
    else:
        f = approx.tabulated_function(*io.read_dataset_csv(args.table))
    grid = approx.plan_grid(args.d, args.L, args.eps, args.budget)
    net = approx.build_approximator(f, args.d, args.L, args.eps, args.budget)
    approx.require_probe_work(args.probes, net)
    print(f"d: {args.d}  L: {args.L}  eps: {args.eps}  seed: {args.seed}", file=sys.stderr)
    print(f"grid: {grid.points_per_axis} points per axis, {grid.point_count} total")
    print(f"hidden units: {net.hidden_unit_count}")
    if args.probes > 0:
        rng = np.random.default_rng(args.seed)  # drawn block by block, one stream: the probes of one call
        errors = []
        for s in core.row_blocks(args.probes, 8 * (args.d + 3)):  # a probe, 2 values, error
            probes = rng.random((s.stop - s.start, args.d))
            errors.append(np.abs(net.evaluate_batch(probes) - f(probes)).max())
        print(f"sup error over {args.probes} probes: {float(np.max(errors)):.6g}")
    if args.output:
        io.save_network(net, args.output)
        print(f"wrote {args.output}")
    return EXIT_OK


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
