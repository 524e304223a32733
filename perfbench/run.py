"""Benchmark for mononet: one workload, a timed loop of operations, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload synth-eval --seed 1 --seconds 20 --trace 0

Every operation calls ``mononet.cli.main(argv)`` in-process on freshly
seeded inputs, with stdout and stderr captured, and checks the outputs
against the independent references in ``oracles.py``.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are end to end; with ``--trace 1`` the run
alternates untraced, span-traced and memory-traced operations and reports
per-layer self times, counts and the tracing overhead instead.  The result
and the spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread.  With OpenBLAS's default of one thread per vCPU, a build
# at n = 800 on a 2-vCPU machine used twice its wall time in CPU, and eight
# repeats spread 15-58% from fastest to slowest; with one thread, 10-20%.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11
TRACE_KINDS = ("plain", "spans", "memory")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics: name -> unit.  Span names are these names without the
# ".ms" suffix ("cli" for "cli.self_ms").
PER_LAYER = {
    "cli.self_ms": "ms",
    "io.read_dataset_csv.ms": "ms",
    "io.read_points_csv.ms": "ms",
    "io.save_network.ms": "ms",
    "io.load_network.ms": "ms",
    "io.network_json.bytes": "bytes",
    "io.trace_json.bytes": "bytes",
    "io.save_network.peak_mb": "MB",
    "core.validate_dataset.ms": "ms",
    "core.pairwise_leq.calls": "count",
    "core.is_totally_ordered.ms": "ms",
    "core.evaluate_batch.ms": "ms",
    "core.evaluate_batch.calls": "count",
    "core.hidden_activations.ms": "ms",
    "construct.build_interpolator.ms": "ms",
    "construct.build_interpolator.peak_mb": "MB",
    "audit.run_depth2_campaign.ms": "ms",
    "audit.run_convexity_campaign.ms": "ms",
    "audit.run_chain_width_campaign.ms": "ms",
    "matching.exact_matching_probability.ms": "ms",
    "matching.estimate_matching_probability.ms": "ms",
    "matching.truncate_probabilities.ms": "ms",
    "matching.BipartiteGraph.from_matrix.ms": "ms",
    "matching.has_perfect_matching.ms": "ms",
    "matching.has_perfect_matching.calls": "count",
    "matching.unique_graph_share": "calls/sample",
    "trace.op_ms": "ms",
    "trace.overhead_ms": "ms",
}


def span_targets():
    """Functions wrapped for spans; every one but ``core.pairwise_leq`` is a span."""
    from mononet import audit, cli, construct, core, io as mio, matching
    from tracing import Target

    return [
        Target(cli, "main", "cli"),
        Target(mio, "read_dataset_csv", "io.read_dataset_csv"),
        Target(mio, "read_points_csv", "io.read_points_csv"),
        Target(mio, "save_network", "io.save_network"),
        Target(mio, "load_network", "io.load_network"),
        Target(core, "validate_dataset", "core.validate_dataset"),
        Target(core, "pairwise_leq", "core.pairwise_leq", count_only=True),
        Target(core, "is_totally_ordered", "core.is_totally_ordered"),
        Target(core.ThresholdNetwork, "evaluate_batch", "core.evaluate_batch"),
        Target(core.ThresholdNetwork, "hidden_activations", "core.hidden_activations"),
        Target(construct, "build_interpolator", "construct.build_interpolator"),
        Target(audit, "run_depth2_campaign", "audit.run_depth2_campaign"),
        Target(audit, "run_convexity_campaign", "audit.run_convexity_campaign"),
        Target(audit, "run_chain_width_campaign", "audit.run_chain_width_campaign"),
        Target(matching, "exact_matching_probability", "matching.exact_matching_probability"),
        Target(
            matching,
            "estimate_matching_probability",
            "matching.estimate_matching_probability",
            weight=lambda p, cfg: cfg.samples,
        ),
        Target(matching, "truncate_probabilities", "matching.truncate_probabilities"),
        Target(matching.BipartiteGraph, "from_matrix", "matching.BipartiteGraph.from_matrix"),
        Target(matching, "has_perfect_matching", "matching.has_perfect_matching"),
    ]


def memory_targets():
    """Functions whose tracemalloc peak the memory-traced operations record."""
    from mononet import construct, io as mio
    from tracing import Target

    return [
        Target(mio, "save_network", "io.save_network"),
        Target(construct, "build_interpolator", "construct.build_interpolator"),
    ]


def measure_setup(repeats: int) -> float:
    """Median seconds for a fresh interpreter to start and import ``mononet.cli``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import mononet.cli"],
            env=env,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            check=True,
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def call_cli(cli, argv):
    """``cli.main(argv)`` with stdout and stderr captured.

    ``main`` is looked up on the module at each call, so a traced operation
    runs the tracer's wrapper.
    """
    from workloads import Result

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Result(code, out.getvalue(), err.getvalue())


def run_operation(cli, prepare, rng, workdir, kind, tracer, op):
    """One operation: returns (seconds, failed, check errors, output sizes)."""
    workdir.mkdir(parents=True)
    try:
        case = prepare(rng, workdir)
        gc.collect()
        try:
            if kind != "plain":
                tracer.op = op
                tracer.install(
                    memory_targets() if kind == "memory" else span_targets(),
                    memory=kind == "memory",
                )
            start = perf_counter()
            results = [call_cli(cli, argv) for argv in case.commands]
            elapsed = perf_counter() - start
        finally:
            tracer.uninstall()
        bad = [r for r in results if r.code != 0]
        if bad:
            print(f"operation {op} exited {bad[0].code}: {bad[0].stderr[-300:]}", file=sys.stderr)
            return elapsed, True, [], {}
        sizes = {m: p.stat().st_size for m, p in case.sized_outputs.items()}
        return elapsed, False, case.check(results), sizes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_metrics(latencies, setup_s):
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_ms.p50": 1e3 * statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer_metrics(tracer, records):
    """Per-operation means over the span-traced (or memory-traced) operations."""
    spans_ops = [r for r in records if r["kind"] == "spans" and not r["failed"]]
    memory_ops = [r for r in records if r["kind"] == "memory" and not r["failed"]]
    plain = [r["seconds"] for r in records if r["kind"] == "plain" and not r["failed"]]
    ids = {r["op"] for r in spans_ops}
    count = max(1, len(spans_ops))

    def per_op(table, key, ops=ids):
        return sum(v for (op, k), v in table.items() if op in ops and k == key) / max(1, len(ops))

    self_times = tracer.self_times()
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".ms") or name == "cli.self_ms":
            span = "cli" if name == "cli.self_ms" else name[: -len(".ms")]
            metrics[name] = 1e3 * per_op(self_times, span)
        elif name.endswith(".calls"):
            metrics[name] = per_op(tracer.counts, name[: -len(".calls")])
        elif name.endswith(".peak_mb"):
            key = name[: -len(".peak_mb")] + ".peak_bytes"
            metrics[name] = per_op(tracer.counts, key, {r["op"] for r in memory_ops}) / 2**20
        elif name.endswith(".bytes"):
            metrics[name] = sum(r["sizes"].get(name, 0) for r in spans_ops) / count
    samples = per_op(tracer.counts, "matching.estimate_matching_probability.weight")
    calls = metrics["matching.has_perfect_matching.calls"]
    metrics["matching.unique_graph_share"] = calls / samples if samples else 0.0
    roots = tracer.root_times()
    metrics["trace.op_ms"] = 1e3 * sum(roots[op] for op in ids) / count
    traced = [r["seconds"] for r in spans_ops]
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(plain))
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    if not (SRC / "mononet" / "__init__.py").is_file():
        print(f"perfbench: no mononet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mononet.cli
    import numpy as np

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    prepare = WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup(SETUP_REPEATS)

    tracer = Tracer()
    workdir = OUT / f"work-{os.getpid()}"
    records, errors = [], []
    kinds = TRACE_KINDS if args.trace else ("plain",)
    try:
        deadline = None
        op = 0
        while True:
            kind = kinds[op % len(kinds)] if op else "plain"
            rng = np.random.default_rng([args.seed, op])
            try:
                seconds, failed, problems, sizes = run_operation(
                    mononet.cli, prepare, rng, workdir / str(op), kind, tracer, op
                )
            except Exception:  # the loop must finish and report
                traceback.print_exc()
                seconds, failed, problems, sizes = 0.0, True, [], {}
            errors += [f"operation {op}: {p}" for p in problems]
            if op == 0:
                # untimed warm-up; its outputs are still checked
                deadline = perf_counter() + args.seconds
            records.append(dict(op=op, kind=kind, seconds=seconds, failed=failed, sizes=sizes))
            op += 1
            if op > 1 and perf_counter() >= deadline and (op - 1) % len(kinds) == 0:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [r for r in records[1:] if not r["failed"]]
    if not timed:
        print("perfbench: every timed operation failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(tracer, records[1:])
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics([r["seconds"] for r in timed], setup_s)
        units = END_TO_END
    for message in errors:
        print(message, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, operations=records)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(tracer.to_dict()) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
