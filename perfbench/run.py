"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload serve-paired --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up several times,
then whole rounds of the workload's operations for ``--seconds``.
``--trace 1`` runs a fixed amount of the same work twice, untraced and
then with span timers on the program's entry points; it fails unless
both runs produce the same outputs, prints the per-layer metrics, and
writes the spans as JSONL.  Every file goes under ``--out``.  Run from
the root of a checkout: the program is imported from its ``src``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import CheckFailed, import_repro, make_out_dir, result_line  # noqa: E402

WORKLOADS = {
    "serve-paired": "serve_paired",
    "churn-estimated": "churn_estimated",
    "scale-8class": "scale_8class",
}

#: Per-layer metrics and their units, in report order.
LAYER_UNITS = {
    "service.transport_ms": "ms",
    "service.batch_self_ms": "ms",
    "service.ledger_ms": "ms",
    "service.arb_hits": "count",
    "service.arb_misses": "count",
    "sessions.arbitrate_calls": "count",
    "sessions.arbitrate_ms": "ms",
    "planning.build_calls": "count",
    "planning.build_ms": "ms",
    "planning.replan_calls": "count",
    "planning.replan_ms": "ms",
    "planning.repairs": "count",
    "planning.fallbacks": "count",
    "planning.cache_hits": "count",
    "planning.cache_misses": "count",
    "algorithms.solve_calls": "count",
    "algorithms.solve_ms": "ms",
    "algorithms.collapsed_ms": "ms",
    "algorithms.segment_probes": "count",
    "core.validate_calls": "count",
    "core.validate_ms": "ms",
    "estimation.refresh_ms": "ms",
    "estimation.fit_ms": "ms",
    "estimation.probe_ms": "ms",
    "estimation.probes": "count",
    "simulation.epoch_ms": "ms",
    "simulation.backend.reference": "count",
    "simulation.backend.vectorized": "count",
    "simulation.backend.sharded": "count",
    "simulation.backend.bitset": "count",
    "simulation.auto_fallbacks": "count",
    "simulation.fleet_run_ms": "ms",
    "flows.decompose_calls": "count",
    "flows.decompose_ms": "ms",
    "runtime.epochs": "count",
    "runtime.decide_ms": "ms",
    "runtime.boundary_ms": "ms",
    "analysis.shard_build_ms": "ms",
    "trace.overhead_pct": "%",
}

#: ``<layer>_ms`` metric -> (span name, self time instead of inclusive).
SPAN_TIMES = {
    "service.transport_ms": ("service.transport", True),
    "service.batch_self_ms": ("service.batch", True),
    "service.ledger_ms": ("service.ledger", False),
    "sessions.arbitrate_ms": ("sessions.arbitrate", False),
    "planning.build_ms": ("planning.build", False),
    "planning.replan_ms": ("planning.replan", False),
    "algorithms.solve_ms": ("algorithms.solve", False),
    "algorithms.collapsed_ms": ("algorithms.collapsed", False),
    "core.validate_ms": ("core.validate", False),
    "estimation.refresh_ms": ("estimation.refresh", False),
    "estimation.fit_ms": ("estimation.fit", False),
    "estimation.probe_ms": ("estimation.probe", False),
    "simulation.epoch_ms": ("simulation.epoch", False),
    "simulation.fleet_run_ms": ("simulation.fleet_run", False),
    "flows.decompose_ms": ("flows.decompose", False),
    "runtime.decide_ms": ("runtime.decide", False),
    "analysis.shard_build_ms": ("analysis.build_fleet", True),
}

#: Count metric -> span or counter name.
SPAN_COUNTS = {
    "sessions.arbitrate_calls": "sessions.arbitrate",
    "planning.build_calls": "planning.build",
    "planning.replan_calls": "planning.replan",
    "planning.repairs": "planning.repairs",
    "planning.fallbacks": "planning.fallbacks",
    "algorithms.solve_calls": "algorithms.solve",
    "algorithms.segment_probes": "algorithms.segment_probe",
    "core.validate_calls": "core.validate",
    "estimation.probes": "estimation.probes",
    "simulation.backend.reference": "simulation.backend.reference",
    "simulation.backend.vectorized": "simulation.backend.vectorized",
    "simulation.backend.sharded": "simulation.backend.sharded",
    "simulation.backend.bitset": "simulation.backend.bitset",
    "simulation.auto_fallbacks": "simulation.auto_fallbacks",
    "flows.decompose_calls": "flows.decompose",
}


def layer_metrics(tracer, layers: dict, overhead_pct: float) -> dict:
    totals = tracer.totals()
    selfs = tracer.self_times()
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    for metric, (span, own) in SPAN_TIMES.items():
        metrics[metric] = (selfs if own else totals).get(span, 0.0) * 1e3
    for metric, name in SPAN_COUNTS.items():
        metrics[metric] = float(tracer.counts.get(name, 0))
    metrics.update(layers)
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="perfbench-out", help="output directory")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_repro()
    workload = importlib.import_module(WORKLOADS[args.workload])
    out_dir = make_out_dir(args.out, args.workload, args.seed, args.trace)
    try:
        if args.trace == 0:
            attempted, failed, metrics = workload.run(args.seed, args.seconds, out_dir)
            print(result_line(True, attempted, failed, metrics))
            return 0
        from tracing import Tracer, install

        reference = workload.fixed(args.seed, out_dir)
        tracer = Tracer()
        install(tracer)
        try:
            traced = workload.fixed(args.seed, out_dir, tracer)
        finally:
            tracer.remove()
        tracer.write_jsonl(out_dir / "spans.jsonl")
        ref_failed, ref_digest = workload.verify(reference)
        failed, digest = workload.verify(traced)
        if digest != ref_digest:
            changed = sorted(k for k in digest if digest[k] != ref_digest.get(k))
            print(f"error: the traced run changed the outputs: {changed}", file=sys.stderr)
            return 1
        overhead = (traced["seconds"] / reference["seconds"] - 1.0) * 100.0
        metrics = layer_metrics(tracer, traced["layers"], overhead)
        print(
            result_line(
                True,
                reference["attempted"] + traced["attempted"],
                ref_failed + failed,
                metrics,
                LAYER_UNITS,
            )
        )
        return 0
    except CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"wall {time.perf_counter() - started:.1f}s", file=sys.stderr)
    sys.exit(code)
