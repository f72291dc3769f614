"""The repository benchmark: one workload, untraced or traced, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload burst-grid --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics and runs the correctness
checks; ``--trace 1`` runs the workload again with benchmark-side spans
and prints the per-layer metrics, each layer's self time, the share of
wall-clock no layer accounts for, and the tracing overhead.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the ``end_to_end`` or ``per_layer`` metrics named in
``BENCHMARK.json``).  Exit status: 0 when every check passed, 1 when a
check failed or the workload raised, 2 when the benchmark cannot run
here (no program sources, bad arguments), 130/143 on SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import traceback
from collections.abc import Callable
from types import ModuleType
from typing import Any

from common import (
    CHECKOUT,
    OUT_DIRNAME,
    PRINTED_ONLY,
    BenchError,
    Result,
    RunContext,
    import_samples,
    load_spec,
    preflight,
    rss_peak_mb,
    setup_samples,
)
from procs import run_scope
from stats import summarize
from tracing import ROOT_LAYER, Tracer


def _lazy(name: str) -> Callable[[], ModuleType]:
    return lambda: importlib.import_module(name)


#: Workload name -> loader of its module (imported only when chosen).
WORKLOADS: dict[str, Callable[[], ModuleType]] = {
    "burst-grid": _lazy("burst_grid"),
    "simulate-year": _lazy("simulate_year"),
    "chaos-tcp": _lazy("chaos_tcp"),
    "serve-jobs": _lazy("serve_jobs"),
}
#: Layers whose self time is reported as ``self_share.<layer>``.
SELF_LAYERS = (
    "runtime.runner", "runtime.executors", "runtime.resilience",
    "sim.batch", "sim.burst", "sim.simulator", "service",
)


def _stop(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(args: argparse.Namespace, spec: dict[str, Any]) -> Result:
    module = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    with run_scope(CHECKOUT) as (run_dir, procs):
        ctx = RunContext(seed=args.seed, seconds=args.seconds, run_dir=run_dir, procs=procs)
        result = ctx.result
        try:
            if tracer is None:
                for value in setup_samples(ctx, args.workload):
                    result.sample("setup_s", value)
            else:
                result.layer("import.repro_s", summarize(import_samples()).median)
            state = module.setup(ctx)
            try:
                if tracer is None:
                    module.measure(ctx, state)
                else:
                    module.trace(ctx, state, tracer)
            finally:
                module.teardown(state)
        except Exception as exc:  # a run that raised is reported, not hidden
            traceback.print_exc()
            result.check("workload completed", False, f"{type(exc).__name__}: {exc}")
    if tracer is None:
        result.sample("rss_peak_mb", rss_peak_mb())  # children reaped by now
    else:
        layer_self_times(result, tracer)
        for metric in spec["per_layer"]:
            if metric["name"] not in result.layers:
                result.layer_absent(metric["name"], f"layer not exercised by {args.workload}")
        out = CHECKOUT / OUT_DIRNAME / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(out)
        result.notes.append(f"{len(tracer.spans)} spans written to {out.relative_to(CHECKOUT)}")
    return result


def layer_self_times(result: Result, tracer: Tracer) -> None:
    self_times = tracer.self_times()
    root = sum(s.duration for s in tracer.spans if s.layer == ROOT_LAYER)
    result.self_times = self_times
    result.traced_wall = root
    for layer in SELF_LAYERS:
        result.layer(f"self_share.{layer}", self_times.get(layer, 0.0) / root if root else 0.0)
    result.layer("obs.unattributed_share", self_times.get(ROOT_LAYER, 0.0) / root if root else 0.0)


def report(args: argparse.Namespace, spec: dict[str, Any], result: Result) -> dict[str, Any]:
    """Print the human report; return the result object's ``metrics``."""
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, {mode}")
    metrics: dict[str, Any] = {}
    if not args.trace:
        print("end-to-end metrics:")
        gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, unit in [*gated.items(), *PRINTED_ONLY]:
            if name == "error_frac":
                o = result.outcomes
                print(f"  {name:<16} {o.error_frac:.6g} {unit} "
                      f"({o.failed} failed of {o.attempted} attempted)")
            elif name in result.samples:
                summary = summarize(result.samples[name])
                print(f"  {name:<16} {summary.describe(unit)}")
                if name in gated:
                    metrics[name] = {"value": summary.median, "unit": unit}
            else:
                reason = result.not_applicable.get(name, "not measured")
                print(f"  {name:<16} n/a ({reason})")
    else:
        print("per-layer metrics (means per traced pass):")
        for metric in spec["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            value = result.layers[name]
            why = f"  [absent: {result.absent[name]}]" if name in result.absent else ""
            print(f"  {name:<32} {value:.6g} {unit}{why}")
            metrics[name] = {"value": value, "unit": unit}
        wall = result.traced_wall
        print(f"layer self time over {wall:.3f} s of traced wall-clock "
              "(parallel workers can push the sum past 100%):")
        for layer, seconds in sorted(result.self_times.items(), key=lambda kv: -kv[1]):
            label = "unattributed" if layer == ROOT_LAYER else layer
            print(f"  {label:<20} {seconds:9.4f} s  {seconds / wall if wall else 0.0:7.2%}")
    print("checks:")
    for check in result.checks.values():
        runs = f" [{check.runs} runs]" if check.runs > 1 else ""
        print(f"  {'ok  ' if check.ok else 'FAIL'} {check.name}{runs}: {check.detail}")
    for note in result.notes:
        print(f"  note: {note}")
    return metrics


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _stop)
    # Ctrl-C must unwind (and reap) even when started with SIGINT ignored,
    # as background jobs of a non-interactive shell are.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    args = parse_args(argv)
    try:
        preflight()
        spec = load_spec()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args, spec)
    except KeyboardInterrupt:
        print("perfbench: interrupted; child processes reaped", file=sys.stderr)
        return 128 + signal.SIGINT
    metrics = report(args, spec, result)
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(1, result.outcomes.attempted),
        "failed": result.outcomes.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
