"""simulate-year: paper-scale 12-month missions on a two-process local pool.

Each sweep is what ``mlec-sim simulate --workers 2`` builds: a
``SweepSpec(kind="simulate")`` over the default 57,600-disk datacenter
(C/D, R_MIN repair, AFR 1%, 12-month missions) resolved to runner inputs
and run through ``ResilientRunner(workers=2, batch="auto")``, which owns a
fresh local process pool per sweep.  The sweep size keeps every chunk at
or above the batch engine's minimum, so ``auto`` really batches.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from typing import Any

from common import RunContext, RunnerTally, counted, counter, loop_until
from tracing import ROOT_LAYER, TimingExecutor, Tracer, ops_span_seconds

SPEC = {
    "kind": "simulate", "scheme": "C/D", "code": "10+2/17+3",
    "months": 12, "afr": 0.01, "method": "RMIN",
}
WORKERS = 2
#: Missions per sweep: 8 chunks of 128 on two workers.
TRIALS = 1024
#: Missions of the workers=1 and batch="off" reference sweeps.
REF_TRIALS = 128
#: Allowed distance of the mean failure count from its expectation.
SIGMAS = 5.0


@dataclasses.dataclass
class State:
    runner: Any


def plan(seed: int, trials: int) -> Any:
    from repro.service.spec import SweepSpec

    return SweepSpec.from_json({**SPEC, "trials": trials, "seed": seed}).resolve()


def make_runner(workers: int = WORKERS, batch: str = "auto", backend: Any = None) -> Any:
    from repro.runtime import ResilientRunner

    return ResilientRunner(workers=workers, batch=batch, backend=backend)


def sweep(runner: Any, p: Any) -> list[Any]:
    return runner.map(p.fn, p.trials, seed=p.seed, args=p.args)


def setup(ctx: RunContext) -> State:
    runner = make_runner()
    sweep(runner, plan(ctx.seed, 16))  # starts a pool and runs a trial
    return State(runner)


def teardown(state: State) -> None:
    del state  # the runner's pools are per sweep and already shut down


def timed_sweep(ctx: RunContext, runner: Any, p: Any) -> tuple[float, list[Any]]:
    """One sweep, its trials counted by the runner and its chunk sizes checked."""
    from repro.sim.batch import BATCH_MIN_TRIALS

    first = len(runner.ops_trace.records)
    start = time.monotonic()
    with counted(ctx.result, runner, p.trials, "simulate sweep"):
        results = sweep(runner, p)
    wall = time.monotonic() - start
    records = runner.ops_trace.records[first:]
    sizes = [r["data"]["hi"] - r["data"]["lo"] for r in records if r.get("kind") == "span.chunk"]
    ctx.result.check(
        "chunks reach the batch minimum", bool(sizes) and min(sizes) >= BATCH_MIN_TRIALS,
        f"{len(sizes)} chunks of {min(sizes, default=0)}..{max(sizes, default=0)} trials "
        f"(minimum {BATCH_MIN_TRIALS})",
    )
    return wall, results


def check_failures(ctx: RunContext, counts: list[int]) -> None:
    """Mean disk failures per mission against 57,600 x -ln(1 - AFR)."""
    from repro.core.config import DatacenterConfig

    expected = DatacenterConfig().total_disks * -math.log1p(-SPEC["afr"]) * SPEC["months"] / 12
    mean = statistics.fmean(counts)
    sigma = math.sqrt(expected / len(counts))
    ctx.result.check(
        "mean disk failures within 5 sigma", abs(mean - expected) <= SIGMAS * sigma,
        f"{mean:.2f} per mission over {len(counts)} missions; expected {expected:.2f} "
        f"+/- {SIGMAS:g} x {sigma:.3f}",
    )


def measure(ctx: RunContext, state: State) -> None:
    result = ctx.result
    keep_going = loop_until(ctx.seconds, minimum=3)
    counts: list[int] = []
    batched = 0
    while keep_going(len(result.samples.get("trials_per_s", []))):
        before = counter(state.runner, "sim.batch_trials")
        wall, results = timed_sweep(ctx, state.runner, plan(ctx.new_seed(), TRIALS))
        batched += counter(state.runner, "sim.batch_trials") - before
        result.sample("trials_per_s", len(results) / wall)
        counts.extend(r.n_disk_failures for r in results)
    check_failures(ctx, counts)
    result.notes.append(
        f"{len(counts)} missions in sweeps of {TRIALS}; {batched} ran on the batch engine"
    )
    for metric in ("job_p50_s", "job_p90_s", "cache_hit_p50_s"):
        result.not_applicable[metric] = "offline workload: no service jobs"
    result.not_applicable["time_to_ci_s"] = (
        "PDL at AFR 1% over 12 months is 0: no CI to reach"
    )


def trace(ctx: RunContext, state: State, tracer: Tracer) -> None:
    from repro.runtime.executors import LocalProcessBackend

    result = ctx.result
    timing = TimingExecutor(lambda: LocalProcessBackend(max_workers=WORKERS), tracer, "sim.batch")
    traced_runner = make_runner(backend=timing)
    tally = RunnerTally(workers=WORKERS)
    keep_going = loop_until(ctx.seconds, minimum=1)
    untraced = traced = 0.0
    counts: list[int] = []
    while keep_going(tally.passes):
        p = plan(ctx.new_seed(), TRIALS)
        wall, plain = timed_sweep(ctx, state.runner, p)
        untraced += wall
        start = time.monotonic()
        with tracer.span(ROOT_LAYER, "rep", trace=f"rep-{p.seed}"), tally.observe(traced_runner):
            with tracer.span("runtime.runner", "sweep"):
                _w, results = timed_sweep(ctx, traced_runner, p)
                timing.shutdown()  # a fresh pool per sweep, as the runner's own
        traced += time.monotonic() - start
        result.check(
            "pass-through backend leaves results unchanged", results == plain,
            f"{len(results)} missions compared",
        )
        counts.extend(r.n_disk_failures for r in results)
    check_failures(ctx, counts)

    # References on one small sweep: workers=1 and batch="off" must give
    # the same missions; batch="off" also times the scalar event kernel.
    p = plan(ctx.new_seed(), REF_TRIALS)
    runners = {
        "auto": make_runner(), "workers=1": make_runner(workers=1), "off": make_runner(batch="off"),
    }
    walls, outputs = {}, {}
    for label, runner in runners.items():
        walls[label], outputs[label] = timed_sweep(ctx, runner, p)
    _n, kernel = ops_span_seconds(runners["off"].ops_trace.records, "span.attempt")
    same = outputs["auto"] == outputs["workers=1"] == outputs["off"]
    result.check(
        "workers=1 and batch=off references are identical", same,
        f"{REF_TRIALS} missions; walls {', '.join(f'{k} {v:.3f} s' for k, v in walls.items())}",
    )

    tally.report(result)
    result.layer("sim.batch.saved_s", walls["off"] - walls["auto"])
    result.layer("sim.simulator.mission_s", kernel / REF_TRIALS)
    result.layer("executors.job_bytes", statistics.fmean(timing.job_bytes))
    result.layer("executors.payload_bytes", statistics.fmean(timing.payload_bytes))
    result.layer("executors.roundtrip_s", statistics.fmean(timing.roundtrip_s))
    result.layer("obs.trace_overhead", traced / untraced - 1.0)
    result.notes.append(
        f"sim.batch.saved_s and sim.simulator.mission_s come from {REF_TRIALS}-mission "
        "reference sweeps"
    )

