"""chaos-tcp: the chaos campaign on a loopback TCP fleet of two workers.

A ``ChaosCampaign`` (four schemes x the standard fault scenarios, R_FCO
repair, invariant checks on) runs through ``ResilientRunner(workers=2)``
on a ``TcpWorkQueueBackend`` served by two ``mlec-sim workers``
processes -- the distributed-smoke setup without the kill.  Every trial
is a scalar event-kernel mission; the batch engine never engages.
"""

from __future__ import annotations

import dataclasses
import statistics
import subprocess
import time
from typing import Any

from common import (
    BenchError, RunContext, RunnerTally, child_env, cli_argv, counted, loop_until,
)
from tracing import ROOT_LAYER, TimingExecutor, Tracer

FLEET = 2
#: Seeds per (scenario, scheme) cell of one campaign.
TRIALS = 2
FLEET_TIMEOUT_S = 60.0


@dataclasses.dataclass
class State:
    backend: Any
    workers: list[subprocess.Popen[bytes]]
    runner: Any


def make_runner(backend: Any, batch: str = "auto") -> Any:
    from repro.runtime import ResilientRunner

    return ResilientRunner(workers=FLEET, backend=backend, batch=batch)


def campaign(runner: Any, **kwargs: Any) -> Any:
    from repro.faults import ChaosCampaign

    return ChaosCampaign(trials=TRIALS, runner=runner, **kwargs)


def setup(ctx: RunContext) -> State:
    from repro.faults import standard_scenarios
    from repro.runtime.executors import TcpWorkQueueBackend

    backend = TcpWorkQueueBackend("127.0.0.1", 0)
    backend.start()
    host, port = backend.address
    workers = [
        ctx.procs.spawn(
            cli_argv("workers", "--connect", f"{host}:{port}"), env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _ in range(FLEET)
    ]
    state = State(backend, workers, make_runner(backend))
    deadline = time.monotonic() + FLEET_TIMEOUT_S
    while backend.capacity() < FLEET:
        if time.monotonic() > deadline or any(w.poll() is not None for w in workers):
            teardown(state)
            raise BenchError(f"{FLEET} workers did not connect to {host}:{port}")
        time.sleep(0.01)
    # Warm-up: one trial per worker.
    campaign(state.runner, schemes=("C/C",), scenarios=standard_scenarios()[-1:]).run(seed=ctx.seed)
    return state


def teardown(state: State) -> None:
    state.backend.shutdown()
    for worker in state.workers:
        try:
            worker.wait(timeout=10)  # workers leave when the coordinator does
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()


def run_campaign(ctx: RunContext, runner: Any, seed: int) -> tuple[float, Any]:
    """One campaign; its trials are counted by the runner and audited."""
    c = campaign(runner)
    planned = len(c.scenarios) * len(c.schemes) * c.trials
    first = len(runner.ops_trace.records)
    start = time.monotonic()
    with counted(ctx.result, runner, planned, "campaign"):
        report = c.run(seed=seed)
    wall = time.monotonic() - start
    ctx.result.check(
        "campaign reports 0 invariant violations", report.total_invariant_violations == 0,
        f"{report.total_invariant_violations} violations over {report.total_events_checked} "
        "audited events",
    )
    fallbacks = [
        r for r in runner.ops_trace.records[first:] if r.get("kind") == "backend.fallback"
    ]
    ctx.result.check(
        "the TCP fleet ran every chunk", not fallbacks, f"{len(fallbacks)} local fallbacks",
    )
    return wall, report


def measure(ctx: RunContext, state: State) -> None:
    result = ctx.result
    keep_going = loop_until(ctx.seconds, minimum=3)
    campaigns = 0
    while keep_going(campaigns):
        wall, report = run_campaign(ctx, state.runner, ctx.new_seed())
        trials = len(report.scenarios) * len(report.schemes) * report.trials
        result.sample("trials_per_s", trials / wall)
        campaigns += 1
    result.notes.append(f"{campaigns} campaigns of 4 scenarios x 4 schemes x {TRIALS} seeds")
    for metric in ("job_p50_s", "job_p90_s", "cache_hit_p50_s"):
        result.not_applicable[metric] = "offline workload: no service jobs"
    result.not_applicable["time_to_ci_s"] = "campaign PDLs are reported without a CI target"


def trace(ctx: RunContext, state: State, tracer: Tracer) -> None:
    from repro.runtime import TrialRunner

    result = ctx.result
    timing = TimingExecutor(lambda: state.backend, tracer, "sim.simulator")
    traced_runner = make_runner(timing)
    tally = RunnerTally(workers=FLEET)
    keep_going = loop_until(ctx.seconds, minimum=1)
    untraced = traced = 0.0
    events = violations = 0
    first: tuple[int, Any] | None = None
    while keep_going(tally.passes):
        seed = ctx.new_seed()
        wall, plain = run_campaign(ctx, state.runner, seed)
        untraced += wall
        start = time.monotonic()
        with tracer.span(ROOT_LAYER, "rep", trace=f"rep-{seed}"), tally.observe(traced_runner):
            with tracer.span("runtime.runner", "campaign"):
                _w, report = run_campaign(ctx, traced_runner, seed)
        traced += time.monotonic() - start
        result.check(
            "pass-through backend leaves the report unchanged", report == plain,
            f"{len(report.cells)} cells compared",
        )
        events += report.total_events_checked
        violations += report.total_invariant_violations
        first = first or (seed, plain)

    # References on the first campaign's inputs: an in-process workers=1
    # run must give the same report; batch="off" times the (absent) saving.
    assert first is not None
    seed, plain = first
    local = campaign(TrialRunner(workers=1)).run(seed=seed)
    result.check(
        "in-process workers=1 reference is identical", local == plain,
        "RobustnessReport compared cell by cell",
    )
    off_wall, off = run_campaign(ctx, make_runner(state.backend, batch="off"), seed)
    auto_wall, _auto = run_campaign(ctx, state.runner, seed)
    result.check("batch=off reference is identical", off == plain, "RobustnessReport compared")

    tally.report(result)
    n = tally.passes
    trials = tally.counts.get("trials", 0)
    result.layer("sim.batch.saved_s", off_wall - auto_wall)
    result.layer("sim.simulator.mission_s", tally.compute_s / trials if trials else 0.0)
    result.layer("faults.events_checked", events / n)
    result.layer("faults.violations", violations / n)
    result.layer("executors.job_bytes", statistics.fmean(timing.job_bytes))
    result.layer("executors.payload_bytes", statistics.fmean(timing.payload_bytes))
    result.layer("executors.roundtrip_s", statistics.fmean(timing.roundtrip_s))
    result.layer("executors.tcp.lease_rtt_s", statistics.fmean(timing.roundtrip_s))
    result.layer("obs.trace_overhead", traced / untraced - 1.0)
