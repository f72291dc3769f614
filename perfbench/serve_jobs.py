"""serve-jobs: a closed-loop client against ``mlec-sim serve --workers 1``.

One client submits small distinct burst jobs (a few hundred trials each,
fresh seeds), polls each until it is ``done``, and after every second
fresh job resubmits an earlier one, which the daemon's dedupe cache must
answer with ``200 {"cached": true}`` and the identical result.  The
simulation work per job is small, so HTTP handling, admission, the WAL
and journal fsyncs, and scheduling dominate.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import statistics
import subprocess
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from common import (
    BenchError, Result, RunContext, RunnerTally, child_env, cli_argv, counter, loop_until,
    report_burst_calls,
)
from stats import Outcomes, tail_at
from tracing import (
    NULL_TRACER, ROOT_LAYER, CallStats, Tracer, ops_span_seconds, patched, runner_attempts,
)

#: (scheme, failures, racks) cycled by the fresh jobs.
CELLS = (("C/C", 24, 6), ("C/D", 48, 12), ("D/C", 36, 12), ("D/D", 24, 6))
JOB_TRIALS = 300
#: A fresh job is resubmitted after every this many fresh jobs.
RESUBMIT_EVERY = 2
#: Fresh jobs per run: enough for 10 samples beyond p90.
MIN_FRESH = 100
#: Client polling interval; the first poll lands at a random phase of it.
POLL_S = 0.005
JOB_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
#: Fresh jobs per traced or untraced batch of a traced run.
TRACE_BATCH = 20
TERMINAL = ("done", "failed", "cancelled")


class ServiceClient:
    """One request per connection (the daemon closes each one)."""

    def __init__(self, port: int, outcomes: Outcomes) -> None:
        self.port = port
        self.outcomes = outcomes
        self.request_s: dict[str, list[float]] = {"POST": [], "GET": []}

    def request(self, method: str, path: str, body: Any = None) -> tuple[int, dict[str, Any]]:
        start = time.monotonic()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            status, data = response.status, json.loads(response.read() or b"{}")
        except (OSError, http.client.HTTPException, json.JSONDecodeError) as exc:
            status, data = 0, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            conn.close()
        self.request_s[method].append(time.monotonic() - start)
        self.outcomes.record(200 <= status < 300)
        return status, data


@dataclasses.dataclass
class State:
    daemon: subprocess.Popen[bytes]
    client: ServiceClient
    state_dir: Path


@dataclasses.dataclass
class JobRun:
    """What the client saw of one fresh job."""

    spec: dict[str, Any]
    job_id: str
    state: str
    result: dict[str, Any] | None
    latency_s: float
    post_s: float
    #: Seconds from the POST until a state other than ``queued`` was seen.
    queued_s: float
    #: Seconds from then until ``done`` was seen (0 if ``running`` never was).
    running_s: float
    wal_bytes: int


def pin_apart(daemon_pid: int) -> None:
    """Pin the daemon to one CPU and this client to another.

    A ``--workers 1`` daemon runs on one core anyway (its threads share the
    GIL).  Unpinned, some runs served about half as many jobs as the rest
    -- most likely GIL hand-offs between its threads on different CPUs --
    which pushed the run-to-run spread past any usable bound; pinned, no
    run did.  Called before the daemon starts its threads, which inherit
    the mask.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(daemon_pid, {cpus[-1]})
        os.sched_setaffinity(0, {cpus[0]})


def start_daemon(ctx: RunContext, state_dir: Path) -> tuple[subprocess.Popen[bytes], int]:
    daemon = ctx.procs.spawn(
        cli_argv("serve", "--state-dir", str(state_dir), "--workers", "1"), env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    pin_apart(daemon.pid)
    endpoint = state_dir / "endpoint.json"
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        if daemon.poll() is not None or time.monotonic() > deadline:
            raise BenchError(f"mlec-sim serve did not start (exit {daemon.poll()})")
        try:
            port = int(json.loads(endpoint.read_text())["port"])
        except (OSError, ValueError, KeyError):
            time.sleep(0.005)
            continue
        probe = ServiceClient(port, Outcomes())
        if probe.request("GET", "/readyz")[0] == 200:
            return daemon, port
        time.sleep(0.005)


def setup(ctx: RunContext) -> State:
    state_dir = ctx.run_dir / "serve-state"
    daemon, port = start_daemon(ctx, state_dir)
    state = State(daemon, ServiceClient(port, ctx.result.outcomes), state_dir)
    warm = run_fresh(ctx, state, {**job_spec(0, ctx.seed), "trials": 8})
    if warm.state != "done":
        raise BenchError(f"warm-up job ended {warm.state}")
    return state


def teardown(state: State) -> None:
    state.daemon.terminate()  # graceful drain; the run's process group reaps it regardless
    try:
        state.daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        state.daemon.kill()
        state.daemon.wait()


def job_spec(index: int, seed: int) -> dict[str, Any]:
    scheme, failures, racks = CELLS[index % len(CELLS)]
    return {
        "kind": "burst", "scheme": scheme, "failures": failures, "racks": racks,
        "trials": JOB_TRIALS, "seed": seed,
    }


def run_fresh(ctx: RunContext, state: State, spec: dict[str, Any]) -> JobRun:
    """Submit one new job and poll it to a terminal state."""
    wal = state.state_dir / "jobs.jsonl"
    wal_before = wal.stat().st_size
    start = time.monotonic()
    status, body = state.client.request("POST", "/jobs", spec)
    post_s = time.monotonic() - start
    if status != 202:
        raise BenchError(f"fresh submit answered {status}: {body}")
    job_id = body["job"]["job_id"]
    queued_s = 0.0
    saw_running = False
    due = start + POLL_S * ctx.rng.random()
    while True:
        time.sleep(max(0.0, due - time.monotonic()))
        due += POLL_S
        status, body = state.client.request("GET", f"/jobs/{job_id}")
        now = time.monotonic() - start
        job = body.get("job", {})
        if status == 200 and job.get("state") != "queued" and not queued_s:
            queued_s = now
        saw_running = saw_running or job.get("state") == "running"
        if job.get("state") in TERMINAL:
            break
        if now > JOB_TIMEOUT_S:
            raise BenchError(f"job {job_id} not done after {JOB_TIMEOUT_S:g} s")
    latency = time.monotonic() - start
    grown = wal.stat().st_size - wal_before  # negative when the WAL was compacted
    ctx.result.outcomes.record(job["state"] == "done")
    return JobRun(
        spec, job_id, job["state"], job.get("result"), latency, post_s, queued_s,
        latency - queued_s if saw_running else 0.0, grown,
    )


def resubmit(ctx: RunContext, state: State, run: JobRun) -> float:
    """Resubmit a finished job; it must come back cached and identical."""
    start = time.monotonic()
    status, body = state.client.request("POST", "/jobs", run.spec)
    latency = time.monotonic() - start
    cached = status == 200 and body.get("cached") is True
    same = body.get("job", {}).get("result") == run.result
    ctx.result.check(
        "resubmits return cached: true with the identical result", cached and same,
        f"job {run.job_id}: status {status}, cached {body.get('cached')}, same result {same}",
    )
    return latency


def check_fresh(result: Result, run: JobRun) -> None:
    trials = (run.result or {}).get("trials")
    result.check(
        "fresh jobs end done with every trial counted",
        run.state == "done" and trials == run.spec["trials"],
        f"job {run.job_id}: {run.state}, {trials} of {run.spec['trials']} trials",
    )


def job_batch(
    ctx: RunContext, state: State, keep_going: Callable[[int], bool],
    tracer: Tracer = NULL_TRACER,
) -> tuple[float, list[JobRun], list[float]]:
    """Fresh jobs with interleaved resubmits; ``(wall, fresh runs, hit latencies)``."""
    runs: list[JobRun] = []
    hits: list[float] = []
    start = time.monotonic()
    while keep_going(len(runs)):
        spec = job_spec(len(runs), ctx.new_seed())
        with tracer.span("service", "job", trace=f"job-{spec['seed']}"):
            run = run_fresh(ctx, state, spec)
        check_fresh(ctx.result, run)
        runs.append(run)
        if len(runs) % RESUBMIT_EVERY == 0:
            hits.append(resubmit(ctx, state, runs[ctx.rng.randrange(len(runs))]))
    return time.monotonic() - start, runs, hits


def measure(ctx: RunContext, state: State) -> None:
    result = ctx.result
    wall, runs, hits = job_batch(ctx, state, loop_until(ctx.seconds, MIN_FRESH))
    latencies = [r.latency_s for r in runs]
    for value in latencies:
        result.sample("job_p50_s", value)
    for value in hits:
        result.sample("cache_hit_p50_s", value)
    p90 = tail_at(latencies, 90.0)
    if p90 is not None:
        result.sample("job_p90_s", p90)
    result.check(
        "10 or more fresh jobs beyond p90", p90 is not None, f"{len(latencies)} fresh jobs",
    )
    trials = sum(r.result["trials"] for r in runs if r.result)
    result.sample("trials_per_s", trials / wall)
    result.check("daemon still serving", state.daemon.poll() is None, "after the client loop")
    result.notes.append(
        f"{len(runs)} fresh jobs of {JOB_TRIALS} trials and {len(hits)} cached resubmits "
        f"in {wall:.3f} s; polling every {POLL_S * 1e3:g} ms"
    )
    result.not_applicable["time_to_ci_s"] = "service jobs are small fixed-size sweeps"


def replay_runner(checkpoint: Path | None, batch: str = "auto") -> tuple[Any, float]:
    from repro.runtime import ResilientRunner

    born = time.monotonic()
    return ResilientRunner(workers=1, checkpoint=checkpoint, batch=batch), born


def replay(
    spec: dict[str, Any], runner: Any, born: float, tracer: Tracer = NULL_TRACER,
) -> tuple[float, Any]:
    """Run one job's sweep offline through ``burst_pdl_stats``."""
    from repro import PAPER_MLEC, mlec_scheme_from_name
    from repro.sim.burst import MLECBurstEvaluator, burst_pdl_stats

    evaluator = MLECBurstEvaluator(mlec_scheme_from_name(spec["scheme"], PAPER_MLEC))
    start = time.monotonic()
    with tracer.span("runtime.runner", "sweep", trace=f"replay-{spec['seed']}") as sweep:
        agg = burst_pdl_stats(evaluator, spec["failures"], spec["racks"], trials=spec["trials"],
                              seed=spec["seed"], runner=runner)
    wall = time.monotonic() - start
    if tracer.enabled:
        runner_attempts(runner, 0, born, tracer, sweep, "sim.batch")
        runner_attempts(runner, 0, born, tracer, sweep, "runtime.resilience",
                        kind="span.checkpoint_write")
    return wall, agg


def summary_of(agg: Any) -> dict[str, Any]:
    return {
        "kind": "burst", "trials": agg.trials, "pdl_mean": agg.mean,
        "ci95_halfwidth": agg.ci95_halfwidth, "loss_fraction": agg.loss_fraction,
        "losses": agg.losses, "minimum": agg.minimum, "maximum": agg.maximum,
    }


def trace(ctx: RunContext, state: State, tracer: Tracer) -> None:
    from repro.sim.burst import BurstGenerator, MLECBurstEvaluator

    result = ctx.result
    keep_going = loop_until(ctx.seconds, minimum=1)
    untraced = traced = 0.0
    fresh: list[JobRun] = []
    while keep_going(len(fresh) // TRACE_BATCH):
        untraced += job_batch(ctx, state, lambda n: n < TRACE_BATCH)[0]
        with tracer.span(ROOT_LAYER, "batch"):
            wall, runs, _hits = job_batch(ctx, state, lambda n: n < TRACE_BATCH, tracer)
        traced += wall
        fresh.extend(runs)

    # Offline replays of traced jobs through the public burst entry point,
    # journaled the way the service journals a job.
    tally = RunnerTally(workers=1)
    samples, evals = CallStats(), CallStats()
    writes = write_s = journal_bytes = 0.0
    replayed = fresh[:TRACE_BATCH]
    current = {"scheme": ""}
    tag = lambda: current["scheme"]  # noqa: E731 - read at call time
    with patched(BurstGenerator, "sample", tracer, "sim.burst", samples, tag), \
            patched(MLECBurstEvaluator, "pdl_of_burst", tracer, "sim.burst", evals, tag):
        for i, run in enumerate(replayed):
            current["scheme"] = run.spec["scheme"]
            journal = ctx.run_dir / f"replay-{i}.jsonl"
            runner, born = replay_runner(journal)
            with tracer.span(ROOT_LAYER, "replay"), tally.observe(runner):
                _wall, agg = replay(run.spec, runner, born, tracer)
            writes += counter(runner, "checkpoint.chunk_writes")
            write_s += ops_span_seconds(runner.ops_trace.records, "span.checkpoint_write")[1]
            journal_bytes += journal.stat().st_size
            result.check(
                "offline burst_pdl_stats reference matches the service result",
                summary_of(agg) == run.result, f"job {run.job_id} replayed with checkpoint=",
            )
    tracer.nest("sim.burst", "sim.batch")
    off_wall, off = replay(fresh[0].spec, *replay_runner(None, batch="off"))
    auto_wall, _agg = replay(fresh[0].spec, *replay_runner(None))
    result.check(
        "batch=off reference matches the service result", summary_of(off) == fresh[0].result,
        f"job {fresh[0].job_id}",
    )

    result.layer("service.post_s", statistics.fmean(r.post_s for r in fresh))
    result.layer("service.queue_wait_s", statistics.fmean(r.queued_s for r in fresh))
    result.layer("service.run_s", statistics.fmean(r.running_s for r in fresh))
    result.layer("service.get_s", statistics.fmean(state.client.request_s["GET"]))
    grown = [r.wal_bytes for r in fresh if r.wal_bytes > 0]
    result.layer("service.wal_bytes_per_job", statistics.fmean(grown) if grown else 0.0)
    result.layer("runtime.journal.writes", writes / len(replayed))
    result.layer("runtime.journal.write_s", write_s / len(replayed))
    result.layer("runtime.journal.bytes", journal_bytes / len(replayed))
    report_burst_calls(result, samples, evals, [name for name, *_cell in CELLS])
    tally.report(result)
    result.layer("sim.batch.saved_s", off_wall - auto_wall)
    result.layer("obs.trace_overhead", traced / untraced - 1.0)
    size = sum(p.stat().st_size for p in state.state_dir.rglob("*") if p.is_file())
    result.notes.append(
        f"{len(fresh)} traced fresh jobs; queue wait and run time are seen by polling every "
        f"{POLL_S * 1e3:g} ms; runtime.*, sim.* and journal metrics are means per offline "
        f"replay of {len(replayed)} of those jobs; the state dir holds {size} bytes"
    )
