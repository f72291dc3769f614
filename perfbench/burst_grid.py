"""burst-grid: Fig. 5 over the paper code, then its hard cell to a 95% CI.

One repetition runs ``burst_pdl_grid`` for all four MLEC schemes over
the 29 feasible cells of failures {12..60} x racks {1..60} on an
in-process ``TrialRunner(workers=1, batch="auto")``, then runs the hard
cell (D/D, 60 failures over 3 racks) through ``burst_pdl_stats`` in
fixed rounds until the 95% CI half-width is at most 10% of the mean.
No IPC, journal or service: the single-process baseline.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any

import numpy as np

from common import RunContext, RunnerTally, counted, loop_until, report_burst_calls
from tracing import NULL_TRACER, ROOT_LAYER, CallStats, Tracer, patched, runner_attempts

SCHEMES = ("C/C", "C/D", "D/C", "D/D")
FAILURES = np.array([12, 24, 36, 48, 60])
RACKS = np.array([1, 2, 3, 6, 12, 30, 60])
#: Feasible (failures >= racks) cells per scheme.
N_CELLS = int(sum((FAILURES >= x).sum() for x in RACKS))
#: Bursts per grid cell.
TRIALS_PER_CELL = 100
HARD_CELL = ("D/D", 60, 3)
ROUND_TRIALS = 100
TARGET_REL_CI = 0.10
MAX_ROUNDS = 200
#: Share of the measured seconds spent on grid repetitions (the rest
#: repeats the hard cell to its target CI).
GRID_SHARE = 0.6
#: Racks up to p_n never lose data (the MC grid's first two columns).
SAFE_RACK_COLUMNS = 2


@dataclasses.dataclass
class State:
    runner: Any
    born: float
    evaluators: dict[str, Any]
    scheme: str = ""


def make_runner(batch: str) -> tuple[Any, float]:
    from repro.runtime import TrialRunner

    born = time.monotonic()
    return TrialRunner(workers=1, batch=batch), born


def setup(ctx: RunContext) -> State:
    from repro import PAPER_MLEC, mlec_scheme_from_name
    from repro.sim.burst import MLECBurstEvaluator, burst_pdl_stats

    runner, born = make_runner("auto")
    evaluators = {
        name: MLECBurstEvaluator(mlec_scheme_from_name(name, PAPER_MLEC)) for name in SCHEMES
    }
    name, failures, racks = HARD_CELL
    burst_pdl_stats(evaluators[name], failures, racks, trials=8, seed=ctx.seed, runner=runner)
    return State(runner, born, evaluators)


def teardown(state: State) -> None:
    del state  # in-process runner: nothing to release


def grid_pass(
    ctx: RunContext, state: State, runner: Any, born: float, seed: int,
    tracer: Tracer = NULL_TRACER,
) -> tuple[float, int, dict[str, Any]]:
    """The four Fig. 5 heatmaps; returns ``(wall, bursts, grids)``."""
    from repro.sim.burst import burst_pdl_grid

    grids = {}
    start = time.monotonic()
    with counted(ctx.result, runner, len(SCHEMES) * N_CELLS, "grid") as cells:
        for name in SCHEMES:
            state.scheme = name
            since = len(runner.ops_trace.records)
            with tracer.span("runtime.runner", "sweep", trace=f"grid-{seed}-{name}") as sweep:
                grids[name] = burst_pdl_grid(
                    state.evaluators[name], FAILURES, RACKS, trials=TRIALS_PER_CELL,
                    seed=seed, runner=runner,
                )
            if tracer.enabled:
                runner_attempts(runner, since, born, tracer, sweep, "sim.batch")
    wall = time.monotonic() - start
    # The runner counts grid cells; each cell is TRIALS_PER_CELL bursts.
    return wall, cells["completed"] * TRIALS_PER_CELL, grids


def reached_target(agg: Any) -> bool:
    return 0 < agg.ci95_halfwidth <= TARGET_REL_CI * agg.mean


def ci_pass(
    ctx: RunContext, state: State, runner: Any, born: float, seed: int,
    tracer: Tracer = NULL_TRACER,
) -> tuple[float, Any]:
    """Rounds of the hard cell until the target CI; ``(wall, aggregate)``."""
    from repro.runtime import TrialAggregate
    from repro.sim.burst import burst_pdl_stats

    name, failures, racks = HARD_CELL
    state.scheme = name
    total = TrialAggregate()
    rounds = 0
    start = time.monotonic()
    while rounds < MAX_ROUNDS:
        since = len(runner.ops_trace.records)
        with counted(ctx.result, runner, ROUND_TRIALS, "hard-cell round"), \
                tracer.span("runtime.runner", "sweep", trace=f"ci-{seed}-{rounds}") as sweep:
            total.merge(burst_pdl_stats(
                state.evaluators[name], failures, racks, trials=ROUND_TRIALS,
                seed=seed + rounds, runner=runner,
            ))
        if tracer.enabled:
            runner_attempts(runner, since, born, tracer, sweep, "sim.batch")
        rounds += 1
        if total.trials >= 2 * ROUND_TRIALS and reached_target(total):
            break
    wall = time.monotonic() - start
    ctx.result.check(
        "hard cell reaches target CI", reached_target(total),
        f"{total.trials} bursts, PDL {total.mean:.4g} +/- {total.ci95_halfwidth:.3g}",
    )
    return wall, total


def check_grids(ctx: RunContext, grids: dict[str, Any]) -> None:
    leaks = {n: float(np.nansum(g[:, :SAFE_RACK_COLUMNS])) for n, g in grids.items()}
    ctx.result.check(
        "MC grid: PDL 0 for racks <= p_n", all(v == 0.0 for v in leaks.values()),
        f"nansum over racks in {RACKS[:SAFE_RACK_COLUMNS].tolist()}: {leaks}",
    )


def check_dp(ctx: RunContext) -> None:
    """The fig05 bench's exact-DP assertions (Findings 2, 3, 4/7)."""
    from repro import PAPER_MLEC, mlec_scheme_from_name
    from repro.analysis.burst_dp import mlec_burst_pdl

    dp = {
        name: [mlec_burst_pdl(mlec_scheme_from_name(name, PAPER_MLEC), y, x)
               for y, x in ((60, 3), (60, 12), (11, 3))]
        for name in SCHEMES
    }
    order = [dp[n][0] for n in ("D/D", "C/D", "D/C", "C/C")]
    ctx.result.check(
        "DP: D/D > C/D > D/C > C/C at (60, 3)",
        all(a > b for a, b in zip(order, order[1:])), f"{order}",
    )
    ctx.result.check(
        "DP: y <= x + 8 is safe, scattering helps",
        all(v[2] <= 1e-12 and v[1] <= v[0] + 1e-12 for v in dp.values()),
        f"(60,12) and (11,3) vs (60,3): {dp}",
    )


def measure(ctx: RunContext, state: State) -> None:
    """Grid repetitions for most of the run, then hard-cell CI repetitions."""
    result = ctx.result
    keep_going = loop_until(ctx.seconds * GRID_SHARE, minimum=5)
    reps = 0
    while keep_going(reps):
        wall, bursts, grids = grid_pass(ctx, state, state.runner, state.born, ctx.new_seed())
        check_grids(ctx, grids)
        result.sample("trials_per_s", bursts / wall)
        reps += 1
    result.notes.append(
        f"{reps} grids of {len(SCHEMES)} x {N_CELLS} cells x {TRIALS_PER_CELL} bursts"
    )
    keep_going = loop_until(ctx.seconds * (1.0 - GRID_SHARE), minimum=2)
    reps = 0
    while keep_going(reps):
        ci_wall, hard = ci_pass(ctx, state, state.runner, state.born, ctx.new_seed())
        result.sample("time_to_ci_s", ci_wall)
        result.notes.append(
            f"hard cell: {hard.trials} bursts to PDL {hard.mean:.4g} +/- "
            f"{hard.ci95_halfwidth:.3g} in {ci_wall:.3f} s"
        )
        reps += 1
    check_dp(ctx)
    for metric in ("job_p50_s", "job_p90_s", "cache_hit_p50_s"):
        result.not_applicable[metric] = "offline workload: no service jobs"


def full_rep(
    ctx: RunContext, state: State, runner: Any, born: float, seed: int,
    tracer: Tracer = NULL_TRACER,
) -> tuple[float, dict[str, Any], Any]:
    """Grid then hard cell on one seed; ``(wall, grids, hard-cell aggregate)``."""
    start = time.monotonic()
    _wall, _bursts, grids = grid_pass(ctx, state, runner, born, seed, tracer)
    _ci_wall, hard = ci_pass(ctx, state, runner, born, seed, tracer)
    return time.monotonic() - start, grids, hard


def trace(ctx: RunContext, state: State, tracer: Tracer) -> None:
    from repro.sim.burst import BurstGenerator, MLECBurstEvaluator

    result = ctx.result
    runner, born = state.runner, state.born
    samples, evals = CallStats(), CallStats()
    tally = RunnerTally(workers=1)
    keep_going = loop_until(ctx.seconds, minimum=1)
    untraced = traced = 0.0
    seeds: list[int] = []
    tag = lambda: state.scheme  # noqa: E731 - read at call time
    while keep_going(len(seeds)):
        seeds.append(ctx.new_seed())
        untraced += full_rep(ctx, state, runner, born, seeds[-1])[0]
        with tracer.span(ROOT_LAYER, "rep", trace=f"rep-{seeds[-1]}"), tally.observe(runner), \
                patched(BurstGenerator, "sample", tracer, "sim.burst", samples, tag), \
                patched(MLECBurstEvaluator, "pdl_of_burst", tracer, "sim.burst", evals, tag):
            wall, grids, _hard = full_rep(ctx, state, runner, born, seeds[-1], tracer)
        traced += wall
        check_grids(ctx, grids)
    tracer.nest("sim.burst", "sim.batch")

    # batch="off" on the first rep's inputs must give the same heatmaps and
    # hard-cell aggregate; the wall difference is the batch engine's saving.
    off_wall, off_grids, off_hard = full_rep(ctx, state, *make_runner("off"), seeds[0])
    auto_wall, auto_grids, auto_hard = full_rep(ctx, state, runner, born, seeds[0])
    same = all(np.array_equal(off_grids[n], auto_grids[n], equal_nan=True) for n in SCHEMES)
    result.check(
        "batch=off reference is bit-identical", same and off_hard == auto_hard,
        f"grids equal: {same}; hard-cell aggregates equal: {off_hard == auto_hard}",
    )

    report_burst_calls(result, samples, evals, SCHEMES)
    tally.report(result)
    result.layer("sim.batch.saved_s", off_wall - auto_wall)
    for metric in ("executors.job_bytes", "executors.payload_bytes", "executors.roundtrip_s"):
        result.layer_absent(metric, "in-process runner: chunks never leave the process")
    result.layer("obs.trace_overhead", traced / untraced - 1.0)
