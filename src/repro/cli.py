"""Command-line interface: ``mlec-sim``.

Operator-facing entry points over the library's analyses::

    mlec-sim info C/D --code 10+2/17+3
    mlec-sim burst C/C -y 60 -x 3 --exact
    mlec-sim repair D/D --code 10+2/17+3
    mlec-sim durability C/D --method RMIN --detection-minutes 1
    mlec-sim tradeoff C/D --top 10
    mlec-sim simulate C/D --months 3 --afr 0.05 --seed 7
    mlec-sim chaos --schemes C/C,D/D --trials 5 --seed 0

Code parameters are written ``kn+pn/kl+pl`` (MLEC).  All other knobs
default to the paper's §3 setup.  The Monte-Carlo subcommands (``burst``,
``simulate``, ``chaos``) accept ``--workers N`` to fan trials out over a
process pool; results are bitwise identical for any worker count.

Long campaigns are fault-tolerant: failed or crashed trial chunks are
retried (``--max-retries``), ``--checkpoint FILE`` journals completed
chunks so an interrupted sweep can be continued with
``mlec-sim resume FILE`` -- the resumed run re-executes the original
command and produces bitwise-identical results and artifacts.

Campaigns can span hosts: ``--backend tcp://HOST:PORT`` turns the
command into a chunk coordinator, and ``mlec-sim workers --connect
HOST:PORT`` processes (on any machine) pull chunk leases from it.  Dead
workers, stragglers, and partitions are absorbed by lease expiry and
work stealing; the journal records chunk ranges, never hosts, so a
checkpoint taken on one machine resumes on any fleet -- with results
byte-identical to a single-host run in every case.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from .core.config import MLECParams
from .core.scheme import MLEC_SCHEME_NAMES, MLECScheme, mlec_scheme_from_name
from .core.tolerance import mlec_tolerance
from .core.types import RepairMethod
from .obs import MetricsRegistry, Stopwatch, TraceRecorder

if TYPE_CHECKING:
    from .runtime import ResilientRunner, TrialRunner

__all__ = ["main", "parse_mlec_code"]


def parse_mlec_code(text: str) -> MLECParams:
    """Parse ``kn+pn/kl+pl`` (parentheses optional) into MLECParams."""
    try:
        return MLECParams.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_scheme_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scheme", choices=MLEC_SCHEME_NAMES,
        help="MLEC placement scheme (network/local)",
    )
    parser.add_argument(
        "--code", type=parse_mlec_code, default=MLECParams(10, 2, 17, 3),
        help="code parameters kn+pn/kl+pl (default: the paper's 10+2/17+3)",
    )


def _scheme_from(args: argparse.Namespace) -> MLECScheme:
    return mlec_scheme_from_name(args.scheme, args.code)


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for Monte-Carlo trials (default 1; results "
             "are identical for any worker count)",
    )
    parser.add_argument(
        "--batch", choices=("auto", "on", "off"), default="auto",
        help="vectorized batch-trial engine: 'auto' (default) engages it "
             "for large enough chunks, 'on' forces it, 'off' disables it; "
             "purely a speed knob -- results are bit-identical either way",
    )


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default="local", metavar="SPEC",
        help="executor backend: 'local' (default) or 'tcp://HOST:PORT' to "
             "bind a chunk coordinator that `mlec-sim workers` processes "
             "connect to (results are identical either way)",
    )
    parser.add_argument(
        "--lease-timeout", type=float, default=None, metavar="SECONDS",
        help="tcp backend: seconds before a straggler's chunk lease is "
             "speculatively re-dispatched to another worker (default 300)",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="journal completed trial chunks to FILE (JSONL) so an "
             "interrupted sweep can be continued with `mlec-sim resume`",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from an existing --checkpoint journal instead of "
             "refusing to overwrite it",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="times a failed/crashed trial chunk is retried before the "
             "sweep is abandoned (default 2; 0 disables retries)",
    )
    parser.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="SECONDS",
        help="per-chunk watchdog: a dispatched chunk exceeding this is "
             "killed and retried (pool mode, i.e. --workers > 1)",
    )


def _make_runner(args: argparse.Namespace) -> ResilientRunner:
    """Build the trial runner for a Monte-Carlo subcommand.

    Always a :class:`~repro.runtime.ResilientRunner` -- retry and salvage
    are on by default (``--max-retries 0`` disables retries); chunk
    journaling engages only when ``--checkpoint`` is given.  Results stay
    bitwise identical to a plain runner for any worker count.
    """
    from .runtime import ResilientRunner, RetryPolicy

    if args.max_retries < 0:
        raise ValueError(f"--max-retries must be >= 0, got {args.max_retries}")
    backend = None
    if args.backend != "local":
        from .runtime.executors import make_backend

        backend = make_backend(args.backend, lease_timeout=args.lease_timeout)
        if backend is not None:
            backend.start()
            host, port = backend.address
            # stderr, so stdout stays byte-identical to a local run.
            print(
                f"mlec-sim: tcp backend listening on {host}:{port}; start "
                f"workers with: mlec-sim workers --connect {host}:{port}",
                file=sys.stderr,
            )
    return ResilientRunner(
        workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
        policy=RetryPolicy(max_attempts=args.max_retries + 1),
        chunk_timeout=args.chunk_timeout,
        argv=getattr(args, "_argv", None),
        backend=backend,
        batch=args.batch,
    )


def _report_recovery(runner: ResilientRunner) -> None:
    """Close the journal and surface recovery facts (stderr, not stdout:
    stdout stays byte-identical between interrupted and clean runs)."""
    runner.close()
    if runner.backend is not None:
        runner.backend.shutdown()
    counters = runner.ops_metrics.snapshot()["counters"]
    # sim.batch_* and runtime.trials_* counters are routine throughput
    # telemetry (batch-engine usage, progress bookkeeping), not recovery
    # facts; only genuine recovery activity warrants the stderr summary.
    routine = ("sim.batch", "runtime.trials_")
    if any(
        isinstance(v, (int, float)) and v and not name.startswith(routine)
        for name, v in counters.items()
    ):
        print(runner.recovery_summary(), file=sys.stderr)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSONL event trace of every trial (deterministic: "
             "byte-identical for any --workers)",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write merged run metrics (counters/histograms) as JSON",
    )
    parser.add_argument(
        "--ops-trace", metavar="FILE", default=None,
        help="write the runner's operational trace -- schema-v2 span "
             "records (campaign/sweep/chunk/attempt, with host "
             "attribution) plus recovery events -- as JSONL; wall-clock "
             "timed and scheduling-dependent, unlike --trace",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="live trials/sec + ETA status line on stderr "
             "(stdout stays byte-identical to an unobserved run)",
    )
    parser.add_argument(
        "--progress-jsonl", metavar="FILE", default=None,
        help="append machine-readable progress snapshots to FILE (JSONL, "
             "one schema-versioned object per emission) for tailing",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve live OpenMetrics of the runner's operational counters "
             "on 127.0.0.1:PORT while the campaign runs (0 picks a free "
             "port; the bound address is printed on stderr)",
    )


def _attach_observability(
    args: argparse.Namespace,
    runner: TrialRunner,
    metrics: MetricsRegistry | None = None,
) -> Callable[[], None]:
    """Attach the live observability surfaces requested on the command line.

    Wires a :class:`~repro.obs.ProgressReporter` into the runner
    (``--progress`` / ``--progress-jsonl``) and starts the
    :class:`~repro.obs.MetricsExporter` pull endpoint
    (``--metrics-port``).  Everything renders to stderr or a sidecar
    file/socket -- stdout and the result artifacts stay byte-identical
    to an unobserved run.  Returns a stop callback the caller must
    invoke when the campaign ends (forces the final progress emission
    and unbinds the endpoint).
    """
    from .obs import MetricsExporter, ProgressReporter
    from .obs.export import to_openmetrics

    closers: list[Callable[[], None]] = []
    if args.progress or args.progress_jsonl:
        reporter = ProgressReporter(
            stream=sys.stderr if args.progress else None,
            jsonl_path=args.progress_jsonl,
        )
        runner.progress = reporter
        closers.append(reporter.close)
    if args.metrics_port is not None:
        registries = [runner.ops_metrics]
        if metrics is not None:
            registries.append(metrics)
        exporter = MetricsExporter(
            lambda: to_openmetrics(*registries), port=args.metrics_port
        )
        host, bound = exporter.start()
        print(
            f"mlec-sim: serving OpenMetrics on http://{host}:{bound}/metrics",
            file=sys.stderr,
        )
        closers.append(exporter.close)

    def stop() -> None:
        for close in closers:
            close()

    return stop


def _write_ops_trace(args: argparse.Namespace, runner: TrialRunner) -> None:
    """Write the runner-owned ops trace requested via ``--ops-trace``.

    Reported on stderr: span counts depend on wall clock and scheduling,
    so stdout must stay byte-identical to an unobserved run.
    """
    if not args.ops_trace:
        return
    runner.ops_trace.write_jsonl(args.ops_trace)
    print(
        f"mlec-sim: wrote {len(runner.ops_trace)} ops trace records "
        f"to {args.ops_trace}",
        file=sys.stderr,
    )


def _run_campaign(
    args: argparse.Namespace,
    runner: ResilientRunner,
    body: Callable[[TraceRecorder | None, MetricsRegistry | None], Any],
) -> Any:
    """Run ``body(trace, metrics)`` on ``runner`` under the observability
    the command line asked for, then write every requested artifact."""
    trace = TraceRecorder() if args.trace else None
    metrics = MetricsRegistry() if args.metrics else None
    obs_stop = _attach_observability(args, runner, metrics)
    try:
        result = body(trace, metrics)
    finally:
        obs_stop()
    _report_recovery(runner)
    _write_ops_trace(args, runner)
    if trace is not None:
        trace.write_jsonl(args.trace)
        print(f"wrote {len(trace)} trace records to {args.trace}")
    if metrics is not None:
        metrics.write_json(args.metrics)
        print(f"wrote metrics snapshot to {args.metrics}")
    return result


def _run_sweep(args: argparse.Namespace, **fields: Any) -> Any:
    """Run the sweep a ``burst``/``simulate`` command line denotes.

    The command builds the same :class:`~repro.service.spec.SweepSpec` a
    ``mlec-sim serve`` job would and executes its resolved plan, so
    offline and service results come from one definition of the work.
    """
    from .service.spec import SweepSpec

    plan = SweepSpec.from_json({
        "scheme": args.scheme,
        "code": str(args.code),
        "trials": args.trials,
        "seed": args.seed,
        "batch": args.batch,
        "collect_metrics": bool(args.metrics),
        "collect_trace": bool(args.trace),
        **fields,
    }).resolve()
    runner = _make_runner(args)
    return _run_campaign(
        args,
        runner,
        lambda trace, metrics: plan.execute(runner, metrics=metrics, trace=trace),
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_info(args: argparse.Namespace) -> int:
    scheme = _scheme_from(args)
    report = mlec_tolerance(scheme)
    print(f"scheme            : {scheme}")
    print(f"parity overhead   : {scheme.params.parity_fraction:.1%} of raw capacity")
    print(f"local pool        : {scheme.local_pool_disks} disks "
          f"({scheme.local_pool_capacity_bytes / 1e12:.0f} TB), "
          f"{scheme.total_local_pools} pools total")
    print(f"network pool      : {scheme.network_group_racks} racks x "
          f"{scheme.network_groups} group(s)")
    print("guaranteed tolerance:")
    print(f"  any disks       : {report.arbitrary_disks}")
    print(f"  whole racks     : {report.rack_failures}")
    print(f"  scattered bursts: y <= x + {report.disks_per_rack_scatter} "
          f"failures over x racks")
    return 0


def cmd_burst(args: argparse.Namespace) -> int:
    scheme = _scheme_from(args)
    if args.exact:
        if args.trace or args.metrics:
            raise ValueError(
                "--trace/--metrics need Monte-Carlo trials; "
                "drop --exact to collect telemetry"
            )
        if (
            args.ops_trace
            or args.progress
            or args.progress_jsonl
            or args.metrics_port is not None
        ):
            raise ValueError(
                "--ops-trace/--progress/--progress-jsonl/--metrics-port "
                "observe a Monte-Carlo campaign; drop --exact to use them"
            )
        if args.checkpoint or args.resume:
            raise ValueError(
                "--checkpoint/--resume need Monte-Carlo trials; "
                "drop --exact to checkpoint a sweep"
            )
        from .analysis.burst_dp import mlec_burst_pdl

        pdl = mlec_burst_pdl(scheme, args.failures, args.racks)
        kind = "exact DP (worst-case declustering)"
        detail = ""
    else:
        stats = _run_sweep(
            args, kind="burst", failures=args.failures, racks=args.racks
        )
        pdl = stats.mean
        kind = f"Monte-Carlo ({args.trials} trials)"
        detail = f"  95% CI +/- {stats.ci95_halfwidth:.3e}"
    print(f"PDL[{args.failures} failures across {args.racks} racks] = "
          f"{pdl:.3e}   [{kind}]{detail}")
    survivable = mlec_tolerance(scheme).survives_burst(args.failures, args.racks)
    print(f"guaranteed survivable: {'yes' if survivable else 'no'}")
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    from .repair.methods import CatastrophicRepairModel
    from .reporting import format_table

    scheme = _scheme_from(args)
    model = CatastrophicRepairModel(scheme, failed_disks=args.failed_disks)
    rows = []
    for method in RepairMethod:
        s = model.summary(method)
        rows.append([str(method), s["cross_rack_traffic_TB"],
                     s["network_time_h"], s["local_time_h"], s["total_time_h"]])
    print(format_table(
        ["method", "x-rack TB", "net h", "local h", "total h"], rows,
        title=f"Catastrophic pool repair on {scheme} "
              f"({model.failed_disks} failed disks):",
    ))
    return 0


def cmd_durability(args: argparse.Namespace) -> int:
    from .analysis.durability import mlec_durability_nines
    from .core.config import FailureConfig
    from .core.types import Seconds

    scheme = _scheme_from(args)
    failures = FailureConfig(
        annual_failure_rate=args.afr,
        detection_time=Seconds(args.detection_minutes * 60.0),
    )
    method = RepairMethod(args.method)
    nines = mlec_durability_nines(scheme, method, failures=failures)
    print(f"{scheme} with {method}: {nines:.1f} nines/year "
          f"(AFR {args.afr:.1%}, detection {args.detection_minutes:g} min)")
    return 0


def cmd_tradeoff(args: argparse.Namespace) -> int:
    from .analysis.tradeoff import mlec_tradeoff, pareto_front
    from .reporting import format_table

    points = pareto_front(mlec_tradeoff(args.scheme))[-args.top:]
    rows = [[p.config, round(p.durability_nines, 1),
             round(p.throughput_gb_per_s, 2)] for p in points]
    print(format_table(
        ["config", "nines/yr", "GB/s"], rows,
        title=f"{args.scheme} Pareto front (~30% parity overhead):",
    ))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scheme = _scheme_from(args)
    method = RepairMethod(args.method)
    watch = Stopwatch()
    results = _run_sweep(
        args, kind="simulate", months=args.months, afr=args.afr,
        method=args.method,
    )
    watch.stop()
    if args.trials == 1:
        result = results[0]
        print(f"simulated {args.months} months of {scheme} + {method} "
              f"at AFR {args.afr:.1%} (seed {args.seed}):")
        print(f"  disk failures        : {result.n_disk_failures}")
        print(f"  catastrophic pools   : {result.n_catastrophic_events}")
        print(f"  data loss events     : {len(result.data_loss_events)}")
        print(f"  cross-rack repair    : "
              f"{result.cross_rack_repair_bytes / 1e12:.3f} TB")
        print(f"  local repair         : "
              f"{result.local_repair_bytes / 1e15:.3f} PB")
        print(f"  elapsed              : {watch.summary(1)}")
        return 1 if result.lost_data else 0

    trials = len(results)
    losses = sum(bool(r.lost_data) for r in results)
    mean_failures = sum(r.n_disk_failures for r in results) / trials
    mean_catastrophic = sum(r.n_catastrophic_events for r in results) / trials
    mean_cross_tb = sum(r.cross_rack_repair_bytes for r in results) / trials / 1e12
    print(f"simulated {trials} x {args.months} months of {scheme} + {method} "
          f"at AFR {args.afr:.1%} (seed {args.seed}):")
    print(f"  trials with data loss: {losses}/{trials}")
    print(f"  mean disk failures   : {mean_failures:.1f}")
    print(f"  mean catastrophic    : {mean_catastrophic:.2f}")
    print(f"  mean cross-rack      : {mean_cross_tb:.3f} TB")
    print(f"  elapsed              : {watch.summary(trials)}")
    return 1 if losses else 0


def cmd_traffic(args: argparse.Namespace) -> int:
    from .analysis.markov import local_pool_catastrophic_rate
    from .core.config import LRCParams, SLECParams
    from .core.scheme import LRCScheme, SLECScheme
    from .core.types import Level, Placement
    from .repair.traffic_comparison import (
        lrc_annual_cross_rack_traffic,
        mlec_annual_cross_rack_traffic,
        slec_annual_cross_rack_traffic,
    )
    from .reporting import format_table

    mlec = _scheme_from(args)
    pool_rate = local_pool_catastrophic_rate(mlec) * mlec.total_local_pools
    rows = []
    for method in RepairMethod:
        rate = mlec_annual_cross_rack_traffic(mlec, method, pool_rate)
        rows.append([f"MLEC {mlec.name} {method}", rate.tb_per_day])
    slec = SLECScheme(
        SLECParams(args.slec_k, args.slec_p), Level.NETWORK,
        Placement.DECLUSTERED, mlec.dc,
    )
    rows.append([f"Net-Dp-S ({args.slec_k}+{args.slec_p})",
                 slec_annual_cross_rack_traffic(slec).tb_per_day])
    lrc = LRCScheme(LRCParams(args.lrc_k, args.lrc_l, args.lrc_r), mlec.dc)
    rows.append([f"LRC-Dp ({args.lrc_k},{args.lrc_l},{args.lrc_r})",
                 lrc_annual_cross_rack_traffic(lrc).tb_per_day])
    print(format_table(
        ["scheme", "cross-rack TB/day"], rows,
        title="Expected cross-rack repair traffic (steady state):",
    ))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import ChaosCampaign, standard_scenarios

    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    if not schemes:
        raise ValueError("--schemes must name at least one MLEC scheme")
    scenarios = standard_scenarios()
    if args.scenario:
        by_name = {s.name: s for s in scenarios}
        unknown = [n for n in args.scenario if n not in by_name]
        if unknown:
            raise ValueError(
                f"unknown scenario(s) {unknown}; "
                f"available: {sorted(by_name)}"
            )
        scenarios = tuple(by_name[n] for n in args.scenario)
    runner = _make_runner(args)
    campaign = ChaosCampaign(
        schemes=schemes, params=args.code, trials=args.trials,
        scenarios=scenarios, runner=runner,
    )
    watch = Stopwatch()
    report = _run_campaign(
        args,
        runner,
        lambda trace, metrics: campaign.run(
            seed=args.seed, trace=trace, metrics=metrics
        ),
    )
    watch.stop()
    print(report.to_text())
    total_trials = len(report.scenarios) * len(report.schemes) * report.trials
    print(f"elapsed: {watch.summary(total_trials)}")
    return 1 if report.total_invariant_violations else 0


def cmd_workers(args: argparse.Namespace) -> int:
    """Serve trial chunks to a ``--backend tcp://...`` coordinator.

    Stateless by design: all scheduling, retry, and checkpoint state
    lives with the coordinator, so workers can be added, killed, or
    partitioned at any time without affecting results.
    """
    from .runtime.executors import parse_backend_spec
    from .runtime.executors.worker import run_worker_fleet

    _kind, address = parse_backend_spec(f"tcp://{args.connect}")
    assert address is not None
    host, port = address
    if args.processes < 1:
        raise ValueError(f"--processes must be >= 1, got {args.processes}")
    print(
        f"mlec-sim: {args.processes} worker(s) serving {host}:{port}",
        file=sys.stderr,
    )
    code = run_worker_fleet(
        host,
        port,
        processes=args.processes,
        connect_timeout=args.connect_timeout,
        stay=args.stay,
    )
    if code == 2:
        print(
            f"mlec-sim: error: no coordinator reachable at {host}:{port} "
            f"within {args.connect_timeout:g}s",
            file=sys.stderr,
        )
    return code


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the crash-safe simulation service daemon.

    Jobs are submitted as JSON over HTTP, executed through a
    checkpointing :class:`~repro.runtime.ResilientRunner`, deduped by
    content hash, and survive ``kill -9`` of the daemon: restart it on
    the same ``--state-dir`` and every unfinished job resumes from its
    journal with byte-identical results.  See docs/service.md.
    """
    from pathlib import Path

    from .service import ServiceConfig, serve

    if args.queue_capacity < 1:
        raise ValueError(
            f"--queue-capacity must be >= 1, got {args.queue_capacity}"
        )
    config = ServiceConfig(
        state_dir=Path(args.state_dir),
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        queue_capacity=args.queue_capacity,
        retry_after=args.retry_after,
    )
    return serve(config, announce=print)


def cmd_resume(args: argparse.Namespace) -> int:
    """Continue an interrupted sweep by replaying its recorded command.

    The checkpoint's meta record stores the original ``mlec-sim`` argv;
    replaying it (with ``--resume`` forced and the checkpoint path pinned
    to the journal being resumed) reproduces the original stdout and
    artifacts exactly, with already-journaled chunks salvaged instead of
    re-run.
    """
    from .runtime import CheckpointError, read_checkpoint_argv

    args.checkpoint = args.file  # so shared error handling can hint at it
    argv = read_checkpoint_argv(args.file)
    if not argv or argv[0] == "resume":
        raise CheckpointError(
            f"{args.file} records the command {argv!r}, "
            "which cannot be replayed"
        )
    new_args = build_parser().parse_args(argv)
    if not hasattr(new_args, "checkpoint"):
        raise CheckpointError(
            f"{args.file} was written by `mlec-sim {argv[0]}`, "
            "which does not support checkpoints"
        )
    new_args.resume = True
    new_args.checkpoint = args.file
    if args.workers is not None:
        new_args.workers = args.workers
    if args.max_retries is not None:
        new_args.max_retries = args.max_retries
    if args.backend is not None and args.connect is not None:
        raise ValueError("pass --backend or --connect, not both")
    override = args.backend
    if args.connect is not None:
        override = f"tcp://{args.connect}"
    if override is not None:
        from .runtime.executors import parse_backend_spec

        # Fail fast with the spec diagnostic before replaying anything.
        parse_backend_spec(override)
        if not hasattr(new_args, "backend"):
            raise CheckpointError(
                f"{args.file} was written by `mlec-sim {argv[0]}`, which "
                "does not run trial sweeps; --backend/--connect do not apply"
            )
        # Safe to swap: the journal header pins fn/args/seed/trials by
        # sha256 (validated when the sweep reopens), and chunk records
        # are host-independent, so the backend can only change *where*
        # chunks run, never what the resumed artifacts contain.
        new_args.backend = override
    new_args._argv = argv
    result: int = new_args.func(new_args)
    return result


def cmd_trace_report(args: argparse.Namespace) -> int:
    from .obs import read_jsonl, summarize_trace

    records = read_jsonl(args.file)
    print(summarize_trace(records, top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlec-sim",
        description="Multi-level erasure coding analysis "
                    "(SC '23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="scheme geometry and guaranteed tolerance")
    _add_scheme_args(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("burst", help="PDL of a correlated failure burst")
    _add_scheme_args(p)
    p.add_argument("-y", "--failures", type=int, required=True)
    p.add_argument("-x", "--racks", type=int, required=True)
    p.add_argument("--exact", action="store_true",
                   help="exact DP instead of Monte-Carlo")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_workers_arg(p)
    _add_backend_args(p)
    _add_resilience_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_burst)

    p = sub.add_parser("repair", help="catastrophic-pool repair comparison")
    _add_scheme_args(p)
    p.add_argument("--failed-disks", type=int, default=None)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("durability", help="one-year durability in nines")
    _add_scheme_args(p)
    p.add_argument("--method", choices=[m.value for m in RepairMethod],
                   default="RMIN")
    p.add_argument("--afr", type=float, default=0.01)
    p.add_argument("--detection-minutes", type=float, default=30.0)
    p.set_defaults(func=cmd_durability)

    p = sub.add_parser("tradeoff", help="durability/throughput Pareto front")
    p.add_argument("scheme", choices=MLEC_SCHEME_NAMES)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("traffic", help="repair network traffic vs SLEC/LRC")
    _add_scheme_args(p)
    p.add_argument("--slec-k", type=int, default=7)
    p.add_argument("--slec-p", type=int, default=3)
    p.add_argument("--lrc-k", type=int, default=14)
    p.add_argument("--lrc-l", type=int, default=2)
    p.add_argument("--lrc-r", type=int, default=4)
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser("simulate", help="event-driven full-system simulation")
    _add_scheme_args(p)
    p.add_argument("--months", type=float, default=12.0)
    p.add_argument("--afr", type=float, default=0.01)
    p.add_argument("--method", choices=[m.value for m in RepairMethod],
                   default="RMIN")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trials", type=int, default=1,
        help="independent missions to simulate, each on its own stream "
             "keyed under --seed",
    )
    _add_workers_arg(p)
    _add_backend_args(p)
    _add_resilience_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "chaos",
        help="fault-injection campaign with invariant auditing",
    )
    p.add_argument(
        "--schemes", default=",".join(MLEC_SCHEME_NAMES),
        help="comma-separated scheme names (default: all four)",
    )
    p.add_argument(
        "--code", type=parse_mlec_code, default=MLECParams(10, 2, 17, 3),
        help="code parameters kn+pn/kl+pl (default: the paper's 10+2/17+3)",
    )
    p.add_argument(
        "--scenario", action="append", default=None,
        help="restrict to a named scenario (repeatable; default: all)",
    )
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_workers_arg(p)
    _add_backend_args(p)
    _add_resilience_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "resume",
        help="continue an interrupted Monte-Carlo sweep from its checkpoint",
    )
    p.add_argument(
        "file",
        help="checkpoint journal written via --checkpoint (trusted input: "
        "chunk payloads are pickled, so only resume journals you wrote)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="override the worker count of the original command "
             "(results are identical either way)",
    )
    p.add_argument(
        "--max-retries", type=int, default=None,
        help="override the retry budget of the original command",
    )
    p.add_argument(
        "--backend", default=None, metavar="SPEC",
        help="override the executor backend of the original command "
             "('local' or 'tcp://HOST:PORT'); the journal's chunk records "
             "are host-independent, so results are identical either way",
    )
    p.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="shorthand for --backend tcp://HOST:PORT",
    )
    p.set_defaults(func=cmd_resume, checkpoint=None, resume=False)

    p = sub.add_parser(
        "workers",
        help="serve Monte-Carlo trial chunks to a tcp:// coordinator",
    )
    p.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (printed on stderr by the campaign "
             "command run with --backend tcp://HOST:PORT)",
    )
    p.add_argument(
        "--processes", type=int, default=1,
        help="worker processes to run; each holds one chunk lease at a "
             "time (default 1)",
    )
    p.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="SECONDS",
        help="keep retrying the initial connection this long, so workers "
             "may be started before the coordinator (default 30)",
    )
    p.add_argument(
        "--stay", action="store_true",
        help="outlive coordinator restarts: after a clean shutdown or a "
             "dropped connection, keep re-dialing (backoff capped at 5s) "
             "and serve the next coordinator -- the fleet mode for a "
             "long-lived `mlec-sim serve` daemon",
    )
    p.set_defaults(func=cmd_workers)

    p = sub.add_parser(
        "serve",
        help="crash-safe simulation service: HTTP job queue with durable "
             "checkpoints and a dedupe cache",
    )
    p.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="durable service state: job WAL, per-job checkpoint journals "
             "and result artifacts, endpoint.json (trusted input: job "
             "checkpoints carry pickled payloads, so point this only at "
             "state written by daemons you ran)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="listen address (default 127.0.0.1)")
    p.add_argument(
        "--port", type=int, default=0,
        help="listen port; 0 picks a free one, published in "
             "<state-dir>/endpoint.json (default 0)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per job sweep (default 1; results are "
             "identical for any worker count; batch mode comes from each "
             "job's spec, not a daemon flag)",
    )
    p.add_argument(
        "--backend", default="local", metavar="SPEC",
        help="chunk executor for job sweeps: 'local' or 'tcp://HOST:PORT' "
             "to coordinate an `mlec-sim workers --stay` fleet "
             "(default local)",
    )
    p.add_argument(
        "--queue-capacity", type=int, default=64, metavar="N",
        help="admission bound: submissions beyond N queued jobs get "
             "HTTP 429 + Retry-After (default 64)",
    )
    p.add_argument(
        "--retry-after", type=float, default=5.0, metavar="SECONDS",
        help="Retry-After hint attached to 429/503 responses (default 5)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "trace-report",
        help="summarize a JSONL trace written via --trace or --ops-trace",
    )
    p.add_argument("file", help="trace file (JSONL; v1 event records and "
                                "v2 span records both understood)")
    p.add_argument("--top", type=int, default=10,
                   help="event kinds / pools / span children to show "
                        "(default 10)")
    p.set_defaults(func=cmd_trace_report)

    # Listed for --help only: main() hands `lint ...` to simlint's own
    # parser untouched, so its options are declared once.
    sub.add_parser(
        "lint",
        help="domain-aware static analysis (simlint) over the source tree",
        add_help=False,
    )

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run one subcommand under the shared error-handling policy.

    Every subcommand -- burst, simulate, chaos, resume, and the rest --
    maps failures to the same exit codes and stderr diagnostics:
    ``TrialExecutionError``/``CheckpointError``/``ValueError``/``OSError``
    exit 2 with a one-line message (plus salvage and resume hints when a
    checkpoint is in play), Ctrl-C exits 130 with a resume hint.
    """
    from .runtime import CheckpointError, TrialExecutionError
    from .runtime.executors import BackendUnavailable

    def hint_resume() -> None:
        checkpoint = getattr(args, "checkpoint", None)
        if checkpoint:
            print(
                f"mlec-sim: continue with: mlec-sim resume {checkpoint}",
                file=sys.stderr,
            )

    try:
        result: int = args.func(args)
        return result
    except TrialExecutionError as exc:
        first_line = str(exc).splitlines()[0] if str(exc) else "trial failed"
        print(f"mlec-sim: error: {first_line}", file=sys.stderr)
        if exc.completed_trials:
            print(
                f"mlec-sim: salvaged {exc.completed_trials} completed "
                "trial(s) before the failure",
                file=sys.stderr,
            )
        hint_resume()
        return 2
    except CheckpointError as exc:
        print(f"mlec-sim: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("mlec-sim: interrupted", file=sys.stderr)
        hint_resume()
        return 130
    except (BackendUnavailable, ValueError, OSError) as exc:
        print(f"mlec-sim: error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Invalid inputs (bad scheme/code/topology combinations, broken traces,
    out-of-range fault domains) exit with code 2 and a one-line diagnostic
    on stderr instead of a traceback.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["lint"]:
        from .devtools.simlint.cli import main as simlint_main

        return simlint_main(argv[1:])
    args = build_parser().parse_args(argv)
    # Recorded into --checkpoint journals so `mlec-sim resume` can replay
    # the exact command that produced them.
    args._argv = list(argv)
    return _dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
