"""What every workload shares: the run context, checks, probes, metric names.

The benchmark runs from the root of a checkout and reaches the program
only through ``src/`` (put on ``sys.path`` here and on ``PYTHONPATH`` for
child processes).  ``BENCHMARK.json`` at the checkout root names the
metrics a run must print; :data:`PRINTED_ONLY` lists the
workload-specific end-to-end metrics, which are printed for every
workload but kept out of ``BENCHMARK.json`` because they have no value
on the other workloads (see ``perfbench/README.md``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
import resource
import selectors
import subprocess
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any

from procs import ProcessGroup
from stats import Outcomes
from tracing import CallStats, ops_span_seconds

CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Spans and the per-run layer report are written here when a run ends.
OUT_DIRNAME = ".perfbench_out"

#: Setup probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: A probe that is not ready within this many seconds fails the run.
PROBE_TIMEOUT_S = 90.0

#: End-to-end metrics printed for every workload but not gated (name, unit).
PRINTED_ONLY = (
    ("time_to_ci_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("cache_hit_p50_s", "s"),
    ("error_frac", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


def preflight() -> None:
    """Fail fast unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no program sources at {SRC / 'repro'}; run from the root of a "
            "checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def cli_argv(*args: str) -> list[str]:
    """Command line of ``mlec-sim`` run from this checkout's sources."""
    return [sys.executable, "-m", "repro.cli", *args]


def load_spec() -> dict[str, Any]:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclasses.dataclass
class Check:
    """One named correctness check, possibly run several times in a run."""

    name: str
    ok: bool
    detail: str
    runs: int = 1


@dataclasses.dataclass
class Result:
    """Everything one run measured, checked and counted."""

    #: End-to-end metric -> samples (gated and printed-only metrics).
    samples: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    #: End-to-end metric -> why it has no value on this workload.
    not_applicable: dict[str, str] = dataclasses.field(default_factory=dict)
    outcomes: Outcomes = dataclasses.field(default_factory=Outcomes)
    checks: dict[str, Check] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)
    #: Per-layer metric -> value (traced runs).
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Per-layer metric -> why it reads 0 on this workload.
    absent: dict[str, str] = dataclasses.field(default_factory=dict)
    self_times: dict[str, float] = dataclasses.field(default_factory=dict)
    traced_wall: float = 0.0

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(float(value))

    def check(self, name: str, ok: bool, detail: str) -> bool:
        """Record a check; a repeated check keeps its first failure's detail."""
        previous = self.checks.get(name)
        if previous is None:
            self.checks[name] = Check(name, bool(ok), detail)
        else:
            previous.runs += 1
            if previous.ok:
                previous.ok, previous.detail = bool(ok), detail
        return bool(ok)

    def layer(self, metric: str, value: float) -> None:
        self.layers[metric] = float(value)
        self.absent.pop(metric, None)

    def layer_absent(self, metric: str, reason: str) -> None:
        self.layers[metric] = 0.0
        self.absent[metric] = reason

    @property
    def correct(self) -> bool:
        return all(c.ok for c in self.checks.values())


@dataclasses.dataclass
class RunContext:
    """Inputs and resources of one run."""

    seed: int
    seconds: float
    run_dir: Path
    procs: ProcessGroup
    result: Result = dataclasses.field(default_factory=Result)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def new_seed(self) -> int:
        """A fresh program seed, drawn from the workload seed."""
        return self.rng.randrange(1, 2**31)


def counter(runner: Any, name: str) -> int:
    return int(runner.ops_metrics.snapshot()["counters"].get(name, 0))


@contextlib.contextmanager
def counted(result: Result, runner: Any, planned: int, what: str) -> Iterator[dict[str, int]]:
    """Count the body's sweep from the runner's counters, not the plan.

    On exit -- normal or by exception -- charges ``planned`` attempted
    operations, of which failed are the trials the runner did not
    complete plus its chunk retries (which also count steals and worker
    deaths), and fails a check when the runner's count disagrees with
    ``planned``.  The yielded dict holds ``completed`` once the body ends.
    """
    completed0 = counter(runner, "runtime.trials_completed")
    retries0 = counter(runner, "runtime.chunk_retries")
    tally = {"completed": 0}
    try:
        yield tally
    finally:
        completed = counter(runner, "runtime.trials_completed") - completed0
        retries = counter(runner, "runtime.chunk_retries") - retries0
        result.outcomes.add(planned, max(0, planned - completed) + retries)
        tally["completed"] = completed
        if completed != planned:
            result.check(
                "trials counted by runner", False,
                f"{what}: runner completed {completed} trials, plan was {planned}",
            )


_TALLIED = {
    "trials": "runtime.trials_completed",
    "batched": "sim.batch_trials",
    "demoted": "sim.batch_demotions",
    "steals": "runtime.steals",
    "deaths": "runtime.worker_deaths",
}


@dataclasses.dataclass
class RunnerTally:
    """Runner-side layer counts summed over the traced passes of a run."""

    workers: int
    passes: int = 0
    wall_s: float = 0.0
    chunks: int = 0
    compute_s: float = 0.0
    counts: dict[str, int] = dataclasses.field(default_factory=dict)

    @contextlib.contextmanager
    def observe(self, runner: Any) -> Iterator[None]:
        """Tally what ``runner`` did while the body ran its sweeps."""
        before = {key: counter(runner, name) for key, name in _TALLIED.items()}
        first = len(runner.ops_trace.records)
        start = time.monotonic()
        yield
        self.passes += 1
        self.wall_s += time.monotonic() - start
        records = runner.ops_trace.records[first:]
        self.chunks += ops_span_seconds(records, "span.chunk")[0]
        self.compute_s += ops_span_seconds(records, "span.attempt")[1]
        for key, name in _TALLIED.items():
            self.counts[key] = self.counts.get(key, 0) + counter(runner, name) - before[key]

    def report(self, result: Result) -> None:
        """Per-pass means of the runtime and batch-engine layer metrics."""
        n = max(1, self.passes)
        c = {key: self.counts.get(key, 0) / n for key in _TALLIED}
        result.layer("runtime.chunks", self.chunks / n)
        result.layer("runtime.trials_completed", c["trials"])
        result.layer("runtime.compute_s", self.compute_s / n)
        result.layer("runtime.overhead_s", (self.wall_s - self.compute_s / self.workers) / n)
        result.layer("runtime.steals", c["steals"])
        result.layer("runtime.worker_deaths", c["deaths"])
        result.layer("sim.batch.trials", c["batched"])
        result.layer("sim.batch.demotions", c["demoted"])
        tried = c["batched"] + c["demoted"]
        result.layer("sim.batch.useful_ratio", c["batched"] / tried if tried else 0.0)


def report_burst_calls(
    result: Result, samples: CallStats, evals: CallStats, schemes: Iterable[str],
) -> None:
    """Mean ``BurstGenerator.sample`` / ``pdl_of_burst`` call times, overall
    and per scheme (``C/D`` is spelled ``C-D`` in metric names)."""
    result.layer("sim.burst.sample_us", samples.mean_us())
    result.layer("sim.burst.eval_us", evals.mean_us())
    for name in schemes:
        suffix = name.replace("/", "-")
        result.layer(f"sim.burst.sample_us.{suffix}", samples.mean_us(name))
        result.layer(f"sim.burst.eval_us.{suffix}", evals.mean_us(name))


def rss_peak_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _read_line(proc: subprocess.Popen[bytes], timeout: float) -> bytes:
    assert proc.stdout is not None
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            return b""
    return proc.stdout.readline()


def probe(ctx: RunContext, argv: list[str]) -> float:
    """Seconds from starting ``argv`` until it prints ``ready``."""
    env = child_env()
    env["PERFBENCH_RUN_DIR"] = str(ctx.run_dir)
    start = time.monotonic()
    proc = ctx.procs.spawn(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    line = _read_line(proc, PROBE_TIMEOUT_S)
    elapsed = time.monotonic() - start
    assert proc.stdin is not None
    proc.stdin.close()  # tells the probe to tear down
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        pass  # stop() terminates it
    ctx.procs.stop(proc)
    if not line.startswith(b"ready"):
        raise BenchError(f"probe {argv[-1]!r} never became ready (got {line!r})")
    return elapsed


def setup_samples(ctx: RunContext, workload: str) -> list[float]:
    """``setup_s`` samples: fresh interpreters set the workload up."""
    argv = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(ctx.seed)]
    return [probe(ctx, argv) for _ in range(SETUP_PROBES)]


def import_samples() -> list[float]:
    """``import repro.cli`` timed inside fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True,
            check=True, timeout=PROBE_TIMEOUT_S,
        )
        samples.append(float(out.stdout.decode().strip()))
    return samples


def loop_until(seconds: float, minimum: int) -> Callable[[int], bool]:
    """``keep_going(done)``: true until ``seconds`` pass and ``minimum`` reps ran."""
    deadline = time.monotonic() + seconds

    def keep_going(done: int) -> bool:
        return done < minimum or time.monotonic() < deadline

    return keep_going
