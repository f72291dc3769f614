"""The determinism contract, proved as one property.

Result artifacts are a pure function of ``(fn, args, trials, seed)``.
This module runs small canonical sweeps of every trial function -- burst
(three cells), simulate, chaos and a burst grid -- under a hard-coded
all-pairs table of execution factors, and compares every result
artifact a case writes byte for byte against one baseline per sweep:

* **workers** -- 1 or 2;
* **backend** -- the local path, or a loopback TCP coordinator with two
  worker hosts;
* **batch** -- the vectorized batch engine on or off (chaos bypasses it);
* **observation** -- cumulative: ``metrics`` only; ``trace`` adds the
  result trace; ``ops`` also adds ``--ops-trace`` and
  ``--progress-jsonl``.  The grid has no result telemetry, so its levels
  are ``plain`` and ``ops`` (a progress stream and the ops trace);
* **path** -- ``clean``; ``resume``, an interrupted sweep resumed from
  its journal; or ``service``, the same sweep as a ``mlec-sim serve``
  job (burst and simulate only: the job spec's kinds).

How a ``resume`` case interrupts its sweep depends on where it runs:

* local backend: the coordinator runs as a subprocess that holds still
  once its journal has a chunk record; the test then SIGKILLs its whole
  process group, checks that nothing survives and no artifact exists,
  and ``mlec-sim resume`` finishes the sweep at the other worker count;
* TCP backend: after the first journaled chunk, one of the two worker
  hosts is SIGKILLed and the sweep finishes on the survivor; then
  ``mlec-sim resume --backend local`` replays the full journal;
* grid (in-process): the runner is stopped at a chunk boundary and a
  fresh ``ResilientRunner(checkpoint=..., resume=True)`` at the other
  worker count finishes it.

The baseline of every sweep is workers 1, local, batch off, traced and
clean (the grid's: a workers-1 runner, unobserved).  stdout is compared
too, with the ``elapsed`` lines dropped and the case directory masked.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import time
import urllib.request
from dataclasses import dataclass

import numpy as np
import pytest
from _procs import (
    free_port,
    group_survivors,
    http,
    kill_group,
    reap_worker_procs,
    spawn_worker_procs,
    start_daemon,
    start_python,
    wait_endpoint,
)

from repro.cli import main
from repro.core.config import MLECParams
from repro.core.scheme import mlec_scheme_from_name
from repro.obs import ProgressReporter, parse_openmetrics, read_jsonl
from repro.runtime import ResilientRunner, SweepStopped, TrialRunner
from repro.runtime.executors import make_backend
from repro.sim.burst import MLECBurstEvaluator, burst_pdl_grid

#: Seconds any single wait may take before the case fails.
DEADLINE = 120.0


@dataclass(frozen=True)
class Sweep:
    """One canonical sweep and the factor levels that apply to it."""

    argv: tuple[str, ...] | None  # the CLI command (None: in-process grid)
    spec: dict | None  # the same sweep as a service job (None: no service)
    levels: dict


_CLI_LEVELS = {
    "workers": (1, 2),
    "backend": ("local", "tcp"),
    "batch": ("on", "off"),
    "observation": ("metrics", "trace", "ops"),
    "path": ("clean", "resume", "service"),
}

SWEEPS = {
    "burst-cc": Sweep(
        ("burst", "C/C", "-y", "36", "-x", "6", "--trials", "400",
         "--seed", "7"),
        {"kind": "burst", "scheme": "C/C", "failures": 36, "racks": 6,
         "trials": 400, "seed": 7},
        _CLI_LEVELS,
    ),
    "burst-dd": Sweep(
        ("burst", "D/D", "-y", "48", "-x", "12", "--trials", "400",
         "--seed", "7"),
        {"kind": "burst", "scheme": "D/D", "failures": 48, "racks": 12,
         "trials": 400, "seed": 7},
        _CLI_LEVELS,
    ),
    # The two cells above lose no data in any trial, so their artifacts
    # cannot show a trial drawing from the wrong stream; this one can.
    "burst-dd-60x3": Sweep(
        ("burst", "D/D", "-y", "60", "-x", "3", "--trials", "100",
         "--seed", "7"),
        {"kind": "burst", "scheme": "D/D", "failures": 60, "racks": 3,
         "trials": 100, "seed": 7},
        _CLI_LEVELS,
    ),
    "simulate": Sweep(
        ("simulate", "C/C", "--months", "3", "--trials", "50",
         "--seed", "11"),
        {"kind": "simulate", "scheme": "C/C", "months": 3, "afr": 0.01,
         "trials": 50, "seed": 11},
        _CLI_LEVELS,
    ),
    "chaos": Sweep(
        ("chaos", "--schemes", "C/C,D/D", "--trials", "6", "--seed", "5"),
        None,
        {
            "workers": (1, 2),
            "backend": ("local", "tcp"),
            "observation": ("metrics", "trace", "ops"),
            "path": ("clean", "resume"),
        },
    ),
    "grid": Sweep(
        None,
        None,
        {
            "workers": (1, 2),
            "backend": ("local", "tcp"),
            "batch": ("on", "off"),
            "observation": ("plain", "ops"),
            "path": ("clean", "resume"),
        },
    ),
}

#: The D/D grid: every cell feasible and losing data in most of its
#: bursts, so a cell drawn from the wrong stream changes its value; the
#: classifier decides some bursts and demotes the rest to the scalar path.
GRID = {"failures": (60, 75, 90), "racks": (3, 6), "trials": 10, "seed": 3}

# (workers, backend, batch, observation, path); the first row of each
# table is the sweep's baseline.  The two CLI tables are both all-pairs;
# using both puts more of the remaining combinations under test.
_CLI_TABLE_A = (
    (1, "local", "off", "trace", "clean"),
    (2, "tcp", "on", "metrics", "clean"),
    (1, "local", "on", "ops", "resume"),
    (2, "local", "off", "metrics", "service"),
    (2, "tcp", "off", "trace", "resume"),
    (1, "tcp", "on", "trace", "service"),
    (2, "tcp", "off", "ops", "clean"),
    (1, "local", "on", "metrics", "resume"),
)
_CLI_TABLE_B = (
    (1, "local", "off", "trace", "clean"),
    (2, "tcp", "on", "ops", "clean"),
    (2, "local", "on", "metrics", "resume"),
    (1, "tcp", "off", "metrics", "service"),
    (1, "local", "off", "ops", "resume"),
    (2, "local", "on", "trace", "service"),
    (1, "tcp", "on", "trace", "resume"),
    (2, "local", "off", "metrics", "clean"),
)

TABLES = {
    "burst-cc": _CLI_TABLE_A,
    "burst-dd": _CLI_TABLE_B,
    "burst-dd-60x3": _CLI_TABLE_A,
    "simulate": _CLI_TABLE_B,
    "chaos": (
        (1, "local", None, "trace", "clean"),
        (2, "tcp", None, "trace", "resume"),
        (2, "tcp", None, "metrics", "clean"),
        (1, "local", None, "metrics", "resume"),
        (1, "tcp", None, "ops", "clean"),
        (2, "local", None, "ops", "resume"),
    ),
    "grid": (
        (1, "local", "off", "plain", "clean"),
        (2, "tcp", "on", "ops", "clean"),
        (1, "local", "on", "ops", "resume"),
        (2, "tcp", "off", "plain", "resume"),
        (2, "local", "on", "plain", "clean"),
        (1, "tcp", "off", "ops", "clean"),
    ),
}


@dataclass(frozen=True)
class Case:
    sweep: str
    workers: int
    backend: str
    batch: str | None
    observation: str
    path: str

    @property
    def id(self):
        batch = "" if self.batch is None else f"-batch-{self.batch}"
        return (f"{self.sweep}-w{self.workers}-{self.backend}{batch}-"
                f"{self.observation}-{self.path}")

    def factors(self):
        """The levels of the factors that apply to this case's sweep."""
        return {k: getattr(self, k) for k in SWEEPS[self.sweep].levels}


CASES = [Case(name, *row) for name, table in TABLES.items() for row in table]
BASELINES = {name: Case(name, *table[0]) for name, table in TABLES.items()}


def _applies(combo):
    """Whether a factor-level assignment is a case that can run.

    A service job collects at most its result metrics and trace: the
    ops trace and progress stream belong to a CLI campaign."""
    return not (combo.get("path") == "service"
                and combo.get("observation") == "ops")


def test_table_covers_every_applicable_pair():
    for name, sweep in SWEEPS.items():
        rows = [c.factors() for c in CASES if c.sweep == name]
        base = dict(workers=1, backend="local", batch="off", path="clean",
                    observation="trace" if sweep.argv else "plain")
        assert BASELINES[name].factors() == {k: base[k] for k in sweep.levels}
        for row in rows:
            assert set(row) == set(sweep.levels), (name, row)
            assert all(row[k] in sweep.levels[k] for k in row), (name, row)
            assert _applies(row), (name, row)
        names = list(sweep.levels)
        combos = [
            dict(zip(names, values))
            for values in itertools.product(*sweep.levels.values())
        ]
        needed = {
            (a, combo[a], b, combo[b])
            for combo in combos if _applies(combo)
            for a, b in itertools.combinations(names, 2)
        }
        covered = {
            (a, row[a], b, row[b])
            for row in rows
            for a, b in itertools.combinations(names, 2)
        }
        assert needed - covered == set(), name
        assert len(rows) == len({tuple(r.values()) for r in rows}), name


# ----------------------------------------------------------------------
# Running a case
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one run left behind: masked stdout and result artifacts."""

    stdout: list[str] | None  # None: a service job prints nothing
    code: int
    files: dict[str, bytes]


def _masked(out, directory):
    return [
        line.replace(str(directory), "DIR") for line in out.splitlines()
        if "elapsed" not in line
    ]


def _result_files(observation):
    names = ["metrics.json"]
    if observation in ("trace", "ops"):
        names.append("trace.jsonl")
    return names


def _cli_argv(case, directory):
    argv = [*SWEEPS[case.sweep].argv, "--workers", str(case.workers),
            "--metrics", str(directory / "metrics.json")]
    if case.batch is not None:
        argv += ["--batch", case.batch]
    if case.observation in ("trace", "ops"):
        argv += ["--trace", str(directory / "trace.jsonl")]
    if case.observation == "ops":
        argv += ["--ops-trace", str(directory / "ops.jsonl"),
                 "--progress-jsonl", str(directory / "progress.jsonl")]
    if case.path == "resume":
        argv += ["--checkpoint", str(directory / "ck.jsonl")]
    return argv


def _read_files(directory, observation):
    return {
        name: (directory / name).read_bytes()
        for name in _result_files(observation)
    }


def _first_chunk_hook(monkeypatch, action):
    """Call ``action(runner)`` once, right after the first chunk of a
    sweep completes (and is journaled, when the runner keeps a journal)."""
    record = ResilientRunner._record_chunk
    fired = []

    def hooked(self, *args):
        record(self, *args)
        if not fired:
            fired.append(True)
            action(self)

    monkeypatch.setattr(ResilientRunner, "_record_chunk", hooked)
    return fired


def _poll(condition, what):
    deadline = time.monotonic() + DEADLINE
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _salvaged(err):
    match = re.search(r"(\d+) salvaged from checkpoint", err)
    return int(match.group(1)) if match else 0


#: A CLI process that stops dead once its journal holds a chunk record,
#: so the SIGKILL that follows lands mid-sweep however fast the sweep is.
_HOLD_AFTER_FIRST_CHUNK = """\
import sys
import threading

from repro.runtime import ResilientRunner

record = ResilientRunner._record_chunk


def hold(self, *args):
    record(self, *args)
    threading.Event().wait()


ResilientRunner._record_chunk = hold
from repro.cli import main

sys.exit(main(sys.argv[1:]))
"""


def _run_cli(case, directory, capsys, monkeypatch):
    argv = _cli_argv(case, directory)
    if case.backend == "local" and case.path == "resume":
        return _sigkill_coordinator_then_resume(case, directory, argv, capsys)

    procs = []
    if case.backend == "tcp":
        port = free_port()
        argv += ["--backend", f"tcp://127.0.0.1:{port}"]
        # Workers first: they retry-connect until the coordinator binds.
        procs = spawn_worker_procs(("127.0.0.1", port), 2)
    scrape = []
    if case.sweep == "simulate" and case.observation == "ops":
        port = free_port()
        argv += ["--metrics-port", str(port)]
        url = f"http://127.0.0.1:{port}/metrics"
        _first_chunk_hook(monkeypatch, lambda runner: scrape.append(
            urllib.request.urlopen(url, timeout=30).read().decode()))
    if case.path == "resume":  # on TCP: a worker host dies mid-sweep
        victim, survivor = procs

        def kill_one_host(runner):
            _poll(lambda: runner.backend.capacity() >= 2, "both hosts")
            victim.kill()
            victim.join(timeout=DEADLINE)
            _poll(lambda: runner.backend.capacity() < 2, "the host death")
            assert survivor.is_alive()

        fired = _first_chunk_hook(monkeypatch, kill_one_host)
    try:
        code = main(argv)
    finally:
        reap_worker_procs(procs)
    out = capsys.readouterr()
    outcome = Outcome(_masked(out.out, directory), code,
                      _read_files(directory, case.observation))
    if scrape:
        _check_fullest_observation(directory, scrape[0], capsys)
    if case.path == "resume":
        assert fired and victim.exitcode == -signal.SIGKILL
        # The full journal replays on the local backend, at the other
        # worker count, to the same bytes.
        for name in outcome.files:
            os.unlink(directory / name)
        resumed = main(["resume", str(directory / "ck.jsonl"),
                        "--backend", "local",
                        "--workers", str(3 - case.workers)])
        out = capsys.readouterr()
        assert _salvaged(out.err) > 0
        replay = Outcome(_masked(out.out, directory), resumed,
                         _read_files(directory, case.observation))
        assert replay == outcome
    return outcome


def _sigkill_coordinator_then_resume(case, directory, argv, capsys):
    journal = directory / "ck.jsonl"
    proc = start_python("-c", _HOLD_AFTER_FIRST_CHUNK, *argv)
    try:
        def journaled_chunk():
            assert proc.poll() is None, "the sweep ended before the kill"
            if not journal.exists():
                return False
            # Only complete lines count: a big chunk record is written in
            # pieces, and a torn tail is dropped on resume.
            data = journal.read_bytes()
            return b'"kind":"chunk"' in data[:data.rfind(b"\n") + 1]

        _poll(journaled_chunk, "a journaled chunk")
        os.killpg(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=DEADLINE) == -signal.SIGKILL
    finally:
        kill_group(proc)
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=DEADLINE)
    assert group_survivors(proc.pid) == []
    # Result artifacts are written when the sweep ends: none exist yet.
    for name in _result_files(case.observation):
        assert not (directory / name).exists(), name

    other = 3 - case.workers
    code = main(["resume", str(journal), "--workers", str(other)])
    out = capsys.readouterr()
    assert _salvaged(out.err) > 0
    return Outcome(_masked(out.out, directory), code,
                   _read_files(directory, case.observation))


def _run_service(case, directory):
    state = directory / "state"
    state.mkdir()
    backend, procs = "local", []
    if case.backend == "tcp":
        port = free_port()
        backend = f"tcp://127.0.0.1:{port}"
        procs = spawn_worker_procs(("127.0.0.1", port), 2)
    payload = dict(
        SWEEPS[case.sweep].spec, batch=case.batch, collect_metrics=True,
        collect_trace=case.observation == "trace",
    )
    proc = start_daemon(state, backend, workers=case.workers)
    try:
        info = wait_endpoint(state, proc)
        status, body = http(info, "POST", "/jobs", payload)
        assert status == 202, body
        job_id = body["job"]["job_id"]
        job = {}

        def terminal():
            _status, body = http(info, "GET", f"/jobs/{job_id}")
            job.update(body["job"])
            return job["terminal"]

        _poll(terminal, f"job {job_id}")
        assert job["state"] == "done", job
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=DEADLINE) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=DEADLINE)
        kill_group(proc)
        reap_worker_procs(procs)
    assert group_survivors(proc.pid) == []
    return Outcome(None, 0, _read_files(state / "jobs" / job_id,
                                        case.observation))


def _grid(runner):
    evaluator = MLECBurstEvaluator(
        mlec_scheme_from_name("D/D", MLECParams(10, 2, 17, 3)))
    values = burst_pdl_grid(
        evaluator, np.array(GRID["failures"]), np.array(GRID["racks"]),
        trials=GRID["trials"], seed=GRID["seed"], runner=runner,
    )
    return Outcome(None, 0, {"grid": values.tobytes()})


def _run_grid(case, directory, monkeypatch):
    journal = directory / "ck.jsonl" if case.path == "resume" else None
    backend, procs = None, []
    if case.backend == "tcp":
        backend = make_backend(f"tcp://127.0.0.1:{free_port()}")
        backend.start()
        procs = spawn_worker_procs(backend.address, 2)
    reporters = []

    def observed(runner):
        # Like a resumed CLI run, each runner streams its own progress
        # into the same JSONL file.
        if case.observation == "ops":
            reporters.append(
                ProgressReporter(jsonl_path=directory / "progress.jsonl"))
            runner.progress = reporters[-1]
        return runner

    runner = observed(ResilientRunner(
        workers=case.workers, backend=backend, batch=case.batch,
        checkpoint=journal,
    ))
    try:
        if case.path == "resume":
            _first_chunk_hook(monkeypatch, lambda r: r.request_stop())
            with pytest.raises(SweepStopped):
                _grid(runner)
            monkeypatch.undo()
            runner = observed(ResilientRunner(
                workers=3 - case.workers, batch=case.batch,
                checkpoint=journal, resume=True,
            ))
        outcome = _grid(runner)
    finally:
        if backend is not None:
            backend.shutdown()
        reap_worker_procs(procs)
        for reporter in reporters:
            reporter.close()
    if case.path == "resume":
        salvaged = runner.ops_metrics.snapshot()["counters"]
        assert salvaged["runtime.chunks_salvaged"] > 0
    if case.observation == "ops":
        runner.ops_trace.write_jsonl(directory / "ops.jsonl")
    return outcome


def _check_ops_observation(directory):
    """The ops artifacts are wall-clock telemetry, never compared: they
    must validate, and the progress stream must end complete."""
    assert read_jsonl(directory / "ops.jsonl")
    lines = (directory / "progress.jsonl").read_text().splitlines()
    final = json.loads(lines[-1])
    assert final["done"] == final["total"] > 0, final
    assert final["eta_s"] == 0.0, final


def _check_fullest_observation(directory, scrape, capsys):
    """What the live surfaces promise beyond byte identity."""
    assert read_jsonl(directory / "trace.jsonl")
    counters = parse_openmetrics(scrape)["counters"]
    assert "runtime_trials_planned" in counters, counters
    assert main(["trace-report", str(directory / "trace.jsonl")]) == 0
    assert main(["trace-report", str(directory / "ops.jsonl")]) == 0
    capsys.readouterr()


def _run(case, directory, capsys, monkeypatch):
    if case.sweep == "grid":
        outcome = _run_grid(case, directory, monkeypatch)
    elif case.path == "service":
        outcome = _run_service(case, directory)
    else:
        outcome = _run_cli(case, directory, capsys, monkeypatch)
    if case.observation == "ops":
        _check_ops_observation(directory)
    return outcome


_BASELINE_OUTCOMES: dict[str, Outcome] = {}


@pytest.fixture
def baseline(tmp_path_factory, capsys, monkeypatch):
    """The sweep's baseline outcome, run once per sweep (the first row)."""

    def get(sweep):
        if sweep not in _BASELINE_OUTCOMES:
            if sweep == "grid":
                # A runner, not runner=None: that is the serial path.
                outcome = _grid(TrialRunner(workers=1, batch="off"))
            else:
                directory = tmp_path_factory.mktemp(f"{sweep}-baseline")
                outcome = _run_cli(
                    BASELINES[sweep], directory, capsys, monkeypatch)
            _BASELINE_OUTCOMES[sweep] = outcome
        return _BASELINE_OUTCOMES[sweep]

    return get


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_artifacts_identical_to_baseline(case, baseline, tmp_path, capsys,
                                         monkeypatch):
    base = baseline(case.sweep)
    if case == BASELINES[case.sweep]:
        # Its run is the reference itself.
        assert base.code == 0
        for name, data in base.files.items():
            assert data, name
        return
    outcome = _run(case, tmp_path, capsys, monkeypatch)
    assert outcome.code == base.code
    assert outcome.files == {name: base.files[name] for name in outcome.files}
    if outcome.stdout is not None:
        traced = "trace.jsonl" in outcome.files
        expected = [line for line in base.stdout
                    if traced or "DIR/trace.jsonl" not in line]
        assert outcome.stdout == expected
