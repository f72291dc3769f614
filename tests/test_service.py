"""Tests for the crash-safe simulation service (``mlec-sim serve``).

Layered like the service itself:

* unit tests for specs (validation, canonical identity), the bounded
  admission queue, and the durable job store (WAL replay, torn tails,
  state-machine enforcement, compaction);
* executor tests proving determinism and the stop/checkpoint path;
* HTTP tests against an in-process daemon (submit/poll, dedupe cache
  hit, in-flight attach, 429 admission, cancel, drain semantics);
* the headline robustness test: ``kill -9`` a real daemon subprocess
  mid-job, restart it, and require byte-identical result artifacts
  versus an uninterrupted direct execution of the same spec.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from _procs import (
    free_port,
    group_survivors,
    http,
    kill_group,
    start_cli,
    start_daemon,
    wait_endpoint,
)

from repro.cli import main
from repro.core.atomic import atomic_write_text
from repro.runtime import ResilientRunner, SweepStopped
from repro.runtime.resilience import JournalWriter
from repro.service import ServiceConfig, SimulationService
from repro.service.executor import JobExecution
from repro.service.queue import BoundedJobQueue, QueueFull
from repro.service.spec import SpecError, SweepSpec
from repro.service.store import JobRecord, JobState, JobStore, JobStoreError

BURST_SPEC = {
    "kind": "burst", "scheme": "C/C", "failures": 4, "racks": 2,
    "trials": 12, "seed": 7,
}
SIM_SPEC = {
    "kind": "simulate", "scheme": "C/C", "months": 1, "afr": 0.05,
    "trials": 8, "seed": 3, "chunk": 2, "batch": "off",
}


# ----------------------------------------------------------------------
# Spec validation and identity
# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_defaults_applied(self):
        spec = SweepSpec.from_json({"kind": "burst"})
        assert spec.scheme == "C/C"
        assert spec.trials == 100
        assert spec.failures == 4 and spec.racks == 2

    @pytest.mark.parametrize("payload", [
        "not an object",
        {"kind": "nope"},
        {},
        {"kind": "burst", "bogus": 1},
        {"kind": "burst", "months": 1},          # simulate-only field
        {"kind": "burst", "trials": 0},
        {"kind": "burst", "trials": True},
        {"kind": "burst", "seed": -1},
        {"kind": "burst", "code": "10+2"},
        {"kind": "burst", "scheme": "X/Y"},
        {"kind": "burst", "batch": "sometimes"},
        {"kind": "burst", "chunk": 0},
        {"kind": "simulate", "afr": 1.5},
        {"kind": "simulate", "afr": "high"},
        {"kind": "simulate", "method": "R_BOGUS"},
        {"kind": "simulate", "months": 0},
        {"kind": "simulate", "months": "3"},
        {"kind": "simulate", "months": -0.5},
        {"kind": "simulate", "months": float("nan")},
        {"kind": "simulate", "months": 1e308},    # mission_time overflows
    ])
    def test_rejects_malformed(self, payload):
        with pytest.raises(SpecError):
            SweepSpec.from_json(payload)

    def test_fractional_months_accepted(self):
        """``mlec-sim simulate --months`` is a float, so the spec is too."""
        from repro.core.config import YEAR

        spec = SweepSpec.from_json(dict(SIM_SPEC, months=1.5))
        assert spec.to_json()["months"] == 1.5
        assert spec.resolve().args[3] == 1.5 / 12 * YEAR

    def test_integral_float_months_is_the_integer_sweep(self):
        whole = SweepSpec.from_json(dict(SIM_SPEC, months=3))
        spelled = SweepSpec.from_json(dict(SIM_SPEC, months=3.0))
        assert json.dumps(spelled.to_json()) == json.dumps(whole.to_json())
        assert spelled.key() == whole.key()

    def test_canonicalization_is_spelling_independent(self):
        terse = SweepSpec.from_json({"kind": "burst", "trials": 12, "seed": 7})
        spelled = SweepSpec.from_json({
            "kind": "burst", "scheme": "c/c", "code": "10+2/17+3",
            "trials": 12, "seed": 7, "failures": 4, "racks": 2,
        })
        assert terse.to_json() == spelled.to_json()
        assert terse.key() == spelled.key()
        assert terse.job_id() == spelled.job_id()

    def test_key_ignores_execution_knobs(self):
        base = SweepSpec.from_json(dict(BURST_SPEC))
        tweaked = SweepSpec.from_json(
            dict(BURST_SPEC, batch="off", chunk=3, priority=9)
        )
        assert base.key() == tweaked.key()

    def test_key_tracks_result_identity(self):
        base = SweepSpec.from_json(dict(BURST_SPEC))
        assert base.key() != SweepSpec.from_json(
            dict(BURST_SPEC, trials=13)).key()
        assert base.key() != SweepSpec.from_json(
            dict(BURST_SPEC, seed=8)).key()
        assert base.key() != SweepSpec.from_json(
            dict(BURST_SPEC, collect_trace=True)).key()
        assert base.key() != SweepSpec.from_json(
            dict(BURST_SPEC, scheme="D/D")).key()

    def test_key_tracks_rng_stream(self, monkeypatch):
        """A result cached under another draw order is never served as
        this build's result."""
        from repro.service import spec as spec_module

        spec = SweepSpec.from_json(dict(BURST_SPEC))
        key, job_id = spec.key(), spec.job_id()
        monkeypatch.setattr(spec_module, "RNG_STREAM", spec_module.RNG_STREAM - 1)
        assert spec.key() != key
        assert spec.job_id() != job_id

    def test_resolve_matches_journal_fingerprint(self, tmp_path):
        """The dedupe key's fn/args must equal the checkpoint header's."""
        from repro.runtime.resilience import args_digest

        spec = SweepSpec.from_json(dict(BURST_SPEC))
        plan = spec.resolve()
        runner = ResilientRunner(
            workers=1, checkpoint=tmp_path / "ck.jsonl"
        )
        runner.run(plan.fn, plan.trials, seed=plan.seed, args=plan.args)
        sweeps = [
            json.loads(line)
            for line in (tmp_path / "ck.jsonl").read_text().splitlines()
            if json.loads(line).get("kind") == "sweep"
        ]
        assert sweeps, "no sweep header journaled"
        assert sweeps[0]["data"]["args_sha256"] == args_digest(plan.args)

    def test_job_id_shape(self):
        jid = SweepSpec.from_json(dict(BURST_SPEC)).job_id()
        assert jid.startswith("j") and len(jid) == 17


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------
class TestBoundedJobQueue:
    def test_priority_then_fifo(self):
        q = BoundedJobQueue(capacity=8)
        q.push("low", 0)
        q.push("hi", 5)
        q.push("low2", 0)
        assert [q.pop(), q.pop(), q.pop()] == ["hi", "low", "low2"]
        assert q.pop() is None

    def test_capacity_raises_queue_full(self):
        q = BoundedJobQueue(capacity=2, retry_after=3.0)
        q.push("a")
        q.push("b")
        with pytest.raises(QueueFull) as err:
            q.push("c")
        assert err.value.retry_after == 3.0
        assert err.value.capacity == 2

    def test_duplicate_push_is_noop(self):
        q = BoundedJobQueue(capacity=1)
        q.push("a")
        q.push("a")  # would raise QueueFull if it consumed a slot
        assert len(q) == 1 and "a" in q

    def test_remove(self):
        q = BoundedJobQueue(capacity=4)
        q.push("a"); q.push("b", 2); q.push("c")
        assert q.remove("b") is True
        assert q.remove("b") is False
        assert [q.pop(), q.pop()] == ["a", "c"]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            BoundedJobQueue(capacity=0)


# ----------------------------------------------------------------------
# Durable job store
# ----------------------------------------------------------------------
def _record(job_id="j1", state=JobState.QUEUED, **kw):
    return JobRecord(
        job_id=job_id, spec={"kind": "burst"}, state=state,
        priority=0, created_at=1.0, updated_at=1.0, **kw,
    )


class TestJobStore:
    def test_submit_get_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_record())
        got = store.get("j1")
        assert got is not None and got.state is JobState.QUEUED
        assert store.get("missing") is None
        store.close()

    def test_replay_survives_reopen(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_record())
        store.transition("j1", JobState.RUNNING, bump_attempts=True)
        store.transition("j1", JobState.DONE, result_path="r.json")
        store.close()
        reopened = JobStore(tmp_path)
        job = reopened.get("j1")
        assert job is not None
        assert job.state is JobState.DONE
        assert job.attempts == 1 and job.result_path == "r.json"
        reopened.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_record())
        store.close()
        with open(tmp_path / "jobs.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"schema": 1, "job": {"job_id": "torn"')  # no newline
        reopened = JobStore(tmp_path)
        assert reopened.dropped_tail is True
        assert reopened.get("j1") is not None
        assert reopened.get("torn") is None
        reopened.close()

    def test_midfile_corruption_is_loud(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_record())
        store.close()
        path = tmp_path / "jobs.jsonl"
        path.write_text("not json\n" + path.read_text())
        with pytest.raises(JobStoreError):
            JobStore(tmp_path)

    def test_schema_mismatch_is_loud(self, tmp_path):
        (tmp_path / "jobs.jsonl").write_text(
            '{"schema": 99, "job": {}}\n')
        with pytest.raises(JobStoreError):
            JobStore(tmp_path)

    def test_state_machine_enforced(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_record())
        with pytest.raises(JobStoreError):
            store.transition("j1", JobState.DONE)  # queued -> done illegal
        store.transition("j1", JobState.RUNNING)
        store.transition("j1", JobState.DONE)
        with pytest.raises(JobStoreError):
            store.transition("j1", JobState.QUEUED)  # done is terminal
        with pytest.raises(JobStoreError):
            store.transition("ghost", JobState.RUNNING)
        store.close()

    def test_double_submit_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_record())
        with pytest.raises(JobStoreError):
            store.submit(_record())
        store.close()

    def test_active_jobs_selects_recoverables(self, tmp_path):
        store = JobStore(tmp_path)
        for jid, state in [
            ("q", JobState.QUEUED), ("r", JobState.QUEUED),
            ("c", JobState.QUEUED), ("d", JobState.QUEUED),
        ]:
            store.submit(_record(jid))
        store.transition("r", JobState.RUNNING)
        store.transition("c", JobState.RUNNING)
        store.transition("c", JobState.CHECKPOINTED)
        store.transition("d", JobState.RUNNING)
        store.transition("d", JobState.DONE)
        assert {j.job_id for j in store.active_jobs()} == {"q", "r", "c"}
        store.close()

    def test_compaction_preserves_state(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.service.store._COMPACT_SLACK", 4)
        store = JobStore(tmp_path)
        store.submit(_record())
        for _ in range(5):
            store.transition("j1", JobState.RUNNING)
            store.transition("j1", JobState.CHECKPOINTED)
        assert store.compact_if_needed() is True
        lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
        assert len(lines) == 1
        store.transition("j1", JobState.QUEUED)  # WAL still appendable
        store.close()
        reopened = JobStore(tmp_path)
        job = reopened.get("j1")
        assert job is not None and job.state is JobState.QUEUED
        reopened.close()


# ----------------------------------------------------------------------
# Job execution: determinism and the stop/checkpoint path
# ----------------------------------------------------------------------
def _execute(spec_payload, state_dir, *, stop_first=False):
    spec = SweepSpec.from_json(spec_payload)
    record = JobRecord(
        job_id=spec.job_id(), spec=spec.to_json(), state=JobState.QUEUED,
        priority=0, created_at=0.0, updated_at=0.0,
    )
    execution = JobExecution(record, Path(state_dir), workers=1)
    if stop_first:
        execution.request_stop()
    return execution, execution.run()


class TestJobExecution:
    def test_burst_job_produces_deterministic_artifact(self, tmp_path):
        _, first = _execute(BURST_SPEC, tmp_path / "a")
        assert first.state is JobState.DONE
        _, second = _execute(BURST_SPEC, tmp_path / "b")
        assert first.result_path and second.result_path
        assert (
            Path(first.result_path).read_bytes()
            == Path(second.result_path).read_bytes()
        )
        summary = json.loads(Path(first.result_path).read_text())
        assert summary["kind"] == "burst"
        assert summary["trials"] == BURST_SPEC["trials"]

    def test_simulate_job_summary(self, tmp_path):
        _, outcome = _execute(SIM_SPEC, tmp_path)
        assert outcome.state is JobState.DONE
        assert outcome.trials_done == SIM_SPEC["trials"]
        summary = json.loads(Path(outcome.result_path).read_text())
        assert summary["kind"] == "simulate"
        assert summary["trials"] == SIM_SPEC["trials"]
        assert summary["disk_failures"] >= 0

    def test_stop_checkpoints_instead_of_failing(self, tmp_path):
        execution, outcome = _execute(SIM_SPEC, tmp_path, stop_first=True)
        assert outcome.state is JobState.CHECKPOINTED
        assert outcome.error is None
        assert execution.checkpoint_path.exists()
        assert not execution.result_path.exists()

    def test_stopped_job_resumes_byte_identically(self, tmp_path):
        stopped, outcome = _execute(SIM_SPEC, tmp_path / "svc",
                                    stop_first=True)
        assert outcome.state is JobState.CHECKPOINTED
        _, resumed = _execute(SIM_SPEC, tmp_path / "svc")
        assert resumed.state is JobState.DONE
        _, direct = _execute(SIM_SPEC, tmp_path / "direct")
        assert (
            Path(resumed.result_path).read_bytes()
            == Path(direct.result_path).read_bytes()
        )

    def test_collect_flags_produce_artifacts(self, tmp_path):
        payload = dict(BURST_SPEC, collect_trace=True, collect_metrics=True)
        execution, outcome = _execute(payload, tmp_path)
        assert outcome.state is JobState.DONE
        assert (execution.job_dir / "trace.jsonl").exists()
        assert (execution.job_dir / "metrics.json").exists()

    def test_failure_is_an_outcome_not_an_exception(self, tmp_path):
        spec = SweepSpec.from_json(dict(BURST_SPEC))
        record = JobRecord(
            job_id=spec.job_id(),
            spec={"kind": "burst", "trials": -5},  # corrupt stored spec
            state=JobState.QUEUED, priority=0,
            created_at=0.0, updated_at=0.0,
        )
        outcome = JobExecution(record, tmp_path, workers=1).run()
        assert outcome.state is JobState.FAILED
        assert outcome.error


# ----------------------------------------------------------------------
# The CLI and the service run the same sweep
# ----------------------------------------------------------------------
def _sweep_header(checkpoint):
    for line in Path(checkpoint).read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "sweep":
            return record["data"]
    raise AssertionError(f"{checkpoint} holds no sweep header")


class TestCliServiceParity:
    """``mlec-sim burst``/``simulate`` journal the sweep that
    ``SweepSpec.resolve()`` builds and print what the job computes."""

    @staticmethod
    def _cli(argv, checkpoint, capsys):
        main(argv + ["--checkpoint", str(checkpoint)])
        return capsys.readouterr().out

    @staticmethod
    def _assert_same_sweep(checkpoint, payload):
        from repro.runtime.resilience import args_digest

        header = _sweep_header(checkpoint)
        plan = SweepSpec.from_json(payload).resolve()
        assert (
            header["fn"], header["args_sha256"], header["trials"],
            header["seed"],
        ) == (plan.fn_name, args_digest(plan.args), plan.trials, plan.seed)

    def test_burst(self, tmp_path, capsys):
        ck = tmp_path / "cli.jsonl"
        out = self._cli(
            ["burst", "C/C", "-y", "4", "-x", "2", "--trials", "12",
             "--seed", "7"],
            ck, capsys,
        )
        self._assert_same_sweep(ck, BURST_SPEC)
        _, outcome = _execute(BURST_SPEC, tmp_path / "svc")
        result = json.loads(Path(outcome.result_path).read_text())
        assert f"] = {result['pdl_mean']:.3e}   [Monte-Carlo" in out

    def test_simulate(self, tmp_path, capsys):
        payload = {
            "kind": "simulate", "scheme": "C/C", "months": 6, "afr": 0.2,
            "trials": 6, "seed": 3,
        }
        ck = tmp_path / "cli.jsonl"
        out = self._cli(
            ["simulate", "C/C", "--months", "6", "--afr", "0.2",
             "--trials", "6", "--seed", "3"],
            ck, capsys,
        )
        self._assert_same_sweep(ck, payload)
        _, outcome = _execute(payload, tmp_path / "svc")
        result = json.loads(Path(outcome.result_path).read_text())
        losses, trials = result["loss_trials"], result["trials"]
        assert f"trials with data loss: {losses}/{trials}\n" in out
        mean = result["disk_failures"] / trials
        assert f"mean disk failures   : {mean:.1f}\n" in out
        mean = result["catastrophic_events"] / trials
        assert f"mean catastrophic    : {mean:.2f}\n" in out


# ----------------------------------------------------------------------
# Cooperative stop on the runner itself
# ----------------------------------------------------------------------
#: Side channel for _stopping_trial: the runner to stop mid-sweep.  Kept
#: out of the args tuple so the journal's args fingerprint is stable
#: across the stopped run and the resume (resume validation rejects
#: mismatched args digests).
_STOP_RUNNER: ResilientRunner | None = None


def _stopping_trial(ctx, stop_at):
    if _STOP_RUNNER is not None and ctx.index == stop_at:
        _STOP_RUNNER.request_stop()
    return float(ctx.index)


@pytest.fixture
def stop_channel():
    yield
    globals()["_STOP_RUNNER"] = None


class TestRunnerStop:
    def test_pre_stopped_sweep_raises_immediately(self, tmp_path):
        runner = ResilientRunner(workers=1, checkpoint=tmp_path / "c.jsonl")
        runner.request_stop()
        assert runner.stop_requested
        with pytest.raises(SweepStopped):
            runner.run(_stopping_trial, 8, args=(-1,))

    def test_stop_salvages_completed_chunks(self, tmp_path, stop_channel):
        path = tmp_path / "c.jsonl"
        runner = ResilientRunner(
            workers=1, chunk_size=2, checkpoint=path)
        globals()["_STOP_RUNNER"] = runner
        with pytest.raises(SweepStopped):
            runner.run(_stopping_trial, 12, args=(5,))
        globals()["_STOP_RUNNER"] = None
        chunk_lines = [
            line for line in path.read_text().splitlines()
            if '"chunk"' in line
        ]
        assert chunk_lines  # progress survived the stop
        resumed = ResilientRunner(
            workers=1, chunk_size=2, checkpoint=path, resume=True)
        agg = resumed.run(_stopping_trial, 12, args=(5,))
        direct = ResilientRunner(workers=1, chunk_size=2).run(
            _stopping_trial, 12, args=(5,))
        assert agg.total == direct.total
        assert agg.trials == direct.trials

    def test_clear_stop_rearms(self, tmp_path):
        runner = ResilientRunner(workers=1)
        runner.request_stop()
        runner.clear_stop()
        agg = runner.run(_stopping_trial, 4, args=(-1,))
        assert agg.trials == 4


# ----------------------------------------------------------------------
# Durability plumbing: directory fsync
# ----------------------------------------------------------------------
class TestDirectoryFsync:
    def test_atomic_write_fsyncs_parent_dir(self, tmp_path, monkeypatch):
        synced: list[str] = []
        monkeypatch.setattr(
            "repro.core.atomic.fsync_dir",
            lambda p: synced.append(str(p)),
        )
        atomic_write_text(tmp_path / "out.json", "{}\n")
        assert synced == [str(tmp_path)]

    def test_journal_creation_fsyncs_parent_dir(self, tmp_path, monkeypatch):
        synced: list[str] = []
        monkeypatch.setattr(
            "repro.runtime.resilience.fsync_dir",
            lambda p: synced.append(str(p)),
        )
        writer = JournalWriter(tmp_path / "j.jsonl")
        writer.append({"a": 1})
        writer.close()
        assert synced == [str(tmp_path)]
        # Re-opening an existing journal must not re-fsync the directory.
        reopened = JournalWriter(tmp_path / "j.jsonl")
        reopened.close()
        assert synced == [str(tmp_path)]

    def test_fsync_dir_is_best_effort(self, tmp_path):
        from repro.core.atomic import fsync_dir

        fsync_dir(tmp_path)                    # real directory: fine
        fsync_dir(tmp_path / "nope")           # missing: swallowed
        fsync_dir(__file__)                    # not a directory: swallowed


# ----------------------------------------------------------------------
# HTTP surface against an in-process daemon
# ----------------------------------------------------------------------
class ServiceHarness:
    """Run a SimulationService on a private event loop in a thread."""

    def __init__(self, state_dir: Path, **overrides):
        self.config = ServiceConfig(state_dir=state_dir, **overrides)
        self.service = SimulationService(self.config)
        self.loop = asyncio.new_event_loop()
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._release: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(timeout=30), "service failed to start"

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self._main())

    async def _main(self):
        # Keep the listener up after the drain until the test releases
        # it, so draining-state responses (503s) stay observable instead
        # of racing the server teardown.
        self._release = asyncio.Event()
        self.address = await self.service.start()
        self._ready.set()
        await self.service.wait_drained()
        await self._release.wait()
        await self.service.close()

    def drain(self):
        self.loop.call_soon_threadsafe(self.service.begin_drain)

    def stop(self):
        def let_go():
            self.service.begin_drain()
            assert self._release is not None
            self._release.set()

        self.loop.call_soon_threadsafe(let_go)
        self._thread.join(timeout=120)
        assert not self._thread.is_alive(), "service failed to drain"

    def request(self, method, path, body=None):
        host, port = self.address
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            f"http://{host}:{port}{path}", data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read()), dict(
                    resp.headers)
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read()), dict(err.headers)

    def poll_terminal(self, job_id, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, out, _ = self.request("GET", f"/jobs/{job_id}")
            if out["job"]["terminal"]:
                return out["job"]
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never reached a terminal state")


@pytest.fixture
def harness(tmp_path):
    h = ServiceHarness(tmp_path / "state")
    yield h
    h.stop()


class TestServiceHttp:
    def test_submit_poll_done_with_result(self, harness):
        status, out, _ = harness.request("POST", "/jobs", BURST_SPEC)
        assert status == 202
        job = harness.poll_terminal(out["job"]["job_id"])
        assert job["state"] == "done"
        assert job["result"]["kind"] == "burst"
        assert job["result"]["trials"] == BURST_SPEC["trials"]

    def test_resubmit_is_cache_hit_without_execution(self, harness):
        _, out, _ = harness.request("POST", "/jobs", BURST_SPEC)
        job = harness.poll_terminal(out["job"]["job_id"])
        assert job["attempts"] == 1
        status, again, _ = harness.request("POST", "/jobs", BURST_SPEC)
        assert status == 200
        assert again["cached"] is True
        assert again["job"]["attempts"] == 1  # no new execution
        assert again["job"]["result"]["kind"] == "burst"
        # Spelling the same sweep differently still hits the cache.
        verbose = dict(BURST_SPEC, code="10+2/17+3", priority=3)
        status, third, _ = harness.request("POST", "/jobs", verbose)
        assert status == 200 and third["cached"] is True

    def test_duplicate_inflight_attaches(self, harness):
        slow = dict(SIM_SPEC, trials=64, chunk=2)
        _, first, _ = harness.request("POST", "/jobs", slow)
        status, dup, _ = harness.request("POST", "/jobs", slow)
        assert status == 202
        assert dup.get("attached") is True or dup.get("cached") is True
        assert dup["job"]["job_id"] == first["job"]["job_id"]
        job = harness.poll_terminal(first["job"]["job_id"])
        assert job["duplicates"] >= 1

    def test_validation_maps_to_400(self, harness):
        status, out, _ = harness.request(
            "POST", "/jobs", {"kind": "burst", "trials": 0})
        assert status == 400 and "trials" in out["error"]

    def test_unknown_routes_and_methods(self, harness):
        assert harness.request("GET", "/jobs/jdeadbeef")[0] == 404
        assert harness.request("GET", "/nope")[0] == 404
        assert harness.request("DELETE", "/jobs")[0] == 405

    def test_health_ready_metrics(self, harness):
        assert harness.request("GET", "/healthz")[0] == 200
        status, out, _ = harness.request("GET", "/readyz")
        assert status == 200 and out["ready"] is True
        host, port = harness.address
        text = urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=10).read().decode()
        assert "service_queue_depth" in text
        assert "service_jobs_recovered" in text

    def test_cancel_queued_job(self, harness):
        # A long-running job occupies the single job thread, so the
        # second submission stays queued long enough to cancel.
        blocker = dict(SIM_SPEC, trials=64, chunk=2)
        harness.request("POST", "/jobs", blocker)
        _, out, _ = harness.request("POST", "/jobs", BURST_SPEC)
        jid = out["job"]["job_id"]
        status, cancelled, _ = harness.request(
            "POST", f"/jobs/{jid}/cancel")
        assert status in (200, 202)
        job = harness.poll_terminal(jid)
        assert job["state"] == "cancelled"
        status, _, _ = harness.request("POST", f"/jobs/{jid}/cancel")
        assert status == 409

    def test_list_jobs(self, harness):
        harness.request("POST", "/jobs", BURST_SPEC)
        status, out, _ = harness.request("GET", "/jobs")
        assert status == 200
        assert len(out["jobs"]) == 1


class TestAdmissionControl:
    def test_429_with_retry_after_when_saturated(self, tmp_path):
        h = ServiceHarness(
            tmp_path / "state", queue_capacity=1, retry_after=7.0)
        try:
            # Occupy the job thread, then fill the one queue slot.
            blocker = dict(SIM_SPEC, trials=256, chunk=2)
            h.request("POST", "/jobs", blocker)
            deadline = time.monotonic() + 30
            status = None
            while time.monotonic() < deadline:
                filler = dict(BURST_SPEC, seed=1000)
                status, _, _ = h.request("POST", "/jobs", filler)
                if status == 202:
                    break
                time.sleep(0.05)
            assert status == 202
            status, out, headers = h.request(
                "POST", "/jobs", dict(BURST_SPEC, seed=2000))
            assert status == 429
            assert headers.get("Retry-After") == "7"
            assert "capacity" in out["error"]
        finally:
            h.stop()

    def test_draining_maps_to_503(self, tmp_path):
        h = ServiceHarness(tmp_path / "state")
        try:
            h.drain()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, _, _ = h.request("GET", "/readyz")
                if status == 503:
                    break
                time.sleep(0.02)
            assert status == 503
            status, _, headers = h.request("POST", "/jobs", BURST_SPEC)
            assert status == 503
            assert "Retry-After" in headers
            assert h.request("GET", "/healthz")[0] == 200  # still alive
        finally:
            h.stop()


# ----------------------------------------------------------------------
# The headline: kill -9 a real daemon mid-job, restart, byte-identical
# ----------------------------------------------------------------------
CRASH_SPEC = {
    "kind": "simulate", "scheme": "C/C", "months": 2, "afr": 0.05,
    "trials": 48, "seed": 3, "chunk": 4, "batch": "off",
}


class TestCrashRecovery:
    @pytest.mark.parametrize("backend", ["local", "tcp"])
    def test_sigkill_restart_resume_byte_identical(self, tmp_path, backend):
        """kill -9 mid-job, restart, resume: the result is byte-identical
        to an uninterrupted run.  Under ``tcp`` both daemons coordinate
        one ``mlec-sim workers --stay`` fleet on the same port."""
        fleet = None
        if backend == "tcp":
            address = f"127.0.0.1:{free_port()}"
            backend = f"tcp://{address}"
            fleet = start_cli(
                "workers", "--connect", address, "--processes", "2", "--stay"
            )
        try:
            self._crash_restart_compare(tmp_path, backend)
        finally:
            if fleet is not None:
                kill_group(fleet)
                fleet.wait(timeout=30)
        if fleet is not None:
            assert group_survivors(fleet.pid) == []

    @staticmethod
    def _crash_restart_compare(tmp_path, backend):
        state = tmp_path / "state"
        state.mkdir()
        proc = start_daemon(state, backend)
        try:
            info = wait_endpoint(state, proc)
            status, out = http(info, "POST", "/jobs", CRASH_SPEC)
            assert status == 202
            jid = out["job"]["job_id"]

            # Wait for real progress (journaled chunks), then kill -9.
            ckpt = state / "jobs" / jid / "checkpoint.jsonl"
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if ckpt.exists() and sum(
                    1 for line in ckpt.read_text().splitlines()
                    if '"kind":"chunk"' in line
                ) >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("no chunks journaled before the kill window")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            kill_group(proc)  # the pool children the kill -9 orphaned
        assert group_survivors(proc.pid) == []

        # Restart on the same state dir: the job must recover and finish.
        proc2 = start_daemon(state, backend)
        try:
            info = wait_endpoint(state, proc2)
            deadline = time.monotonic() + 180
            while time.monotonic() < deadline:
                status, out = http(info, "GET", f"/jobs/{jid}")
                assert status == 200
                if out["job"]["terminal"]:
                    break
                time.sleep(0.2)
            assert out["job"]["state"] == "done"
            assert out["job"]["attempts"] >= 2  # pre- and post-crash

            # Identical resubmit: served from the dedupe cache.
            status, cached = http(info, "POST", "/jobs", CRASH_SPEC)
            assert status == 200 and cached["cached"] is True
            assert cached["job"]["attempts"] == out["job"]["attempts"]

            # Recovery is visible in the service metrics.
            metrics = urllib.request.urlopen(
                f"http://{info['host']}:{info['port']}/metrics",
                timeout=10).read().decode()
            assert "service_jobs_recovered_total 1" in metrics

            # Graceful drain: SIGTERM exits 0.
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=60) == 0
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait(timeout=30)
            kill_group(proc2)
        assert group_survivors(proc2.pid) == []

        resumed = (state / "jobs" / jid / "result.json").read_bytes()

        # Byte-identical to an uninterrupted direct execution.
        _, direct = _execute(CRASH_SPEC, tmp_path / "direct")
        assert direct.state is JobState.DONE
        assert Path(direct.result_path).read_bytes() == resumed
