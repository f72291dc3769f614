"""Executor backends: the protocol, the local pool, and the TCP work queue.

The acceptance bar is the one every runner test enforces: no matter
which backend runs the chunks -- local pool, one TCP worker host, three
hosts, or the runner's local path after the fleet empties -- the final
aggregate, merged metrics snapshot, and trace stream must be bitwise
identical to an uninterrupted ``workers=1`` run.  SIGKILLing a worker host
mid-campaign, stealing a straggler's lease, or partitioning a worker
off the network may only ever change wall-clock time and operational
telemetry.
"""

import multiprocessing
import os
import pickle
import signal
import socket
import sys
import threading
import time

import numpy as np
import pytest
from _procs import free_port, spawn_worker_procs

from repro.cli import main
from repro.obs import MetricsRegistry, TraceRecorder
from repro.runtime import (
    BackendUnavailable,
    LocalProcessBackend,
    ResilientRunner,
    RetryPolicy,
    TcpWorkQueueBackend,
    TrialContext,
    TrialExecutionError,
    TrialRunner,
    make_backend,
    parse_backend_spec,
)
from repro.runtime.executors.base import ChunkJob, ChunkPayload
from repro.runtime.executors.tcp import encode_blob, recv_frame, send_frame
from repro.runtime.executors.worker import run_worker, run_worker_fleet

#: Retries without wall-clock pauses (the backoff arithmetic is pinned
#: in the resilience suite).
FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


# ----------------------------------------------------------------------
# Module-level trial functions (workers must be able to pickle them)
# ----------------------------------------------------------------------
def _value_trial(ctx):
    return float(ctx.rng().random())


def _telemetry_trial(ctx, marker=None):
    """Returns a random value; SIGKILLs its host process once if markered."""
    if marker is not None and ctx.index == 5 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    value = float(ctx.rng().random())
    if ctx.metrics is not None:
        ctx.metrics.counter("sim.trials_done").inc()
    if ctx.trace is not None:
        ctx.trace.event(0.0, "sim.trial_done", value=value)
    return value


def _telemetry_trial_failing(ctx, marker):
    """Telemetry trial whose trial 9 fails until the marker appears."""
    if ctx.index == 9 and not os.path.exists(marker):
        raise RuntimeError("transient outage")
    return _telemetry_trial(ctx)


def _run_telemetry(runner, trials, seed, marker=None, fn=_telemetry_trial):
    metrics, trace = MetricsRegistry(), TraceRecorder()
    agg = runner.run(
        fn, trials, seed=seed, args=(marker,), metrics=metrics, trace=trace,
    )
    return agg, metrics.snapshot(), trace.records


def _make_job(index=0, lo=0, hi=4, seed=3):
    return ChunkJob(
        index=index, lo=lo, hi=hi, fn=_value_trial,
        seed=seed, args=(), collect=(False, False),
    )


def _stay_fleet_entry(port):
    """Child-process entry: a 2-process --stay fleet dialing ``port``."""
    sys.exit(
        run_worker_fleet(
            "127.0.0.1", port, processes=2, connect_timeout=60.0, stay=True
        )
    )


def _child_pids(parent_pid):
    """Pids whose ppid is ``parent_pid`` (Linux /proc scan)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # raced with process exit
        # ppid is the second field after the parenthesised comm, which
        # may itself contain spaces: parse from the last ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == parent_pid:
            pids.append(int(entry))
    return pids


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_workers(backend, count, timeout=30.0):
    """Block until ``count`` workers have joined ``backend``.

    Shutting down while a worker is still dialing means that worker gets
    connection-refused and keeps retrying until its connect timeout, so
    tests that assert clean worker exits must first let everyone join.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with backend._lock:
            if sum(1 for w in backend._workers.values() if not w.dead) >= count:
                return
        time.sleep(0.02)
    raise AssertionError(f"{count} workers never joined the coordinator")


class _FakeWorker:
    """A scripted raw-socket worker, for driving lease edge cases."""

    def __init__(self, address, label):
        self.sock = socket.create_connection(address, timeout=10.0)
        send_frame(self.sock, {"t": "hello", "worker": label})

    def recv(self, timeout=10.0):
        self.sock.settimeout(timeout)
        return recv_frame(self.sock)

    def send_result(self, task_id, payload):
        send_frame(
            self.sock,
            {"t": "result", "task": task_id, "payload": encode_blob(payload)},
        )

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def _drain_until(runner, backend, kind, timeout=10.0):
    """Fold backend events into the runner until ``kind`` shows up."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        runner._drain_backend_events(backend)
        if any(r["kind"] == kind for r in runner.ops_trace.records):
            return
        time.sleep(0.02)
    raise AssertionError(f"never saw {kind!r} in the ops trace")


class TestBackendSpec:
    def test_local(self):
        assert parse_backend_spec("local") == ("local", None)
        assert make_backend("local") is None

    def test_tcp_forms(self):
        assert parse_backend_spec("tcp://127.0.0.1:9123") == (
            "tcp", ("127.0.0.1", 9123)
        )
        assert parse_backend_spec("tcp:host:1") == ("tcp", ("host", 1))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            parse_backend_spec("carrier-pigeon")
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_backend_spec("tcp://nohost")
        with pytest.raises(ValueError, match="non-numeric port"):
            parse_backend_spec("tcp://host:http")
        with pytest.raises(ValueError, match="out of range"):
            parse_backend_spec("tcp://host:70000")

    def test_make_backend_tcp(self):
        backend = make_backend("tcp://127.0.0.1:0", lease_timeout=7.0)
        assert isinstance(backend, TcpWorkQueueBackend)
        assert backend.name == "tcp"
        assert backend._lease_timeout == 7.0

    def test_tcp_parameter_validation(self):
        with pytest.raises(ValueError, match="lease_timeout"):
            TcpWorkQueueBackend(lease_timeout=0.0)
        with pytest.raises(ValueError, match="connect_grace"):
            TcpWorkQueueBackend(connect_grace=-1.0)

    def test_address_requires_start(self):
        backend = TcpWorkQueueBackend()
        with pytest.raises(BackendUnavailable, match="not started"):
            backend.address


class TestChunkJob:
    def test_pickled_size_does_not_grow_with_chunk_length(self):
        """A job names its trials by ``(seed, lo, hi)``: a 100,000-trial
        chunk pickles to the same few bytes as a one-trial chunk."""
        one = len(pickle.dumps(_make_job(lo=0, hi=1)))
        many = len(pickle.dumps(_make_job(lo=0, hi=100_000)))
        assert many - one <= 4  # only the int encoding of ``hi`` widens

    @pytest.mark.parametrize("seed", [0, 7, 2**70 + 3])
    def test_trial_stream_is_the_spawned_child(self, seed):
        """Trial ``i``'s lazily keyed stream is ``SeedSequence(seed)``'s
        ``i``-th spawned child, so building it on demand moves nothing."""
        spawned = np.random.SeedSequence(seed).spawn(300)
        for index in (0, 1, 17, 299):
            ctx = TrialContext(index=index, seed=seed)
            want = np.random.default_rng(spawned[index]).random(4)
            assert ctx.rng().random(4).tolist() == want.tolist()


class TestLocalBackend:
    def test_submit_matches_inline_run(self):
        backend = LocalProcessBackend(2)
        backend.start()
        try:
            job = _make_job()
            got = backend.submit(job).result(timeout=60.0)
        finally:
            backend.shutdown()
        assert isinstance(got, ChunkPayload)
        assert got.values == job.run().values

    def test_runner_with_explicit_backend_bitwise_identical(self):
        reference = _run_telemetry(TrialRunner(workers=1), 20, 5)
        backend = LocalProcessBackend(2)
        runner = TrialRunner(workers=2, chunk_size=4, backend=backend)
        try:
            got = _run_telemetry(runner, 20, 5)
        finally:
            backend.shutdown()
        assert got == reference
        assert runner.backend_name == "local"


class TestTcpRoundTrip:
    def test_one_vs_three_hosts_bitwise_identical(self):
        reference = _run_telemetry(TrialRunner(workers=1), 24, 11)
        for hosts in (1, 3):
            backend = TcpWorkQueueBackend(connect_grace=60.0)
            backend.start()
            procs = spawn_worker_procs(backend.address, hosts)
            runner = ResilientRunner(workers=2, chunk_size=3, backend=backend)
            try:
                _wait_workers(backend, hosts)
                got = _run_telemetry(runner, 24, 11)
            finally:
                backend.shutdown()
            assert got == reference, f"hosts={hosts}"
            assert runner.backend_name == "tcp"
            for proc in procs:
                proc.join(timeout=30.0)
                assert proc.exitcode == 0  # clean exit on coordinator close

    def test_task_table_is_empty_after_each_sweep(self):
        """A resolved chunk leaves the coordinator's task table, so a
        long-lived backend holds no job or payload of a finished sweep
        and its dispatch tick walks only live tasks."""
        backend = TcpWorkQueueBackend(connect_grace=60.0)
        backend.start()
        procs = spawn_worker_procs(backend.address, 1)
        runner = TrialRunner(workers=1, chunk_size=4, backend=backend)
        try:
            _wait_workers(backend, 1)
            for seed in range(3):
                agg = runner.run(_value_trial, 40, seed=seed)
                assert agg.trials == 40
                with backend._lock:
                    assert backend._tasks == {}
                    assert backend._queue == []
        finally:
            backend.shutdown()
        assert runner.backend_name == "tcp"
        for proc in procs:
            proc.join(timeout=30.0)
            assert proc.exitcode == 0

    def test_no_workers_degrades_to_local_fallback(self):
        reference = _run_telemetry(TrialRunner(workers=1), 16, 7)
        backend = TcpWorkQueueBackend(connect_grace=0.2, poll_interval=0.02)
        backend.start()
        runner = ResilientRunner(workers=2, chunk_size=4, backend=backend)
        try:
            got = _run_telemetry(runner, 16, 7)
        finally:
            backend.shutdown()
        assert got == reference
        kinds = {r["kind"] for r in runner.ops_trace.records}
        assert "backend.fallback" in kinds

    @pytest.mark.parametrize("make_runner", [
        lambda backend: TrialRunner(workers=2, chunk_size=4, backend=backend),
        lambda backend: ResilientRunner(
            workers=2, chunk_size=4, policy=FAST, backend=backend
        ),
    ], ids=["plain", "resilient"])
    def test_empty_fleet_serves_consecutive_sweeps(self, make_runner):
        """One coordinator with no workers serves three sweeps in a row.
        Each sweep falls back to the runner's local path exactly once,
        counted with its reason, and the fallback charges no retry."""
        backend = TcpWorkQueueBackend(connect_grace=0.2, poll_interval=0.02)
        backend.start()
        try:
            for trials, seed in ((16, 7), (12, 3), (20, 9)):
                reference = _run_telemetry(TrialRunner(workers=1), trials, seed)
                runner = make_runner(backend)
                with pytest.warns(RuntimeWarning, match="no worker is connected"):
                    got = _run_telemetry(runner, trials, seed)
                assert got == reference
                fallbacks = [
                    r for r in runner.ops_trace.records
                    if r["kind"] == "backend.fallback"
                ]
                assert len(fallbacks) == 1
                assert fallbacks[0]["data"]["backend"] == "tcp"
                assert fallbacks[0]["data"]["to"] == "local"
                assert "no worker is connected" in fallbacks[0]["data"]["reason"]
                counters = runner.ops_metrics.snapshot()["counters"]
                assert counters["runtime.backend_fallbacks"] == 1
                assert "runtime.chunk_retries" not in counters
        finally:
            backend.shutdown()

    def test_sigkill_worker_host_never_loses_or_double_counts(self, tmp_path):
        """The acceptance bar: a worker host dying mid-campaign costs
        telemetry, never a lost or double-counted chunk."""
        self._sigkill_worker_host(
            tmp_path,
            lambda backend: ResilientRunner(
                workers=2, chunk_size=3, policy=FAST, backend=backend
            ),
        )

    def test_sigkill_worker_host_plain_runner(self, tmp_path):
        """A plain runner (one attempt per chunk) rides out the same host
        death -- a backend requeue is not a charged attempt -- and counts
        it in the same ops telemetry."""
        self._sigkill_worker_host(
            tmp_path,
            lambda backend: TrialRunner(workers=2, chunk_size=3, backend=backend),
        )

    @staticmethod
    def _sigkill_worker_host(tmp_path, make_runner):
        reference = _run_telemetry(TrialRunner(workers=1), 24, 11)
        marker = str(tmp_path / "host-killed-once")
        backend = TcpWorkQueueBackend(connect_grace=60.0, poll_interval=0.02)
        backend.start()
        procs = spawn_worker_procs(backend.address, 2)
        runner = make_runner(backend)
        try:
            _wait_workers(backend, 2)
            got = _run_telemetry(runner, 24, 11, marker=marker)
        finally:
            backend.shutdown()
        for proc in procs:
            proc.join(timeout=30.0)
        assert os.path.exists(marker), "the kill trial never fired"
        assert got == reference
        counters = runner.ops_metrics.snapshot()["counters"]
        assert counters["runtime.worker_deaths"] >= 1
        # The forfeited lease reschedules without consuming the chunk's
        # RetryPolicy attempt budget: one charged retry, no more.
        assert counters["runtime.chunk_retries"] >= 1
        kinds = {r["kind"] for r in runner.ops_trace.records}
        assert "worker.death" in kinds
        assert "worker.join" in kinds


#: Indices of the trials _recording_trial ran in this process.
_RAN: list[int] = []


def _recording_trial(ctx):
    _RAN.append(ctx.index)
    return 0.0


class TestWorkerLease:
    def test_misshapen_job_exits_1_unrun(self):
        """A lease ships ``(fn, args, collect, batch)`` beside its
        ``seed``/``lo``/``hi``; a worker handed a job of any other shape
        exits 1 without running it."""
        codes = []
        with socket.create_server(("127.0.0.1", 0)) as server:
            port = server.getsockname()[1]
            thread = threading.Thread(
                target=lambda: codes.append(
                    run_worker("127.0.0.1", port, connect_timeout=10.0)
                ),
                daemon=True,
            )
            thread.start()
            server.settimeout(10.0)
            conn, _ = server.accept()
            with conn:
                conn.settimeout(10.0)
                assert recv_frame(conn)["t"] == "hello"
                job = (_recording_trial, (), (False, False))
                send_frame(conn, {
                    "t": "lease", "task": 1, "seed": 0, "lo": 0, "hi": 1,
                    "job": encode_blob(job),
                })
                thread.join(timeout=10.0)
        assert codes == [1]
        assert _RAN == []


class TestStayWorker:
    def test_stay_worker_survives_coordinator_restart(self):
        """A ``--stay`` worker rides out a coordinator restart: after the
        first backend shuts down it re-enters the retry-connect loop and
        serves the next coordinator that binds the same address."""
        sweeps = ((18, 5), (12, 9))
        references = [
            _run_telemetry(TrialRunner(workers=1), trials, seed)
            for trials, seed in sweeps
        ]
        port = free_port()
        ctx = multiprocessing.get_context()
        proc = ctx.Process(
            target=run_worker, args=("127.0.0.1", port),
            kwargs={"worker_id": "stayer", "stay": True, "max_sessions": 2},
            daemon=True,
        )
        proc.start()
        try:
            for (trials, seed), reference in zip(sweeps, references):
                backend = TcpWorkQueueBackend(
                    port=port, connect_grace=60.0, poll_interval=0.02
                )
                backend.start()
                runner = ResilientRunner(
                    workers=2, chunk_size=3, backend=backend
                )
                try:
                    got = _run_telemetry(runner, trials, seed)
                finally:
                    backend.shutdown()
                assert got == reference
                kinds = {r["kind"] for r in runner.ops_trace.records}
                # The sweep ran on the stay worker, not the local fallback.
                assert "worker.join" in kinds
                assert "backend.fallback" not in kinds
            proc.join(timeout=30.0)
            assert proc.exitcode == 0  # max_sessions reached: clean exit
        finally:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10.0)

    def test_fleet_sigterm_reaps_children_and_exits_clean(self):
        """SIGTERM on the fleet parent stops the children too and exits 0.

        A --stay fleet retries its coordinator forever, so an operator
        signal is the only way it ever stops; without teardown the
        children would orphan onto pid 1 and spin-dial the dead address.
        """
        port = free_port()  # nobody listens: children sit in retry-connect
        ctx = multiprocessing.get_context()
        # daemon=False: the fleet parent forks children of its own.
        proc = ctx.Process(target=_stay_fleet_entry, args=(port,))
        proc.start()
        children = []
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                children = _child_pids(proc.pid)
                if len(children) >= 2:
                    break
                time.sleep(0.05)
            assert len(children) >= 2, "fleet never spawned its workers"
            os.kill(proc.pid, signal.SIGTERM)
            proc.join(timeout=30.0)
            assert proc.exitcode == 0  # operator stop is not a failure
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not any(_pid_alive(pid) for pid in children):
                    break
                time.sleep(0.05)
            survivors = [pid for pid in children if _pid_alive(pid)]
            assert not survivors, f"orphaned fleet workers: {survivors}"
        finally:
            for pid in children:
                if _pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10.0)


class TestLeaseAccounting:
    """Satellite invariants: steals charge one retry, losers are free."""

    def test_steal_completed_by_original_owner_charged_once(self):
        backend = TcpWorkQueueBackend(
            lease_timeout=0.3, heartbeat_timeout=60.0, connect_grace=60.0,
            poll_interval=0.02,
        )
        backend.start()
        runner = ResilientRunner(workers=1)
        straggler = _FakeWorker(backend.address, "straggler")
        thief = None
        try:
            job = _make_job()
            future = backend.submit(job)
            lease = straggler.recv()
            assert lease is not None and lease["t"] == "lease"

            # The lease expires; a second worker joins and receives the
            # speculative copy of the *same* task.
            thief = _FakeWorker(backend.address, "thief")
            stolen = thief.recv()
            assert stolen is not None and stolen["t"] == "lease"
            assert stolen["task"] == lease["task"]

            # First result wins: the original owner finishes first.
            expected = job.run()
            straggler.send_result(lease["task"], expected)
            got = future.result(timeout=30.0)
            assert isinstance(got, ChunkPayload)
            assert got.values == expected.values

            # The thief's late result is discarded, not aggregated.
            thief.send_result(stolen["task"], job.run())
            _drain_until(runner, backend, "chunk.duplicate")
        finally:
            straggler.close()
            if thief is not None:
                thief.close()
            backend.shutdown()
        counters = runner.ops_metrics.snapshot()["counters"]
        assert counters["runtime.steals"] == 1
        assert counters["runtime.chunk_retries"] == 1  # the steal, only
        assert "runtime.worker_deaths" not in counters
        kinds = [r["kind"] for r in runner.ops_trace.records]
        assert kinds.count("chunk.steal") == 1
        assert kinds.count("chunk.duplicate") == 1

    def test_partitioned_worker_reaped_and_chunk_requeued(self):
        """A worker that stops heartbeating (socket still open: the
        network-partition shape) is declared dead and its lease requeued;
        with no other worker the runner finishes the chunk locally."""
        reference = _run_telemetry(TrialRunner(workers=1), 4, 3)
        backend = TcpWorkQueueBackend(
            lease_timeout=60.0, heartbeat_timeout=0.4, connect_grace=60.0,
            poll_interval=0.02,
        )
        backend.start()
        runner = ResilientRunner(workers=1, backend=backend)
        silent = _FakeWorker(backend.address, "partitioned")
        try:
            _wait_workers(backend, 1)
            # Never heartbeat, never answer: the coordinator must reap
            # the worker and the sweep must still complete.
            with pytest.warns(RuntimeWarning, match="no worker is connected"):
                got = _run_telemetry(runner, 4, 3)
            lease = silent.recv()
            assert lease is not None and lease["t"] == "lease"
        finally:
            silent.close()
            backend.shutdown()
        assert got == reference
        counters = runner.ops_metrics.snapshot()["counters"]
        assert counters["runtime.worker_deaths"] == 1
        assert counters["runtime.chunk_retries"] == 1  # the forfeited lease
        assert counters["runtime.backend_fallbacks"] == 1


class TestCheckpointAcrossBackends:
    def test_journal_written_locally_resumes_under_tcp(self, tmp_path):
        """Chunk records are host-independent: a journal written by the
        local backend resumes under the TCP backend byte-identically."""
        reference = _run_telemetry(TrialRunner(workers=1), 24, 11)
        marker = str(tmp_path / "marker")
        ck = tmp_path / "ck.jsonl"

        broken = ResilientRunner(
            workers=1, chunk_size=3, checkpoint=ck,
            policy=RetryPolicy(max_attempts=1),
        )
        with pytest.raises(TrialExecutionError):
            broken.run(
                _telemetry_trial_failing, 24, seed=11, args=(marker,),
                metrics=MetricsRegistry(), trace=TraceRecorder(),
            )
        broken.close()

        open(marker, "w").close()
        backend = TcpWorkQueueBackend(connect_grace=60.0)
        backend.start()
        procs = spawn_worker_procs(backend.address, 1)
        resumed = ResilientRunner(
            workers=2, checkpoint=ck, resume=True, policy=FAST,
            backend=backend,
        )
        m2, t2 = MetricsRegistry(), TraceRecorder()
        try:
            agg = resumed.run(
                _telemetry_trial_failing, 24, seed=11, args=(marker,),
                metrics=m2, trace=t2,
            )
        finally:
            resumed.close()
            backend.shutdown()
        for proc in procs:
            proc.join(timeout=30.0)
        assert (agg, m2.snapshot(), t2.records) == reference
        counters = resumed.ops_metrics.snapshot()["counters"]
        assert counters["runtime.chunks_salvaged"] >= 1


class TestCli:
    BURST = ["burst", "C/C", "-y", "3", "-x", "2", "--trials", "32"]

    def test_workers_bad_spec_exits_2(self, capsys):
        assert main(["workers", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_workers_unreachable_coordinator_exits_2(self, capsys):
        port = free_port()
        code = main([
            "workers", "--connect", f"127.0.0.1:{port}",
            "--connect-timeout", "0.3",
        ])
        assert code == 2
        assert "no coordinator reachable" in capsys.readouterr().err

    def test_resume_backend_and_connect_conflict(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        assert main(self.BURST + ["--checkpoint", ck]) == 0
        capsys.readouterr()
        code = main([
            "resume", ck, "--backend", "local", "--connect", "127.0.0.1:1",
        ])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_resume_rejects_bad_backend_spec(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        assert main(self.BURST + ["--checkpoint", ck]) == 0
        capsys.readouterr()
        assert main(["resume", ck, "--backend", "smoke-signals"]) == 2
        assert "unknown executor backend" in capsys.readouterr().err
