"""ResilientRunner: checkpoint/resume round-trips, retry with backoff,
pool-crash recovery, corrupt-journal rejection, and the CLI resume flow.

The acceptance bar mirrors the runtime suite's: every recovery path must
leave the final aggregate, merged metrics snapshot, and trace stream
bitwise identical to an uninterrupted ``workers=1`` run.
"""

import base64
import json
import os
import pickle
import signal
import time

import pytest

from repro.cli import main
from repro.core.config import RNG_STREAM
from repro.obs import MetricsRegistry, TraceRecorder
from repro.runtime import (
    CheckpointError,
    ResilientRunner,
    RetryPolicy,
    TrialExecutionError,
    TrialRunner,
    read_checkpoint_argv,
)

#: Retries without wall-clock pauses: tests exercise the retry *logic*,
#: the backoff arithmetic is pinned separately in TestRetryPolicy.
FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


# ----------------------------------------------------------------------
# Module-level trial functions (process pools must be able to pickle them)
# ----------------------------------------------------------------------
def _value_trial(ctx):
    return float(ctx.rng().random())


def _telemetry_trial(ctx, marker=None):
    """Returns a random value; SIGKILLs its worker once if given a marker."""
    if marker is not None and ctx.index == 5 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    value = float(ctx.rng().random())
    if ctx.metrics is not None:
        ctx.metrics.counter("sim.trials_done").inc()
    if ctx.trace is not None:
        ctx.trace.event(0.0, "sim.trial_done", value=value)
    return value


def _fail_until_marker_trial(ctx, marker):
    """Deterministically fails trial 9 until the marker file appears."""
    if ctx.index == 9 and not os.path.exists(marker):
        raise RuntimeError("transient outage")
    return float(ctx.rng().random())


def _hang_once_trial(ctx, marker):
    """Hangs trial 2 far past any chunk timeout, but only once."""
    if ctx.index == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(120.0)
    return float(ctx.rng().random())


def _poison_trial(ctx):
    if ctx.index >= 6:
        raise RuntimeError("permanently poisoned")
    return float(ctx.rng().random())


def _run_telemetry(runner, trials, seed, marker=None):
    metrics, trace = MetricsRegistry(), TraceRecorder()
    agg = runner.run(
        _telemetry_trial, trials, seed=seed, args=(marker,),
        metrics=metrics, trace=trace,
    )
    return agg, metrics.snapshot(), trace.records


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter_fraction"):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().backoff_seconds(0, 0)

    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff_seconds(2, 7) == policy.backoff_seconds(2, 7)
        # Jitter derives from (chunk, attempt), so different chunks differ.
        assert policy.backoff_seconds(2, 7) != policy.backoff_seconds(2, 8)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base=1.0, backoff_factor=2.0, backoff_max=3.0,
            jitter_fraction=0.0,
        )
        assert policy.backoff_seconds(1, 0) == 1.0
        assert policy.backoff_seconds(2, 0) == 2.0
        assert policy.backoff_seconds(3, 0) == 3.0  # capped
        assert policy.backoff_seconds(9, 0) == 3.0

    def test_jitter_only_shrinks(self):
        policy = RetryPolicy(backoff_base=1.0, jitter_fraction=0.25)
        for chunk in range(16):
            delay = policy.backoff_seconds(1, chunk)
            assert 0.75 <= delay <= 1.0


class TestDropIn:
    """ResilientRunner is a TrialRunner: same results, any worker count."""

    def test_matches_plain_runner(self):
        base = TrialRunner(workers=1).run(_value_trial, 50, seed=7)
        assert ResilientRunner(workers=1).run(_value_trial, 50, seed=7) == base
        assert ResilientRunner(workers=2).run(_value_trial, 50, seed=7) == base

    def test_telemetry_matches_plain_runner(self):
        base = _run_telemetry(TrialRunner(workers=1), 40, 3)
        for workers in (1, 2):
            got = _run_telemetry(ResilientRunner(workers=workers), 40, 3)
            assert got == base

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="chunk_timeout"):
            ResilientRunner(chunk_timeout=0.0)
        with pytest.raises(ValueError, match="resume"):
            ResilientRunner(resume=True)
        with pytest.raises(ValueError, match="trials"):
            ResilientRunner().run(_value_trial, 0)


class TestCrashRecovery:
    """A SIGKILLed worker costs a retry, never a wrong answer."""

    def test_sigkill_recovers_bitwise_identical(self, tmp_path):
        reference = _run_telemetry(TrialRunner(workers=1), 24, 11)
        marker = str(tmp_path / "crashed-once")
        runner = ResilientRunner(workers=2, chunk_size=3, policy=FAST)
        got = _run_telemetry(runner, 24, 11, marker=marker)
        assert os.path.exists(marker), "the crash trial never fired"
        assert got == reference
        counters = runner.ops_metrics.snapshot()["counters"]
        assert counters["runtime.pool_rebuilds"] >= 1
        # Exactly one attempt is charged for the one crash: every other
        # future the broken pool failed is collateral and reschedules
        # uncharged, so a poison chunk can never exhaust the retry
        # budget of innocent chunks that got no CPU time.
        assert counters["runtime.chunk_retries"] == 1
        kinds = {r["kind"] for r in runner.ops_trace.records}
        assert "chunk.retry" in kinds
        assert "pool.rebuild" in kinds

    def test_hung_chunk_detected_while_others_complete(self, tmp_path):
        """The chunk_timeout watchdog fires even when wait() keeps
        returning completed chunks -- a hung chunk must not linger until
        the queue drains."""
        marker = str(tmp_path / "hung-once")
        base = TrialRunner(workers=1).run(_value_trial, 16, seed=13)
        runner = ResilientRunner(
            workers=2, chunk_size=2, policy=FAST, chunk_timeout=2.0
        )
        started = time.monotonic()
        agg = runner.run(_hang_once_trial, 16, seed=13, args=(marker,))
        elapsed = time.monotonic() - started
        assert os.path.exists(marker), "the hang trial never fired"
        # _hang_once_trial is value-equivalent to _value_trial.
        assert agg == base
        counters = runner.ops_metrics.snapshot()["counters"]
        assert counters["runtime.chunk_retries"] >= 1
        assert counters["runtime.pool_rebuilds"] >= 1
        # Far below the 120 s sleep: the stuck worker was killed, not
        # waited out.
        assert elapsed < 60.0

    def test_retry_exhaustion_salvages(self):
        runner = ResilientRunner(
            workers=1, chunk_size=2, policy=RetryPolicy(max_attempts=1)
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            runner.run(_poison_trial, 12, seed=0)
        exc = excinfo.value
        assert exc.completed_trials == 6  # chunks [0,2),[2,4),[4,6)
        assert "salvaged 6 completed trials" in str(exc)

    def test_serial_retry_recovers(self, tmp_path):
        marker = str(tmp_path / "marker")
        open(marker + ".never", "w").close()  # keep tmp_path non-empty
        runner = ResilientRunner(workers=1, chunk_size=4, policy=FAST)
        # First attempt of chunk [8,12) fails at trial 9; the retry runs
        # after the marker exists, so the sweep completes.
        open(marker, "w").close()
        agg = runner.run(_fail_until_marker_trial, 16, seed=2, args=(marker,))
        assert agg.trials == 16


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("resume_workers", [1, 2])
    def test_interrupt_then_resume_identical(self, tmp_path, resume_workers):
        reference = _run_telemetry(TrialRunner(workers=1), 24, 11)
        marker = str(tmp_path / "marker")
        ck = tmp_path / "ck.jsonl"

        # Interrupted run: trial 9 fails until the marker file exists and
        # retries are disabled, so the run dies after journaling the
        # chunks it completed.
        broken = ResilientRunner(
            workers=1, chunk_size=3, checkpoint=ck,
            policy=RetryPolicy(max_attempts=1),
        )
        metrics, trace = MetricsRegistry(), TraceRecorder()
        with pytest.raises(TrialExecutionError):
            broken.run(
                _telemetry_trial_failing, 24, seed=11, args=(marker,),
                metrics=metrics, trace=trace,
            )
        broken.close()
        assert ck.exists()

        # Recovery: the outage clears, the resumed runner (at a possibly
        # different worker count) completes the sweep.
        open(marker, "w").close()
        resumed = ResilientRunner(
            workers=resume_workers, checkpoint=ck, resume=True, policy=FAST
        )
        m2, t2 = MetricsRegistry(), TraceRecorder()
        agg = resumed.run(
            _telemetry_trial_failing, 24, seed=11, args=(marker,),
            metrics=m2, trace=t2,
        )
        resumed.close()
        assert (agg, m2.snapshot(), t2.records) == reference
        counters = resumed.ops_metrics.snapshot()["counters"]
        assert counters["runtime.chunks_salvaged"] >= 1
        kinds = {r["kind"] for r in resumed.ops_trace.records}
        assert "checkpoint.salvage" in kinds

    def test_multi_sweep_checkpoint(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        marker = str(tmp_path / "marker")
        base1 = TrialRunner(workers=1).map(_value_trial, 12, seed=1)
        # When the marker exists the flaky trial fn is value-equivalent
        # to _value_trial, so the plain runner gives the reference.
        base2 = TrialRunner(workers=1).map(_value_trial, 12, seed=2)

        first = ResilientRunner(
            workers=1, chunk_size=3, checkpoint=ck,
            policy=RetryPolicy(max_attempts=1),
        )
        assert first.map(_value_trial, 12, seed=1) == base1
        with pytest.raises(TrialExecutionError):
            first.map(_fail_until_marker_trial, 12, seed=2, args=(marker,))
        first.close()

        # The outage clears; the resumed runner replays the same call
        # sequence: sweep 0 comes entirely from the journal, sweep 1
        # re-runs only its missing chunks.
        open(marker, "w").close()
        resumed = ResilientRunner(
            workers=1, chunk_size=3, checkpoint=ck, resume=True, policy=FAST
        )
        assert resumed.map(_value_trial, 12, seed=1) == base1
        counters = resumed.ops_metrics.snapshot()["counters"]
        assert counters["runtime.chunks_salvaged"] == 4
        assert resumed.map(
            _fail_until_marker_trial, 12, seed=2, args=(marker,)
        ) == base2
        resumed.close()

    def test_existing_checkpoint_refused_without_resume(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        runner = ResilientRunner(workers=1, checkpoint=ck)
        runner.run(_value_trial, 8, seed=0)
        runner.close()
        with pytest.raises(CheckpointError, match="already exists"):
            ResilientRunner(workers=1, checkpoint=ck)

    def test_resume_without_file_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            ResilientRunner(checkpoint=tmp_path / "missing.jsonl", resume=True)

    def test_seed_mismatch_refused(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        runner = ResilientRunner(workers=1, checkpoint=ck)
        runner.run(_value_trial, 8, seed=0)
        runner.close()
        resumed = ResilientRunner(workers=1, checkpoint=ck, resume=True)
        with pytest.raises(CheckpointError, match="seed"):
            resumed.run(_value_trial, 8, seed=999)

    def test_other_rng_stream_refused(self, tmp_path):
        """A journal recorded under another draw order -- here one from
        before the header carried ``rng_stream`` -- is refused loudly
        rather than mixing its chunks with this stream's."""
        ck = tmp_path / "ck.jsonl"
        runner = ResilientRunner(workers=1, chunk_size=2, checkpoint=ck)
        runner.run(_value_trial, 8, seed=0)
        runner.close()
        lines = ck.read_text().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        at = next(i for i, r in enumerate(records) if r["kind"] == "sweep")
        assert records[at]["data"]["rng_stream"] == RNG_STREAM
        del records[at]["data"]["rng_stream"]
        lines[at] = json.dumps(records[at], separators=(",", ":")) + "\n"
        ck.write_text("".join(lines))
        resumed = ResilientRunner(workers=1, checkpoint=ck, resume=True)
        with pytest.raises(CheckpointError, match="rng_stream=None"):
            resumed.run(_value_trial, 8, seed=0)
        resumed.close()

    def test_payload_under_retired_alias_refused(self, tmp_path):
        """A chunk payload pickled under the retired
        ``repro.runtime.runner._ChunkPayload`` name is refused loudly,
        never half-read."""
        ck = tmp_path / "ck.jsonl"
        runner = ResilientRunner(workers=1, chunk_size=2, checkpoint=ck)
        runner.run(_value_trial, 8, seed=0)
        runner.close()
        lines = ck.read_text().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        at = next(i for i, r in enumerate(records) if r["kind"] == "chunk")
        payload = pickle.loads(base64.b64decode(records[at]["payload"]))
        # Protocol 2 names the class in one text GLOBAL opcode.
        raw = pickle.dumps(payload, protocol=2)
        current = b"crepro.runtime.executors.base\nChunkPayload\n"
        assert current in raw
        raw = raw.replace(current, b"crepro.runtime.runner\n_ChunkPayload\n")
        records[at]["payload"] = base64.b64encode(raw).decode("ascii")
        lines[at] = json.dumps(records[at], separators=(",", ":")) + "\n"
        ck.write_text("".join(lines))
        with pytest.raises(CheckpointError, match="undecodable chunk payload"):
            ResilientRunner(workers=1, checkpoint=ck, resume=True)

    def test_library_journal_has_no_argv(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        runner = ResilientRunner(workers=1, checkpoint=ck)
        runner.run(_value_trial, 8, seed=0)
        runner.close()
        with pytest.raises(CheckpointError, match="command line"):
            read_checkpoint_argv(ck)


def _telemetry_trial_failing(ctx, marker):
    """Telemetry trial whose trial 9 fails until the marker appears."""
    if ctx.index == 9 and not os.path.exists(marker):
        raise RuntimeError("transient outage")
    return _telemetry_trial(ctx)


class TestJournalCorruption:
    @staticmethod
    def _write_journal(tmp_path, trials=12, seed=4):
        ck = tmp_path / "ck.jsonl"
        runner = ResilientRunner(workers=1, chunk_size=3, checkpoint=ck)
        expected = runner.map(_value_trial, trials, seed=seed)
        runner.close()
        return ck, expected

    def test_torn_tail_dropped_and_rerun(self, tmp_path):
        ck, expected = self._write_journal(tmp_path)
        lines = ck.read_bytes().splitlines(keepends=True)
        # Simulate a writer killed mid-append: the last record is torn.
        ck.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        resumed = ResilientRunner(workers=1, checkpoint=ck, resume=True)
        assert resumed.map(_value_trial, 12, seed=4) == expected
        resumed.close()
        counters = resumed.ops_metrics.snapshot()["counters"]
        assert counters["runtime.chunks_salvaged"] == 3  # 4 chunks - torn 1

    def test_resumed_run_crashing_again_stays_resumable(self, tmp_path):
        """Crash-at-any-instant must hold across *repeated* resumes.

        A torn tail must be truncated before the resumed run appends,
        otherwise its first record is concatenated onto the partial line
        and every later load fails with CheckpointError.
        """
        ck, expected = self._write_journal(tmp_path)
        lines = ck.read_bytes().splitlines(keepends=True)
        ck.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

        # First resume re-runs the torn chunk and appends its record.
        first = ResilientRunner(workers=1, checkpoint=ck, resume=True)
        assert first.map(_value_trial, 12, seed=4) == expected
        first.close()
        for line in ck.read_bytes().splitlines():
            json.loads(line)  # every record is intact JSON again

        # A second crash-and-resume (e.g. the resumed run dies too) must
        # load the journal and salvage every chunk without re-running.
        second = ResilientRunner(workers=1, checkpoint=ck, resume=True)
        assert second.map(_value_trial, 12, seed=4) == expected
        second.close()
        counters = second.ops_metrics.snapshot()["counters"]
        assert counters["runtime.chunks_salvaged"] == 4
        assert counters.get("checkpoint.chunk_writes", 0) == 0

    def test_corrupt_body_line_rejected(self, tmp_path):
        ck, _expected = self._write_journal(tmp_path)
        lines = ck.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"v":1,"kind":"chunk","garbage\n'
        ck.write_bytes(b"".join(lines))
        with pytest.raises(CheckpointError, match="ck.jsonl:3"):
            ResilientRunner(workers=1, checkpoint=ck, resume=True)

    def test_wrong_schema_version_rejected(self, tmp_path):
        ck, _expected = self._write_journal(tmp_path)
        lines = ck.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"v":1', '"v":99', 1)
        ck.write_text("".join(lines))
        with pytest.raises(CheckpointError, match="schema version"):
            ResilientRunner(workers=1, checkpoint=ck, resume=True)

    def test_undecodable_payload_rejected(self, tmp_path):
        ck, _expected = self._write_journal(tmp_path)
        lines = ck.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["payload"] = "bm90IGEgcGlja2xl"  # b64("not a pickle")
        lines[2] = json.dumps(record, separators=(",", ":")) + "\n"
        ck.write_text("".join(lines))
        with pytest.raises(CheckpointError, match="payload"):
            ResilientRunner(workers=1, checkpoint=ck, resume=True)

    def test_non_journal_file_rejected(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        ck.write_text("just some text\n")
        with pytest.raises(CheckpointError):
            ResilientRunner(workers=1, checkpoint=ck, resume=True)

    def test_empty_file_rejected(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        ck.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            ResilientRunner(workers=1, checkpoint=ck, resume=True)


class TestCliResume:
    BURST = ["burst", "C/C", "-y", "3", "-x", "2", "--trials", "32"]

    def _artifacts(self, tmp_path, tag):
        return str(tmp_path / f"{tag}.trace"), str(tmp_path / f"{tag}.json")

    def test_resume_replays_and_matches_artifacts(self, tmp_path, capsys):
        base_trace, base_metrics = self._artifacts(tmp_path, "base")
        assert main(
            self.BURST + ["--trace", base_trace, "--metrics", base_metrics]
        ) == 0
        baseline = capsys.readouterr().out

        ck = str(tmp_path / "ck.jsonl")
        ck_trace, ck_metrics = self._artifacts(tmp_path, "ck")
        assert main(
            self.BURST + [
                "--checkpoint", ck, "--trace", ck_trace,
                "--metrics", ck_metrics, "--workers", "2",
            ]
        ) == 0
        capsys.readouterr()

        # Drop the last two journaled chunks: byte-for-byte what a run
        # killed mid-sweep leaves behind.  Remove the artifacts too --
        # the resume must regenerate them.
        lines = (tmp_path / "ck.jsonl").read_bytes().splitlines(keepends=True)
        (tmp_path / "ck.jsonl").write_bytes(b"".join(lines[:-2]))
        os.unlink(ck_trace)
        os.unlink(ck_metrics)

        assert main(["resume", ck]) == 0
        out = capsys.readouterr().out
        with open(base_trace, "rb") as a, open(ck_trace, "rb") as b:
            assert a.read() == b.read()
        with open(base_metrics, "rb") as a, open(ck_metrics, "rb") as b:
            assert a.read() == b.read()
        # stdout matches modulo the artifact file names.
        assert out.replace("ck.", "base.") == baseline

    def test_resume_junk_file_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("not a journal\n")
        assert main(["resume", str(junk)]) == 2
        assert "error" in capsys.readouterr().err

    def test_exact_burst_rejects_checkpoint(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        code = main(
            ["burst", "C/C", "-y", "3", "-x", "2", "--exact",
             "--checkpoint", ck]
        )
        assert code == 2
        assert "Monte-Carlo" in capsys.readouterr().err

    def test_negative_max_retries_rejected(self, capsys):
        code = main(self.BURST + ["--max-retries", "-1"])
        assert code == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_existing_checkpoint_hint(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        assert main(self.BURST + ["--checkpoint", ck]) == 0
        capsys.readouterr()
        assert main(self.BURST + ["--checkpoint", ck]) == 2
        assert "already exists" in capsys.readouterr().err
