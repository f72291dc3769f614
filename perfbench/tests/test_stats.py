"""Tests of the benchmark's statistics, failure accounting and process reaping.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import http.server
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from common import Result, counted  # noqa: E402
from procs import ProcessGroup, reap_stale_runs, run_scope  # noqa: E402
from serve_jobs import ServiceClient  # noqa: E402
from stats import Outcomes, percentile, samples_beyond, summarize, tail_at  # noqa: E402


class TestSummary:
    def test_median_and_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        s = summarize(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        assert (s.median, s.q1, s.q3, s.n) == (statistics.median(values), q1, q3, 6)

    @pytest.mark.parametrize(
        "n, p", [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)]
    )
    def test_tail_is_highest_percentile_with_ten_beyond(self, n, p):
        s = summarize([float(i) for i in range(n)])
        assert s.tail_p == p
        assert samples_beyond(n, p) >= 10
        assert sum(1 for i in range(n) if i > s.tail) >= 10

    def test_too_few_samples_give_the_median_only(self):
        s = summarize([float(i) for i in range(19)])
        assert s.tail_p is None and s.tail is None
        assert s.median == 9.0
        assert "median only" in s.describe("s")

    def test_single_sample(self):
        s = summarize([2.5])
        assert (s.median, s.q1, s.q3, s.tail) == (2.5, 2.5, 2.5, None)

    def test_p90_needs_a_hundred_samples(self):
        assert tail_at([1.0] * 99, 90.0) is None
        assert tail_at([float(i) for i in range(100)], 90.0) == 89.0

    def test_nearest_rank_percentile(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            summarize([])


def _failing_trial(ctx, fail_at):
    if ctx.index == fail_at:
        raise RuntimeError("injected trial failure")
    return 0.0


class TestErrorFrac:
    def test_failing_trial_raises_error_frac(self):
        from repro.runtime import TrialExecutionError, TrialRunner

        result = Result()
        runner = TrialRunner(workers=1, chunk_size=4)
        with pytest.raises(TrialExecutionError):
            with counted(result, runner, 16, "failing sweep"):
                runner.run(_failing_trial, 16, seed=0, args=(9,))
        assert result.outcomes.attempted == 16
        assert result.outcomes.failed == 8  # chunks [8, 12) and [12, 16) never completed
        assert result.outcomes.error_frac == 0.5
        assert not result.correct

    def test_clean_sweep_counts_no_failures(self):
        from repro.runtime import TrialRunner

        result = Result()
        runner = TrialRunner(workers=1)
        with counted(result, runner, 12, "clean sweep") as tally:
            runner.run(_failing_trial, 12, seed=0, args=(-1,))
        assert tally["completed"] == 12
        assert (result.outcomes.attempted, result.outcomes.error_frac) == (12, 0.0)
        assert result.correct

    def test_non_2xx_response_raises_error_frac(self):
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                status = 200 if self.path == "/ok" else 500
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(b"{}")

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            outcomes = Outcomes()
            client = ServiceClient(server.server_address[1], outcomes)
            assert client.request("GET", "/ok")[0] == 200
            assert outcomes.error_frac == 0.0
            assert client.request("GET", "/boom")[0] == 500
            assert (outcomes.attempted, outcomes.failed) == (2, 1)
            assert outcomes.error_frac == 0.5
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_unreachable_service_counts_as_failed(self):
        with socket.socket() as sock:  # a port that was free a moment ago
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        outcomes = Outcomes()
        assert ServiceClient(port, outcomes).request("GET", "/")[0] == 0
        assert outcomes.failed == 1


SLEEPER = [sys.executable, "-c", "import time; time.sleep(120)"]
#: A child that starts a grandchild in its own process group, then sleeps.
PARENT = [
    sys.executable, "-c",
    "import subprocess, sys, time; "
    "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(120)']); "
    "print(p.pid, flush=True); time.sleep(120)",
]


def _gone(pid: int, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        status = Path(f"/proc/{pid}/stat")
        if status.exists() and status.read_text().split()[2] == "Z":
            return True  # a zombie has exited; only its parent's wait remains
        time.sleep(0.05)
    return False


class TestReaping:
    def test_close_reaps_children_and_grandchildren(self, tmp_path):
        procs = ProcessGroup(tmp_path, "run-test")
        child = procs.spawn(PARENT, stdout=subprocess.PIPE)
        grandchild = int(child.stdout.readline())
        procs.close()
        assert child.poll() is not None
        assert _gone(grandchild)

    def test_run_scope_reaps_on_interrupt_and_removes_its_directory(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with run_scope(tmp_path) as (run_dir, procs):
                child = procs.spawn(SLEEPER)
                raise KeyboardInterrupt
        assert child.poll() is not None
        assert not run_dir.exists()

    def test_stale_run_children_are_killed(self, tmp_path):
        root = tmp_path / "scratch"
        run_dir = root / "run-stale"
        run_dir.mkdir(parents=True)
        dead = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                              capture_output=True, text=True, check=True)
        (run_dir / "owner.pid").write_text(dead.stdout)
        leaked = ProcessGroup(run_dir, "run-stale").spawn(SLEEPER)
        try:
            assert reap_stale_runs(root) == 1
            assert leaked.wait(timeout=10) == -signal.SIGKILL
            assert not run_dir.exists()
        finally:
            if leaked.poll() is None:
                leaked.kill()
                leaked.wait()

    def test_live_runs_are_left_alone(self, tmp_path):
        root = tmp_path / "scratch"
        run_dir = root / "run-live"
        run_dir.mkdir(parents=True)
        (run_dir / "owner.pid").write_text(f"{os.getpid()}\n")
        procs = ProcessGroup(run_dir, "run-live")
        child = procs.spawn(SLEEPER)
        try:
            assert reap_stale_runs(root) == 0
            assert child.poll() is None
        finally:
            procs.close()
