"""Child processes and scratch directories of one benchmark run.

Every process a run starts (setup probes, ``mlec-sim workers``, the
``mlec-sim serve`` daemon) goes through a :class:`ProcessGroup`, whose
``close`` terminates and waits for each one -- on success, on a failed
check, and on Ctrl-C or SIGTERM, since ``run.py`` turns both into
exceptions that unwind through ``close``.  Children start in their own
session, so ``close`` signals a child's whole process group, grandchildren
included.

A run that is SIGKILLed cannot clean up after itself.  To keep a leaked
child from slowing the next run, every child carries the run's id in its
environment and the run records child pids in its scratch directory;
:func:`reap_stale_runs` kills the recorded children of any run whose own
process is gone, then deletes that run's directory.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import shutil
import signal
import subprocess
from collections.abc import Iterator, Sequence
from pathlib import Path

#: Scratch root inside the checkout (listed in the repository's .gitignore).
SCRATCH_DIRNAME = ".perfbench_tmp"
#: Environment variable naming the run that owns a child process.
RUN_ENV = "PERFBENCH_RUN"
_PIDS_FILE = "children.pids"
_OWNER_FILE = "owner.pid"
_STOP_TIMEOUT_S = 10.0


def _signal_group(pgid: int, sig: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, sig)


class ProcessGroup:
    """The child processes of one run; :meth:`close` reaps all of them."""

    def __init__(self, run_dir: Path, run_id: str) -> None:
        self._run_dir = run_dir
        self._run_id = run_id
        self._procs: list[subprocess.Popen[bytes]] = []

    def spawn(
        self, argv: Sequence[str], env: dict[str, str] | None = None, **kwargs: object
    ) -> subprocess.Popen[bytes]:
        """Start ``argv`` in a new session, tagged with this run's id."""
        child_env = dict(os.environ if env is None else env)
        child_env[RUN_ENV] = self._run_id
        proc: subprocess.Popen[bytes] = subprocess.Popen(  # type: ignore[call-overload]
            list(argv), env=child_env, start_new_session=True, **kwargs
        )
        self._procs.append(proc)
        with open(self._run_dir / _PIDS_FILE, "a", encoding="ascii") as fh:
            fh.write(f"{proc.pid}\n")
        return proc

    def stop(self, proc: subprocess.Popen[bytes], timeout: float = _STOP_TIMEOUT_S) -> int:
        """SIGTERM the child's process group, SIGKILL it if it lingers."""
        if proc.poll() is None:
            _signal_group(proc.pid, signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                _signal_group(proc.pid, signal.SIGKILL)
                proc.wait()
        # Grandchildren outlive a child that exited on its own.
        _signal_group(proc.pid, signal.SIGKILL)
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                with contextlib.suppress(OSError):
                    stream.close()
        return proc.returncode

    def close(self) -> None:
        while self._procs:
            self.stop(self._procs.pop())

    def __enter__(self) -> ProcessGroup:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _tagged(pid: int, run_id: str) -> bool:
    """Whether ``pid`` is a child the run ``run_id`` started."""
    try:
        environ = Path(f"/proc/{pid}/environ").read_bytes()
    except OSError:
        return False
    return f"{RUN_ENV}={run_id}".encode() in environ.split(b"\0")


def reap_stale_runs(root: Path) -> int:
    """Kill the children of dead runs under ``root``; return how many."""
    killed = 0
    if not root.is_dir():
        return 0
    for run_dir in root.iterdir():
        try:
            owner = int((run_dir / _OWNER_FILE).read_text().strip())
        except (OSError, ValueError):
            owner = -1
        if owner > 0 and _alive(owner):
            continue
        pids_file = run_dir / _PIDS_FILE
        pids = pids_file.read_text().split() if pids_file.exists() else []
        for text in pids:
            pid = int(text)
            if _alive(pid) and _tagged(pid, run_dir.name):
                _signal_group(pid, signal.SIGKILL)
                killed += 1
        shutil.rmtree(run_dir, ignore_errors=True)
    return killed


@contextlib.contextmanager
def run_scope(checkout: Path) -> Iterator[tuple[Path, ProcessGroup]]:
    """A fresh scratch directory and process group, both removed on exit."""
    root = checkout / SCRATCH_DIRNAME
    reap_stale_runs(root)
    run_id = f"run-{os.getpid()}-{secrets.token_hex(4)}"
    run_dir = root / run_id
    run_dir.mkdir(parents=True)
    (run_dir / _OWNER_FILE).write_text(f"{os.getpid()}\n")
    procs = ProcessGroup(run_dir, run_id)
    try:
        yield run_dir, procs
    finally:
        procs.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()  # only when no other run is using it
