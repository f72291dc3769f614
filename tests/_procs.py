"""Process helpers shared by the tests that spawn real processes.

CLI subprocesses (``python -m repro.cli ...``) each lead their own
session, so a whole process tree -- coordinator plus pool children --
can be SIGKILLed as one group and checked for survivors.  TCP worker
hosts are forked ``run_worker`` processes dialing a coordinator port;
they retry-connect, so they may start before the coordinator binds.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import repro
from repro.runtime.executors.worker import run_worker

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def free_port():
    """A TCP port on 127.0.0.1 that was free a moment ago."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_worker_procs(address, count):
    """Real worker processes dialing the coordinator (they retry-connect)."""
    host, port = address
    ctx = multiprocessing.get_context()
    procs = []
    for slot in range(count):
        proc = ctx.Process(
            target=run_worker, args=(host, port),
            kwargs={"worker_id": f"w{slot}"}, daemon=True,
        )
        proc.start()
        procs.append(proc)
    return procs


def reap_worker_procs(procs, timeout=30.0):
    """SIGKILL and join worker processes still running after a sweep.

    A worker that never joined keeps dialing until its connect timeout,
    so waiting for it to exit on its own can take half a minute.
    """
    for proc in procs:
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=timeout)
        assert not proc.is_alive(), f"worker {proc.pid} outlived SIGKILL"


def daemon_env():
    """The environment for a CLI subprocess: this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def start_cli(*argv):
    # Its own session: the process leads a group holding its pool
    # children, so the whole tree can be reaped after a kill -9.
    return start_python("-m", "repro.cli", *argv)


def start_python(*argv):
    """``python *argv`` leading its own session, output discarded."""
    return subprocess.Popen(
        [sys.executable, *argv],
        env=daemon_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def start_daemon(state_dir, backend="local", workers=2):
    return start_cli(
        "serve", "--state-dir", str(state_dir), "--port", "0",
        "--workers", str(workers), "--backend", backend,
    )


def group_members(pgid):
    """Live (non-zombie) pids in process group ``pgid``, read from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # After the parenthesised command name: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def kill_group(proc):
    """SIGKILL whatever is left of a process's group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def group_survivors(pgid, timeout=30.0):
    deadline = time.monotonic() + timeout
    while (members := group_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return members


def wait_endpoint(state_dir, proc, timeout=60.0):
    """Wait until the daemon on ``state_dir`` publishes a live endpoint."""
    endpoint = Path(state_dir) / "endpoint.json"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(f"daemon exited early: {proc.returncode}")
        if endpoint.exists():
            info = json.loads(endpoint.read_text())
            try:
                with socket.create_connection(
                    (info["host"], info["port"]), timeout=1.0
                ):
                    if info["pid"] == proc.pid:
                        return info
            except OSError:
                pass
        time.sleep(0.1)
    raise AssertionError("daemon never published a live endpoint")


def http(info, method, path, body=None):
    """One JSON request to a daemon endpoint: ``(status, decoded body)``."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://{info['host']}:{info['port']}{path}",
        data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())
