"""Setup probe: one fresh interpreter sets a workload up, then waits.

``python3 perfbench/probe.py WORKLOAD SEED`` imports the program, builds
what the workload runs on (runner, pool, TCP fleet or daemon), runs one
warm-up, prints ``ready`` and blocks until its stdin closes; then it
tears down.  ``run.py`` times the interval from starting this process
to the ``ready`` line: that is one ``setup_s`` sample.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path


def _stop(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _stop)
    workload, seed = argv[0], int(argv[1])
    from common import RunContext, preflight
    from procs import RUN_ENV, ProcessGroup
    from run import WORKLOADS

    preflight()
    module = WORKLOADS[workload]()
    run_dir = Path(os.environ["PERFBENCH_RUN_DIR"])
    with ProcessGroup(run_dir, os.environ[RUN_ENV]) as procs:
        scratch = run_dir / f"probe-{os.getpid()}"
        scratch.mkdir()
        ctx = RunContext(seed=seed, seconds=0.0, run_dir=scratch, procs=procs)
        state = module.setup(ctx)
        try:
            print("ready", flush=True)
            sys.stdin.read()
        finally:
            module.teardown(state)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
