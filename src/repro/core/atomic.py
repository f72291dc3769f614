"""Atomic result-file writes: write-temp-then-rename with fsync.

Every results artifact this repository leaves on disk -- ``--trace``
JSONL streams, ``--metrics`` snapshots, service ``result.json`` files
-- must survive the writer being killed at any instant: an interrupted
run that leaves a truncated JSON file behind poisons every later
consumer (resume paths, CI ``cmp`` gates, trace reports).  The fix is
the classic WAL-adjacent recipe: write the full payload to a temporary
sibling in the *same directory* (so the final rename never crosses a
filesystem), flush and ``fsync`` it, then ``os.replace`` it over the
target.  Readers observe either the old complete file or the new
complete file, never a hybrid.

simlint rule SL008 (``atomic-result-write``) enforces that library code
routes ``*.json`` / ``*.jsonl`` results writes through this module.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write_text", "fsync_dir"]


def fsync_dir(path: str | Path) -> None:
    """fsync a *directory* so a rename/creation inside it is durable.

    ``fsync`` on the file alone makes the *bytes* durable; the directory
    entry pointing at them lives in the parent directory's own blocks and
    needs its own fsync, or a power cut after ``os.replace`` can roll the
    rename back and resurrect the old file (or nothing at all).  Process
    death never needs this -- the kernel's view survives -- which is why
    the gap goes unnoticed until the first real outage.

    Best effort: some filesystems (and all of Windows) refuse directory
    fsync; there is nothing more a userspace writer can do there, so the
    refusal is swallowed rather than turned into a spurious crash.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (temp + fsync + rename).

    The temporary file carries the writer's pid in its name, so two
    concurrent writers cannot clobber each other's staging file; the
    last ``os.replace`` wins, which is the usual last-writer-wins
    semantics of a plain write, minus the torn-file failure mode.  On
    any error the staging file is removed and the target is untouched.
    The parent directory is fsynced after the rename, so the new file
    survives power loss, not just process death.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        fsync_dir(target.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
