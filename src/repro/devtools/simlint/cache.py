"""Incremental result cache: content-hashed, two-granularity.

Linting the whole tree parses every file, which matters for the
pre-commit hook and for CI re-runs.  The cache keeps warm runs fast
without ever trading away correctness:

* **run level** -- a key over the rule set and every file's content hash.
  When nothing changed, the previous findings are replayed verbatim (no
  parsing at all), byte-identical to a cold run.
* **file level** -- every rule sees one file at a time, so a file's
  findings are cached per ``(file sha256, rule set)``; after an edit,
  only the touched files are re-linted.

The cache file itself (:data:`DEFAULT_CACHE_PATH`) is a plain JSON
artifact, safe to delete at any time; a corrupt or version-skewed cache
is treated as empty.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .core import Finding, Linter

__all__ = ["DEFAULT_CACHE_PATH", "run_with_cache"]

DEFAULT_CACHE_PATH = ".simlint-cache.json"
#: Bump when rule semantics or the cache layout change: stale per-file
#: verdicts from an older simlint must never be replayed.
_CACHE_VERSION = 1


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_cache(path: Path) -> dict[str, object]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) or payload.get("version") != _CACHE_VERSION:
        return {}
    return payload


def _dump_findings(findings: list[Finding]) -> list[dict[str, object]]:
    return [f.to_json() for f in findings]


def _load_findings(raw: object) -> list[Finding] | None:
    if not isinstance(raw, list):
        return None
    try:
        return [Finding.from_json(obj) for obj in raw]
    except (KeyError, TypeError, ValueError):
        return None


def run_with_cache(
    linter: Linter, paths: list[str], cache_path: str | Path
) -> list[Finding]:
    """Like :meth:`Linter.run`, reusing cached verdicts where sound."""
    cache_file = Path(cache_path)
    files = linter.collect_files(paths)

    hashes: dict[str, str] = {}
    for path in files:
        hashes[str(path)] = _sha256(path.read_bytes())

    rules_key = _sha256(
        json.dumps([_CACHE_VERSION, linter.rule_ids]).encode()
    )
    run_key = _sha256(
        json.dumps([rules_key, sorted(hashes.items())]).encode()
    )

    cache = _load_cache(cache_file)
    if cache.get("run_key") == run_key:
        cached = _load_findings(cache.get("findings"))
        if cached is not None:
            return cached

    contexts, findings = linter.parse(files)

    file_entries: dict[str, dict[str, object]] = {}
    old_files = cache.get("files", {})
    if not isinstance(old_files, dict):
        old_files = {}
    for ctx in contexts:
        key = ctx.display_path
        fhash = hashes[key]
        old = old_files.get(key)
        reused: list[Finding] | None = None
        if (
            isinstance(old, dict)
            and old.get("sha256") == fhash
            and old.get("rules_key") == rules_key
        ):
            reused = _load_findings(old.get("findings"))
        if reused is None:
            reused = linter.run_file_rules(ctx)
        findings.extend(reused)
        file_entries[key] = {
            "sha256": fhash,
            "rules_key": rules_key,
            "findings": _dump_findings(reused),
        }

    findings = sorted(findings)

    payload = {
        "version": _CACHE_VERSION,
        "run_key": run_key,
        "findings": _dump_findings(findings),
        "files": file_entries,
    }
    try:
        cache_file.write_text(
            json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError:
        pass  # a read-only tree degrades to uncached linting
    return findings
