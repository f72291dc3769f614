"""Command-line front end for simlint.

Exit codes: 0 -- no findings; 1 -- findings reported (including SL000
diagnostics for files that do not parse); 2 -- usage error or a target
that could not be linted (missing path, unreadable file).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence, TextIO

from .cache import DEFAULT_CACHE_PATH, run_with_cache
from .core import RULE_REGISTRY, Finding, LintError, Linter
from .sarif import render_sarif

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description=(
            "Domain-aware static analysis for the MLEC simulator: seeded "
            "randomness (per-file and whole-program taint), event-dispatch "
            "exhaustiveness, unit discipline, pool picklability, "
            "deterministic iteration/fold order, and telemetry segregation."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--output", metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--cache", metavar="PATH", nargs="?", const=DEFAULT_CACHE_PATH,
        help=(
            "reuse per-file results keyed by content hash "
            f"(default path: {DEFAULT_CACHE_PATH})"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _list_rules(out: TextIO) -> None:
    # Ensure built-in rules are registered before listing.
    Linter()
    for rule_id in sorted(RULE_REGISTRY):
        rule = RULE_REGISTRY[rule_id]
        out.write(f"{rule_id}  {rule.title}\n    {rule.rationale}\n")


def _render(findings: list[Finding], fmt: str, rule_ids: list[str]) -> str:
    if fmt == "json":
        return json.dumps(
            {"findings": [f.to_json() for f in findings]}, indent=2,
        ) + "\n"
    if fmt == "sarif":
        return render_sarif(findings, rule_ids)
    chunks = [f.format() + "\n" for f in findings]
    if findings:
        chunks.append(f"simlint: {len(findings)} finding(s)\n")
    return "".join(chunks)


def main(argv: Sequence[str] | None = None, out: TextIO | None = None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules(out)
        return 0

    selected: set[str] | None = None
    if args.rules:
        selected = {r.strip() for r in args.rules.split(",") if r.strip()}

    try:
        linter = Linter(rules=selected)
        if args.cache:
            findings = run_with_cache(linter, list(args.paths), args.cache)
        else:
            findings = linter.run(list(args.paths))
    except LintError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2

    report = _render(findings, args.format, linter.rule_ids)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            print(f"simlint: error: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        out.write(report)
    return 1 if findings else 0
