"""Command-line front end for simlint.

Exit codes: 0 -- no findings; 1 -- findings reported (including SL000
diagnostics for files that do not parse); 2 -- usage error or a target
that could not be linted (missing path, unreadable file).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence, TextIO

from .core import RULE_REGISTRY, LintError, Linter

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description=(
            "Domain-aware static analysis for the MLEC simulator: seeded "
            "randomness, float equality in the numerical core, library "
            "hygiene, executor and batch-path discipline, span scoping, and "
            "blocking calls in the service's event loop."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
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
        findings = Linter(rules=selected).run(list(args.paths))
    except LintError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2

    for finding in findings:
        out.write(finding.format() + "\n")
    if findings:
        out.write(f"simlint: {len(findings)} finding(s)\n")
    return 1 if findings else 0
