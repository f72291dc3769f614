"""Same-runner performance A/B: perfbench on two checkouts in interleaved pairs.

Usage::

    python benchmarks/check_regression.py BASE HEAD [WORKLOAD ...]

BASE and HEAD are checkout directories, for example a ``git worktree`` at
the merge base and the working tree.  For each workload (default: every
workload in HEAD's ``BENCHMARK.json``) the script runs that file's
``command`` with ``--workload W --seed I --seconds S --trace 0`` in each
checkout, for :data:`PAIRS` interleaved pairs.  Both sides of pair I use
seed I; which side runs first alternates from pair to pair, so drift of
the machine over the run hits both sides alike.

A workload fails when

* an ``end_to_end`` metric of ``BENCHMARK.json`` is worse than its bound
  (direction and bound from that file) both by median and in at least
  :data:`MAJORITY` pairs -- one noisy pair alone never fails the gate;
* any run exits non-zero, prints no result line, or reports
  ``"correct": false``;
* HEAD's ``failed``/``attempted`` share is higher than BASE's.

The verdict table is printed and, when ``GITHUB_STEP_SUMMARY`` is set (by
GitHub Actions), appended there as Markdown too.  Exit status: 0 when
every workload passes, 1 on any failure, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Interleaved (base, head) pairs per workload.
PAIRS = 5
#: Pairs that must be worse beyond the bound, with the median, to fail.
MAJORITY = PAIRS // 2 + 1


class RunError(Exception):
    """A perfbench run whose result cannot be used, with the reason."""


@dataclass(frozen=True)
class Run:
    """One perfbench invocation: its exit status and stdout."""

    returncode: int
    stdout: str

    def result(self) -> dict[str, Any]:
        """The run's result line (the last line of stdout).

        Raises :class:`RunError` naming why the run is unusable.
        """
        lines = self.stdout.strip().splitlines()
        last = lines[-1] if lines else ""
        if not last.startswith("{"):
            raise RunError(f"no result line (exit {self.returncode})")
        try:
            result = json.loads(last)
        except ValueError:
            raise RunError("truncated result line") from None
        if not isinstance(result, dict) or not {
            "correct", "attempted", "failed", "metrics"
        } <= result.keys():
            raise RunError("malformed result line")
        if result["correct"] is not True:
            raise RunError('"correct": false')
        if self.returncode != 0:
            raise RunError(f"exit {self.returncode}")
        return result


@dataclass(frozen=True)
class Row:
    """One line of the verdict table."""

    workload: str
    metric: str
    ok: bool
    note: str
    base: float | None = None
    head: float | None = None


def _worse(metric: dict[str, Any], base: float, head: float) -> bool:
    """Whether ``head`` is worse than ``base`` by more than the bound."""
    if metric["better"] == "higher":
        return head < base * (1.0 - metric["bound"])
    return head > base * (1.0 + metric["bound"])


def _compare_metric(
    workload: str, metric: dict[str, Any], results: list[tuple[dict, dict]]
) -> Row:
    name = metric["name"]
    values = [
        (base["metrics"][name]["value"], head["metrics"][name]["value"])
        for base, head in results
        if name in base["metrics"] and name in head["metrics"]
    ]
    if len(values) < len(results) or not values:
        return Row(workload, name, False, "not reported by every run")
    base = statistics.median(b for b, _ in values)
    head = statistics.median(h for _, h in values)
    worse = sum(_worse(metric, b, h) for b, h in values)
    change = head / base - 1.0 if base else 0.0
    ok = not (_worse(metric, base, head) and worse >= MAJORITY)
    note = (
        f"{change:+.1%} by median, {worse}/{len(values)} pairs worse "
        f"than the {metric['bound']:.0%} bound ({metric['better']} is better)"
    )
    return Row(workload, name, ok, note, base, head)


def _failed_share(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def check(
    spec: dict[str, Any], workload: str, pairs: list[tuple[Run, Run]]
) -> list[Row]:
    """The verdict rows of one workload's (base, head) run pairs."""
    rows = []
    usable = []
    for index, pair in enumerate(pairs, start=1):
        results = []
        for side, run in zip(("base", "head"), pair):
            try:
                results.append(run.result())
            except RunError as exc:
                rows.append(Row(workload, f"{side} run {index}", False, str(exc)))
        if len(results) == 2:
            usable.append((results[0], results[1]))
    rows.extend(_compare_metric(workload, m, usable) for m in spec["end_to_end"])
    base = _failed_share([b for b, _ in usable])
    head = _failed_share([h for _, h in usable])
    rows.append(Row(
        workload, "failed share", head <= base,
        f"{head:.3g} vs base {base:.3g}", base, head,
    ))
    return rows


def run_pairs(
    spec: dict[str, Any], base: Path, head: Path, workload: str
) -> list[tuple[Run, Run]]:
    """Run :data:`PAIRS` interleaved perfbench pairs of one workload."""
    pairs = []
    for seed in range(1, PAIRS + 1):
        sides = [("base", base), ("head", head)]
        runs = {}
        for side, checkout in sides if seed % 2 else sides[::-1]:
            print(f"{workload} pair {seed}/{PAIRS}: {side}", file=sys.stderr)
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=checkout, stdout=subprocess.PIPE, text=True,
            )
            runs[side] = Run(proc.returncode, proc.stdout)
        pairs.append((runs["base"], runs["head"]))
    return pairs


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


def render(rows: list[Row]) -> str:
    """Markdown verdict table (also readable as plain text)."""
    lines = [
        f"### perfbench A/B ({PAIRS} interleaved pairs per workload)",
        "",
        "| workload | metric | base median | head median | verdict |",
        "| --- | --- | ---: | ---: | --- |",
    ]
    for row in rows:
        verdict = "PASS" if row.ok else "**FAIL**"
        lines.append(
            f"| {row.workload} | {row.metric} | {_fmt(row.base)} "
            f"| {_fmt(row.head)} | {verdict} -- {row.note} |"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="check_regression.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("head", type=Path, help="checkout of the commit under test")
    parser.add_argument("workloads", nargs="*", help="default: all in BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    rows = []
    for workload in args.workloads or known:
        pairs = run_pairs(spec, args.base, args.head, workload)
        rows.extend(check(spec, workload, pairs))
    table = render(rows)
    print(table)
    summary = os.environ.get("GITHUB_STEP_SUMMARY", "").strip()
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(table + "\n")
    return 0 if all(row.ok for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
