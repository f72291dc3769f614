"""Trace summarization: the engine behind ``mlec-sim trace-report``.

Turns a validated record stream into the questions a PDL discrepancy
investigation asks first:

* *what happened* -- record counts by kind (top-N table);
* *how long did repairs take* -- a histogram of network-stage repair
  durations (``sim.net_repair_complete`` records), split by whether the
  repair ran degraded;
* *who lost data* -- per-pool attribution of ``sim.data_loss`` /
  ``slec.data_loss`` records, plus the byte totals that crossed racks;

and, for *operational* traces written via ``--ops-trace``:

* *what did recovery cost* -- checkpoint writes, chunk retries, pool
  rebuilds, steals, and worker deaths, summarized instead of bucketed as
  anonymous kinds;
* *where did the wall-clock go* -- the schema-v2 span tree
  (:func:`summarize_spans`): hierarchy with durations, the critical
  path, a per-phase time breakdown, and a per-host utilization timeline.

Everything here is stdlib-only string formatting so traces can be
inspected on machines without the numeric stack installed.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections.abc import Mapping, Sequence
from typing import Any

from .metrics import Histogram
from .trace import SPAN_SCHEMA_VERSION

__all__ = ["summarize_trace", "summarize_spans", "REPAIR_HOURS_BUCKETS"]

#: Bucket upper bounds (hours) for repair-duration histograms -- shared by
#: the simulator's metrics instrumentation and this report so the two views
#: of the same run always bin identically.
REPAIR_HOURS_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

_HOUR = 3600.0


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _bar(count: int, peak: int, width: int = 30) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1 if count else 0, round(width * count / peak))


def _histogram_lines(hist: Histogram, unit: str) -> list[str]:
    peak = max(hist.counts)
    lines = []
    lower = 0.0
    for bound, count in zip(hist.bounds, hist.counts):
        lines.append(
            f"  {lower:>7.1f} - {bound:>7.1f} {unit} | "
            f"{count:>6d} {_bar(count, peak)}"
        )
        lower = bound
    overflow = hist.counts[-1]
    lines.append(
        f"  {'>':>7} {hist.bounds[-1]:>9.1f} {unit} | "
        f"{overflow:>6d} {_bar(overflow, peak)}"
    )
    return lines


# ----------------------------------------------------------------------
# Operational (PR-5/6) event kinds: recovery and scheduling facts the
# resilient runner and executor backends emit into the ops trace.
# ----------------------------------------------------------------------
_OPS_KIND_LABELS = {
    "checkpoint.write": "journal appends",
    "checkpoint.salvage": "sweeps salvaged from journal",
    "chunk.retry": "chunk retries",
    "chunk.steal": "chunk leases stolen",
    "chunk.duplicate": "duplicate completions (steal losers)",
    "pool.rebuild": "pool/backend rebuilds",
    "worker.death": "worker deaths",
    "worker.join": "worker joins",
    "backend.fallback": "backend fallbacks to the local path",
}


def _ops_section(records: Sequence[Mapping[str, Any]]) -> str | None:
    """Summarize recovery/scheduling events, or None when there are none."""
    tally = TallyCounter(
        str(r["kind"]) for r in records if str(r["kind"]) in _OPS_KIND_LABELS
    )
    if not tally:
        return None
    rows: list[list[object]] = []
    for kind in _OPS_KIND_LABELS:
        count = tally.get(kind, 0)
        if not count:
            continue
        note = _OPS_KIND_LABELS[kind]
        if kind == "checkpoint.write":
            by_record = TallyCounter(
                str(r["data"].get("record", "?"))
                for r in records
                if r["kind"] == kind
            )
            detail = ", ".join(
                f"{n} {rec}" for rec, n in sorted(by_record.items())
            )
            note += f" ({detail})"
        elif kind == "chunk.retry":
            reasons = {
                str(r["data"].get("reason", ""))[:40]
                for r in records
                if r["kind"] == kind
            }
            note += f" ({len(reasons)} distinct reason(s))"
        rows.append([kind, count, note])
    return "recovery & scheduling events:\n" + _table(
        ["kind", "count", "what"], rows
    )


# ----------------------------------------------------------------------
# Span analysis (schema-v2 records)
# ----------------------------------------------------------------------
def _span_duration(record: Mapping[str, Any]) -> float:
    try:
        return max(0.0, float(record["data"].get("dur_s", 0.0)))
    except (TypeError, ValueError):
        return 0.0


def _span_end(record: Mapping[str, Any]) -> float:
    return float(record["ts"]) + _span_duration(record)


def _span_label(record: Mapping[str, Any], duration: float) -> str:
    data = record["data"]
    bits = [str(record["kind"]), f"{duration:.3f}s"]
    for field in ("host", "lo", "hi", "attempt", "status"):
        if field in data and data[field] is not None:
            bits.append(f"{field}={data[field]}")
    return "  ".join(bits)


def _render_span_tree(
    roots: list[dict[str, Any]],
    children: dict[str, list[dict[str, Any]]],
    top: int,
) -> list[str]:
    lines: list[str] = []
    seen: set[str] = set()

    def walk(record: dict[str, Any], depth: int) -> None:
        span_id = str(record["span"])
        if span_id in seen:  # defensive: a corrupt trace could cycle
            return
        seen.add(span_id)
        lines.append("  " * depth + _span_label(record, _span_duration(record)))
        kids = sorted(children.get(span_id, ()), key=lambda r: (r["ts"], r["span"]))
        for kid in kids[:top]:
            walk(kid, depth + 1)
        if len(kids) > top:
            lines.append(
                "  " * (depth + 1) + f"... ({len(kids) - top} more sibling(s))"
            )

    for root in roots:
        walk(root, 1)
    return lines


def _critical_path(
    root: dict[str, Any], children: dict[str, list[dict[str, Any]]]
) -> list[dict[str, Any]]:
    """Follow the last-finishing child from the root down to a leaf."""
    path = [root]
    seen = {str(root["span"])}
    node = root
    while True:
        kids = [
            k
            for k in children.get(str(node["span"]), ())
            if str(k["span"]) not in seen
        ]
        if not kids:
            return path
        node = max(kids, key=_span_end)
        seen.add(str(node["span"]))
        path.append(node)


def _host_timeline(
    spans: Sequence[Mapping[str, Any]], width: int = 40
) -> list[str]:
    """ASCII busy/idle strip per host from host-attributed spans."""
    by_host: dict[str, list[tuple[float, float]]] = {}
    for record in spans:
        host = record["data"].get("host")
        if not isinstance(host, str):
            continue
        by_host.setdefault(host, []).append(
            (float(record["ts"]), _span_end(record))
        )
    if not by_host:
        return []
    t0 = min(start for spans_ in by_host.values() for start, _ in spans_)
    t1 = max(end for spans_ in by_host.values() for _, end in spans_)
    window = max(t1 - t0, 1e-9)
    lines = [f"per-host utilization over [{t0:.3f}s, {t1:.3f}s]:"]
    name_w = max(len(h) for h in by_host)
    for host in sorted(by_host):
        cells = [" "] * width
        busy = 0.0
        for start, end in by_host[host]:
            busy += max(0.0, end - start)
            first = int((start - t0) / window * width)
            last = max(first, int(min((end - t0) / window * width, width - 1)))
            for i in range(max(0, first), min(width, last + 1)):
                cells[i] = "#"
        share = min(1.0, busy / window)
        lines.append(
            f"  {host.ljust(name_w)} |{''.join(cells)}| "
            f"busy {busy:.3f}s ({share:.0%})"
        )
    return lines


def summarize_spans(
    records: Sequence[Mapping[str, Any]], top: int = 10
) -> str | None:
    """Span tree, critical path, phase breakdown, host timeline; or None.

    Consumes the schema-v2 records of an operational trace.  Returns
    ``None`` when the stream holds no span records, so
    :func:`summarize_trace` can include this section only when it
    applies.
    """
    spans = [dict(r) for r in records if r.get("v") == SPAN_SCHEMA_VERSION]
    if not spans:
        return None
    by_id = {str(r["span"]): r for r in spans}
    children: dict[str, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for record in spans:
        parent = record["parent"]
        if parent is not None and str(parent) in by_id:
            children.setdefault(str(parent), []).append(record)
        else:
            roots.append(record)
    roots.sort(key=lambda r: (r["ts"], r["span"]))
    sections: list[str] = []

    # -------------------------------------------------------------- tree
    wall = max(_span_end(r) for r in spans) - min(float(r["ts"]) for r in spans)
    sections.append(
        f"span tree ({len(spans)} spans, {len(roots)} root(s), "
        f"{wall:.3f}s wall):\n"
        + "\n".join(_render_span_tree(roots, children, top))
    )

    # ----------------------------------------------------- critical path
    main_root = max(roots, key=_span_duration)
    path = _critical_path(main_root, children)
    lines = [
        f"critical path ({_span_duration(main_root):.3f}s root, "
        f"{len(path)} hop(s)):"
    ]
    for record in path:
        lines.append(
            f"  {float(record['ts']):>9.3f}s  "
            + _span_label(record, _span_duration(record))
        )
    sections.append("\n".join(lines))

    # ----------------------------------------------------- phase breakdown
    by_kind: dict[str, tuple[int, float]] = {}
    for record in spans:
        count, total = by_kind.get(str(record["kind"]), (0, 0.0))
        by_kind[str(record["kind"])] = (count + 1, total + _span_duration(record))
    denom = _span_duration(main_root) or wall or 1.0
    rows = [
        [kind, count, f"{total:.3f}", f"{total / denom:.0%}"]
        for kind, (count, total) in sorted(
            by_kind.items(), key=lambda item: -item[1][1]
        )
    ]
    sections.append(
        "time by span kind (cumulative; nested spans overlap):\n"
        + _table(["kind", "spans", "total s", "of root"], rows)
    )

    # ------------------------------------------------------- host timeline
    timeline = _host_timeline(spans)
    if timeline:
        sections.append("\n".join(timeline))

    return "\n\n".join(sections)


def summarize_trace(
    records: Sequence[Mapping[str, Any]], top: int = 10
) -> str:
    """Human-readable summary of a validated trace record stream."""
    sections: list[str] = []
    trials = {r["trial"] for r in records if r["trial"] is not None}
    header = f"trace summary: {len(records)} records"
    if trials:
        header += f" from {len(trials)} trial(s)"
    sections.append(header)

    # ------------------------------------------------------------- kinds
    by_kind = TallyCounter(str(r["kind"]) for r in records)
    rows = [[kind, count] for kind, count in by_kind.most_common(top)]
    remainder = len(by_kind) - len(rows)
    sections.append(
        f"top event kinds ({len(by_kind)} distinct"
        + (f", showing {top}" if remainder > 0 else "")
        + "):\n"
        + _table(["kind", "records"], rows)
    )

    # ----------------------------------------------------- repair timing
    repairs = [r for r in records if r["kind"] == "sim.net_repair_complete"]
    if repairs:
        hist = Histogram("sim.net_repair_hours", REPAIR_HOURS_BUCKETS)
        degraded = 0
        for r in repairs:
            hist.observe(float(r["data"].get("seconds", 0.0)) / _HOUR)
            degraded += bool(r["data"].get("degraded", False))
        mean_h = hist.total / hist.count if hist.count else 0.0
        lines = [
            f"network-stage repair times ({hist.count} repairs, "
            f"mean {mean_h:.1f} h, {degraded} finished degraded):"
        ]
        lines.extend(_histogram_lines(hist, "h"))
        sections.append("\n".join(lines))

    # ----------------------------------------------------- loss attribution
    loss_by_pool: TallyCounter[int] = TallyCounter()
    n_losses = 0
    for r in records:
        if r["kind"] == "sim.data_loss":
            n_losses += 1
            for pool in r["data"].get("pools", ()):
                loss_by_pool[int(pool)] += 1
        elif r["kind"] == "slec.data_loss":
            n_losses += 1
            if r["pool"] is not None:
                loss_by_pool[int(r["pool"])] += 1
    if n_losses:
        rows = [
            [pool, count] for pool, count in loss_by_pool.most_common(top)
        ]
        sections.append(
            f"data loss attribution ({n_losses} loss events):\n"
            + _table(["pool", "loss events"], rows)
        )
    else:
        sections.append("data loss attribution: no loss events recorded")

    # ----------------------------------------------------------- traffic
    cross = sum(
        float(r["data"].get("cross_rack_bytes", 0.0))
        for r in records
        if r["kind"] == "sim.catastrophe"
    )
    if cross:
        sections.append(f"cross-rack repair traffic: {cross / 1e12:.3f} TB")

    # ------------------------------------------- ops & span sections
    ops = _ops_section(records)
    if ops is not None:
        sections.append(ops)
    spans = summarize_spans(records, top=top)
    if spans is not None:
        sections.append(spans)

    return "\n\n".join(sections)
