"""repro.obs: metrics semantics, trace schema round-trips,
stopwatch formatting, OpenMetrics exposition, trace reports, and the
CLI observability surface."""

import json
import math
import re
import urllib.request

import pytest

from repro.cli import main as mlec_main
from repro.obs import (
    OPENMETRICS_CONTENT_TYPE,
    TRACE_SCHEMA_VERSION,
    MetricsExporter,
    MetricsRegistry,
    Stopwatch,
    TraceRecorder,
    parse_openmetrics,
    read_jsonl,
    summarize_trace,
    to_openmetrics,
    validate_record,
    write_jsonl,
)


# ----------------------------------------------------------------- metrics
class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("sim.disk_failures").inc()
        reg.counter("sim.disk_failures").inc(2.5)
        assert reg.snapshot()["counters"]["sim.disk_failures"] == 3.5

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("sim.disk_failures").inc(-1.0)

    def test_gauge_keeps_last_written(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("sim.active_repairs")
        gauge.set(3)
        gauge.set(1)
        assert reg.snapshot()["gauges"]["sim.active_repairs"] == 1.0
        assert gauge.updates == 2

    def test_histogram_buckets_and_overflow(self):
        reg = MetricsRegistry()
        hist = reg.histogram("sim.net_repair_hours", bounds=(1.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]  # bound is an inclusive upper edge
        assert hist.count == 4
        assert hist.total == pytest.approx(104.5)

    def test_histogram_requires_bounds_on_first_use(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="pass bounds"):
            reg.histogram("sim.net_repair_hours")

    def test_histogram_bounds_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("sim.net_repair_hours", bounds=(4.0, 1.0))

    def test_histogram_bounds_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("sim.net_repair_hours", bounds=(1.0, 4.0))
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("sim.net_repair_hours", bounds=(2.0, 8.0))

    def test_cross_type_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("sim.disk_failures")
        with pytest.raises(ValueError, match="already registered as a counter"):
            reg.gauge("sim.disk_failures")

    @pytest.mark.parametrize(
        "name", ["DiskFailures", "sim", "sim.", "sim..x", "sim.X", "1.two"]
    )
    def test_name_convention_enforced(self, name):
        with pytest.raises(ValueError, match="bad metric name"):
            MetricsRegistry().counter(name)

    def test_merge_sums_counters_and_histograms(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("sim.trials").inc(2)
        right.counter("sim.trials").inc(3)
        left.histogram("sim.net_repair_hours", bounds=(1.0,)).observe(0.5)
        right.histogram("sim.net_repair_hours", bounds=(1.0,)).observe(9.0)
        left.merge(right)
        snap = left.snapshot()
        assert snap["counters"]["sim.trials"] == 5.0
        assert snap["histograms"]["sim.net_repair_hours"]["counts"] == [1, 1]

    def test_merge_gauge_takes_later_write_only_if_written(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.gauge("sim.active_repairs").set(7)
        right.gauge("sim.active_repairs")  # registered, never written
        left.merge(right)
        assert left.snapshot()["gauges"]["sim.active_repairs"] == 7.0
        written = MetricsRegistry()
        written.gauge("sim.active_repairs").set(2)
        left.merge(written)
        assert left.snapshot()["gauges"]["sim.active_repairs"] == 2.0

    def test_merge_order_reproduces_single_registry(self):
        """Chunked accumulation folded in trial order == one registry."""
        single = MetricsRegistry()
        chunks = [MetricsRegistry() for _ in range(3)]
        for trial, reg in enumerate(chunks):
            for target in (single, reg):
                target.counter("sim.trials").inc()
                target.gauge("sim.last_trial").set(trial)
                target.histogram(
                    "sim.net_repair_hours", bounds=(1.0, 4.0)
                ).observe(float(trial))
        merged = MetricsRegistry()
        for reg in chunks:
            merged.merge(reg)
        assert merged.snapshot() == single.snapshot()

    def test_float_sums_do_not_depend_on_chunking(self):
        """(0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) as doubles; a merged sum
        must still come out the same for every grouping into chunks."""
        values = [0.1, 0.2, 0.3]
        snapshots = []
        for cut in range(len(values) + 1):
            merged = MetricsRegistry()
            for chunk in (values[:cut], values[cut:]):
                reg = MetricsRegistry()
                for v in chunk:
                    reg.counter("sim.net_repair_seconds").inc(v)
                    reg.histogram(
                        "sim.net_repair_hours", bounds=(1.0,)
                    ).observe(v)
                merged.merge(reg)
            snapshots.append(merged.snapshot())
        assert all(s == snapshots[0] for s in snapshots)
        exact = math.fsum(values)  # the correctly rounded sum
        assert snapshots[0]["counters"]["sim.net_repair_seconds"] == exact
        assert snapshots[0]["histograms"]["sim.net_repair_hours"]["total"] == exact

    def test_snapshot_json_serializable_and_sorted(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.counter("a.first").inc()
        out = tmp_path / "metrics.json"
        reg.write_json(out)
        loaded = json.loads(out.read_text())
        assert list(loaded["counters"]) == ["a.first", "z.last"]

    def test_empty_registry_is_falsy(self):
        reg = MetricsRegistry()
        assert not reg
        reg.counter("sim.trials")
        assert reg


# ------------------------------------------------------------------- trace
class TestTraceRecorder:
    def test_event_builds_schema_valid_records(self):
        rec = TraceRecorder(trial=4)
        rec.event(12.5, "sim.disk_failure", pool=3, disk=7, degraded=False)
        assert len(rec) == 1
        record = validate_record(rec.records[0])
        assert record["v"] == TRACE_SCHEMA_VERSION
        assert record["trial"] == 4
        assert record["pool"] == 3
        assert record["data"] == {"disk": 7, "degraded": False}

    def test_jsonl_round_trip(self, tmp_path):
        rec = TraceRecorder(trial=0)
        rec.event(0.0, "sim.disk_failure", pool=1)
        rec.event(60.0, "repair.plan", method="R_MIN", stripes=128)
        path = tmp_path / "trace.jsonl"
        rec.write_jsonl(path)
        assert read_jsonl(path) == rec.records

    def test_extend_preserves_order(self):
        parent = TraceRecorder()
        child = TraceRecorder(trial=1)
        child.event(1.0, "sim.disk_failure")
        child.event(2.0, "sim.repair_complete")
        parent.extend(child.records)
        assert [r["ts"] for r in parent.records] == [1.0, 2.0]

    @pytest.mark.parametrize(
        ("mutate", "message"),
        [
            (lambda r: r.pop("pool"), "keys must be"),
            (lambda r: r.update(v=99), "schema version"),
            (lambda r: r.update(ts=-1.0), "non-negative"),
            (lambda r: r.update(kind="nodot"), "dotted string"),
            (lambda r: r.update(trial=True), "int or null"),
            (lambda r: r.update(data={"nested": {"x": 1}}), "JSON primitive"),
        ],
    )
    def test_validate_record_rejects(self, mutate, message):
        rec = TraceRecorder(trial=0)
        rec.event(1.0, "sim.disk_failure", pool=2)
        record = rec.records[0]
        mutate(record)
        with pytest.raises(ValueError, match=message):
            validate_record(record)

    def test_read_jsonl_reports_offending_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = TraceRecorder(trial=0)
        rec.event(1.0, "sim.disk_failure")
        path.write_text(
            json.dumps(rec.records[0], separators=(",", ":"))
            + "\n{not json}\n"
        )
        with pytest.raises(ValueError, match=r":2: not valid JSON"):
            read_jsonl(path)

    def test_write_jsonl_bytes_are_deterministic(self, tmp_path):
        rec = TraceRecorder(trial=2)
        rec.event(3.5, "sim.scrub", pool=0, latent_detected=4)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, rec.records)
        write_jsonl(b, [dict(r) for r in rec.records])
        assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ timing
class TestStopwatch:
    def test_stop_is_idempotent(self):
        watch = Stopwatch()
        first = watch.stop()
        assert watch.stop() == first
        assert watch.seconds == first

    def test_summary_formats(self):
        watch = Stopwatch()
        watch.stop()
        assert re.fullmatch(r"\d+\.\d\d s", watch.summary())
        assert re.fullmatch(
            r"\d+\.\d\d s \(\d+\.\d trials/s\)", watch.summary(100)
        )
        assert "scenarios/s" in watch.summary(5, unit="scenarios")


# ------------------------------------------------------------------ report
class TestSummarizeTrace:
    @staticmethod
    def _sample_records():
        rec = TraceRecorder(trial=0)
        rec.event(0.0, "sim.disk_failure", pool=3, disk=17)
        rec.event(
            7200.0, "sim.net_repair_complete",
            pool=3, bytes=20e12, seconds=7200.0, degraded=True,
        )
        rec.event(
            100.0, "sim.catastrophe",
            pool=3, method="R_MIN", cross_rack_bytes=2e12,
        )
        rec.event(8000.0, "sim.data_loss", pools=[3, 5], racks=2)
        rec.event(9000.0, "slec.data_loss", pool=5)
        return rec.records

    def test_sections_present(self):
        text = summarize_trace(self._sample_records())
        assert "trace summary: 5 records from 1 trial(s)" in text
        assert "sim.net_repair_complete" in text
        assert "1 repairs, mean 2.0 h, 1 finished degraded" in text
        assert "data loss attribution (2 loss events)" in text
        assert "cross-rack repair traffic: 2.000 TB" in text

    def test_pool_attribution_counts_both_layers(self):
        text = summarize_trace(self._sample_records())
        # pool 5 is named by both the MLEC list and the SLEC record
        pool_rows = [
            line for line in text.splitlines()
            if re.match(r"^5\s+2$", line.strip())
        ]
        assert pool_rows

    def test_empty_trace_reports_no_losses(self):
        text = summarize_trace([])
        assert "trace summary: 0 records" in text
        assert "no loss events recorded" in text


# --------------------------------------------------------------- quantiles
class TestHistogramQuantiles:
    """Pin the fixed-bucket interpolation exactly (the same estimator a
    Prometheus ``histogram_quantile`` computes from the exported data)."""

    @staticmethod
    def _hist(bounds, values):
        hist = MetricsRegistry().histogram("sim.net_repair_hours", bounds)
        for value in values:
            hist.observe(value)
        return hist

    def test_linear_interpolation_within_a_bucket(self):
        hist = self._hist((10.0,), [1.0, 2.0, 3.0, 4.0])
        # rank q*n mapped linearly across the (0, 10] bucket
        assert hist.quantile(0.25) == pytest.approx(2.5)
        assert hist.quantile(0.50) == pytest.approx(5.0)
        assert hist.quantile(1.00) == pytest.approx(10.0)

    def test_interpolation_across_buckets(self):
        hist = self._hist((1.0, 4.0), [0.5, 1.0, 3.0, 100.0])
        # rank 2 exhausts bucket (0, 1]; rank 3 sits at the top of (1, 4]
        assert hist.quantile(0.50) == pytest.approx(1.0)
        assert hist.quantile(0.75) == pytest.approx(4.0)

    def test_overflow_rank_clamps_to_last_bound(self):
        hist = self._hist((1.0, 4.0), [0.5, 1.0, 3.0, 100.0])
        assert hist.quantile(0.99) == pytest.approx(4.0)

    def test_empty_histogram_is_nan(self):
        hist = self._hist((1.0,), [])
        assert math.isnan(hist.quantile(0.5))

    def test_out_of_range_q_rejected(self):
        hist = self._hist((1.0,), [0.5])
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(1.5)

    def test_snapshot_reports_p50_p95_p99(self):
        reg = MetricsRegistry()
        hist = reg.histogram("sim.net_repair_hours", bounds=(10.0,))
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        snap = reg.snapshot()["histograms"]["sim.net_repair_hours"]
        assert snap["p50"] == pytest.approx(5.0)
        assert snap["p95"] == pytest.approx(9.5)
        assert snap["p99"] == pytest.approx(9.9)

    def test_empty_snapshot_quantiles_are_null(self):
        reg = MetricsRegistry()
        reg.histogram("sim.net_repair_hours", bounds=(10.0,))
        snap = reg.snapshot()["histograms"]["sim.net_repair_hours"]
        assert snap["p50"] is snap["p95"] is snap["p99"] is None


# -------------------------------------------------------------- openmetrics
class TestOpenMetrics:
    @staticmethod
    def _registry():
        reg = MetricsRegistry()
        reg.counter("runtime.chunk_retries").inc(3)
        reg.gauge("sim.active_repairs").set(2.5)
        hist = reg.histogram("runtime.chunk_seconds", bounds=(1.0, 4.0))
        for value in (0.5, 2.0, 9.0):
            hist.observe(value)
        return reg

    def test_exposition_shape(self):
        text = to_openmetrics(self._registry())
        assert "# TYPE runtime_chunk_retries counter" in text
        assert "runtime_chunk_retries_total 3" in text
        assert "sim_active_repairs 2.5" in text
        assert 'runtime_chunk_seconds_bucket{le="1"} 1' in text
        assert 'runtime_chunk_seconds_bucket{le="4"} 2' in text  # cumulative
        assert 'runtime_chunk_seconds_bucket{le="+Inf"} 3' in text
        assert "runtime_chunk_seconds_count 3" in text
        assert "runtime_chunk_seconds_sum 11.5" in text
        assert text.endswith("# EOF\n")

    def test_round_trip_through_the_parser(self):
        parsed = parse_openmetrics(to_openmetrics(self._registry()))
        assert parsed["counters"] == {"runtime_chunk_retries": 3.0}
        assert parsed["gauges"] == {"sim_active_repairs": 2.5}
        hist = parsed["histograms"]["runtime_chunk_seconds"]
        assert hist["buckets"] == [("1", 1.0), ("4", 2.0), ("+Inf", 3.0)]
        assert hist["count"] == 3
        assert hist["sum"] == 11.5

    def test_multiple_registries_merge_into_one_exposition(self):
        other = MetricsRegistry()
        other.counter("sim.trials").inc(7)
        parsed = parse_openmetrics(to_openmetrics(self._registry(), other))
        assert parsed["counters"]["sim_trials"] == 7.0
        assert parsed["counters"]["runtime_chunk_retries"] == 3.0

    def test_parser_requires_eof_and_type_lines(self):
        with pytest.raises(ValueError, match="missing # EOF"):
            parse_openmetrics("# TYPE sim_trials counter\nsim_trials_total 1\n")
        with pytest.raises(ValueError, match="precedes its # TYPE"):
            parse_openmetrics("sim_trials_total 1\n# EOF\n")
        with pytest.raises(ValueError, match="content after # EOF"):
            parse_openmetrics("# EOF\nsim_trials_total 1\n")

    def test_exporter_serves_parseable_exposition(self):
        reg = self._registry()
        with MetricsExporter(lambda: to_openmetrics(reg)) as exporter:
            host, port = exporter.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ) as response:
                assert response.status == 200
                assert (
                    response.headers["Content-Type"]
                    == OPENMETRICS_CONTENT_TYPE
                )
                body = response.read().decode("utf-8")
        parsed = parse_openmetrics(body)
        assert parsed["counters"]["runtime_chunk_retries"] == 3.0

    def test_exporter_scrape_reflects_live_mutation(self):
        reg = self._registry()
        with MetricsExporter(lambda: to_openmetrics(reg)) as exporter:
            host, port = exporter.address

            def scrape():
                with urllib.request.urlopen(
                    f"http://{host}:{port}/", timeout=10
                ) as response:
                    return parse_openmetrics(response.read().decode("utf-8"))

            before = scrape()["counters"]["runtime_chunk_retries"]
            reg.counter("runtime.chunk_retries").inc(2)
            after = scrape()["counters"]["runtime_chunk_retries"]
        assert (before, after) == (3.0, 5.0)

    def test_exporter_unknown_path_is_404(self):
        reg = self._registry()
        with MetricsExporter(lambda: to_openmetrics(reg)) as exporter:
            host, port = exporter.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/debug", timeout=10
                )
            assert excinfo.value.code == 404


# ------------------------------------------------------------- span report
class TestSpanReport:
    @staticmethod
    def _span_records():
        rec = TraceRecorder()
        rec.event(0.1, "chunk.retry", index=0, reason="transient outage")
        rec.event(0.2, "checkpoint.write", record="chunk")
        sweep = "a" * 16
        chunk = "b" * 16
        rec.span_record(
            0.0, "span.sweep", sweep, None,
            trials=8, status="ok", dur_s=4.0,
        )
        rec.span_record(
            0.0, "span.chunk", chunk, sweep,
            lo=0, hi=4, host="vm/10", status="ok", dur_s=3.0,
        )
        rec.span_record(
            0.0, "span.attempt", "c" * 16, chunk,
            lo=0, hi=4, attempt=1, host="vm/10", status="ok", dur_s=3.0,
        )
        rec.span_record(
            3.0, "span.checkpoint_write", "d" * 16, sweep,
            lo=0, hi=4, status="ok", dur_s=0.5,
        )
        return rec.records

    def test_records_validate_as_v1_and_v2_mix(self):
        for record in self._span_records():
            validate_record(record)

    def test_report_includes_ops_and_span_sections(self):
        text = summarize_trace(self._span_records())
        assert "recovery & scheduling events:" in text
        assert "chunk retries (1 distinct reason(s))" in text
        assert "journal appends (1 chunk)" in text
        assert "span tree (4 spans, 1 root(s)" in text
        assert "critical path (4.000s root" in text
        assert "time by span kind" in text
        assert "per-host utilization" in text
        assert "vm/10" in text

    def test_critical_path_follows_last_finishing_child(self):
        text = summarize_trace(self._span_records())
        path_section = text.split("critical path", 1)[1]
        path_section = path_section.split("time by span kind", 1)[0]
        # sweep -> checkpoint write (ends at 3.5s, after the chunk's 3.0s)
        assert "span.checkpoint_write" in path_section
        assert "span.attempt" not in path_section

    def test_event_only_trace_has_no_span_section(self):
        rec = TraceRecorder(trial=0)
        rec.event(0.0, "sim.disk_failure", pool=1)
        text = summarize_trace(rec.records)
        assert "span tree" not in text

    def test_trace_report_cli_renders_span_tree(self, tmp_path, capsys):
        trace = tmp_path / "ops.jsonl"
        write_jsonl(trace, self._span_records())
        assert mlec_main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "critical path" in out


# --------------------------------------------------------------------- CLI
class TestCliObservability:
    def test_simulate_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert mlec_main([
            "simulate", "C/C", "--months", "1", "--trials", "2",
            "--trace", str(trace), "--metrics", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "elapsed" in out
        assert re.search(r"\d+\.\d\d s \(\d+\.\d trials/s\)", out)
        records = read_jsonl(trace)  # validates every record
        assert records
        assert {r["trial"] for r in records} == {0, 1}
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["sim.trials"] == 2.0

    def test_trace_report_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        write_jsonl(trace, TestSummarizeTrace._sample_records())
        assert mlec_main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace summary: 5 records" in out
        assert "data loss attribution" in out

    def test_burst_exact_rejects_trace(self, tmp_path, capsys):
        assert mlec_main([
            "burst", "C/C", "-y", "2", "-x", "1", "--exact",
            "--trace", str(tmp_path / "t.jsonl"),
        ]) == 2
        assert "drop --exact" in capsys.readouterr().err
