"""Batch-trial engine: scalar-vs-batch bitwise identity and demotion.

The batch engine (:mod:`repro.sim.batch`) is a speed knob with a hard
contract: for every trial function, every scheme family, and every
telemetry collector, ``batch="on"`` must produce byte-identical results
to ``batch="off"``.  These tests pin that contract -- aggregate fields,
metrics snapshots, and trace records compare with ``==``, never with
tolerances -- and exercise both demotion paths (catastrophic pools and
window-overlapping repairs) plus the ``auto`` engagement heuristic.
"""

import numpy as np
import pytest

from repro.core.config import YEAR, LRCParams, MLECParams, SLECParams
from repro.core.scheme import LRCScheme, SLECScheme, mlec_scheme_from_name
from repro.core.types import Level, Placement, RepairMethod
from repro.obs import MetricsRegistry, TraceRecorder
from repro.runtime import TrialExecutionError, TrialRunner
from repro.runtime.executors.base import ChunkPayload
from repro.sim import batch as batch_module
from repro.sim.batch import (
    BATCH_MIN_TRIALS,
    _failure_chain,
    batch_impl_for,
    register_batch_impl,
    resolve_batch_mode,
)
from repro.sim.burst import (
    BurstGenerator,
    LRCBurstEvaluator,
    MLECBurstEvaluator,
    SLECBurstEvaluator,
    _burst_trial,
    _grid_cell_trial,
    burst_pdl_grid,
    burst_pdl_stats,
)

PARAMS = MLECParams(10, 2, 17, 3)


def mlec_evaluator(name):
    return MLECBurstEvaluator(mlec_scheme_from_name(name, PARAMS))


def slec_evaluator(level, placement, k=7, p=3):
    return SLECBurstEvaluator(SLECScheme(SLECParams(k, p), level, placement))


def batch_counters(runner):
    counters = runner.ops_metrics.snapshot()["counters"]
    return (
        int(counters.get("sim.batch_trials", 0)),
        int(counters.get("sim.batch_demotions", 0)),
    )


def demotion_reasons(runner):
    """Per-reason demotion counters, keyed by reason."""
    prefix = "sim.batch_demotions."
    counters = runner.ops_metrics.snapshot()["counters"]
    return {
        name[len(prefix):]: int(value)
        for name, value in counters.items()
        if name.startswith(prefix)
    }


class TestResolveBatchMode:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="batch mode"):
            resolve_batch_mode("sometimes", _burst_trial, 100)

    def test_off_never_batches(self):
        assert resolve_batch_mode("off", _burst_trial, 10_000) is False

    def test_on_batches_any_size_with_impl(self):
        assert resolve_batch_mode("on", _burst_trial, 1) is True

    def test_no_impl_never_batches(self):
        def unregistered(ctx):
            return 0.0

        assert batch_impl_for(unregistered) is None
        assert resolve_batch_mode("on", unregistered, 10_000) is False
        assert resolve_batch_mode("auto", unregistered, 10_000) is False

    def test_auto_heuristic_threshold(self):
        below = BATCH_MIN_TRIALS - 1
        assert resolve_batch_mode("auto", _burst_trial, below) is False
        assert resolve_batch_mode("auto", _burst_trial, BATCH_MIN_TRIALS) is True
        # Each grid-cell trial is a block of bursts: any chunk batches.
        assert resolve_batch_mode("auto", _grid_cell_trial, 1) is True

    def test_runner_validates_mode(self):
        with pytest.raises(ValueError, match="batch"):
            TrialRunner(batch="fast")


def burst_identity_case(evaluator, failures, racks, trials=40, seed=7):
    """Run one burst sweep batched and scalar; return both sides' facts."""
    sides = {}
    for mode in ("on", "off"):
        runner = TrialRunner(batch=mode)
        metrics = MetricsRegistry()
        trace = TraceRecorder()
        agg = burst_pdl_stats(
            evaluator, failures, racks, trials=trials, seed=seed,
            runner=runner, metrics=metrics, trace=trace,
        )
        sides[mode] = (agg, metrics.snapshot(), trace.records, runner)
    return sides


class TestBurstIdentity:
    @pytest.mark.parametrize("name", ["C/C", "C/D", "D/C", "D/D"])
    def test_mlec_schemes_identical(self, name):
        sides = burst_identity_case(mlec_evaluator(name), 60, 3)
        assert sides["on"][0] == sides["off"][0]
        assert sides["on"][1] == sides["off"][1]
        assert sides["on"][2] == sides["off"][2]

    @pytest.mark.parametrize("level", list(Level))
    @pytest.mark.parametrize("placement", list(Placement))
    def test_slec_schemes_identical(self, level, placement):
        sides = burst_identity_case(slec_evaluator(level, placement), 60, 6)
        assert sides["on"][0] == sides["off"][0]
        assert sides["on"][1] == sides["off"][1]
        assert sides["on"][2] == sides["off"][2]

    def test_lrc_demotes_all_and_stays_identical(self):
        ev = LRCBurstEvaluator(LRCScheme(LRCParams(14, 2, 4)))
        sides = burst_identity_case(ev, 60, 6)
        assert sides["on"][0] == sides["off"][0]
        assert sides["on"][1] == sides["off"][1]
        assert sides["on"][2] == sides["off"][2]
        # LRC has no vector form: every trial takes the scalar evaluator.
        batched, demoted = batch_counters(sides["on"][3])
        assert batched == 0
        assert demoted == 40
        assert demotion_reasons(sides["on"][3]) == {"no_vector_form": 40}

    def test_undecided_mlec_trials_demote(self):
        """D/D at 60/3 mixes guaranteed zeros with demoted loss trials."""
        sides = burst_identity_case(mlec_evaluator("D/D"), 60, 3)
        batched, demoted = batch_counters(sides["on"][3])
        assert batched + demoted == 40
        assert demoted > 0  # loss-exposed trials need the scalar evaluator
        assert demotion_reasons(sides["on"][3]) == {"undecided": demoted}
        assert sides["on"][0].losses > 0

    def test_demoted_bursts_are_drawn_once(self, monkeypatch):
        """A demoted burst is evaluated on its batch sample, not redrawn."""
        calls = []
        sample = BurstGenerator.sample

        def counting_sample(gen, failures, racks):
            calls.append((failures, racks))
            return sample(gen, failures, racks)

        monkeypatch.setattr(BurstGenerator, "sample", counting_sample)
        sides = burst_identity_case(mlec_evaluator("D/D"), 60, 3)
        _batched, demoted = batch_counters(sides["on"][3])
        assert demoted > 0
        # One draw per trial on each side (40 batched + 40 scalar).
        assert len(calls) == 2 * 40
        assert sides["on"][0] == sides["off"][0]
        assert sides["on"][1] == sides["off"][1]
        assert sides["on"][2] == sides["off"][2]

    def test_workers_and_batch_modes_all_identical(self):
        ev = mlec_evaluator("D/D")
        reference = None
        for workers in (1, 2):
            for mode in ("on", "off", "auto"):
                agg = burst_pdl_stats(
                    ev, 60, 3, trials=24, seed=3,
                    runner=TrialRunner(workers=workers, batch=mode),
                )
                reference = reference if reference is not None else agg
                assert agg == reference


class TestGridIdentity:
    def test_grid_batch_on_off_identical(self):
        ev = mlec_evaluator("D/D")
        failures = np.array([12, 60])
        racks = np.array([1, 3])
        on = burst_pdl_grid(ev, failures, racks, trials=10, seed=3,
                            runner=TrialRunner(batch="on"))
        off = burst_pdl_grid(ev, failures, racks, trials=10, seed=3,
                             runner=TrialRunner(batch="off"))
        assert np.array_equal(on, off, equal_nan=True)

    @pytest.mark.parametrize("name", ["C/C", "C/D", "D/C", "D/D"])
    def test_fig5_grid_batches_every_chunk_under_auto(self, name):
        """The 29 feasible Fig. 5 cells chunk 8/8/8/5; none runs scalar."""
        ev = mlec_evaluator(name)
        failures = np.array([12, 24, 36, 48, 60])
        racks = np.array([1, 2, 3, 6, 12, 30, 60])
        runner = TrialRunner(workers=1, batch="auto")
        auto = burst_pdl_grid(ev, failures, racks, trials=4, seed=5,
                              runner=runner)
        off = burst_pdl_grid(ev, failures, racks, trials=4, seed=5,
                             runner=TrialRunner(workers=1, batch="off"))
        assert auto.tobytes() == off.tobytes()
        batched, demoted = batch_counters(runner)
        assert batched + demoted == 29


def simulate_case(scheme_name, afr, mission_time, trials, *, mode,
                  workers=1, trace=None, params=PARAMS):
    """One CLI-equivalent simulate sweep; returns (results, metrics, runner)."""
    from repro.cli import _simulate_trial

    scheme = mlec_scheme_from_name(scheme_name, params)
    runner = TrialRunner(workers=workers, batch=mode)
    metrics = MetricsRegistry()
    results = runner.map(
        _simulate_trial, trials, seed=11,
        args=(scheme, RepairMethod.R_ALL, afr, mission_time, 11),
        metrics=metrics, trace=trace,
    )
    return results, metrics.snapshot(), runner


class TestSimulateIdentity:
    def test_nominal_afr_fully_batched_and_identical(self):
        on, on_metrics, runner = simulate_case(
            "C/C", 0.02, YEAR / 12, 16, mode="on")
        off, off_metrics, _ = simulate_case(
            "C/C", 0.02, YEAR / 12, 16, mode="off")
        assert on == off
        assert on_metrics == off_metrics
        batched, demoted = batch_counters(runner)
        assert batched == 16  # nominal rates never reach the parity budget
        assert demoted == 0

    def test_catastrophe_demotes_and_stays_identical(self):
        """Clustered pools at p_l concurrent failures leave the fast path."""
        on, on_metrics, runner = simulate_case(
            "C/C", 0.9, YEAR / 24, 4, mode="on")
        off, off_metrics, _ = simulate_case(
            "C/C", 0.9, YEAR / 24, 4, mode="off")
        assert on == off
        assert on_metrics == off_metrics
        _batched, demoted = batch_counters(runner)
        assert demoted > 0
        assert any(r.n_catastrophic_events > 0 for r in on)

    def test_multi_failure_repair_demotes_and_stays_identical(self):
        """Declustered repair planning (work promotion) demotes too."""
        on, on_metrics, runner = simulate_case(
            "D/D", 0.9, YEAR / 24, 4, mode="on")
        off, off_metrics, _ = simulate_case(
            "D/D", 0.9, YEAR / 24, 4, mode="off")
        assert on == off
        assert on_metrics == off_metrics
        _batched, demoted = batch_counters(runner)
        assert demoted > 0

    def test_traced_trials_always_demote(self):
        """The scalar event interleaving is the trace contract."""
        trace_on = TraceRecorder()
        trace_off = TraceRecorder()
        on, _, runner = simulate_case(
            "C/C", 0.02, YEAR / 12, 8, mode="on", trace=trace_on)
        off, _, _ = simulate_case(
            "C/C", 0.02, YEAR / 12, 8, mode="off", trace=trace_off)
        assert on == off
        assert trace_on.records == trace_off.records
        batched, demoted = batch_counters(runner)
        assert batched == 0
        assert demoted == 8

    def test_workers_identical_under_batching(self):
        w1, m1, _ = simulate_case("C/C", 0.02, YEAR / 12, 16, mode="on")
        w2, m2, _ = simulate_case(
            "C/C", 0.02, YEAR / 12, 16, mode="on", workers=2)
        assert w1 == w2
        assert m1 == m2


class TestSimulateVectorWalk:
    """The vectorized failure-chain walk against the scalar event loop."""

    @pytest.mark.parametrize("name", ["C/C", "C/D", "D/C", "D/D"])
    def test_matches_scalar_across_codes_rates_and_missions(self, name):
        batched = demoted = 0
        for params in (PARAMS, MLECParams(4, 1, 5, 1)):
            for afr in (0.01, 0.2):
                for months in (1, 6):
                    case = (name, afr, months / 12 * YEAR, 3)
                    on, on_metrics, runner = simulate_case(
                        *case, mode="on", params=params)
                    off, off_metrics, _ = simulate_case(
                        *case, mode="off", params=params)
                    assert on == off, (params, afr, months)
                    assert on_metrics == off_metrics, (params, afr, months)
                    b, d = batch_counters(runner)
                    batched += b
                    demoted += d
        # Both paths ran: nominal rates stay vectorized, while 4+1/5+1
        # at AFR 0.2 overlaps repairs past the parity budget and demotes.
        assert batched > 0
        assert demoted > 0


class ScriptedDraws:
    """A generator stand-in handing out a fixed sequence of draws.

    Past the script it returns a draw far beyond any mission, so
    unscripted replacements never fail again.  ``drawn`` counts every
    value handed out, i.e. how far a real stream would have advanced.
    """

    def __init__(self, draws):
        self.draws = list(draws)
        self.drawn = 0

    def exponential(self, scale, size):
        out = self.draws[self.drawn:self.drawn + size]
        out += [1e9] * (size - len(out))
        self.drawn += size
        return np.array(out)


def walk(times, draws=(), *, mission=10.0, divisor=1, p_l=3, window=0.5,
         margin=0):
    """Walk handcrafted initial times: ``(times, disks, reason, drawn)``."""
    rng = ScriptedDraws(draws)
    chain_t, chain_d, reason = _failure_chain(
        np.array(times, dtype=float), rng, 1.0, mission, divisor, p_l,
        window, margin=margin,
    )
    return chain_t.tolist(), chain_d.tolist(), reason, rng.drawn


class TestFailureChainEdgeCases:
    def test_isolated_failures_stay_simple(self):
        t, d, reason, drawn = walk([4.0, 1.0, 20.0, 2.0])
        assert (t, d, reason) == ([1.0, 2.0, 4.0], [1, 3, 0], None)
        assert drawn == 3  # one replacement per processed failure

    def test_exact_time_tie_demotes(self):
        assert walk([3.0, 3.0])[2] == "time_tie"
        # A replacement landing exactly on another failure ties too.
        assert walk([1.0, 3.0], [2.0])[2] == "time_tie"
        # The scalar loop checks a failure for a tie before its pool's
        # window, so a tie that also fills the pool reports the tie.
        assert walk([3.0, 3.0], divisor=10, p_l=1)[2] == "time_tie"

    def test_tied_replacement_keeps_queue_order(self):
        # Disk 0 re-fails at 1.0 + 2.0 = 3.0, tying disk 5.  The queue
        # pops (3.0, 0) first, and its pool is already at its budget.
        times = [1.0, 20.0, 20.0, 20.0, 20.0, 3.0]
        _t, d, reason, _drawn = walk(
            times, [2.0], divisor=5, p_l=1, window=2.5)
        assert d == [0, 0, 5]
        assert reason == "parity_window"

    def test_p_l_overlapping_failures_in_one_pool_demote(self):
        times = [1.0, 2.0, 3.0]
        assert walk(times, divisor=10, p_l=2, window=5.0)[2] == "parity_window"
        # The same overlap spread over separate pools is harmless ...
        assert walk(times, divisor=1, p_l=2, window=5.0)[2] is None
        # ... and so is one fewer overlapping failure than the budget.
        assert walk(times, divisor=10, p_l=3, window=5.0)[2] is None

    def test_repair_window_is_inclusive(self):
        # 1.0 + 2.0 == 3.0: the first repair still covers the second failure.
        assert walk([1.0, 3.0], divisor=10, p_l=1, window=2.0)[2] == (
            "parity_window")
        assert walk([1.0, 3.0], divisor=10, p_l=1, window=1.5)[2] is None

    def test_failure_at_mission_end_is_not_processed(self):
        t, d, reason, drawn = walk([2.0, 10.0])
        assert (t, d, reason, drawn) == ([2.0], [0], None, 1)
        # A replacement due exactly at the mission end is not processed
        # either, and so draws no replacement of its own.
        t, d, reason, drawn = walk([2.0], [8.0])
        assert (t, d, reason, drawn) == ([2.0], [0], None, 1)

    def test_refailure_is_processed_in_time_order(self):
        # Disk 0 fails at 1.0 and again at 1.0 + 2.0 = 3.0, before disk 1
        # at 5.0, so the second draw (0.5) belongs to that re-failure.
        t, d, reason, drawn = walk([1.0, 5.0], [2.0, 0.5])
        assert (t, d, reason) == ([1.0, 3.0, 3.5, 5.0], [0, 0, 0, 1], None)
        assert drawn == 4

    def test_outgrown_draw_block_matches_sequential_scalar_draws(self):
        mission, scale = 60.0, 1.5
        initial = np.random.default_rng(4).exponential(scale, size=3)
        # The scalar event loop: pop (t, disk), draw its replacement.
        scalar = np.random.default_rng(9)
        pending = sorted((float(t), disk) for disk, t in enumerate(initial))
        expected = []
        while pending and pending[0][0] < mission:
            t, disk = pending.pop(0)
            expected.append((t, disk))
            t_next = t + scalar.exponential(scale)
            if t_next <= mission:
                pending = sorted(pending + [(t_next, disk)])
        assert len(expected) > 40  # far past the first block of 3 + 4

        rng = CountingDraws(np.random.default_rng(9))
        chain_t, chain_d, reason = _failure_chain(
            initial, rng, scale, mission, 1, 3, 0.0, margin=4)
        assert reason is None
        assert len(rng.calls) > 1  # the extension path ran
        assert list(zip(chain_t.tolist(), chain_d.tolist())) == expected

        # Without a margin the walk consumes exactly the scalar stream.
        rng = np.random.default_rng(9)
        _failure_chain(initial, rng, scale, mission, 1, 3, 0.0, margin=0)
        assert rng.bit_generator.state == scalar.bit_generator.state


class CountingDraws:
    """Wraps a generator, recording the size of every exponential draw."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def exponential(self, scale, size):
        self.calls.append(size)
        return self.rng.exponential(scale, size=size)


class TestCliSimulateIdentity:
    """Untraced ``mlec-sim simulate``: the vector path equals scalar."""

    def test_stdout_and_metrics_identical_across_batch_and_workers(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        outputs = set()
        metrics = set()
        for batch in ("on", "off"):
            for workers in (1, 2):
                path = tmp_path / f"{batch}{workers}.json"
                code = main([
                    "simulate", "C/D", "--months", "3", "--trials", "32",
                    "--seed", "11", "--batch", batch,
                    "--workers", str(workers), "--metrics", str(path),
                ])
                assert code == 0
                out = capsys.readouterr().out.replace(str(path), "FILE")
                # The elapsed line is wall-clock; everything else is
                # a pure function of the arguments.
                outputs.add("\n".join(
                    line for line in out.splitlines()
                    if "elapsed" not in line
                ))
                metrics.add(path.read_bytes())
        assert len(outputs) == 1
        assert len(metrics) == 1


def _always_zero(ctx):
    return 0.0


def _raising_impl(fn, contexts, args):
    raise RuntimeError("broken batch implementation")


def _always_one(ctx):
    return 1.0


class _TornBatchError(Exception):
    pass


def _torn_impl(fn, contexts, args):
    raise _TornBatchError("torn batch state")


class TestBatchFallback:
    @pytest.fixture(autouse=True)
    def raising_registration(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_IMPLS", dict(batch_module._IMPLS))
        register_batch_impl(_always_zero, min_trials=1)(_raising_impl)

    def test_on_surfaces_batch_errors(self):
        runner = TrialRunner(batch="on", chunk_size=4)
        with pytest.raises(TrialExecutionError, match="broken batch"):
            runner.map(_always_zero, 12, seed=0)

    def test_auto_falls_back_and_counts_each_chunk(self):
        runner = TrialRunner(batch="auto", chunk_size=4)
        assert runner.map(_always_zero, 12, seed=0) == [0.0] * 12
        counters = runner.ops_metrics.snapshot()["counters"]
        assert counters["sim.batch_fallbacks"] == 3
        assert batch_counters(runner) == (0, 0)

    def test_auto_fallbacks_count_by_exception_type(self):
        register_batch_impl(_always_one, min_trials=1)(_torn_impl)
        runner = TrialRunner(batch="auto", chunk_size=4)
        metrics = MetricsRegistry()
        assert runner.map(_always_zero, 8, seed=0, metrics=metrics) == [0.0] * 8
        assert runner.map(_always_one, 12, seed=0, metrics=metrics) == [1.0] * 12
        counters = runner.ops_metrics.snapshot()["counters"]
        assert counters["sim.batch_fallbacks.runtime_error"] == 2
        assert counters["sim.batch_fallbacks.torn_batch_error"] == 3
        assert counters["sim.batch_fallbacks"] == 5
        result_counters = metrics.snapshot()["counters"]
        assert not any(k.startswith("sim.batch") for k in result_counters)

    def test_payload_without_fallback_field_counts_nothing(self):
        """A chunk payload unpickled from a journal written before the
        field existed lacks the attribute entirely."""
        payload = ChunkPayload(values=[0.0], seconds=0.0, metrics=None,
                               records=[])
        object.__delattr__(payload, "batch_fallback_error")
        runner = TrialRunner()
        runner._absorb_batch_stats(payload)
        counters = runner.ops_metrics.snapshot()["counters"]
        assert not any(k.startswith("sim.batch") for k in counters)


class TestOpsTelemetrySegregation:
    def test_batch_counters_never_reach_result_metrics(self):
        ev = mlec_evaluator("C/C")
        runner = TrialRunner(batch="on")
        metrics = MetricsRegistry()
        burst_pdl_stats(ev, 24, 2, trials=20, seed=1,
                        runner=runner, metrics=metrics)
        result_counters = metrics.snapshot()["counters"]
        assert not any(k.startswith("sim.batch") for k in result_counters)
        batched, demoted = batch_counters(runner)
        assert batched + demoted == 20

    def test_demotion_reasons_sum_and_stay_out_of_results(self):
        from repro.cli import _simulate_trial

        runner = TrialRunner(batch="on")
        metrics = MetricsRegistry()
        scheme = mlec_scheme_from_name("C/C", MLECParams(4, 1, 5, 1))
        runner.map(_simulate_trial, 4, seed=2,
                   args=(scheme, RepairMethod.R_ALL, 0.2, YEAR / 12, 2),
                   metrics=metrics, trace=TraceRecorder())
        burst_pdl_stats(mlec_evaluator("D/D"), 60, 3, trials=20, seed=1,
                        runner=runner, metrics=metrics)
        result_counters = metrics.snapshot()["counters"]
        assert not any(k.startswith("sim.batch") for k in result_counters)
        reasons = demotion_reasons(runner)
        assert reasons["traced"] == 4  # traced trials always demote
        assert set(reasons) == {"traced", "undecided"}
        assert sum(reasons.values()) == batch_counters(runner)[1]
