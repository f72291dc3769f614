"""Fault injection: event validation, injector scheduling, invariants."""

import math
import types

import numpy as np
import pytest

from repro.core.config import DAY, HOUR, PAPER_MLEC, YEAR
from repro.core.scheme import mlec_scheme_from_name
from repro.core.types import RepairMethod
from repro.faults import (
    BandwidthDegradation,
    EnclosureOutage,
    FaultInjector,
    InvariantChecker,
    InvariantViolation,
    RackOutage,
    SectorErrorBurst,
    chaos_datacenter,
)
from repro.sim.events import Event, EventQueue, EventType
from repro.sim.failures import (
    BathtubFailures,
    ExponentialFailures,
    TraceFailures,
    initial_failures,
)
from repro.sim.kernel import PoolDamage
from repro.sim.simulator import MLECSystemSimulator

DC = chaos_datacenter()


def simulator(name="C/C", method=RepairMethod.R_FCO, **kw):
    return MLECSystemSimulator(
        mlec_scheme_from_name(name, PAPER_MLEC, DC), method, **kw
    )


class TestFaultEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            RackOutage(time=-1.0, rack=0)

    def test_nan_and_inf_time_rejected(self):
        with pytest.raises(ValueError):
            SectorErrorBurst(time=math.nan, disk=0)
        with pytest.raises(ValueError):
            RackOutage(time=math.inf, rack=0)

    def test_zero_duration_transient_rejected(self):
        with pytest.raises(ValueError):
            RackOutage(time=0.0, rack=0, duration=0.0)
        with pytest.raises(ValueError):
            EnclosureOutage(time=0.0, rack=0, enclosure=0, duration=0.0)

    def test_permanent_flag(self):
        assert RackOutage(time=1.0, rack=0).permanent
        assert not RackOutage(time=1.0, rack=0, duration=5.0).permanent

    def test_sector_burst_needs_positive_chunks(self):
        with pytest.raises(ValueError):
            SectorErrorBurst(time=1.0, disk=0, chunks=0)

    def test_bandwidth_factors_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            BandwidthDegradation(time=1.0, duration=10.0, network_factor=0.0)
        with pytest.raises(ValueError):
            BandwidthDegradation(time=1.0, duration=10.0, network_factor=1.5)
        with pytest.raises(ValueError):
            BandwidthDegradation(time=1.0, duration=0.0)


class TestFaultInjector:
    def test_out_of_range_domains_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(faults=(RackOutage(time=1.0, rack=DC.racks),), dc=DC)
        with pytest.raises(ValueError):
            FaultInjector(
                faults=(EnclosureOutage(time=1.0, rack=0, enclosure=99),), dc=DC
            )
        with pytest.raises(ValueError):
            FaultInjector(
                faults=(SectorErrorBurst(time=1.0, disk=DC.total_disks),), dc=DC
            )

    def test_permanent_outage_merges_into_failure_times(self):
        """Disks inside a dead rack fail at outage time; others don't."""
        inj = FaultInjector(
            base=TraceFailures([]),  # no background failures
            faults=(RackOutage(time=1000.0, rack=1),),
            dc=DC,
        )
        rng = np.random.default_rng(0)
        inside = DC.disks_per_rack  # first disk of rack 1
        outside = 0
        assert inj.time_to_failure(rng, inside, 0.0) == 1000.0
        assert inj.time_to_failure(rng, outside, 0.0) == math.inf

    def test_replacement_after_outage_follows_base_model(self):
        inj = FaultInjector(
            base=TraceFailures([]),
            faults=(RackOutage(time=1000.0, rack=1),),
            dc=DC,
        )
        rng = np.random.default_rng(0)
        disk = DC.disks_per_rack
        # Replacement installed at the outage time is new hardware.
        assert inj.time_to_failure(rng, disk, 1000.0) == math.inf

    def test_schedule_pushes_transient_pair_and_scrubs(self):
        inj = FaultInjector(
            faults=(
                RackOutage(time=100.0, rack=0, duration=50.0),
                SectorErrorBurst(time=30.0, disk=5, chunks=2),
                BandwidthDegradation(time=40.0, duration=10.0,
                                     network_factor=0.5),
            ),
            dc=DC,
            scrub_period=400.0,
        )
        queue = EventQueue()
        inj.schedule(queue, mission_time=1000.0)
        kinds = []
        while (event := queue.pop()) is not None:
            kinds.append((event.time, event.kind))
        assert (100.0, EventType.TRANSIENT_OFFLINE) in kinds
        assert (150.0, EventType.TRANSIENT_ONLINE) in kinds
        assert (30.0, EventType.SECTOR_ERROR) in kinds
        assert (40.0, EventType.BANDWIDTH_CHANGE) in kinds
        assert (50.0, EventType.BANDWIDTH_CHANGE) in kinds
        assert [t for t, k in kinds if k is EventType.SCRUB] == [400.0, 800.0]

    def test_faults_beyond_mission_are_dropped(self):
        inj = FaultInjector(
            faults=(SectorErrorBurst(time=5000.0, disk=0),), dc=DC
        )
        queue = EventQueue()
        inj.schedule(queue, mission_time=1000.0)
        assert len(queue) == 0


def _merged_reference(injector, seed, n, horizon):
    """The injector's contract spelled out disk by disk: the base model's
    in-horizon pairs, every permanent outage inside ``(0, horizon)``
    clipping each disk of its range to ``min(t, when)``."""
    disks, times = initial_failures(
        injector.base, np.random.default_rng(seed), n, horizon)
    fail = dict(zip(disks.tolist(), times.tolist()))
    for fault in injector.faults:
        outage = isinstance(fault, (RackOutage, EnclosureOutage))
        if outage and fault.permanent and 0 < fault.time < horizon:
            for disk in range(*injector._disk_range(fault)):
                fail[disk] = min(fail.get(disk, math.inf), fault.time)
    order = sorted(fail)
    return order, [fail[d] for d in order]


class TestInitialTimes:
    """``initial_failures`` on a :class:`FaultInjector`: the base model's
    in-horizon ``(disks, times)`` pairs merged with the permanent
    outages, disks ascending, times before the horizon."""

    def _assert_pairs_match_contract(self, model, horizon=YEAR, seed=5):
        n = DC.total_disks
        rng = np.random.default_rng(seed)
        disks, times = initial_failures(model, rng, n, horizon)
        assert disks.dtype == np.int64 and times.dtype == np.float64
        assert (np.diff(disks) > 0).all()
        assert ((0 <= times) & (times < horizon)).all()
        if isinstance(model, FaultInjector):
            assert (disks.tolist(), times.tolist()) == _merged_reference(
                model, seed, n, horizon)
            # The outages consume no draws: the stream is the base's.
            base_rng = np.random.default_rng(seed)
            initial_failures(model.base, base_rng, n, horizon)
            assert rng.bit_generator.state == base_rng.bit_generator.state
        return disks, times

    def test_exponential(self):
        base = ExponentialFailures(0.3)
        disks, times = self._assert_pairs_match_contract(base)
        injector = FaultInjector(base=base, dc=DC)
        d2, t2 = self._assert_pairs_match_contract(injector)
        assert d2.tobytes() == disks.tobytes()
        assert t2.tobytes() == times.tobytes()

    def test_injector_clips_permanent_outages_after_time_zero(self):
        injector = FaultInjector(
            base=ExponentialFailures(0.5),
            faults=(
                RackOutage(time=2 * DAY, rack=1),
                RackOutage(time=3 * DAY, rack=1),  # overlapping, later
                EnclosureOutage(time=DAY, rack=3, enclosure=0),
                RackOutage(time=DAY, rack=5, duration=HOUR),  # transient
                RackOutage(time=3 * DAY, rack=7),
            ),
            dc=DC,
        )
        per_rack = DC.disks_per_rack
        per_enclosure = DC.disks_per_enclosure

        def rack(disks, times, r, first=0, size=per_rack):
            inside = (disks >= r * per_rack + first) & (
                disks < r * per_rack + first + size)
            return disks[inside], times[inside]

        disks, times = self._assert_pairs_match_contract(injector)
        d1, t1 = rack(disks, times, 1)
        assert len(d1) == per_rack  # every disk of the rack fails
        assert (t1 <= 2 * DAY).all() and (t1 == 2 * DAY).sum() > 100
        d3, t3 = rack(disks, times, 3, size=per_enclosure)
        assert len(d3) == per_enclosure
        assert (t3 <= DAY).all() and (t3 == DAY).sum() > 100
        _d, t5 = rack(disks, times, 5)
        assert len(t5) < per_rack and not (t5 == DAY).any()

        # Clipped to the horizon: an outage at or past it adds no disk.
        disks, times = self._assert_pairs_match_contract(
            injector, horizon=3 * DAY)
        d7, _t = rack(disks, times, 7)
        assert len(d7) < per_rack // 10  # only the base's failures
        assert len(rack(disks, times, 1)[0]) == per_rack

    def test_injector_outage_at_time_zero_does_not_clip(self):
        injector = FaultInjector(
            base=ExponentialFailures(0.5),
            faults=(RackOutage(time=0.0, rack=2),),
            dc=DC,
        )
        disks, times = self._assert_pairs_match_contract(injector)
        base_d, base_t = initial_failures(
            ExponentialFailures(0.5), np.random.default_rng(5),
            DC.total_disks, YEAR,
        )
        assert disks.tobytes() == base_d.tobytes()
        assert times.tobytes() == base_t.tobytes()

    def test_injector_over_base_without_vector_form(self):
        base = BathtubFailures()
        assert not hasattr(base, "initial_failures")
        injector = FaultInjector(
            base=base, faults=(RackOutage(time=DAY, rack=0),), dc=DC
        )
        disks, times = self._assert_pairs_match_contract(injector)
        assert disks[:DC.disks_per_rack].tolist() == list(
            range(DC.disks_per_rack))
        assert (times[:DC.disks_per_rack] <= DAY).all()
        self._assert_pairs_match_contract(base)

    def test_trace_model_keeps_never_failing_disks_infinite(self):
        """Disks the trace never fails stay out of the pairs, unless a
        permanent outage takes them."""
        injector = FaultInjector(
            base=TraceFailures([(5.0, 1), (7.0, 1), (9.0, 3)]),
            faults=(RackOutage(time=DAY, rack=2),),
            dc=DC,
        )
        disks, times = self._assert_pairs_match_contract(injector)
        per_rack = DC.disks_per_rack
        assert disks.tolist() == [1, 3, *range(2 * per_rack, 3 * per_rack)]
        assert times.tolist() == [5.0, 9.0] + [DAY] * per_rack


class TestTransientOutage:
    def test_unavailability_not_data_loss(self):
        """A whole transient rack outage makes pools unavailable, loses
        nothing, and accounts offline disk-seconds exactly."""
        sim = simulator(failure_model=FaultInjector(
            base=TraceFailures([]),
            faults=(RackOutage(time=1000.0, rack=0, duration=5000.0),),
            dc=DC,
        ))
        r = sim.run(mission_time=10_000.0, seed=0)
        assert r.n_transient_outages == 1
        assert not r.lost_data
        assert r.n_disk_failures == 0
        # 120 disks offline for 5000 s each.
        assert r.offline_disk_seconds == pytest.approx(120 * 5000.0)
        # Every one of the rack's 6 local-Cp pools crossed p_l.
        assert r.n_unavailability_events == 6

    def test_outage_running_past_mission_end(self):
        sim = simulator(failure_model=FaultInjector(
            base=TraceFailures([]),
            faults=(RackOutage(time=1000.0, rack=0, duration=50_000.0),),
            dc=DC,
        ))
        r = sim.run(mission_time=10_000.0, seed=0)
        assert r.offline_disk_seconds == pytest.approx(120 * 9000.0)


class TestSectorErrorsAndScrub:
    def test_scrub_detects_latent_errors(self):
        sim = simulator(failure_model=FaultInjector(
            base=TraceFailures([]),
            faults=(SectorErrorBurst(time=100.0, disk=0, chunks=3),),
            dc=DC,
            scrub_period=5000.0,
        ))
        r = sim.run(mission_time=6000.0, seed=0)
        assert r.n_sector_errors == 3
        assert r.n_scrubs == 1
        assert r.n_latent_errors_detected == 3
        assert r.scrub_repair_bytes == pytest.approx(3 * DC.chunk_size_bytes)

    def test_repair_read_detects_latent_errors(self):
        """A disk failure in the pool sweeps its latent errors during the
        local repair, even without scrubbing."""
        sim = simulator(failure_model=FaultInjector(
            base=TraceFailures([(200.0, 1)]),  # disk 1 shares pool 0
            faults=(SectorErrorBurst(time=100.0, disk=0, chunks=2),),
            dc=DC,
        ))
        r = sim.run(mission_time=1_000_000.0, seed=0)
        assert r.n_sector_errors == 2
        assert r.n_latent_errors_detected == 2
        assert r.n_scrubs == 0


class TestBandwidthDegradation:
    def test_degraded_window_stalls_and_replans_repairs(self):
        """A catastrophic pool repair spanning a degraded window banks
        exactly the window's span as degraded repair time."""
        burst = [(100.0, disk) for disk in range(4)]  # pool 0 catastrophic
        sim = simulator(failure_model=FaultInjector(
            base=TraceFailures(burst),
            faults=(BandwidthDegradation(
                time=2000.0, duration=100_000.0, network_factor=0.5,
            ),),
            dc=DC,
        ))
        r = sim.run(mission_time=200_000.0, seed=0)
        assert r.n_catastrophic_events >= 1
        assert r.n_bandwidth_changes == 2
        # Re-planned once when the window opened, once when it closed.
        assert r.n_repair_replans == 2
        assert r.degraded_repair_seconds == pytest.approx(100_000.0)
        assert r.net_repair_seconds > r.degraded_repair_seconds


def _fake_state(**overrides):
    """Minimal _RunState stand-in for exercising the invariant checker."""
    pool = types.SimpleNamespace(
        failed=1, offline=0, work=np.zeros(4),
        is_idle=lambda: False,
    )
    st = types.SimpleNamespace(
        pools={0: pool},
        net_repairs={},
        latent={},
        offline_since={},
        n_failures=1,
        n_catastrophic=0,
        n_sector_errors=0,
        n_latent_detected=0,
        n_latent_induced_chunks=0,
        local_bytes=20e12,
        cross_rack_bytes=0.0,
        scrub_repair_bytes=0.0,
        offline_disk_seconds=0.0,
        net_repair_seconds=0.0,
        degraded_repair_seconds=0.0,
    )
    for key, value in overrides.items():
        setattr(st, key, value)
    return st


class TestInvariantChecker:
    def _event(self, time=1.0, kind=EventType.DISK_FAILURE):
        return Event(time=time, seq=1, kind=kind, payload=None)

    def test_clean_state_passes(self):
        checker = InvariantChecker(simulator(), strict=True)
        checker(self._event(), _fake_state())
        assert checker.ok
        assert checker.events_checked == 1

    def test_negative_damage_raises_in_strict_mode(self):
        checker = InvariantChecker(simulator(), strict=True)
        st = _fake_state()
        st.pools[0].failed = -1
        with pytest.raises(InvariantViolation):
            checker(self._event(), st)

    def test_violations_collected_in_non_strict_mode(self):
        checker = InvariantChecker(simulator(), strict=False)
        st = _fake_state()
        st.pools[0].failed = -1
        checker(self._event(), st)
        assert not checker.ok
        assert "negative damage" in checker.violations[0]

    def test_byte_conservation_violation_detected(self):
        checker = InvariantChecker(simulator(), strict=False)
        checker(self._event(), _fake_state(local_bytes=123.0))
        assert any("local repair bytes" in v for v in checker.violations)

    def test_latent_conservation_violation_detected(self):
        checker = InvariantChecker(simulator(), strict=False)
        checker(self._event(), _fake_state(latent={0: 2}))
        assert any("unbalanced" in v for v in checker.violations)

    def test_clock_regression_detected(self):
        checker = InvariantChecker(simulator(), strict=False)
        checker(self._event(time=10.0), _fake_state())
        checker(self._event(time=5.0), _fake_state())
        assert any("clock moved backwards" in v for v in checker.violations)

    def test_orphaned_idle_pool_detected(self):
        checker = InvariantChecker(simulator(), strict=False)
        st = _fake_state()
        st.pools[0].failed = 0
        st.pools[0].is_idle = lambda: True
        checker(self._event(), st)
        assert any("orphaned idle pool" in v for v in checker.violations)

    def test_one_pool_walk_reports_every_class_in_order(self):
        """Violations in non-first pools, of every class the pool-table
        walk audits, come out with the exact text and order they always
        had -- interleaved with the byte and latent checks."""
        sim = simulator()
        total = sim.scheme.total_local_pools

        def pool(failed=0, offline=0, work=(0.0, 0.0, 0.0, 0.0)):
            state = PoolDamage(sim._classes)
            state.failed, state.offline = failed, offline
            state.work = np.array(work)
            return state

        pools = {
            0: pool(failed=1),
            1: pool(failed=-1),
            2: pool(failed=1, work=(np.nan, -1.0, 0.0, 0.0)),
            3: pool(work=(np.nan, 0.0, 0.0, 0.0)),  # NaN: busy, not negative
            total + 7: pool(failed=1),
            5: pool(),
            6: pool(offline=2),
        }
        expected = [
            "pool 1 has negative damage after EventType.DISK_FAILURE: "
            "failed=-1 offline=0",
            "pool 2 has negative outstanding work after "
            "EventType.DISK_FAILURE: [nan, -1.0, 0.0, 0.0]",
            "local repair bytes 123.0 != 1 failures x disk capacity",
            f"pool id {total + 7} outside topology",
            "orphaned idle pool 5 left in the pool table after "
            "EventType.DISK_FAILURE",
            f"latent errors on out-of-range pool {total + 2}",
            "offline bookkeeping out of sync: pools say 2, "
            "disk table says 0",
        ]

        def state():
            return _fake_state(
                pools=pools, local_bytes=123.0, latent={total + 2: 0}
            )

        checker = InvariantChecker(sim, strict=False)
        checker(self._event(), state())
        assert checker.violations == expected

        strict = InvariantChecker(sim, strict=True)
        with pytest.raises(InvariantViolation) as info:
            strict(self._event(), state())
        assert str(info.value) == expected[0]

    @pytest.mark.parametrize("corruption", ["negative-work", "out-of-range-id"])
    def test_pools_the_event_did_not_touch_are_audited(self, corruption):
        """Every live pool is audited after every event, not only the pools
        the event changed: a damaged pool corrupted behind the simulator's
        back is reported on that very event."""
        sim = simulator("D/D", failure_model=FaultInjector(
            base=ExponentialFailures(0.5),
            faults=(RackOutage(time=2 * DAY, rack=1, duration=12 * HOUR),),
            dc=DC,
        ))
        total = sim.scheme.total_local_pools
        checker = InvariantChecker(sim, strict=True)
        seen = []
        corrupted = {}

        def observer(event, st):
            seen.append(event)
            touched = (
                sim._pool_of_disk(event.payload)
                if event.kind is EventType.DISK_FAILURE
                else event.payload
            )
            victims = [
                pid for pid, state in st.pools.items()
                if pid != touched and state.failed > 0
            ]
            if not corrupted and event.kind in (
                EventType.DISK_FAILURE, EventType.REPAIR_COMPLETE
            ) and victims:
                victim = victims[-1]
                corrupted.update(index=len(seen), kind=event.kind, pool=victim)
                if corruption == "negative-work":
                    st.pools[victim].work[1] = -5.0
                else:
                    st.pools[total + 3] = st.pools.pop(victim)
            checker(event, st)

        with pytest.raises(InvariantViolation) as info:
            sim.run(mission_time=10 * DAY, seed=3, observer=observer)
        assert checker.events_checked == corrupted["index"] == len(seen)
        message = str(info.value)
        if corruption == "negative-work":
            assert message.startswith(
                f"pool {corrupted['pool']} has negative outstanding work "
                f"after {corrupted['kind']}: "
            )
            assert "-5.0" in message
        else:
            assert message == f"pool id {total + 3} outside topology"

    def test_empty_pool_table_passes(self):
        checker = InvariantChecker(simulator(), strict=True)
        checker(self._event(), _fake_state(pools={}, n_failures=0,
                                           local_bytes=0.0))
        assert checker.ok

    def test_accelerated_chaos_run_upholds_all_invariants(self):
        """End-to-end: every event of a fault-heavy accelerated run passes
        every invariant in strict mode."""
        sim = simulator(failure_model=FaultInjector(
            base=ExponentialFailures(0.5),
            faults=(
                RackOutage(time=2 * DAY, rack=1),
                RackOutage(time=3 * DAY, rack=4, duration=12 * HOUR),
                SectorErrorBurst(time=1 * DAY, disk=0, chunks=4),
                BandwidthDegradation(time=2.5 * DAY, duration=2 * DAY,
                                     network_factor=0.4),
            ),
            dc=DC,
            scrub_period=4 * DAY,
        ))
        checker = InvariantChecker(sim, strict=True)
        sim.run(mission_time=10 * DAY, seed=3, observer=checker)
        assert checker.ok
        assert checker.events_checked > 100
