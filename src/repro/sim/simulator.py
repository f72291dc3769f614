"""Full-datacenter MLEC simulator (paper §3 "Simulation").

Event-driven simulation of the entire deployment -- 57,600 disks in the
default setup -- under any failure model (distribution, rules, or trace
replay), any MLEC scheme, and any repair method:

* every disk failure is an event; pools track their outstanding damage with
  the kernel's damage classes (:mod:`repro.sim.kernel`), as
  :class:`repro.sim.local_pool.LocalPoolSimulator` does;
* a pool whose damage reaches ``p_l+1`` on co-striped chunks becomes
  *catastrophic*: the chosen repair method's network stage opens, cross-rack
  repair traffic is accounted, and the pool exits the catastrophic state
  when the network stage completes;
* whenever ``p_n+1`` co-striped pools are concurrently catastrophic the
  simulator samples whether a network stripe is actually lost (the same
  stripe-sharing probability the analytic models use) and records a data
  loss.

Beyond plain disk deaths the simulator understands the correlated fault
events injected by :class:`repro.faults.FaultInjector`:

* ``TRANSIENT_OFFLINE`` / ``TRANSIENT_ONLINE`` -- a rack or enclosure
  drops out and returns with its data intact; the affected pools run
  *degraded* (the outage counts toward unavailability, not data loss);
* ``SECTOR_ERROR`` -- latent corrupt chunks accumulate silently and are
  only found by a ``SCRUB`` pass, by repair reads, or -- worst case -- when
  a failure leaves a stripe depending on a corrupt chunk, which escalates
  into a catastrophic (network-stage) repair;
* ``BANDWIDTH_CHANGE`` -- the repair-bandwidth budget changes mid-flight;
  every active network-stage repair banks the progress it made at the old
  rate and re-plans its completion against the new one.

At the paper's 1% AFR catastrophic events are (by design!) vanishingly
rare, so PDL measurement through this simulator alone is only practical in
accelerated or burst-injected scenarios -- exactly why the paper adds the
splitting/DP/Markov strategies.  What the full simulator measures well at
nominal rates: repair traffic, repair times, failure statistics, and
behaviour under correlated bursts from synthetic or replayed traces.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial
from typing import Callable

from ..analysis.combinatorics import any_of_many
from ..core.config import BandwidthConfig, FailureConfig, YEAR
from ..core.scheme import MLECScheme
from ..core.types import Placement, RepairMethod
from ..obs import MetricsRegistry, TraceRecorder
from ..obs.report import REPAIR_HOURS_BUCKETS
from ..repair.bandwidth import BandwidthModel
from ..topology.datacenter import DatacenterTopology
from .events import Event, EventType
from .failures import ExponentialFailures, FailureModel
from .kernel import DamageClasses, EventKernel, PoolDamage, Seed

__all__ = [
    "DataLossEvent", "SystemSimResult", "MLECSystemSimulator",
    "record_run_metrics",
]


@dataclasses.dataclass(frozen=True)
class DataLossEvent:
    """A network-stripe loss observed by the simulator."""

    time: float
    pools: tuple[int, ...]


@dataclasses.dataclass
class SystemSimResult:
    """Aggregate outcome of one system run.

    The trailing block of fields is the degraded-mode accounting added for
    fault injection; it stays at its zero defaults for plain runs.
    """

    mission_time: float
    n_disk_failures: int
    n_catastrophic_events: int
    data_loss_events: list[DataLossEvent]
    cross_rack_repair_bytes: float
    local_repair_bytes: float
    max_concurrent_catastrophic: int
    # --- fault-injection / degraded-mode accounting -------------------
    n_transient_outages: int = 0
    n_unavailability_events: int = 0
    offline_disk_seconds: float = 0.0
    n_sector_errors: int = 0
    n_latent_errors_detected: int = 0
    n_latent_induced_catastrophes: int = 0
    scrub_repair_bytes: float = 0.0
    n_scrubs: int = 0
    n_bandwidth_changes: int = 0
    n_repair_replans: int = 0
    net_repair_seconds: float = 0.0
    degraded_repair_seconds: float = 0.0

    @property
    def lost_data(self) -> bool:
        return bool(self.data_loss_events)


def record_run_metrics(metrics: MetricsRegistry, result: SystemSimResult) -> None:
    """Fold one run's end-of-run counters into ``metrics``."""
    metrics.counter("sim.trials").inc()
    metrics.counter("sim.disk_failures").inc(result.n_disk_failures)
    metrics.counter("sim.catastrophic_events").inc(result.n_catastrophic_events)
    metrics.counter("sim.data_loss_events").inc(len(result.data_loss_events))
    metrics.counter("sim.cross_rack_repair_bytes").inc(
        result.cross_rack_repair_bytes
    )
    metrics.counter("sim.local_repair_bytes").inc(result.local_repair_bytes)
    metrics.counter("sim.transient_outages").inc(result.n_transient_outages)
    metrics.counter("sim.sector_errors").inc(result.n_sector_errors)
    metrics.counter("sim.scrubs").inc(result.n_scrubs)
    metrics.counter("sim.bandwidth_changes").inc(result.n_bandwidth_changes)
    metrics.counter("sim.net_repair_seconds").inc(result.net_repair_seconds)


class _NetRepair:
    """One in-flight network-stage repair of a catastrophic pool.

    ``remaining`` bytes still to rebuild; ``clock`` is the last time the
    repair's progress was banked (starts at ``ready_at``, the end of the
    detection window, so no progress accrues before detection).
    ``started``/``total`` exist for tracing only: when the catastrophe was
    registered and the largest byte window it ever covered.
    """

    __slots__ = ("ready_at", "remaining", "clock", "started", "total")

    def __init__(self, ready_at: float, remaining: float, started: float) -> None:
        self.ready_at = ready_at
        self.remaining = remaining
        self.clock = ready_at
        self.started = started
        self.total = remaining


@dataclasses.dataclass(slots=True, eq=False)
class _RunState:
    """All mutable state of one simulation run.

    Exposed read-only to observers (see ``MLECSystemSimulator.run``); the
    invariant checker in :mod:`repro.faults.invariants` audits these fields
    after every event.
    """

    kernel: EventKernel
    recorder: TraceRecorder | None = None
    metrics: MetricsRegistry | None = None
    pools: dict[int, PoolDamage] = dataclasses.field(default_factory=dict)
    net_repairs: dict[int, _NetRepair] = dataclasses.field(default_factory=dict)
    # pool id -> latent corrupt chunks; disk id -> time it went offline
    latent: dict[int, int] = dataclasses.field(default_factory=dict)
    offline_since: dict[int, float] = dataclasses.field(default_factory=dict)
    net_factor: float = 1.0
    local_factor: float = 1.0
    losses: list[DataLossEvent] = dataclasses.field(default_factory=list)
    n_failures: int = 0
    n_catastrophic: int = 0
    cross_rack_bytes: float = 0.0
    local_bytes: float = 0.0
    max_concurrent: int = 0
    n_transient_outages: int = 0
    n_unavail: int = 0
    offline_disk_seconds: float = 0.0
    n_sector_errors: int = 0
    n_latent_detected: int = 0
    n_latent_induced: int = 0
    n_latent_induced_chunks: int = 0
    scrub_repair_bytes: float = 0.0
    n_scrubs: int = 0
    n_bandwidth_changes: int = 0
    n_repair_replans: int = 0
    net_repair_seconds: float = 0.0
    degraded_repair_seconds: float = 0.0


#: Observer signature: called after every processed event with the event
#: and the (read-only) run state.
SimObserver = Callable[[Event, _RunState], None]


class MLECSystemSimulator:
    """Simulates a whole MLEC deployment.

    Parameters
    ----------
    scheme:
        The MLEC scheme (placement decides pool geometry and co-striping).
    method:
        Repair method for catastrophic pools.
    bw, failures:
        Bandwidth and failure/detection configuration (paper defaults).
    failure_model:
        Per-disk failure model; defaults to the configured exponential AFR.
        A :class:`repro.faults.FaultInjector` (anything exposing a
        ``schedule(queue, mission_time)`` hook) additionally injects
        correlated fault events at run start.
    """

    def __init__(
        self,
        scheme: MLECScheme,
        method: RepairMethod = RepairMethod.R_FCO,
        bw: BandwidthConfig | None = None,
        failures: FailureConfig | None = None,
        failure_model: FailureModel | None = None,
    ) -> None:
        self.scheme = scheme
        self.method = method
        self.bw = bw if bw is not None else BandwidthConfig()
        self.failures = failures if failures is not None else FailureConfig()
        self.failure_model = (
            failure_model
            if failure_model is not None
            else ExponentialFailures(self.failures.annual_failure_rate)
        )
        self.topo = DatacenterTopology(scheme.dc)
        model = BandwidthModel(scheme, self.bw)
        self._local_rate = model.single_disk_repair_rate().rate
        self._network_rate = model.network_repair_rate().rate
        s = scheme
        self._clustered = s.local_placement is Placement.CLUSTERED
        # Geometry the handlers read on every event, resolved once.
        self._n_l = n_l = s.params.n_l
        self._p_l = p_l = s.params.p_l
        self._pool_disks = pool_disks = s.local_pool_disks
        self._disk_capacity = s.dc.disk_capacity_bytes
        #: Disks per local pool id: a pool is ``disk // pool_divisor``.
        self.pool_divisor = n_l if self._clustered else s.dc.disks_per_enclosure
        chunks = pool_disks * s.dc.disk_capacity_bytes / s.dc.chunk_size_bytes
        self._stripes_per_pool = chunks / n_l
        self._chunks_per_disk = s.dc.disk_capacity_bytes / s.dc.chunk_size_bytes
        self._classes = DamageClasses(n_l, pool_disks, p_l, self._chunks_per_disk)

    # ------------------------------------------------------------------
    def _pool_of_disk(self, disk_id: int) -> int:
        return disk_id // self.pool_divisor

    def local_drain_time(self, local_factor: float = 1.0) -> float:
        """Seconds from a disk failure until its pool's local repair of it
        completes, at ``local_factor`` times the local repair bandwidth."""
        return self.failures.detection_time + self._disk_capacity / (
            self._local_rate * local_factor
        )

    def _network_stage_bytes(self, lost_stripes: float) -> float:
        """Bytes the network stage must rebuild for this method."""
        s = self.scheme
        if self.method is RepairMethod.R_ALL:
            return float(s.local_pool_capacity_bytes)
        if self.method is RepairMethod.R_FCO:
            return (s.params.p_l + 1) * s.dc.disk_capacity_bytes
        per_stripe = (
            s.params.p_l + 1 if self.method is RepairMethod.R_HYB else 1
        )
        return lost_stripes * per_stripe * s.dc.chunk_size_bytes

    def _share_probability(self, n_catastrophic_pools: int, rho: float) -> float:
        """P[some network stripe is lost across these catastrophic pools]."""
        s = self.scheme
        t = n_catastrophic_pools
        eff_rho = 1.0 if self.method is RepairMethod.R_ALL else min(1.0, rho)
        joint = eff_rho**t
        if s.network_placement is Placement.CLUSTERED:
            return any_of_many(joint, self._stripes_per_pool)
        align = 1.0
        for j in range(t):
            align *= (s.params.n_n - j) / (s.dc.racks - j)
        align /= s.local_pools_per_rack**t
        return any_of_many(align * joint, s.network_stripes_total())

    def _co_stripe_key(self, pool_id: int) -> int:
        """Pools sharing this key can host rows of the same network stripe."""
        s = self.scheme
        if s.network_placement is Placement.DECLUSTERED:
            return 0
        ppr = s.local_pools_per_rack
        rack = pool_id // ppr
        return (rack // s.network_group_racks) * ppr + pool_id % ppr

    # ------------------------------------------------------------------
    # Network-stage repair progress
    # ------------------------------------------------------------------
    def _advance_net_repairs(self, st: _RunState, now: float) -> None:
        """Bank progress of every in-flight network repair up to ``now``.

        Progress is linear at the *current* effective rate, so this must be
        called (and is) before every rate change; completed repairs leave
        the catastrophic set.
        """
        rate = self._network_rate * st.net_factor
        done = []
        for pool_id, rep in st.net_repairs.items():
            if now > rep.clock:
                capacity = (now - rep.clock) * rate
                progress = min(rep.remaining, capacity)
                done_at = rep.clock + progress / rate if progress > 0 else rep.clock
                if progress > 0:
                    active = progress / rate
                    st.net_repair_seconds += active
                    if st.net_factor < 1.0:
                        st.degraded_repair_seconds += active
                rep.remaining -= progress
                rep.clock = now
            else:
                done_at = rep.clock
            if rep.remaining <= 1e-6:
                done.append((pool_id, done_at))
        degraded = st.net_factor < 1.0
        for pool_id, done_at in done:
            rep = st.net_repairs.pop(pool_id)
            seconds = done_at - rep.started
            if st.recorder is not None:
                st.recorder.event(
                    done_at,
                    "sim.net_repair_complete",
                    pool=pool_id,
                    bytes=rep.total,
                    seconds=seconds,
                    degraded=degraded,
                )
            if st.metrics is not None:
                st.metrics.histogram(
                    "sim.net_repair_hours", REPAIR_HOURS_BUCKETS
                ).observe(seconds / 3600.0)

    def _check_data_loss(
        self, st: _RunState, now: float, pool_id: int, rho: float
    ) -> None:
        self._advance_net_repairs(st, now)
        s = self.scheme
        key = self._co_stripe_key(pool_id)
        ppr = s.local_pools_per_rack
        concurrent = {
            pid for pid in st.net_repairs
            if self._co_stripe_key(pid) == key
        }
        concurrent.add(pool_id)
        racks = {pid // ppr for pid in concurrent}
        st.max_concurrent = max(st.max_concurrent, len(concurrent))
        if len(racks) >= s.params.p_n + 1:
            if st.kernel.bernoulli(self._share_probability(len(racks), rho)):
                loss = DataLossEvent(time=now, pools=tuple(sorted(concurrent)))
                st.losses.append(loss)
                if st.recorder is not None:
                    st.recorder.event(
                        now,
                        "sim.data_loss",
                        pools=list(loss.pools),
                        racks=len(racks),
                    )

    def _register_catastrophe(
        self,
        st: _RunState,
        now: float,
        pool_id: int,
        lost_stripes: float,
        latent_induced: bool = False,
    ) -> None:
        s = self.scheme
        st.n_catastrophic += 1
        if latent_induced:
            st.n_latent_induced += 1
        rho = lost_stripes / self._stripes_per_pool
        rebuild = self._network_stage_bytes(lost_stripes)
        st.cross_rack_bytes += rebuild * (s.params.k_n + 1)
        if st.recorder is not None:
            st.recorder.event(
                now,
                "sim.catastrophe",
                pool=pool_id,
                method=self.method.name,
                lost_stripes=lost_stripes,
                rebuild_bytes=rebuild,
                cross_rack_bytes=rebuild * (s.params.k_n + 1),
                latent_induced=latent_induced,
            )
        self._check_data_loss(st, now, pool_id, rho)
        rep = st.net_repairs.get(pool_id)
        if rep is None:
            ready_at = now + self.failures.detection_time
            st.net_repairs[pool_id] = _NetRepair(ready_at, rebuild, started=now)
            if st.recorder is not None:
                st.recorder.event(
                    now,
                    "sim.net_repair_start",
                    pool=pool_id,
                    bytes=rebuild,
                    ready_at=ready_at,
                )
        else:
            # Window extension (not accumulation): matches the previous
            # "max(old window end, new window end)" semantics.
            rep.remaining = max(rep.remaining, rebuild)
            rep.total = max(rep.total, rebuild)
            if st.recorder is not None:
                st.recorder.event(
                    now, "sim.net_repair_extend", pool=pool_id, bytes=rebuild
                )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_disk_failure(self, st: _RunState, event: Event) -> None:
        p_l = self._p_l
        now = event.time
        st.n_failures += 1
        disk = event.payload
        pool_id = self._pool_of_disk(disk)
        state = st.pools.get(pool_id)
        if state is None:
            state = st.pools[pool_id] = PoolDamage(self._classes)
        latent = st.latent.get(pool_id, 0)
        if st.recorder is not None:
            st.recorder.event(
                now,
                "sim.disk_failure",
                pool=pool_id,
                disk=int(disk),
                pool_failed=min(state.failed + 1, p_l),
                degraded=st.net_factor < 1.0 or st.local_factor < 1.0,
            )

        # Catastrophe test: does the new failure hit outstanding
        # damage-p_l stripes (or, with latent sector errors present, push
        # a damage-p_l stripe over the edge via a corrupt chunk)?
        lost_stripes = 0.0
        latent_induced = False
        if self._clustered:
            if state.failed >= p_l:
                lost_stripes = self._stripes_per_pool
            elif latent and state.failed == p_l - 1:
                # p_l concurrent failures; every stripe holding a latent
                # chunk now has p_l+1 unreadable chunks.
                lost_stripes = float(min(latent, int(self._stripes_per_pool)))
                latent_induced = True
                st.latent.pop(pool_id, None)
                st.n_latent_detected += latent
                st.n_latent_induced_chunks += latent
        else:
            hits = state.critical_hits()
            if hits > 0.0:
                if latent:
                    # Chance that a damage-p_l stripe also depends on one
                    # of the pool's latent chunks (uniform spread
                    # approximation).
                    surviving = (self._pool_disks - p_l) * self._chunks_per_disk
                    hits += state.work[p_l] * latent * (self._n_l - p_l) / surviving
                if st.kernel.bernoulli(min(1.0, hits)):
                    lost_stripes = max(1.0, hits)

        if lost_stripes > 0.0:
            self._register_catastrophe(
                st, now, pool_id, lost_stripes, latent_induced
            )

        # Damage bookkeeping (promotion of unrepaired damage).
        combined_before = state.failed + state.offline
        if not self._clustered:
            state.promote()
        state.failed = min(state.failed + 1, p_l)
        if combined_before <= p_l < state.failed + state.offline:
            # Together with transiently offline disks the pool now exceeds
            # its parity budget: data is unavailable (not lost) until the
            # offline disks return.
            st.n_unavail += 1
        # Local drain: this failure's data is restored after the local
        # repair latency (coarse but conservative for the damage window;
        # the pool-level simulator refines this).  A degraded local
        # bandwidth budget stretches the drain accordingly.
        st.kernel.queue.push(
            now + self.local_drain_time(st.local_factor),
            EventType.REPAIR_COMPLETE,
            pool_id,
        )
        st.local_bytes += self._disk_capacity
        st.kernel.replace(disk, now)

    def _on_repair_complete(self, st: _RunState, event: Event) -> None:
        pool_id = event.payload
        state = st.pools.get(pool_id)
        if state is None:
            return
        state.failed = max(0, state.failed - 1)
        if not self._clustered:
            state.drain()
        # Repair reads sweep the pool's surviving disks, so any latent
        # sector errors are detected (and re-written) as a side effect.
        latent = st.latent.pop(pool_id, 0)
        if latent:
            st.n_latent_detected += latent
            st.scrub_repair_bytes += latent * self.scheme.dc.chunk_size_bytes
        if st.recorder is not None:
            st.recorder.event(
                event.time,
                "sim.repair_complete",
                pool=pool_id,
                failed=state.failed,
                latent_detected=latent,
            )
        if state.is_idle():
            st.pools.pop(pool_id, None)

    def _on_transient_offline(self, st: _RunState, event: Event) -> None:
        p_l = self._p_l
        now = event.time
        st.n_transient_outages += 1
        by_pool: dict[int, int] = {}
        for disk in event.payload:
            if disk in st.offline_since:  # overlapping outages: keep first
                continue
            st.offline_since[disk] = now
            pool_id = self._pool_of_disk(disk)
            by_pool[pool_id] = by_pool.get(pool_id, 0) + 1
        for pool_id, count in by_pool.items():
            state = st.pools.setdefault(pool_id, PoolDamage(self._classes))
            before = state.failed + state.offline
            state.offline += count
            if before <= p_l < state.failed + state.offline:
                st.n_unavail += 1
        if st.recorder is not None:
            st.recorder.event(
                now,
                "sim.transient_offline",
                disks=len(event.payload),
                pools=len(by_pool),
            )

    def _on_transient_online(self, st: _RunState, event: Event) -> None:
        now = event.time
        touched = set()
        for disk in event.payload:
            start = st.offline_since.pop(disk, None)
            if start is None:
                continue
            st.offline_disk_seconds += now - start
            pool_id = self._pool_of_disk(disk)
            state = st.pools.get(pool_id)
            if state is not None:
                state.offline = max(0, state.offline - 1)
                touched.add(pool_id)
        for pool_id in touched:
            state = st.pools.get(pool_id)
            if state is not None and state.is_idle():
                st.pools.pop(pool_id, None)
        if st.recorder is not None:
            st.recorder.event(
                now, "sim.transient_online", disks=len(event.payload)
            )

    def _on_sector_error(self, st: _RunState, event: Event) -> None:
        disk, chunks = event.payload
        pool_id = self._pool_of_disk(disk)
        st.latent[pool_id] = st.latent.get(pool_id, 0) + chunks
        st.n_sector_errors += chunks
        if st.recorder is not None:
            st.recorder.event(
                event.time,
                "sim.sector_error",
                pool=pool_id,
                disk=int(disk),
                chunks=int(chunks),
            )

    def _on_scrub(self, st: _RunState, event: Event) -> None:
        st.n_scrubs += 1
        cleared = 0
        if st.latent:
            chunk = self.scheme.dc.chunk_size_bytes
            for chunks in st.latent.values():
                st.n_latent_detected += chunks
                st.scrub_repair_bytes += chunks * chunk
                cleared += chunks
            st.latent.clear()
        if st.recorder is not None:
            st.recorder.event(
                event.time, "sim.scrub", latent_detected=int(cleared)
            )

    def _on_bandwidth_change(self, st: _RunState, event: Event) -> None:
        net_factor, local_factor = event.payload
        for name, factor in (("network", net_factor), ("local", local_factor)):
            if math.isnan(factor) or not 0 < factor <= 1:
                raise ValueError(
                    f"{name} bandwidth factor must be in (0, 1], got {factor}"
                )
        # Bank progress at the old rate, then re-plan every in-flight
        # network repair against the new one.
        self._advance_net_repairs(st, event.time)
        replanned = 0
        if st.net_repairs and net_factor != st.net_factor:
            replanned = len(st.net_repairs)
            st.n_repair_replans += replanned
        st.net_factor = net_factor
        st.local_factor = local_factor
        st.n_bandwidth_changes += 1
        if st.recorder is not None:
            st.recorder.event(
                event.time,
                "sim.bandwidth_change",
                net_factor=float(net_factor),
                local_factor=float(local_factor),
                replanned=replanned,
            )

    # ------------------------------------------------------------------
    def run(
        self,
        mission_time: float = YEAR,
        seed: Seed = 0,
        observer: SimObserver | None = None,
        recorder: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> SystemSimResult:
        """Run the system for ``mission_time`` seconds.

        ``observer``, if given, is called as ``observer(event, state)``
        after every processed event (including END_OF_MISSION) -- the hook
        the chaos campaign uses to enforce simulator invariants.  Observers
        must treat the state as read-only.

        ``recorder`` collects typed trace records (``sim.disk_failure``,
        ``sim.catastrophe``, ``sim.net_repair_start``/``_complete``,
        ``sim.data_loss``, ...) and ``metrics`` accumulates run counters
        and the network-repair-time histogram; both are deterministic
        functions of (scheme, seed, mission_time).
        """
        kernel = EventKernel(
            self.failure_model, self.topo.total_disks, mission_time, seed
        )
        st = _RunState(kernel, recorder=recorder, metrics=metrics)
        handlers = {
            EventType.DISK_FAILURE: partial(self._on_disk_failure, st),
            EventType.REPAIR_COMPLETE: partial(self._on_repair_complete, st),
            EventType.TRANSIENT_OFFLINE: partial(self._on_transient_offline, st),
            EventType.TRANSIENT_ONLINE: partial(self._on_transient_online, st),
            EventType.SECTOR_ERROR: partial(self._on_sector_error, st),
            EventType.SCRUB: partial(self._on_scrub, st),
            EventType.BANDWIDTH_CHANGE: partial(self._on_bandwidth_change, st),
        }
        last = kernel.run(
            handlers,
            None if observer is None else lambda event: observer(event, st),
        )
        # Bank the tail: repair progress and offline time up to the end of
        # the mission.
        self._advance_net_repairs(st, mission_time)
        for start in st.offline_since.values():
            st.offline_disk_seconds += mission_time - start
        if observer is not None and last is not None:
            observer(last, st)

        if recorder is not None:
            recorder.event(
                mission_time,
                "sim.mission_end",
                disk_failures=st.n_failures,
                catastrophic_events=st.n_catastrophic,
                data_loss_events=len(st.losses),
                cross_rack_bytes=st.cross_rack_bytes,
                local_bytes=st.local_bytes,
                max_concurrent_catastrophic=st.max_concurrent,
            )
        result = SystemSimResult(
            mission_time=mission_time,
            n_disk_failures=st.n_failures,
            n_catastrophic_events=st.n_catastrophic,
            data_loss_events=st.losses,
            cross_rack_repair_bytes=st.cross_rack_bytes,
            local_repair_bytes=st.local_bytes,
            max_concurrent_catastrophic=st.max_concurrent,
            n_transient_outages=st.n_transient_outages,
            n_unavailability_events=st.n_unavail,
            offline_disk_seconds=st.offline_disk_seconds,
            n_sector_errors=st.n_sector_errors,
            n_latent_errors_detected=st.n_latent_detected,
            n_latent_induced_catastrophes=st.n_latent_induced,
            scrub_repair_bytes=st.scrub_repair_bytes,
            n_scrubs=st.n_scrubs,
            n_bandwidth_changes=st.n_bandwidth_changes,
            n_repair_replans=st.n_repair_replans,
            net_repair_seconds=st.net_repair_seconds,
            degraded_repair_seconds=st.degraded_repair_seconds,
        )
        if metrics is not None:
            record_run_metrics(metrics, result)
        return result
