"""Full-system event-driven simulation of SLEC and LRC deployments.

The MLEC simulator's counterpart for the paper's §5 baselines: the same
disk-level failure stream, but single-level pools:

* **Local-Cp** -- ``k+p``-disk pools, sequential spare rebuilds; data loss
  as soon as a pool holds more than ``p`` concurrently-unrepaired disks.
* **Local-Dp** -- enclosure pools with priority reconstruction (the
  damage-class work queue of :mod:`repro.sim.local_pool`); loss when a new
  failure hits an outstanding damage-``p`` stripe.
* **Network-Cp / Network-Dp / LRC-Dp** -- network-wide pools; repairs
  consume cross-rack bandwidth and every rebuilt byte is accounted as
  ``(reads + 1)`` cross-rack transfers, which lets the simulator's traffic
  be reconciled against the closed forms in
  :mod:`repro.repair.traffic_comparison`.

Network-declustered (and LRC) data-loss detection uses the same critical-
stripe hit probability as the analytic chain: a failure is fatal only if
it intersects a not-yet-repaired maximum-damage stripe, which for a
system-wide pool includes the stripe-alignment factor automatically.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.arrays import AnyArray
from ..core.config import BandwidthConfig, FailureConfig, YEAR
from ..core.scheme import LRCScheme, SLECScheme
from ..core.types import Level, Placement
from ..obs import MetricsRegistry, TraceRecorder
from .events import EventQueue, EventType
from .failures import ExponentialFailures, FailureModel, initial_failure_times

__all__ = ["SingleLevelSimResult", "SLECSystemSimulator"]


@dataclasses.dataclass
class SingleLevelSimResult:
    """Aggregate outcome of one SLEC/LRC system run."""

    mission_time: float
    n_disk_failures: int
    data_loss_events: int
    first_loss_time: float | None
    cross_rack_repair_bytes: float
    intra_rack_repair_bytes: float

    @property
    def lost_data(self) -> bool:
        return self.data_loss_events > 0

    @property
    def cross_rack_tb_per_day(self) -> float:
        days = self.mission_time / 86_400.0
        return self.cross_rack_repair_bytes / 1e12 / days if days else 0.0


class SLECSystemSimulator:
    """Event-driven simulation of a single-level EC deployment.

    Parameters
    ----------
    scheme:
        A :class:`repro.core.scheme.SLECScheme` or
        :class:`repro.core.scheme.LRCScheme`.
    bw, failures, failure_model:
        As for :class:`repro.sim.simulator.MLECSystemSimulator`.
    """

    def __init__(
        self,
        scheme: SLECScheme | LRCScheme,
        bw: BandwidthConfig | None = None,
        failures: FailureConfig | None = None,
        failure_model: FailureModel | None = None,
    ) -> None:
        self.scheme = scheme
        self.bw = bw if bw is not None else BandwidthConfig()
        self.failures = failures if failures is not None else FailureConfig()
        self.failure_model = (
            failure_model
            if failure_model is not None
            else ExponentialFailures(self.failures.annual_failure_rate)
        )
        self._is_lrc = isinstance(scheme, LRCScheme)
        dc = scheme.dc
        if self._is_lrc:
            self.width = scheme.params.n
            self.tolerance = scheme.params.r + 1  # guaranteed erasures
            self.local = False
            self.clustered = False
            # single-failure repairs read the local group across racks
            self.read_amp = scheme.params.group_size
            self.cross_rack = True
        else:
            self.width = scheme.params.n
            self.tolerance = scheme.params.p
            self.local = scheme.level is Level.LOCAL
            self.clustered = scheme.placement is Placement.CLUSTERED
            self.read_amp = scheme.params.k
            self.cross_rack = not self.local
        self.pool_disks = (
            scheme.pool_disks if not self._is_lrc else dc.total_disks
        )
        self.chunks_per_disk = dc.disk_capacity_bytes / dc.chunk_size_bytes
        chunks = self.pool_disks * self.chunks_per_disk
        self.stripes_per_pool = chunks / self.width
        self._repair_rate = self._compute_repair_rate()

    # ------------------------------------------------------------------
    def _compute_repair_rate(self) -> float:
        """Rebuild bytes/second inside one pool (Figure 12's models)."""
        d = self.bw.disk_repair_bandwidth
        r = self.bw.rack_repair_bandwidth
        dc = self.scheme.dc
        k = self.read_amp
        if self.local:
            if self.clustered:
                return min((self.pool_disks - 1) * d / k, d)
            return (self.pool_disks - 1) * d / (k + 1)
        if self.clustered:  # network-Cp: spare-disk write bound
            return min((self.width - 1) * r / k, d)
        return dc.racks * r / (k + 1)  # network-wide declustered

    def _pool_of_disk(self, disk: int) -> int:
        dc = self.scheme.dc
        if self._is_lrc or not self.local:
            if self.clustered:
                # network-Cp: pool = (rack group, in-rack position)
                rack = disk // dc.disks_per_rack
                return (rack // self.width) * dc.disks_per_rack + (
                    disk % dc.disks_per_rack
                )
            return 0  # one system-wide pool
        if self.clustered:
            return disk // self.width
        return disk // dc.disks_per_enclosure

    def _class_size(self, damage: int) -> float:
        if self.clustered:
            return self.stripes_per_pool
        frac = 1.0
        for j in range(damage):
            frac *= (self.width - j) / (self.pool_disks - j)
        return self.stripes_per_pool * frac

    # ------------------------------------------------------------------
    def run(
        self,
        mission_time: float = YEAR,
        seed: int = 0,
        recorder: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> SingleLevelSimResult:
        """Simulate the deployment for ``mission_time`` seconds.

        ``recorder`` collects ``slec.disk_failure`` / ``slec.data_loss`` /
        ``slec.mission_end`` trace records; ``metrics`` accumulates run
        counters.  Both are deterministic functions of the seed.
        """
        dc = self.scheme.dc
        rng = np.random.default_rng(seed)
        queue = EventQueue()
        queue.push(mission_time, EventType.END_OF_MISSION)

        times = initial_failure_times(self.failure_model, rng, dc.total_disks)
        for disk in np.nonzero(times <= mission_time)[0]:
            queue.push(float(times[disk]), EventType.DISK_FAILURE, int(disk))

        # Per-pool state: clustered -> count of unrepaired disks;
        # declustered -> damage-class work vector.
        counts: dict[int, int] = {}
        work: dict[int, AnyArray] = {}
        t_cap = self.tolerance
        n_failures = 0
        losses = 0
        first_loss: float | None = None
        cross_bytes = 0.0
        intra_bytes = 0.0
        disk_bytes = dc.disk_capacity_bytes
        repair_latency = (
            self.failures.detection_time + disk_bytes / self._repair_rate
        )
        # For LRC, not every tolerance-exceeding pattern loses: scale the
        # fatal-hit probability by the unrecoverable fraction at r+2.
        if self._is_lrc:
            from .burst import LRCBurstEvaluator

            u = LRCBurstEvaluator(self.scheme)._unrecoverable_fraction_by_size()
            fatal_fraction = float(u[min(self.tolerance + 1, len(u) - 1)])
        else:
            fatal_fraction = 1.0

        while True:
            event = queue.pop()
            if event is None or event.kind is EventType.END_OF_MISSION:
                break
            now = event.time

            if event.kind is EventType.DISK_FAILURE:
                n_failures += 1
                disk = event.payload
                pool = self._pool_of_disk(disk)
                lost_here = False

                if self.clustered:
                    current = counts.get(pool, 0)
                    if current >= t_cap:
                        losses += 1
                        lost_here = True
                        first_loss = first_loss if first_loss is not None else now
                    else:
                        counts[pool] = current + 1
                else:
                    w = work.setdefault(pool, np.zeros(t_cap + 1))
                    if w[t_cap] > 1e-6:
                        hits = w[t_cap] * (
                            (self.width - t_cap) / (self.pool_disks - t_cap)
                        )
                        if rng.random() < min(1.0, hits) * fatal_fraction:
                            losses += 1
                            lost_here = True
                            first_loss = (
                                first_loss if first_loss is not None else now
                            )
                    for d in range(t_cap - 1, 0, -1):
                        share = (self.width - d) / (self.pool_disks - d)
                        promoted = w[d] * share
                        w[d + 1] += promoted
                        w[d] -= promoted
                    w[1] += self.chunks_per_disk

                # Repair traffic: rebuilt disk + its read amplification.
                moved = disk_bytes * (self.read_amp + 1)
                if self.cross_rack:
                    cross_bytes += moved
                else:
                    intra_bytes += moved
                queue.push(now + repair_latency, EventType.REPAIR_COMPLETE, pool)
                if recorder is not None:
                    recorder.event(
                        now,
                        "slec.disk_failure",
                        pool=pool,
                        disk=int(disk),
                        cross_rack=self.cross_rack,
                    )
                    if lost_here:
                        recorder.event(now, "slec.data_loss", pool=pool)
                t = self.failure_model.time_to_failure(rng, disk, now)
                if t <= mission_time:
                    queue.push(t, EventType.DISK_FAILURE, disk)

            elif event.kind is EventType.REPAIR_COMPLETE:
                pool = event.payload
                if self.clustered:
                    if counts.get(pool, 0) > 0:
                        counts[pool] -= 1
                        if counts[pool] == 0:
                            counts.pop(pool, None)
                else:
                    w = work.get(pool)
                    if w is not None:
                        budget = self.chunks_per_disk
                        for d in range(t_cap, 0, -1):
                            take = min(w[d], budget)
                            w[d] -= take
                            budget -= take
                            if budget <= 0:
                                break
                        if not w.any():
                            work.pop(pool, None)

        if recorder is not None:
            recorder.event(
                mission_time,
                "slec.mission_end",
                disk_failures=n_failures,
                data_loss_events=losses,
                cross_rack_bytes=cross_bytes,
                intra_rack_bytes=intra_bytes,
            )
        if metrics is not None:
            metrics.counter("slec.trials").inc()
            metrics.counter("slec.disk_failures").inc(n_failures)
            metrics.counter("slec.data_loss_events").inc(losses)
            metrics.counter("slec.cross_rack_repair_bytes").inc(cross_bytes)
            metrics.counter("slec.intra_rack_repair_bytes").inc(intra_bytes)

        return SingleLevelSimResult(
            mission_time=mission_time,
            n_disk_failures=n_failures,
            data_loss_events=losses,
            first_loss_time=first_loss,
            cross_rack_repair_bytes=cross_bytes,
            intra_rack_repair_bytes=intra_bytes,
        )
