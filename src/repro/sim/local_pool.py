"""Event-driven simulation of a single local pool with priority repair.

This is stage 1 of the paper's *splitting* methodology (§3): simulate one
local pool's durability and collect catastrophic-failure samples, which the
network-level stage then injects at MLEC scale.

Model granularity: failures are fully stochastic (any
:class:`repro.sim.failures.FailureModel`); repair progress is tracked at the
damage-class level rather than per stripe:

* **Clustered pools** -- every stripe spans every disk, so a failed disk is
  a failed stripe-column: disks rebuild one at a time onto spares, and any
  failure arriving while ``p_l`` disks are still unrebuilt is catastrophic.
  This is the exact classic-RAID model.

* **Declustered pools** -- priority reconstruction: the stripes with the
  most failed chunks are repaired first.  Outstanding work is kept per
  damage class, with the exact hypergeometric family sizes: a new failure
  with ``i-1`` disks already failed adds ``C(i-1, d-1) * N_d`` critical
  stripes at each damage level ``d`` (``N_d`` = expected stripes covering
  ``d`` specific disks).  Demoting a class costs one chunk per stripe --
  the demoted stripes already belong to the lower classes' families, so
  the accounting telescopes to one full disk per failure.  A failure that
  arrives while damage-``p_l`` stripes are outstanding is catastrophic
  with the hit probability ``outstanding * (w-p)/(D-p)`` -- the same
  expression the Markov model uses, making the two cross-validatable term
  by term.

Tracking expected class sizes instead of ~1e9 individual stripes keeps a
pool-year at a handful of events while preserving the dynamics that matter
for durability: how long the pool dwells one failure away from catastrophe.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.config import YEAR
from .events import EventQueue, EventType
from .failures import ExponentialFailures, FailureModel, initial_failure_times

__all__ = ["CatastrophicSample", "PoolSimResult", "LocalPoolSimulator"]


@dataclasses.dataclass(frozen=True)
class CatastrophicSample:
    """One catastrophic local-pool event observed by the simulator."""

    time: float
    failed_disks: int
    lost_stripes: float
    lost_fraction: float


@dataclasses.dataclass
class PoolSimResult:
    """Aggregate result of one pool simulation run."""

    mission_time: float
    n_failures: int
    n_catastrophic: int
    catastrophic_samples: list[CatastrophicSample]
    max_concurrent_failures: int

    @property
    def catastrophic_rate_per_year(self) -> float:
        return self.n_catastrophic / (self.mission_time / YEAR)


class LocalPoolSimulator:
    """Simulates one local pool under stochastic failures.

    Parameters mirror :class:`repro.analysis.markov.PoolReliabilityChain`
    so the two are directly comparable.
    """

    def __init__(
        self,
        pool_disks: int,
        stripe_width: int,
        parities: int,
        clustered: bool,
        disk_capacity_bytes: float,
        chunk_size_bytes: float,
        repair_rate: float,
        detection_time: float,
        failure_model: FailureModel | None = None,
    ) -> None:
        if pool_disks < stripe_width:
            raise ValueError("pool smaller than stripe width")
        if parities < 1:
            raise ValueError("need at least one parity")
        self.pool_disks = pool_disks
        self.stripe_width = stripe_width
        self.parities = parities
        self.clustered = clustered
        self.disk_capacity_bytes = disk_capacity_bytes
        self.chunk_size_bytes = chunk_size_bytes
        self.repair_rate = repair_rate
        self.detection_time = detection_time
        self.failure_model = (
            failure_model if failure_model is not None else ExponentialFailures()
        )
        chunks = pool_disks * disk_capacity_bytes / chunk_size_bytes
        self.stripes_in_pool = chunks / stripe_width
        self.chunks_per_disk = disk_capacity_bytes / chunk_size_bytes

    # ------------------------------------------------------------------
    def class_size(self, damage: int) -> float:
        """Expected stripes spanning ``damage`` specific failed disks."""
        if self.clustered:
            return self.stripes_in_pool
        frac = 1.0
        for j in range(damage):
            frac *= (self.stripe_width - j) / (self.pool_disks - j)
        return self.stripes_in_pool * frac

    def run(
        self,
        mission_time: float = YEAR,
        seed: int = 0,
        stop_at_first_catastrophe: bool = False,
    ) -> PoolSimResult:
        """Simulate the pool for ``mission_time`` seconds."""
        if self.clustered:
            return self._run_clustered(mission_time, seed, stop_at_first_catastrophe)
        return self._run_declustered(mission_time, seed, stop_at_first_catastrophe)

    # ------------------------------------------------------------------
    # Clustered: sequential per-disk rebuild onto spares.
    # ------------------------------------------------------------------
    def _run_clustered(
        self, mission_time: float, seed: int, stop_early: bool
    ) -> PoolSimResult:
        rng = np.random.default_rng(seed)
        queue = EventQueue()
        queue.push(mission_time, EventType.END_OF_MISSION)
        times = initial_failure_times(self.failure_model, rng, self.pool_disks)
        for disk in np.nonzero(times <= mission_time)[0]:
            queue.push(float(times[disk]), EventType.DISK_FAILURE, int(disk))

        failed = 0
        repairing = False
        n_failures = 0
        max_concurrent = 0
        samples: list[CatastrophicSample] = []
        disk_time = self.disk_capacity_bytes / self.repair_rate

        while True:
            event = queue.pop()
            if event is None or event.kind is EventType.END_OF_MISSION:
                break
            if event.kind is EventType.DISK_FAILURE:
                n_failures += 1
                if failed >= self.parities:
                    # Every stripe spans every disk: certain data loss.
                    samples.append(
                        CatastrophicSample(
                            time=event.time,
                            failed_disks=failed + 1,
                            lost_stripes=self.stripes_in_pool,
                            lost_fraction=1.0,
                        )
                    )
                    if stop_early:
                        failed += 1
                        max_concurrent = max(max_concurrent, failed)
                        break
                failed = min(failed + 1, self.parities)  # clamp post-loss
                max_concurrent = max(max_concurrent, failed)
                if not repairing:
                    repairing = True
                    queue.push(
                        event.time + self.detection_time + disk_time,
                        EventType.REPAIR_COMPLETE,
                    )
            elif event.kind is EventType.REPAIR_COMPLETE:
                failed -= 1
                disk = int(rng.integers(self.pool_disks))
                t = self.failure_model.time_to_failure(rng, disk, event.time)
                if t <= mission_time:
                    queue.push(t, EventType.DISK_FAILURE, disk)
                if failed > 0:
                    queue.push(
                        event.time + disk_time, EventType.REPAIR_COMPLETE
                    )
                else:
                    repairing = False

        return PoolSimResult(
            mission_time=mission_time,
            n_failures=n_failures,
            n_catastrophic=len(samples),
            catastrophic_samples=samples,
            max_concurrent_failures=max_concurrent,
        )

    # ------------------------------------------------------------------
    # Declustered: priority repair over damage classes.
    # ------------------------------------------------------------------
    def _run_declustered(
        self, mission_time: float, seed: int, stop_early: bool
    ) -> PoolSimResult:
        rng = np.random.default_rng(seed)
        queue = EventQueue()
        queue.push(mission_time, EventType.END_OF_MISSION)
        times = initial_failure_times(self.failure_model, rng, self.pool_disks)
        for disk in np.nonzero(times <= mission_time)[0]:
            queue.push(float(times[disk]), EventType.DISK_FAILURE, int(disk))

        failed = 0
        # Outstanding demote work (stripes needing one chunk) per class.
        work = np.zeros(self.parities + 1)
        repair_handle: int | None = None
        repair_started = 0.0
        repair_class: int | None = None

        n_failures = 0
        max_concurrent = 0
        samples: list[CatastrophicSample] = []
        chunks_per_second = self.repair_rate / self.chunk_size_bytes

        def settle_progress(now: float) -> None:
            """Credit the in-flight repair's progress and cancel it."""
            nonlocal repair_handle
            if repair_handle is None:
                return
            done = (now - repair_started) * chunks_per_second
            work[repair_class] = max(0.0, work[repair_class] - done)
            queue.cancel(repair_handle)
            repair_handle = None

        def schedule(now: float) -> None:
            nonlocal repair_handle, repair_started, repair_class
            nz = np.nonzero(work > 1e-6)[0]
            if nz.size == 0:
                repair_class = None
                return
            target = int(nz[-1])
            repair_class = target
            repair_started = now
            duration = work[target] / chunks_per_second
            repair_handle = queue.push(
                now + duration, EventType.REPAIR_COMPLETE, target
            )

        while True:
            event = queue.pop()
            if event is None or event.kind is EventType.END_OF_MISSION:
                break

            if event.kind is EventType.DISK_FAILURE:
                n_failures += 1
                settle_progress(event.time)

                if work[self.parities] > 1e-6:
                    # The new disk is fatal if it intersects an outstanding
                    # damage-p_l stripe.
                    hits = work[self.parities] * (
                        (self.stripe_width - self.parities)
                        / (self.pool_disks - self.parities)
                    )
                    if rng.random() < min(1.0, hits):
                        lost = max(1.0, hits)
                        samples.append(
                            CatastrophicSample(
                                time=event.time,
                                failed_disks=failed + 1,
                                lost_stripes=lost,
                                lost_fraction=lost / self.stripes_in_pool,
                            )
                        )
                        if stop_early:
                            break

                failed += 1
                max_concurrent = max(max_concurrent, failed)
                # The new disk promotes a hypergeometric share of each
                # outstanding damage class by one level (only *unrepaired*
                # damage compounds) and contributes its own chunks at
                # damage 1.
                for d in range(self.parities - 1, 0, -1):
                    share = (self.stripe_width - d) / (self.pool_disks - d)
                    promoted = work[d] * share
                    work[d + 1] += promoted
                    work[d] -= promoted
                work[1] += self.chunks_per_disk
                if repair_class is None:
                    # Idle repairer: the new damage waits out detection.
                    queue.push(
                        event.time + self.detection_time,
                        EventType.FAILURE_DETECTED,
                    )
                else:
                    # Busy repairer: keep going, retargeting to the (possibly
                    # higher) critical class; its own detection lag is
                    # absorbed by the in-progress work.
                    schedule(event.time)

            elif event.kind is EventType.FAILURE_DETECTED:
                settle_progress(event.time)
                schedule(event.time)

            elif event.kind is EventType.REPAIR_COMPLETE:
                done_class = event.payload
                repair_handle = None
                if done_class > 1:
                    # Each repaired chunk demotes its stripe by one level;
                    # the stripes' remaining damage re-queues below.
                    work[done_class - 1] += work[done_class]
                work[done_class] = 0.0
                if done_class == 1:
                    # All single-damage chunks rebuilt: every failed disk's
                    # data is restored; replacements enter service.
                    replaced = failed
                    failed = 0
                    for _ in range(replaced):
                        disk = int(rng.integers(self.pool_disks))
                        t = self.failure_model.time_to_failure(
                            rng, disk, event.time
                        )
                        if t <= mission_time:
                            queue.push(t, EventType.DISK_FAILURE, disk)
                schedule(event.time)

        return PoolSimResult(
            mission_time=mission_time,
            n_failures=n_failures,
            n_catastrophic=len(samples),
            catastrophic_samples=samples,
            max_concurrent_failures=max_concurrent,
        )
