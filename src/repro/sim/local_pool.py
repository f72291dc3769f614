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
  damage class (:class:`repro.sim.kernel.DamageClasses`); demoting a class
  costs one chunk per stripe, so the accounting telescopes to one full
  disk per failure.  A failure that arrives while damage-``p_l`` stripes
  are outstanding is catastrophic with the hit probability
  ``outstanding * (w-p)/(D-p)`` -- the expression the Markov model uses,
  so the two cross-validate term by term.

Tracking expected class sizes instead of ~1e9 individual stripes keeps a
pool-year at a handful of events while preserving the dynamics that matter
for durability: how long the pool dwells one failure away from catastrophe.
"""

from __future__ import annotations

import dataclasses

from ..core.config import YEAR
from .events import Event, EventType
from .failures import ExponentialFailures, FailureModel
from .kernel import DamageClasses, EventKernel, Handler, PoolDamage, Seed

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
        self._classes = DamageClasses(
            stripe_width, pool_disks, parities, self.chunks_per_disk
        )

    # ------------------------------------------------------------------
    def run(
        self,
        mission_time: float = YEAR,
        seed: Seed = 0,
        stop_at_first_catastrophe: bool = False,
    ) -> PoolSimResult:
        """Simulate the pool for ``mission_time`` seconds."""
        kernel = EventKernel(self.failure_model, self.pool_disks, mission_time, seed)
        damage = PoolDamage(self._classes)
        samples: list[CatastrophicSample] = []
        policy = (
            self._clustered_policy if self.clustered else self._declustered_policy
        )
        handlers = policy(kernel, damage, samples, stop_at_first_catastrophe)
        n_failures = 0
        max_concurrent = 0
        on_failure = handlers[EventType.DISK_FAILURE]

        # Both policies report failures and the peak of ``damage.failed``
        # the same way, the failure that stops the run included.
        def count_failure(event: Event) -> bool | None:
            nonlocal n_failures, max_concurrent
            n_failures += 1
            stop = on_failure(event)
            max_concurrent = max(max_concurrent, damage.failed)
            return stop

        handlers[EventType.DISK_FAILURE] = count_failure
        kernel.run(handlers)
        return PoolSimResult(
            mission_time=mission_time,
            n_failures=n_failures,
            n_catastrophic=len(samples),
            catastrophic_samples=samples,
            max_concurrent_failures=max_concurrent,
        )

    # ------------------------------------------------------------------
    # Clustered: sequential per-disk rebuild onto spares.
    # ------------------------------------------------------------------
    def _clustered_policy(
        self,
        kernel: EventKernel,
        damage: PoolDamage,
        samples: list[CatastrophicSample],
        stop_early: bool,
    ) -> dict[EventType, Handler]:
        disk_time = self.disk_capacity_bytes / self.repair_rate

        def on_failure(event: Event) -> bool:
            idle = damage.failed == 0  # a rebuild is pending iff disks are down
            if damage.failed >= self.parities:
                # Every stripe spans every disk: certain data loss.
                samples.append(
                    CatastrophicSample(
                        time=event.time,
                        failed_disks=damage.failed + 1,
                        lost_stripes=self.stripes_in_pool,
                        lost_fraction=1.0,
                    )
                )
                if stop_early:
                    damage.failed += 1
                    return True
            damage.failed = min(damage.failed + 1, self.parities)  # clamp
            if idle:
                kernel.queue.push(
                    event.time + self.detection_time + disk_time,
                    EventType.REPAIR_COMPLETE,
                )
            return False

        def on_repair(event: Event) -> None:
            damage.failed -= 1
            kernel.replace_any(self.pool_disks, event.time)
            if damage.failed > 0:
                kernel.queue.push(event.time + disk_time, EventType.REPAIR_COMPLETE)

        return {
            EventType.DISK_FAILURE: on_failure,
            EventType.REPAIR_COMPLETE: on_repair,
        }

    # ------------------------------------------------------------------
    # Declustered: priority repair over damage classes.
    # ------------------------------------------------------------------
    def _declustered_policy(
        self,
        kernel: EventKernel,
        damage: PoolDamage,
        samples: list[CatastrophicSample],
        stop_early: bool,
    ) -> dict[EventType, Handler]:
        queue = kernel.queue
        work = damage.work
        repair_handle: int | None = None
        repair_started = 0.0
        repair_class: int | None = None
        chunks_per_second = self.repair_rate / self.chunk_size_bytes

        def settle_progress(now: float) -> None:
            """Credit the in-flight repair's progress and cancel it."""
            nonlocal repair_handle
            if repair_handle is None or repair_class is None:
                return
            done = (now - repair_started) * chunks_per_second
            work[repair_class] = max(0.0, work[repair_class] - done)
            queue.cancel(repair_handle)
            repair_handle = None

        def schedule(now: float) -> None:
            """Repair the most critical class with outstanding work."""
            nonlocal repair_handle, repair_started, repair_class
            repair_class = target = damage.top_class()
            if target is None:
                return
            repair_started = now
            duration = work[target] / chunks_per_second
            repair_handle = queue.push(
                now + duration, EventType.REPAIR_COMPLETE, target
            )

        def on_failure(event: Event) -> bool:
            settle_progress(event.time)
            # The new disk is fatal if it intersects an outstanding
            # damage-p_l stripe.
            hits = damage.critical_hits()
            if hits > 0.0 and kernel.bernoulli(min(1.0, hits)):
                lost = max(1.0, hits)
                samples.append(
                    CatastrophicSample(
                        time=event.time,
                        failed_disks=damage.failed + 1,
                        lost_stripes=lost,
                        lost_fraction=lost / self.stripes_in_pool,
                    )
                )
                if stop_early:
                    return True
            damage.failed += 1
            damage.promote()
            if repair_class is None:
                # Idle repairer: the new damage waits out detection.
                queue.push(
                    event.time + self.detection_time, EventType.FAILURE_DETECTED
                )
            else:
                # Busy repairer: keep going, retargeting to the (possibly
                # higher) critical class; its own detection lag is
                # absorbed by the in-progress work.
                schedule(event.time)
            return False

        def on_detected(event: Event) -> None:
            settle_progress(event.time)
            schedule(event.time)

        def on_repair(event: Event) -> None:
            nonlocal repair_handle
            done_class = event.payload
            repair_handle = None
            if done_class > 1:
                # Each repaired chunk demotes its stripe by one level; the
                # stripes' remaining damage re-queues below.
                work[done_class - 1] += work[done_class]
            work[done_class] = 0.0
            if done_class == 1:
                # All single-damage chunks rebuilt: every failed disk's
                # data is restored; replacements enter service.
                replaced, damage.failed = damage.failed, 0
                for _ in range(replaced):
                    kernel.replace_any(self.pool_disks, event.time)
            schedule(event.time)

        return {
            EventType.DISK_FAILURE: on_failure,
            EventType.FAILURE_DETECTED: on_detected,
            EventType.REPAIR_COMPLETE: on_repair,
        }
