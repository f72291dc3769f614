"""The one event kernel under every simulator (paper §3 "Simulation").

The MLEC, SLEC/LRC and local-pool simulators are policies over this
module.  The kernel owns the mission-time check, the run's one seeded
generator, the event queue seeded with ``END_OF_MISSION``, injected
faults and the initial failures, the dispatch loop, replacement
scheduling, and :class:`PoolDamage` with its damage-class arithmetic.
A policy hands :meth:`EventKernel.run` one handler per event kind it
understands and keeps only what differs between simulators.  Handlers
push their follow-up events themselves, in a fixed order, so the kernel
never reorders a random stream or an equal-time tie.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping

import numpy as np

from .events import Event, EventQueue, EventType
from .failures import FailureModel, initial_failures

__all__ = ["DamageClasses", "PoolDamage", "EventKernel", "Seed"]

#: What seeds a run's generator: an integer, or a trial's keyed stream
#: (:meth:`repro.runtime.TrialContext.seed_sequence`).
Seed = int | np.random.SeedSequence

#: Work at or below this share of one disk's chunks counts as drained:
#: repair progress is banked in floats, and rounding residues must
#: neither draw catastrophe tests nor keep a repaired pool alive.  The
#: residues scale with the chunk counts (about 1e-7 chunks at the
#: paper's 1.5e8 chunks per disk), so the tolerance does too.
_RESIDUE_SHARE = 1e-9


class DamageClasses:
    """Damage-class arithmetic of one pool geometry.

    Outstanding repair work is kept per damage class (``work[d]`` chunks of
    stripes with ``d`` failed chunks) instead of per stripe.  One more
    failed disk promotes the share ``(w-d)/(D-d)`` of each class ``d`` --
    the chance that a damage-``d`` stripe of width ``w`` has a chunk on it,
    in a pool of ``D`` disks -- and hits ``work[p]·(w-p)/(D-p)`` critical
    stripes.  Only declustered pools use the classes; a clustered pool's
    damage is its failed-disk count alone.
    """

    __slots__ = ("parities", "chunks_per_disk", "promotion", "hit_share", "residue")

    def __init__(
        self, stripe_width: int, pool_disks: int, parities: int, chunks_per_disk: float
    ) -> None:
        self.parities = parities
        self.chunks_per_disk = chunks_per_disk
        # (class, share) pairs, highest class first.
        self.promotion = [
            (d, (stripe_width - d) / (pool_disks - d))
            for d in range(parities - 1, 0, -1)
        ]
        self.hit_share = (stripe_width - parities) / (pool_disks - parities)
        #: Outstanding chunks at or below this count as drained.
        self.residue = chunks_per_disk * _RESIDUE_SHARE


class PoolDamage:
    """Outstanding damage of one pool.

    ``failed`` and ``offline`` count disks (each policy decides whether
    ``failed`` clamps at the parity budget); ``work`` holds the
    outstanding chunks per damage class as plain floats -- the handlers
    touch single entries, where numpy scalars only add cost.
    """

    __slots__ = ("failed", "offline", "work", "classes")

    def __init__(self, classes: DamageClasses) -> None:
        self.failed = 0
        self.offline = 0
        self.work: list[float] = [0.0] * (classes.parities + 1)
        self.classes = classes

    def promote(self) -> None:
        """Account one more failed disk: it promotes its share of every
        outstanding class by one level (only unrepaired damage compounds)
        and adds its own chunks at damage 1."""
        work = self.work
        for d, share in self.classes.promotion:
            promoted = work[d] * share
            work[d + 1] += promoted
            work[d] -= promoted
        work[1] += self.classes.chunks_per_disk

    def critical_hits(self) -> float:
        """Expected critical stripes one more failed disk hits; 0.0 while
        no damage-``p`` work is outstanding."""
        critical = self.work[self.classes.parities]
        if critical > self.classes.residue:
            return critical * self.classes.hit_share
        return 0.0

    def drain(self) -> None:
        """One disk's worth of chunk repairs completes, highest classes
        first."""
        work = self.work
        budget = self.classes.chunks_per_disk
        for d in range(self.classes.parities, 0, -1):
            take = min(work[d], budget)
            work[d] -= take
            budget -= take
            if budget <= 0:
                break

    def top_class(self) -> int | None:
        """The most critical class with outstanding work, if any."""
        work = self.work
        residue = self.classes.residue
        for d in range(self.classes.parities, 0, -1):
            if work[d] > residue:
                return d
        return None

    def is_idle(self) -> bool:
        """No failed or offline disk and no work above the residue."""
        if self.failed or self.offline:
            return False
        residue = self.classes.residue
        return all(w <= residue for w in self.work)


#: An event handler; a true return value ends the run at that event.
Handler = Callable[[Event], bool | None]


class EventKernel:
    """One simulation run's generator, event queue and dispatch loop.

    Construction validates ``mission_time``, seeds the generator from
    ``seed`` and fills the queue; :meth:`run` then dispatches.  Policies
    draw through the kernel's methods and push onto :attr:`queue`.
    """

    __slots__ = ("failure_model", "mission_time", "rng", "queue")

    def __init__(
        self,
        failure_model: FailureModel,
        n_disks: int,
        mission_time: float,
        seed: Seed,
    ) -> None:
        if math.isnan(mission_time) or not mission_time > 0:
            raise ValueError(
                f"mission_time must be a positive number of seconds, "
                f"got {mission_time!r}"
            )
        if math.isinf(mission_time):
            raise ValueError("mission_time must be finite")
        self.failure_model = failure_model
        self.mission_time = mission_time
        self.rng = rng = np.random.default_rng(seed)
        self.queue = queue = EventQueue()
        queue.push(mission_time, EventType.END_OF_MISSION)
        schedule = getattr(failure_model, "schedule", None)
        if callable(schedule):
            schedule(queue, mission_time)
        # The disks that fail inside the mission, in disk order.
        disks, times = initial_failures(failure_model, rng, n_disks, mission_time)
        for disk, t in zip(disks.tolist(), times.tolist()):
            queue.push(t, EventType.DISK_FAILURE, disk)

    def bernoulli(self, probability: float) -> bool:
        """One uniform draw: true with ``probability``."""
        return self.rng.random() < probability

    def replace(self, disk: int, now: float) -> None:
        """A replacement for ``disk`` enters service at ``now``; schedule
        its failure if that falls inside the mission."""
        t = self.failure_model.time_to_failure(self.rng, disk, now)
        if t <= self.mission_time:
            self.queue.push(t, EventType.DISK_FAILURE, disk)

    def replace_any(self, n_disks: int, now: float) -> None:
        """As :meth:`replace`, for a disk drawn uniformly from ``n_disks``
        (a pool model that does not track which disk failed)."""
        self.replace(int(self.rng.integers(n_disks)), now)

    def run(
        self,
        handlers: Mapping[EventType, Handler],
        observer: Callable[[Event], None] | None = None,
    ) -> Event | None:
        """Dispatch events until ``END_OF_MISSION`` or a handler returns
        true; ``observer`` sees every handled event.  Returns the event
        that ended the run (``None`` if the queue ran dry)."""
        pop = self.queue.pop
        while True:
            event = pop()
            if event is None or event.kind is EventType.END_OF_MISSION:
                return event
            handler = handlers.get(event.kind)
            if handler is None:
                raise ValueError(
                    f"simulator cannot handle event kind {event.kind}"
                )
            if handler(event):
                return event
            if observer is not None:
                observer(event)
