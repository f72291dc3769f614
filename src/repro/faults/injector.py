"""FaultInjector: correlated faults layered over any failure model.

The injector is itself a :class:`repro.sim.failures.FailureModel` -- it
wraps a base per-disk model and merges *permanent* domain outages into the
per-disk failure times, so the simulator's ordinary scheduling machinery
(including replacement-disk rescheduling) sees them as regular disk
failures.  Everything that is not expressible as a disk death -- transient
unavailability, latent sector errors, bandwidth windows, scrub passes --
is scheduled directly onto the simulator's event queue by
:meth:`FaultInjector.schedule`, which ``MLECSystemSimulator.run`` invokes
automatically when its failure model exposes the hook.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..core.arrays import FloatArray, IntArray
from ..core.config import DatacenterConfig
from ..obs import TraceRecorder
from ..sim.events import EventQueue, EventType
from ..sim.failures import ExponentialFailures, FailureModel, initial_failures
from .events import (
    BandwidthDegradation,
    EnclosureOutage,
    FaultEvent,
    RackOutage,
    SectorErrorBurst,
)

__all__ = ["FaultInjector"]


class FaultInjector:
    """Compose correlated fault events on top of a base failure model.

    Parameters
    ----------
    base:
        Per-disk background failure model (defaults to the paper's 1% AFR
        exponential model).
    faults:
        Fault descriptions from :mod:`repro.faults.events`.
    dc:
        Topology used to translate rack/enclosure ids into disk id ranges.
    scrub_period:
        If set, a full-system scrub pass runs every ``scrub_period``
        seconds, detecting (and repairing) accumulated latent sector
        errors.
    recorder:
        Optional :class:`repro.obs.TraceRecorder`; :meth:`schedule` emits
        one ``fault.scheduled`` record per injected fault plus a
        ``fault.scrub_schedule`` summary.
    """

    def __init__(
        self,
        base: FailureModel | None = None,
        faults: Sequence[FaultEvent] = (),
        dc: DatacenterConfig | None = None,
        scrub_period: float | None = None,
        recorder: TraceRecorder | None = None,
    ) -> None:
        self.base = base if base is not None else ExponentialFailures()
        self.dc = dc if dc is not None else DatacenterConfig()
        self.recorder = recorder
        if scrub_period is not None and not scrub_period > 0:
            raise ValueError(f"scrub_period must be positive, got {scrub_period}")
        self.scrub_period = scrub_period
        self.faults = tuple(faults)
        # Permanent outages become (first_disk, end_disk, time) ranges that
        # time_to_failure merges into the base model's schedule.
        self._permanent: list[tuple[int, int, float]] = []
        for fault in self.faults:
            self._validate_domain(fault)
            if isinstance(fault, (RackOutage, EnclosureOutage)) and fault.permanent:
                self._permanent.append((*self._disk_range(fault), fault.time))

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _validate_domain(self, fault: FaultEvent) -> None:
        dc = self.dc
        if isinstance(fault, (RackOutage, EnclosureOutage)):
            if fault.rack >= dc.racks:
                raise ValueError(
                    f"rack {fault.rack} out of range (topology has {dc.racks})"
                )
        if isinstance(fault, EnclosureOutage):
            if fault.enclosure >= dc.enclosures_per_rack:
                raise ValueError(
                    f"enclosure {fault.enclosure} out of range "
                    f"({dc.enclosures_per_rack} per rack)"
                )
        if isinstance(fault, SectorErrorBurst):
            if fault.disk >= dc.total_disks:
                raise ValueError(
                    f"disk {fault.disk} out of range ({dc.total_disks} disks)"
                )

    def _disk_range(self, fault: RackOutage | EnclosureOutage) -> tuple[int, int]:
        """Half-open global disk id range [first, end) covered by an outage."""
        dc = self.dc
        if isinstance(fault, EnclosureOutage):
            first = (fault.rack * dc.enclosures_per_rack + fault.enclosure) \
                * dc.disks_per_enclosure
            return first, first + dc.disks_per_enclosure
        first = fault.rack * dc.disks_per_rack
        return first, first + dc.disks_per_rack

    # ------------------------------------------------------------------
    # FailureModel protocol
    # ------------------------------------------------------------------
    def time_to_failure(
        self, rng: np.random.Generator, disk_id: int, in_service_since: float
    ) -> float:
        """Base failure time, clipped by any later permanent outage.

        A replacement disk installed after an outage follows the base model
        again (outages kill the hardware that was present at outage time).
        """
        t = self.base.time_to_failure(rng, disk_id, in_service_since)
        for first, end, when in self._permanent:
            if first <= disk_id < end and when > in_service_since:
                t = min(t, when)
        return t

    def initial_failures(
        self, rng: np.random.Generator, n: int, horizon: float
    ) -> tuple[IntArray, FloatArray]:
        """In-horizon failures of disks ``0..n-1`` entering service at
        time 0 (see :func:`repro.sim.failures.initial_failures`).

        The base model's in-horizon pairs, merged with every permanent
        outage inside ``(0, horizon)``: each disk of its range fails at
        ``min(t, when)``.  An outage at time 0 kills no disk that is not
        yet in service, exactly as :meth:`time_to_failure` clips.
        """
        disks, times = initial_failures(self.base, rng, n, horizon)
        for first, end, when in self._permanent:
            end = min(end, n)
            if not 0 < when < horizon or first >= end:
                continue
            lo, hi = np.searchsorted(disks, (first, end))
            span = np.full(end - first, when)
            span[disks[lo:hi] - first] = np.minimum(times[lo:hi], when)
            disks = np.concatenate(
                (disks[:lo], np.arange(first, end), disks[hi:]))
            times = np.concatenate((times[:lo], span, times[hi:]))
        return disks, times

    # ------------------------------------------------------------------
    # Queue-level scheduling
    # ------------------------------------------------------------------
    def schedule(self, queue: EventQueue, mission_time: float) -> None:
        """Push every non-disk-death fault onto the simulator's queue.

        Transient outages push a TRANSIENT_OFFLINE / TRANSIENT_ONLINE pair
        (the ONLINE event may land past ``mission_time``; the simulator
        stops at END_OF_MISSION, so the tail is simply never processed).
        """
        if math.isnan(mission_time) or mission_time <= 0:
            raise ValueError(f"mission_time must be positive, got {mission_time}")
        recorder = self.recorder
        for fault in self.faults:
            if fault.time > mission_time:
                continue
            if recorder is not None:
                duration = getattr(fault, "duration", None)
                recorder.event(
                    fault.time,
                    "fault.scheduled",
                    fault=type(fault).__name__,
                    permanent=duration is None
                    and isinstance(fault, (RackOutage, EnclosureOutage)),
                    duration=duration,
                )
            if isinstance(fault, (RackOutage, EnclosureOutage)):
                if fault.duration is None:  # permanent
                    continue  # merged into time_to_failure instead
                disks = tuple(range(*self._disk_range(fault)))
                queue.push(fault.time, EventType.TRANSIENT_OFFLINE, disks)
                queue.push(
                    fault.time + fault.duration, EventType.TRANSIENT_ONLINE, disks
                )
            elif isinstance(fault, SectorErrorBurst):
                queue.push(
                    fault.time, EventType.SECTOR_ERROR, (fault.disk, fault.chunks)
                )
            elif isinstance(fault, BandwidthDegradation):
                queue.push(
                    fault.time,
                    EventType.BANDWIDTH_CHANGE,
                    (fault.network_factor, fault.local_factor),
                )
                queue.push(
                    fault.time + fault.duration,
                    EventType.BANDWIDTH_CHANGE,
                    (1.0, 1.0),
                )
        if self.scrub_period is not None:
            t = self.scrub_period
            count = 0
            while t <= mission_time:
                queue.push(t, EventType.SCRUB)
                t += self.scrub_period
                count += 1
            if recorder is not None:
                recorder.event(
                    0.0,
                    "fault.scrub_schedule",
                    period=self.scrub_period,
                    passes=count,
                )
