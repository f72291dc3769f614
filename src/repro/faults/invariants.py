"""Chaos-hardened simulator invariants.

An :class:`InvariantChecker` plugs into ``MLECSystemSimulator.run`` as an
observer and audits the run state after *every* event.  The checks are the
conservation laws the simulator must obey no matter which faults are
injected:

* **monotone clock** -- event timestamps never go backwards;
* **non-negative damage** -- no pool ever reports negative failed/offline
  disk counts, negative outstanding chunk work, or a negative latent
  sector-error balance; in-flight network repairs never owe negative bytes;
* **conserved byte accounting** -- local repair traffic is exactly one
  disk's capacity per disk failure, scrub repair traffic is exactly one
  chunk per detected latent error, and cross-rack traffic only ever grows,
  and only when a catastrophic event is registered;
* **latent-error conservation** -- injected sector errors are either still
  latent or counted as detected, never duplicated or dropped;
* **no orphaned pool state** -- the pool table holds only pools with live
  damage (idle pools must be evicted), pool ids are within the topology,
  and per-pool offline counts agree with the global offline-disk set.

The whole pool table is audited after every event, in one pass over its
live pools.

A violated invariant raises :class:`InvariantViolation` (``strict=True``,
the default) or is recorded in :attr:`InvariantChecker.violations`.
"""

from __future__ import annotations

import numpy as np

from ..sim.events import Event, EventType
from ..sim.simulator import MLECSystemSimulator, _RunState

__all__ = ["InvariantViolation", "InvariantChecker"]


class InvariantViolation(AssertionError):
    """A simulator conservation law was broken."""


class InvariantChecker:
    """Audits a simulation run event-by-event.

    Parameters
    ----------
    sim:
        The simulator under audit (supplies scheme geometry and sizes).
    strict:
        Raise :class:`InvariantViolation` on the first broken invariant
        (default); otherwise collect messages in :attr:`violations`.
    """

    def __init__(self, sim: MLECSystemSimulator, strict: bool = True) -> None:
        self.sim = sim
        self.strict = strict
        self.violations: list[str] = []
        self.events_checked = 0
        self._last_time = 0.0
        self._prev_cross = 0.0
        self._prev_local = 0.0
        self._prev_catastrophic = 0
        self._total_pools = sim.scheme.total_local_pools

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        if self.strict:
            raise InvariantViolation(message)
        self.violations.append(message)

    def __call__(self, event: Event, st: _RunState) -> None:
        """Observer entry point (``observer(event, state)``)."""
        self.events_checked += 1
        t = event.time
        if t < self._last_time:
            self._fail(
                f"clock moved backwards: {t} after {self._last_time} ({event.kind})"
            )
        self._last_time = max(self._last_time, t)

        damage, table, offline_total = self._check_pools(event, st)
        self._check_non_negative(event, st, damage)
        self._check_byte_conservation(event, st)
        self._check_latent_conservation(event, st)
        self._check_pool_table(st, table, offline_total)

    # ------------------------------------------------------------------
    def _check_pools(
        self, event: Event, st: _RunState
    ) -> tuple[list[str], list[str], int]:
        """Audit every live pool in one pass over the pool table.

        Returns the damage messages (negative counts or work), the table
        messages (out-of-range id, orphaned idle pool) and the pools'
        offline total; the caller emits each group where it always stood
        in the check order.  Negative work is found with one comparison
        over all work rows joined end to end (a NaN entry is not negative,
        exactly as in a per-row ``(work < -1e-9).any()``); only when that
        finds one are the rows compared one by one to name the pools.
        """
        damage: list[str] = []
        table: list[str] = []
        pools = st.pools
        if not pools:
            return damage, table, 0
        works = [state.work for state in pools.values()]
        if (np.concatenate(works) < -1e-9).any():
            negative = [bool((work < -1e-9).any()) for work in works]
        else:
            negative = [False] * len(works)
        total_pools = self._total_pools
        offline_total = 0
        for (pool_id, state), neg in zip(pools.items(), negative):
            failed = state.failed
            offline = state.offline
            offline_total += offline
            if failed < 0 or offline < 0:
                damage.append(
                    f"pool {pool_id} has negative damage after {event.kind}: "
                    f"failed={failed} offline={offline}"
                )
            if neg:
                damage.append(
                    f"pool {pool_id} has negative outstanding work "
                    f"after {event.kind}: {state.work.tolist()}"
                )
            if not 0 <= pool_id < total_pools:
                table.append(f"pool id {pool_id} outside topology")
            # The scalar test first: only an undamaged pool can be idle.
            if failed == 0 and offline == 0 and state.is_idle():
                table.append(
                    f"orphaned idle pool {pool_id} left in the pool table "
                    f"after {event.kind}"
                )
        return damage, table, offline_total

    def _check_non_negative(
        self, event: Event, st: _RunState, pool_messages: list[str]
    ) -> None:
        for message in pool_messages:
            self._fail(message)
        for pool_id, rep in st.net_repairs.items():
            if rep.remaining < -1e-6:
                self._fail(
                    f"network repair of pool {pool_id} owes negative bytes: "
                    f"{rep.remaining}"
                )
        for pool_id, chunks in st.latent.items():
            if chunks < 0:
                self._fail(f"pool {pool_id} has negative latent count {chunks}")
        for name in (
            "cross_rack_bytes", "local_bytes", "scrub_repair_bytes",
            "offline_disk_seconds", "net_repair_seconds",
            "degraded_repair_seconds",
        ):
            if getattr(st, name) < 0:
                self._fail(f"{name} went negative after {event.kind}")

    def _check_byte_conservation(self, event: Event, st: _RunState) -> None:
        dc = self.sim.scheme.dc
        expected_local = st.n_failures * dc.disk_capacity_bytes
        if st.local_bytes != expected_local:
            self._fail(
                f"local repair bytes {st.local_bytes} != "
                f"{st.n_failures} failures x disk capacity"
            )
        local_delta = st.local_bytes - self._prev_local
        if local_delta and event.kind is not EventType.DISK_FAILURE:
            self._fail(f"local repair bytes changed on {event.kind}")
        self._prev_local = st.local_bytes

        cross_delta = st.cross_rack_bytes - self._prev_cross
        if cross_delta < 0:
            self._fail("cross-rack repair bytes decreased")
        if cross_delta > 0:
            if event.kind is not EventType.DISK_FAILURE:
                self._fail(f"cross-rack repair bytes changed on {event.kind}")
            if st.n_catastrophic <= self._prev_catastrophic:
                self._fail(
                    "cross-rack traffic grew without a catastrophic event"
                )
        self._prev_cross = st.cross_rack_bytes
        self._prev_catastrophic = st.n_catastrophic

        # Latent chunks found by scrubs/repair reads are rewritten in
        # place (one chunk of traffic each); latent-induced catastrophes
        # route through the network stage instead, so they contribute no
        # scrub bytes.
        expected_scrub = st.n_latent_detected - st.n_latent_induced_chunks
        if abs(st.scrub_repair_bytes - expected_scrub * dc.chunk_size_bytes) > 1e-6:
            self._fail(
                f"scrub repair bytes {st.scrub_repair_bytes} != "
                f"{expected_scrub} detected latent chunks x chunk size"
            )

    def _check_latent_conservation(self, event: Event, st: _RunState) -> None:
        outstanding = sum(st.latent.values())
        if outstanding + st.n_latent_detected != st.n_sector_errors:
            self._fail(
                f"latent sector errors unbalanced after {event.kind}: "
                f"{outstanding} latent + {st.n_latent_detected} detected "
                f"!= {st.n_sector_errors} injected"
            )

    def _check_pool_table(
        self, st: _RunState, pool_messages: list[str], offline_total: int
    ) -> None:
        for message in pool_messages:
            self._fail(message)
        for pool_id in st.net_repairs:
            if not 0 <= pool_id < self._total_pools:
                self._fail(f"network repair for out-of-range pool {pool_id}")
        for pool_id in st.latent:
            if not 0 <= pool_id < self._total_pools:
                self._fail(f"latent errors on out-of-range pool {pool_id}")
        if offline_total != len(st.offline_since):
            self._fail(
                f"offline bookkeeping out of sync: pools say {offline_total}, "
                f"disk table says {len(st.offline_since)}"
            )

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations
