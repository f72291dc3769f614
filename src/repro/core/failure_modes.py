"""Failure-mode taxonomy of Table 1 and per-pool damage accounting.

The paper's analysis pivots on classifying damage at two granularities:

* per local stripe: *healthy* / *locally recoverable* (1..p_l failed
  chunks) / *lost* (>= p_l+1 failed chunks, needs network repair);
* per local pool: *catastrophic* iff it contains at least one lost local
  stripe;
* per network stripe: *recoverable* (1..p_n lost local stripes) / *lost*
  (>= p_n+1 lost local stripes -- a data loss).

:class:`LocalPoolDamage` captures a pool with some failed disks and answers
the questions every repair method needs: how many stripes are affected /
lost, how many chunks must cross the network for each repair method, and --
for declustered pools -- the exact hypergeometric stripe-damage
distribution.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .arrays import AnyArray
from .types import RepairMethod

__all__ = [
    "StripeState",
    "classify_stripe",
    "NetworkStripeState",
    "classify_network_stripe",
    "LocalPoolDamage",
]


class StripeState(enum.Enum):
    """State of a single local stripe (Table 1, local-level failures)."""

    HEALTHY = "healthy"
    LOCALLY_RECOVERABLE = "locally-recoverable"
    LOST = "lost"


def classify_stripe(failed_chunks: int, p_l: int) -> StripeState:
    """Classify a local stripe by its number of failed chunks."""
    if failed_chunks < 0:
        raise ValueError("failed_chunks must be non-negative")
    if failed_chunks == 0:
        return StripeState.HEALTHY
    if failed_chunks <= p_l:
        return StripeState.LOCALLY_RECOVERABLE
    return StripeState.LOST


class NetworkStripeState(enum.Enum):
    """State of a network stripe (Table 1, network-level failures)."""

    HEALTHY = "healthy"
    RECOVERABLE = "recoverable"
    LOST = "lost"  # a data loss


def classify_network_stripe(lost_local_stripes: int, p_n: int) -> NetworkStripeState:
    """Classify a network stripe by its number of lost local stripes."""
    if lost_local_stripes < 0:
        raise ValueError("lost_local_stripes must be non-negative")
    if lost_local_stripes == 0:
        return NetworkStripeState.HEALTHY
    if lost_local_stripes <= p_n:
        return NetworkStripeState.RECOVERABLE
    return NetworkStripeState.LOST


@dataclasses.dataclass(frozen=True)
class LocalPoolDamage:
    """A local pool with some simultaneously failed disks.

    Parameters
    ----------
    pool_disks:
        Disks in the pool (``k_l+p_l`` for Cp, the enclosure for Dp).
    failed_disks:
        Number of failed disks in the pool.
    k_l, p_l:
        Local code parameters; stripe width is ``k_l+p_l``.
    chunks_per_disk:
        Chunk slots on each disk (capacity / chunk size), assuming a full
        pool -- the paper's worst-case accounting.

    Notes
    -----
    For a clustered pool ``pool_disks == k_l+p_l`` and every stripe spans
    every disk, so each stripe has exactly ``failed_disks`` failed chunks.
    For a declustered pool stripes are pseudorandom ``n_l``-subsets of the
    disks, so the per-stripe failed-chunk count is hypergeometric.
    """

    pool_disks: int
    failed_disks: int
    k_l: int
    p_l: int
    chunks_per_disk: int

    def __post_init__(self) -> None:
        if self.pool_disks < self.stripe_width:
            raise ValueError("pool must hold at least one stripe")
        if not 0 <= self.failed_disks <= self.pool_disks:
            raise ValueError("failed_disks out of range")
        if self.chunks_per_disk <= 0:
            raise ValueError("chunks_per_disk must be positive")

    @property
    def stripe_width(self) -> int:
        return self.k_l + self.p_l

    @property
    def is_clustered(self) -> bool:
        return self.pool_disks == self.stripe_width

    @property
    def is_catastrophic(self) -> bool:
        """Whether the pool has (assumed) lost local stripes.

        Exact for clustered pools.  For declustered pools this is the
        standard worst-case declustering assumption -- with a full pool the
        expected number of lost stripes given ``p_l+1`` failures is already
        far above 1 (see :meth:`expected_lost_stripes`), so the assumption
        is tight in practice.
        """
        return self.failed_disks > self.p_l

    # ------------------------------------------------------------------
    # Stripe-damage distribution
    # ------------------------------------------------------------------
    @property
    def total_stripes(self) -> int:
        """Stripes in the (full) pool."""
        return self.pool_disks * self.chunks_per_disk // self.stripe_width

    def stripe_damage_pmf(self) -> AnyArray:
        """P[one stripe has j failed chunks], j = 0..min(n_l, failed).

        Hypergeometric for declustered pools; a point mass for clustered.
        """
        max_j = min(self.stripe_width, self.failed_disks)
        if self.is_clustered:
            pmf = np.zeros(max_j + 1)
            pmf[self.failed_disks] = 1.0
            return pmf
        # Imported here: loading scipy.stats costs over a second, and the
        # simulators import this module without calling this method.
        from scipy import stats

        j = np.arange(max_j + 1)
        return stats.hypergeom.pmf(
            j, self.pool_disks, self.failed_disks, self.stripe_width
        )

    def lost_stripe_probability(self) -> float:
        """P[one stripe is lost] = P[> p_l of its chunks on failed disks]."""
        pmf = self.stripe_damage_pmf()
        if len(pmf) <= self.p_l + 1:
            return 0.0
        return float(pmf[self.p_l + 1 :].sum())

    def affected_stripe_probability(self) -> float:
        """P[one stripe has >= 1 failed chunk]."""
        return float(1.0 - self.stripe_damage_pmf()[0])

    def expected_lost_stripes(self) -> float:
        """Expected number of lost local stripes in the pool."""
        return self.lost_stripe_probability() * self.total_stripes

    def expected_affected_stripes(self) -> float:
        """Expected number of stripes with at least one failed chunk."""
        return self.affected_stripe_probability() * self.total_stripes

    # ------------------------------------------------------------------
    # Chunk accounting for the repair methods (paper §2.4 / §4.2.1)
    # ------------------------------------------------------------------
    def failed_chunks_total(self) -> int:
        """All chunks resident on the failed disks."""
        return self.failed_disks * self.chunks_per_disk

    def expected_chunks_by_damage(self) -> AnyArray:
        """E[# failed chunks residing in stripes with j failed chunks].

        Index j runs 0..min(n_l, failed).  Derived from the damage pmf:
        stripes with j failures contribute j failed chunks each.
        """
        pmf = self.stripe_damage_pmf()
        j = np.arange(len(pmf))
        return pmf * j * self.total_stripes

    def network_repair_chunks(self, method: RepairMethod) -> float:
        """Expected chunks that must be rebuilt *via the network*.

        * R_ALL: every chunk slot in the pool (the whole pool is rebuilt).
        * R_FCO: every failed chunk.
        * R_HYB: failed chunks belonging to lost stripes (the rest repairs
          locally).
        * R_MIN: per lost stripe with j failures, only ``j - p_l`` chunks
          (just enough to make it locally recoverable).
        """
        if method is RepairMethod.R_ALL:
            return float(self.pool_disks * self.chunks_per_disk)
        if method is RepairMethod.R_FCO:
            return float(self.failed_chunks_total())
        chunks = self.expected_chunks_by_damage()
        lost_j = np.arange(len(chunks)) > self.p_l
        if method is RepairMethod.R_HYB:
            return float(chunks[lost_j].sum())
        if method is RepairMethod.R_MIN:
            pmf = self.stripe_damage_pmf()
            j = np.arange(len(pmf))
            need = np.clip(j - self.p_l, 0, None)
            return float((pmf * need).sum() * self.total_stripes)
        raise ValueError(f"unknown repair method {method!r}")

    def local_repair_chunks(self, method: RepairMethod) -> float:
        """Expected chunks rebuilt *locally* after the network stage.

        Complements :meth:`network_repair_chunks` so that, for chunk-level
        methods, network + local always equals the failed chunk total.
        R_ALL rewrites the pool over the network, so its local share is 0.
        """
        if method is RepairMethod.R_ALL:
            return 0.0
        return self.failed_chunks_total() - self.network_repair_chunks(method)

    # ------------------------------------------------------------------
    # Sampling (for the event-driven simulator)
    # ------------------------------------------------------------------
    def sample_stripe_damage(
        self, rng: np.random.Generator, n_stripes: int | None = None
    ) -> AnyArray:
        """Sample per-stripe failed-chunk counts for the whole pool.

        Returns an integer array of length ``n_stripes`` (default: all
        stripes in the pool) drawn from the damage distribution.  Sampling
        stripes independently is the standard declustering approximation;
        for clustered pools the result is exact (a constant vector).
        """
        n = self.total_stripes if n_stripes is None else int(n_stripes)
        if self.is_clustered:
            return np.full(n, self.failed_disks, dtype=np.int64)
        return rng.hypergeometric(
            self.failed_disks,
            self.pool_disks - self.failed_disks,
            self.stripe_width,
            size=n,
        )
