"""System and experiment configuration objects.

Everything is an immutable dataclass with validation in ``__post_init__`` so
that an inconsistent configuration (a clustered pool size that does not
divide the enclosure, say) fails at construction time rather than deep in a
simulation.

The module also exposes :func:`paper_setup`, the exact datacenter-scale
setup of the paper's Methodology section (§3): 57,600 disks, 60 racks, 8
enclosures per rack, 120 disks per enclosure, 20 TB disks, 128 KiB chunks,
(10+2)/(17+3) MLEC, 200 MB/s disks and 10 Gbps racks with a 20 % repair
cap, 1 % AFR, 30-minute failure-detection delay.
"""

from __future__ import annotations

import dataclasses
import re

from .types import Seconds

__all__ = [
    "TB",
    "GB",
    "MB",
    "KB",
    "HOUR",
    "DAY",
    "YEAR",
    "RNG_STREAM",
    "DatacenterConfig",
    "BandwidthConfig",
    "FailureConfig",
    "MLECParams",
    "SLECParams",
    "LRCParams",
    "paper_setup",
    "PAPER_MLEC",
]

# Byte units (decimal, matching vendor disk-capacity conventions).
KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

# Time units, in seconds.
HOUR = 3600.0
DAY = 24 * HOUR
YEAR = 365 * DAY

#: Version of the simulators' random draw order.  The same seed gives the
#: same results only within one stream, so checkpoint journals and the
#: service's result cache key record it.  Stream 2 draws only the initial
#: disk failures inside a mission (``repro.sim.failures.initial_failures``).
#: Stream 3 draws each burst cell as one block
#: (``BurstGenerator.sample(..., size=...)``) and runs every trial --
#: simulate, chaos, splitting stage 1 -- on its runner-keyed stream.
RNG_STREAM = 3

_MLEC_CODE_RE = re.compile(r"^\(?(\d+)\+(\d+)\)?/\(?(\d+)\+(\d+)\)?$")


@dataclasses.dataclass(frozen=True)
class DatacenterConfig:
    """Physical topology of the data center.

    Attributes
    ----------
    racks:
        Number of racks in the system.
    enclosures_per_rack:
        Enclosures (RBOD-class disk shelves) per rack.
    disks_per_enclosure:
        Disks per enclosure.
    disk_capacity_bytes:
        Usable capacity of one disk.
    chunk_size_bytes:
        EC chunk size.
    """

    racks: int = 60
    enclosures_per_rack: int = 8
    disks_per_enclosure: int = 120
    disk_capacity_bytes: int = 20 * TB
    chunk_size_bytes: int = 128 * 1024

    def __post_init__(self) -> None:
        for name in ("racks", "enclosures_per_rack", "disks_per_enclosure"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.disk_capacity_bytes <= 0 or self.chunk_size_bytes <= 0:
            raise ValueError("capacities must be positive")

    @property
    def disks_per_rack(self) -> int:
        return self.enclosures_per_rack * self.disks_per_enclosure

    @property
    def total_disks(self) -> int:
        return self.racks * self.disks_per_rack

    @property
    def total_capacity_bytes(self) -> int:
        return self.total_disks * self.disk_capacity_bytes

    @property
    def chunks_per_disk(self) -> int:
        return self.disk_capacity_bytes // self.chunk_size_bytes


@dataclasses.dataclass(frozen=True)
class BandwidthConfig:
    """Raw I/O bandwidths and the repair-traffic cap (paper §3).

    The paper caps repair traffic at 20 % of raw disk and network bandwidth
    to protect foreground I/O; "available repair bandwidth" always refers to
    the capped values.
    """

    disk_bandwidth: float = 200 * MB  # bytes/s, per disk, raw
    rack_network_bandwidth: float = 10e9 / 8  # bytes/s, per rack, raw (10 Gbps)
    repair_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.disk_bandwidth <= 0 or self.rack_network_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if not 0 < self.repair_fraction <= 1:
            raise ValueError("repair_fraction must be in (0, 1]")

    @property
    def disk_repair_bandwidth(self) -> float:
        """Per-disk bandwidth available to repair (bytes/s)."""
        return self.disk_bandwidth * self.repair_fraction

    @property
    def rack_repair_bandwidth(self) -> float:
        """Per-rack cross-rack bandwidth available to repair (bytes/s)."""
        return self.rack_network_bandwidth * self.repair_fraction


@dataclasses.dataclass(frozen=True)
class FailureConfig:
    """Failure and detection model (paper §3).

    Attributes
    ----------
    annual_failure_rate:
        Probability a disk fails within a year (exponential model).
    detection_time:
        Delay between a failure and the start of its repair, seconds.
    """

    annual_failure_rate: float = 0.01
    detection_time: Seconds = Seconds(30 * 60.0)

    def __post_init__(self) -> None:
        if not 0 < self.annual_failure_rate < 1:
            raise ValueError("annual_failure_rate must be in (0, 1)")
        if self.detection_time < 0:
            raise ValueError("detection_time must be non-negative")

    @property
    def failure_rate_per_second(self) -> float:
        """Exponential rate lambda such that P[fail in 1y] = AFR."""
        import math

        return -math.log(1.0 - self.annual_failure_rate) / YEAR


@dataclasses.dataclass(frozen=True)
class MLECParams:
    """Code parameters of a ``(k_n+p_n)/(k_l+p_l)`` MLEC."""

    k_n: int
    p_n: int
    k_l: int
    p_l: int

    def __post_init__(self) -> None:
        if min(self.k_n, self.k_l) <= 0 or min(self.p_n, self.p_l) < 0:
            raise ValueError("k values must be positive, p values non-negative")

    @classmethod
    def parse(cls, text: str) -> MLECParams:
        """Parse ``kn+pn/kl+pl`` (parentheses optional; the inverse of
        ``str``).  Raises ``ValueError``; each front end wraps it in its
        own error type."""
        match = _MLEC_CODE_RE.match(text.strip())
        if match is None:
            raise ValueError(f"bad MLEC code {text!r}; expected e.g. 10+2/17+3")
        return cls(*(int(g) for g in match.groups()))

    @property
    def n_n(self) -> int:
        """Network stripe width (local stripes per network stripe)."""
        return self.k_n + self.p_n

    @property
    def n_l(self) -> int:
        """Local stripe width (chunks per local stripe)."""
        return self.k_l + self.p_l

    @property
    def storage_overhead(self) -> float:
        """Parity space overhead: total/(data) - 1."""
        return (self.n_n * self.n_l) / (self.k_n * self.k_l) - 1.0

    @property
    def parity_fraction(self) -> float:
        """Parity share of raw capacity: 1 - data/total.

        This is the paper's "capacity (parity space) overhead of roughly
        30%" metric -- e.g. (10+2)/(17+3) has 1 - 170/240 = 29.2%.
        """
        return 1.0 - (self.k_n * self.k_l) / (self.n_n * self.n_l)

    def __str__(self) -> str:
        return f"({self.k_n}+{self.p_n})/({self.k_l}+{self.p_l})"


@dataclasses.dataclass(frozen=True)
class SLECParams:
    """Code parameters of a ``(k+p)`` single-level EC."""

    k: int
    p: int

    def __post_init__(self) -> None:
        if self.k <= 0 or self.p < 0:
            raise ValueError("k must be positive, p non-negative")

    @property
    def n(self) -> int:
        return self.k + self.p

    @property
    def storage_overhead(self) -> float:
        return self.p / self.k

    @property
    def parity_fraction(self) -> float:
        """Parity share of raw capacity: p / (k+p)."""
        return self.p / self.n

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.k}+{self.p})"


@dataclasses.dataclass(frozen=True)
class LRCParams:
    """Code parameters of a ``(k, l, r)`` Azure-style LRC."""

    k: int
    l: int
    r: int

    def __post_init__(self) -> None:
        if self.k <= 0 or self.l <= 0 or self.r < 0:
            raise ValueError("k, l must be positive and r non-negative")
        if self.k % self.l:
            raise ValueError(f"k={self.k} must be divisible by l={self.l}")

    @property
    def n(self) -> int:
        return self.k + self.l + self.r

    @property
    def group_size(self) -> int:
        return self.k // self.l

    @property
    def storage_overhead(self) -> float:
        return (self.l + self.r) / self.k

    @property
    def parity_fraction(self) -> float:
        """Parity share of raw capacity: (l+r) / (k+l+r)."""
        return (self.l + self.r) / self.n

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.k},{self.l},{self.r})"


def paper_setup() -> tuple[DatacenterConfig, BandwidthConfig, FailureConfig]:
    """The exact datacenter setup of the paper's Methodology section (§3)."""
    return DatacenterConfig(), BandwidthConfig(), FailureConfig()


#: The paper's headline MLEC configuration.
PAPER_MLEC = MLECParams(k_n=10, p_n=2, k_l=17, p_l=3)
