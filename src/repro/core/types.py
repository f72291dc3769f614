"""Shared enums, unit aliases, and small value types used across the library.

The unit aliases (:data:`Seconds`, :data:`Hours`, :data:`Years`,
:data:`Bytes`, :data:`GiB`, :data:`MiBps`) are :func:`typing.NewType`
wrappers over ``float``: identity at runtime, distinct to type checkers.
APIs that take or return a physical quantity annotate it with one of
these.
"""

from __future__ import annotations

import enum
from typing import NewType

__all__ = [
    "Placement",
    "Level",
    "RepairMethod",
    "SchemeKind",
    "Seconds",
    "Hours",
    "Years",
    "Bytes",
    "GiB",
    "MiBps",
]

#: Wall-clock / simulated time in seconds.
Seconds = NewType("Seconds", float)
#: Time in hours (repair durations, Table 2 quantities).
Hours = NewType("Hours", float)
#: Time in years (mission horizons, characteristic lifetimes).
Years = NewType("Years", float)
#: A byte count.
Bytes = NewType("Bytes", float)
#: A byte count in binary gibibytes.
GiB = NewType("GiB", float)
#: A data rate in binary mebibytes per second.
MiBps = NewType("MiBps", float)


class Placement(enum.Enum):
    """Chunk/parity placement discipline at one level (paper §2.1).

    CLUSTERED ("Cp"): every ``k+p`` devices form a pool; a stripe either has
    all its chunks in the pool or none.  Repair reads only the pool's
    survivors and writes to a single spare device.

    DECLUSTERED ("Dp"): a pool spans (many) more than ``k+p`` devices;
    chunks and spare space are pseudorandomly spread so every surviving
    device participates in repair.
    """

    CLUSTERED = "C"
    DECLUSTERED = "D"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Level(enum.Enum):
    """The two coding levels of an MLEC system (paper §2.1)."""

    NETWORK = "network"
    LOCAL = "local"


class RepairMethod(enum.Enum):
    """Local-pool repair methods for catastrophic failures (paper §2.4).

    Ordered from simplest to most optimized:

    R_ALL: rebuild the entire local pool from the other local pools over the
    network.  No cross-level transparency required (black-box RBODs).

    R_FCO: "repair failed chunks only" -- rebuild just the chunks on failed
    disks via network parity.  Requires the local layer to report failed
    chunk identities.

    R_HYB: hybrid -- network-repair only the chunks of *lost* local stripes;
    everything in locally-recoverable stripes repairs locally.

    R_MIN: two-stage minimum-traffic repair -- network-repair just enough
    chunks of each lost local stripe to make it locally recoverable
    (``failures - p_l`` chunks), then finish locally.
    """

    R_ALL = "RALL"
    R_FCO = "RFCO"
    R_HYB = "RHYB"
    R_MIN = "RMIN"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SchemeKind(enum.Enum):
    """Top-level family of an erasure-coding scheme."""

    MLEC = "mlec"
    SLEC_LOCAL = "slec-local"
    SLEC_NETWORK = "slec-network"
    LRC = "lrc"
