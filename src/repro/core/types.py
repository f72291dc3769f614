"""Shared enums, unit aliases, and small value types used across the library.

The unit aliases (:data:`Seconds`, :data:`Hours`, :data:`Years`,
:data:`Bytes`, :data:`GiB`, :data:`MiBps`) are :func:`typing.NewType`
wrappers over ``float``: identity at runtime, distinct to type checkers.
APIs that take or return a physical quantity annotate it with one of
these; call sites convert with the explicit helpers below instead of
relabelling (``Hours(x)`` on a ``Seconds`` value is a unit bug -- use
:func:`seconds_to_hours`).
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
    "seconds_to_hours",
    "hours_to_seconds",
    "hours_to_years",
    "years_to_hours",
    "seconds_to_years",
    "years_to_seconds",
    "bytes_to_gib",
    "gib_to_bytes",
    "mibps_to_bytes_per_second",
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

_HOUR_S = 3600.0
_YEAR_HOURS = 365.0 * 24.0
_GIB = float(2**30)
_MIB = float(2**20)


def seconds_to_hours(value: Seconds) -> Hours:
    return Hours(value / _HOUR_S)


def hours_to_seconds(value: Hours) -> Seconds:
    return Seconds(value * _HOUR_S)


def hours_to_years(value: Hours) -> Years:
    return Years(value / _YEAR_HOURS)


def years_to_hours(value: Years) -> Hours:
    return Hours(value * _YEAR_HOURS)


def seconds_to_years(value: Seconds) -> Years:
    return Years(value / (_YEAR_HOURS * _HOUR_S))


def years_to_seconds(value: Years) -> Seconds:
    return Seconds(value * _YEAR_HOURS * _HOUR_S)


def bytes_to_gib(value: Bytes) -> GiB:
    return GiB(value / _GIB)


def gib_to_bytes(value: GiB) -> Bytes:
    return Bytes(value * _GIB)


def mibps_to_bytes_per_second(value: MiBps) -> float:
    return value * _MIB


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
