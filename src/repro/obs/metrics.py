"""Mergeable metrics: counters, gauges, fixed-bucket histograms.

Naming convention (enforced): lowercase dotted namespaces,
``<layer>.<quantity>[_<unit>]`` -- e.g. ``sim.disk_failures``,
``sim.net_repair_hours``, ``runtime.chunk_seconds``.  The layer prefix is
the producing module family (``sim``, ``slec``, ``burst``, ``repair``,
``fault``, ``chaos``, ``runtime``); unit suffixes follow the unit-typed
aliases in :mod:`repro.core.types` (``_seconds``, ``_hours``, ``_bytes``).

Determinism contract: every mutation is a pure function of the producing
trial's inputs, and :meth:`MetricsRegistry.merge` folds registries in trial
order, so the merged snapshot is identical for any
:class:`~repro.runtime.TrialRunner` worker count.  Counter and histogram
sums are kept exactly (in units of the smallest double, ``2**-1074``) and
rounded once when read, so they do not depend on how the trials were
grouped into chunks; a float running sum would (``(a + b) + c`` need not
equal ``a + (b + c)``).  Gauges keep the *last written* value, which
merge replays by taking the right operand's value whenever it has been
written at all -- chunk boundaries therefore cannot change the outcome.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from pathlib import Path

from repro.core.atomic import atomic_write_text

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


#: Every finite double is an integer multiple of ``2**-1074``.
_UNIT_BITS = 1074


def _units(value: float) -> int:
    """``value`` as an exact integer count of ``2**-1074`` units."""
    numerator, denominator = float(value).as_integer_ratio()
    return numerator << (_UNIT_BITS + 1 - denominator.bit_length())


def _rounded(units: int) -> float:
    """The double nearest an exact sum (int true division rounds correctly)."""
    return units / (1 << _UNIT_BITS)


def _check_name(name: str) -> str:
    if not _NAME_RE.fullmatch(name):
        raise ValueError(
            f"bad metric name {name!r}; expected lowercase dotted "
            "namespaces like 'sim.disk_failures'"
        )
    return name


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "_sum")

    def __init__(self, name: str) -> None:
        self.name = name
        self._sum = 0  # exact, in _units

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self._sum += _units(amount)

    @property
    def value(self) -> float:
        return _rounded(self._sum)


class Gauge:
    """A last-written-value metric (plus a write count for mergeability)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow bin.

    ``bounds`` are strictly increasing inclusive upper bounds; a value
    lands in the first bucket whose bound is ``>= value``, or in the
    overflow bin past the last bound.  Fixed bounds make histograms
    mergeable by elementwise addition.
    """

    __slots__ = ("name", "bounds", "counts", "_sum")

    def __init__(self, name: str, bounds: tuple[float, ...]) -> None:
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name} bounds must be strictly increasing: {bounds}"
            )
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self._sum = 0  # exact, in _units

    def observe(self, value: float) -> None:
        v = float(value)
        self.counts[bisect.bisect_left(self.bounds, v)] += 1
        self._sum += _units(v)

    @property
    def total(self) -> float:
        return _rounded(self._sum)

    @property
    def count(self) -> int:
        return sum(self.counts)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating the fixed buckets.

        The rank ``q * count`` is located in the cumulative counts and
        mapped linearly across its bucket ``(lower, upper]`` -- the
        standard fixed-bucket estimator (what a Prometheus
        ``histogram_quantile`` computes from the same data).  The first
        bucket interpolates from 0, and a rank landing in the overflow
        bin clamps to the last bound (there is no upper edge to
        interpolate toward).  Returns NaN for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        n = self.count
        if n == 0:
            return math.nan
        rank = q * n
        cumulative = 0.0
        lower = 0.0
        for bound, count in zip(self.bounds, self.counts):
            if count and cumulative + count >= rank:
                fraction = max(0.0, rank - cumulative) / count
                return lower + fraction * (bound - lower)
            cumulative += count
            lower = bound
        return self.bounds[-1]


class MetricsRegistry:
    """A namespace of metrics, one instance per producer.

    ``counter`` / ``gauge`` / ``histogram`` create on first use and return
    the existing instrument afterwards; asking for an existing name with a
    different instrument type (or different histogram bounds) is an error,
    because it would make merges ambiguous.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def _check_free(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        existing = self._counters.get(name)
        if existing is None:
            self._check_free(_check_name(name), "counter")
            existing = self._counters[name] = Counter(name)
        return existing

    def gauge(self, name: str) -> Gauge:
        existing = self._gauges.get(name)
        if existing is None:
            self._check_free(_check_name(name), "gauge")
            existing = self._gauges[name] = Gauge(name)
        return existing

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        existing = self._histograms.get(name)
        if existing is None:
            if bounds is None:
                raise ValueError(
                    f"histogram {name!r} does not exist yet; pass bounds"
                )
            self._check_free(_check_name(name), "histogram")
            existing = self._histograms[name] = Histogram(name, bounds)
        elif bounds is not None and tuple(bounds) != existing.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{existing.bounds}, not {tuple(bounds)}"
            )
        return existing

    # ------------------------------------------------------------------
    def merge(self, other: MetricsRegistry) -> None:
        """Fold ``other`` in; the right operand must be the *later* one."""
        for name, counter in other._counters.items():
            self.counter(name)._sum += counter._sum
        for name, gauge in other._gauges.items():
            mine = self.gauge(name)
            if gauge.updates:
                mine.value = gauge.value
            mine.updates += gauge.updates
        for name, hist in other._histograms.items():
            mine = self.histogram(name, hist.bounds)
            for i, c in enumerate(hist.counts):
                mine.counts[i] += c
            mine._sum += hist._sum

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, object]]:
        """A deterministic, JSON-serializable view (names sorted)."""
        counters = {
            name: self._counters[name].value for name in sorted(self._counters)
        }
        gauges = {
            name: self._gauges[name].value for name in sorted(self._gauges)
        }
        histograms: dict[str, object] = {}
        for name in sorted(self._histograms):
            hist = self._histograms[name]

            def finite(q: float, hist: Histogram = hist) -> float | None:
                value = hist.quantile(q)
                return None if math.isnan(value) else value

            histograms[name] = {
                "bounds": list(hist.bounds),
                "counts": list(hist.counts),
                "count": hist.count,
                "total": hist.total,
                "p50": finite(0.50),
                "p95": finite(0.95),
                "p99": finite(0.99),
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def write_json(self, path: str | Path) -> None:
        """Write the snapshot atomically (temp + fsync + rename)."""
        atomic_write_text(path, json.dumps(self.snapshot(), indent=2) + "\n")

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)
