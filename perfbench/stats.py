"""Summary statistics and failure accounting for benchmark samples.

A timing is reported as its median plus the highest percentile that has
at least :data:`MIN_BEYOND` samples beyond it, with the sample count; a
run with too few samples for any tail percentile reports the median only.
Failures are counted against attempts, so a run whose operations start
failing shows a larger ``error_frac`` even when its timings look fine.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from collections.abc import Sequence

#: Tail percentiles tried, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples."""
    # Rounded first so that e.g. 99.9% of 10,000 is rank 9,990, not 9,991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p)


@dataclasses.dataclass(frozen=True)
class Summary:
    """Median, quartiles and the reportable tail of one sample set."""

    n: int
    median: float
    q1: float
    q3: float
    tail_p: float | None
    tail: float | None

    def describe(self, unit: str) -> str:
        text = f"median {self.median:.6g} {unit}"
        if self.tail_p is not None:
            text += f", p{self.tail_p:g} {self.tail:.6g} {unit}"
        else:
            text += " (median only"
            text += f": {self.n} < {2 * MIN_BEYOND} samples)"
        return text + f", n={self.n}, IQR {self.q1:.6g}..{self.q3:.6g}"


def summarize(values: Sequence[float]) -> Summary:
    """Median, quartiles and highest percentile with ``MIN_BEYOND`` beyond."""
    if not values:
        raise ValueError("cannot summarize an empty sample set")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    median = statistics.median(ordered)
    q1, _q2, q3 = statistics.quantiles(ordered, n=4) if n >= 2 else (median,) * 3
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return Summary(n, median, q1, q3, p, percentile(ordered, p))
    return Summary(n, median, q1, q3, None, None)


def tail_at(values: Sequence[float], p: float) -> float | None:
    """The ``p``-th percentile, or ``None`` without ``MIN_BEYOND`` beyond."""
    if samples_beyond(len(values), p) < MIN_BEYOND:
        return None
    return percentile(sorted(values), p)


@dataclasses.dataclass
class Outcomes:
    """Attempted and failed operations of one run."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        if attempted < 0 or failed < 0:
            raise ValueError("operation counts cannot be negative")
        self.attempted += attempted
        self.failed += failed

    def record(self, ok: bool) -> None:
        self.add(1, 0 if ok else 1)

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
