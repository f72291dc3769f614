"""Disk-failure generators: distributions, rules, and trace replay (§3).

The paper's simulator injects failures "based on distributions, rules, or
real traces".  Each generator here answers one question -- *when does this
(replacement) disk fail, given it goes into service at time t?* -- so the
simulators can stay agnostic of the failure model.

Available models:

* :class:`ExponentialFailures` -- the paper's headline model (AFR 1%).
* :class:`WeibullFailures` -- infant-mortality / wear-out shapes.
* :class:`BathtubFailures` -- piecewise-rate bathtub curve (a rule-based
  model: high early rate, low mid-life rate, rising wear-out rate).
* :class:`TraceFailures` -- replays an explicit (time, disk) schedule from
  a :class:`repro.sim.traces.FailureTrace`.

Every disk enters service at time 0, so a simulation starts from the
disks that fail inside its mission.  :func:`initial_failures` is the one
place the simulators draw them: it returns only the in-horizon
``(disks, times)`` pairs, disks ascending, every time strictly before
the horizon (the mission's end event wins a tie, so a failure at the
horizon is never processed).  Under RNG stream 2
(:data:`repro.core.config.RNG_STREAM`) a model with a closed-form law
draws them directly, never touching the disks that survive the
mission: the count as ``Binomial(n, F(horizon))``, the disks as a sorted
uniform subset of ``0..n-1``, and each time by the inverse CDF of the
law truncated to the horizon.  :class:`ExponentialFailures`
(``F(h) = 1 - exp(-rate h)``) and :class:`WeibullFailures`
(``F(h) = 1 - exp(-(h/scale)^shape)``) do; :class:`BathtubFailures` and
:class:`TraceFailures` keep the per-disk path -- one
``time_to_failure(rng, disk, 0.0)`` call per disk in disk order, the
times before the horizon kept.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from typing import Protocol

import numpy as np

from ..core.arrays import FloatArray, IntArray
from ..core.config import YEAR
from ..core.types import Years

__all__ = [
    "FailureModel",
    "ExponentialFailures",
    "WeibullFailures",
    "BathtubFailures",
    "TraceFailures",
    "initial_failures",
]


class FailureModel(Protocol):
    """Anything that can produce a failure time for a disk."""

    def time_to_failure(self, rng: np.random.Generator, disk_id: int,
                        in_service_since: float) -> float:
        """Absolute failure time for a disk entering service at a time.

        May return ``inf`` for "never fails within any horizon".
        """
        ...


class ExponentialFailures:
    """Memoryless failures at a constant annual failure rate.

    The paper's long-term durability model: "random disk failures
    independently following an exponential distribution with an annual
    failure rate (AFR) of 1%".
    """

    def __init__(self, annual_failure_rate: float = 0.01) -> None:
        if not 0 < annual_failure_rate < 1:
            raise ValueError("annual_failure_rate must be in (0, 1)")
        self.annual_failure_rate = annual_failure_rate
        self.rate = -math.log1p(-annual_failure_rate) / YEAR

    def time_to_failure(
        self, rng: np.random.Generator, disk_id: int, in_service_since: float
    ) -> float:
        del disk_id  # identical, independent disks
        return in_service_since + rng.exponential(1.0 / self.rate)

    def initial_failures(
        self, rng: np.random.Generator, n: int, horizon: float
    ) -> tuple[IntArray, FloatArray]:
        """The disks of ``0..n-1`` that fail before ``horizon``, with
        their failure times (see :func:`initial_failures`)."""
        cdf = -math.expm1(-self.rate * horizon)
        return _truncated_draw(
            rng, n, horizon, cdf, lambda q: -np.log1p(-q) / self.rate
        )


class WeibullFailures:
    """Weibull time-to-failure: shape < 1 infant mortality, > 1 wear-out.

    ``scale_years`` is the characteristic life (the 63.2th percentile).
    """

    def __init__(
        self, shape: float = 1.2, scale_years: Years = Years(80.0)
    ) -> None:
        if shape <= 0 or scale_years <= 0:
            raise ValueError("shape and scale must be positive")
        self.shape = shape
        self.scale = scale_years * YEAR

    def time_to_failure(
        self, rng: np.random.Generator, disk_id: int, in_service_since: float
    ) -> float:
        del disk_id
        return in_service_since + self.scale * rng.weibull(self.shape)

    def initial_failures(
        self, rng: np.random.Generator, n: int, horizon: float
    ) -> tuple[IntArray, FloatArray]:
        """The disks of ``0..n-1`` that fail before ``horizon``, with
        their failure times (see :func:`initial_failures`)."""
        cdf = -math.expm1(-((horizon / self.scale) ** self.shape))
        return _truncated_draw(
            rng, n, horizon, cdf,
            lambda q: self.scale * (-np.log1p(-q)) ** (1.0 / self.shape),
        )


class BathtubFailures:
    """Piecewise-constant hazard: burn-in, useful life, wear-out.

    A rule-based model: the hazard is ``early_afr`` for the first
    ``burn_in_years`` of a disk's life, ``steady_afr`` until
    ``wearout_years``, and ``wearout_afr`` afterwards.  Sampling inverts
    the piecewise-exponential CDF exactly.
    """

    def __init__(
        self,
        early_afr: float = 0.03,
        steady_afr: float = 0.01,
        wearout_afr: float = 0.06,
        burn_in_years: Years = Years(0.25),
        wearout_years: Years = Years(5.0),
    ) -> None:
        for name, v in [("early_afr", early_afr), ("steady_afr", steady_afr),
                        ("wearout_afr", wearout_afr)]:
            if not 0 < v < 1:
                raise ValueError(f"{name} must be in (0, 1)")
        if not 0 < burn_in_years < wearout_years:
            raise ValueError("need 0 < burn_in_years < wearout_years")
        to_rate = lambda afr: -math.log1p(-afr) / YEAR  # noqa: E731
        self.boundaries = [burn_in_years * YEAR, wearout_years * YEAR]
        self.rates = [to_rate(early_afr), to_rate(steady_afr), to_rate(wearout_afr)]

    def time_to_failure(
        self, rng: np.random.Generator, disk_id: int, in_service_since: float
    ) -> float:
        del disk_id
        # Invert the CDF: draw total hazard H ~ Exp(1), walk the segments.
        h = rng.exponential(1.0)
        t = 0.0
        prev_boundary = 0.0
        for boundary, rate in zip(self.boundaries, self.rates[:-1]):
            span = boundary - prev_boundary
            if h <= rate * span:
                return in_service_since + t + h / rate
            h -= rate * span
            t += span
            prev_boundary = boundary
        return in_service_since + t + h / self.rates[-1]


class TraceFailures:
    """Replays an explicit failure schedule.

    Each disk's failures are looked up in the trace; re-failures of a
    replacement disk use the next trace entry for the same disk id after
    the in-service time.  Disks without trace entries never fail.
    """

    def __init__(self, events: list[tuple[float, int]]) -> None:
        self._by_disk: dict[int, list[float]] = {}
        for t, disk in events:
            self._by_disk.setdefault(int(disk), []).append(float(t))
        for times in self._by_disk.values():
            times.sort()

    def time_to_failure(
        self, rng: np.random.Generator, disk_id: int, in_service_since: float
    ) -> float:
        del rng  # fully deterministic
        times = self._by_disk.get(int(disk_id))
        if not times:
            return math.inf
        i = bisect.bisect_right(times, in_service_since)
        return times[i] if i < len(times) else math.inf


def _truncated_draw(
    rng: np.random.Generator,
    n: int,
    horizon: float,
    cdf: float,
    quantile: Callable[[FloatArray], FloatArray],
) -> tuple[IntArray, FloatArray]:
    """In-horizon failures of ``n`` i.i.d. disks whose lifetime CDF is
    ``cdf`` at ``horizon`` and whose inverse CDF is ``quantile``.

    Draws the count as ``Binomial(n, cdf)``, the failing disks as a
    uniform subset (ascending), and each time by inverting the law
    truncated to ``[0, horizon)``: ``quantile(u * cdf)`` with
    ``u ~ U[0, 1)``.  A time that rounds up to ``horizon`` is clamped to
    the largest double below it.
    """
    k = int(rng.binomial(n, cdf)) if cdf > 0 else 0
    disks = np.sort(rng.choice(n, k, replace=False, shuffle=False))
    times = quantile(rng.random(k) * cdf)
    np.minimum(times, np.nextafter(horizon, -math.inf), out=times)
    return disks, times


def initial_failures(
    model: FailureModel, rng: np.random.Generator, n: int, horizon: float
) -> tuple[IntArray, FloatArray]:
    """Disks of ``0..n-1`` entering service at time 0 that fail before
    ``horizon``: ``(disks, times)`` with ``disks`` ascending and every
    time ``< horizon``.

    Uses the model's ``initial_failures`` when it has one; otherwise
    makes the ``n`` scalar ``time_to_failure`` calls in disk order and
    keeps the times before ``horizon``.
    """
    draw: Callable[
        [np.random.Generator, int, float], tuple[IntArray, FloatArray]
    ] | None = getattr(model, "initial_failures", None)
    if callable(draw):
        return draw(rng, n, horizon)
    times = np.array(
        [model.time_to_failure(rng, disk, 0.0) for disk in range(n)],
        dtype=float,
    )
    disks = np.flatnonzero(times < horizon)
    return disks, times[disks]

