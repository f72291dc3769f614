"""Combinatorial primitives shared by the burst analyses.

Three small tools power every probability-of-data-loss computation:

* :func:`hypergeom_tail` -- P[a stripe has more than ``p`` chunks on failed
  devices] for declustered pools;
* :func:`rack_selection_hits_pmf` -- the distribution of "hits" when a
  stripe picks ``width`` distinct racks out of ``R`` and each picked rack
  independently contributes a hit with its own probability (the workhorse of
  every network-declustered analysis), with a row-wise twin
  :func:`rack_selection_hits_pmf_rows` for a block of bursts;
* :func:`any_of_many` -- numerically stable ``1 - (1-q)^S`` for tiny ``q``
  and astronomically large stripe counts ``S``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..core.arrays import AnyArray

__all__ = [
    "hypergeom_tail",
    "rack_selection_hits_pmf",
    "rack_selection_hits_pmf_rows",
    "any_of_many",
    "exactly_j_cells_over_threshold_pmf",
    "poisson_binomial_pmf",
    "poisson_binomial_pmf_rows",
    "poisson_binomial_tail",
    "poisson_binomial_tails",
]


@functools.lru_cache(maxsize=4096)
def hypergeom_tail(pool: int, failed: int, width: int, p: int) -> float:
    """P[more than ``p`` of a ``width``-chunk stripe land on failed devices].

    The stripe occupies ``width`` distinct devices drawn uniformly from a
    ``pool`` containing ``failed`` failed devices -- the declustered-pool
    stripe-damage model.

    Memoized: burst evaluators call this with a handful of distinct
    small-integer arguments per scheme, thousands of times per heatmap.
    The cache is module-level (evaluators pickled into chunk jobs carry
    none of it), bounded, and never holds an error -- invalid arguments
    raise on every call.  ``np.int64`` and ``int`` arguments of equal
    value share an entry and return the same float.
    """
    if not 0 <= failed <= pool:
        raise ValueError("failed must be in [0, pool]")
    if width > pool:
        raise ValueError("stripe wider than pool")
    if p >= min(width, failed):
        return 0.0
    if p < max(0, width - (pool - failed)):
        return 1.0  # every stripe holds more than p failed devices
    if pool < len(_FACTORIALS):
        return _hypergeom_sf(int(p), int(failed), int(width), int(pool))
    # Imported here: loading scipy.stats costs over a second and about
    # 60 MB of resident memory, and only pools wider than the factorial
    # table reach this line.
    from scipy import stats

    # sf(p) = P[X > p] for the hypergeometric X.
    return float(stats.hypergeom.sf(p, pool, failed, width))


#: ``float(k!)`` for every ``k!`` a double holds (``170!`` is the last).
_FACTORIALS = tuple(float(math.factorial(k)) for k in range(171))
_EPSILON = 2.0**-52


def _hypergeom_pmf(x: int, r: int, n: int, N: int) -> float:
    """P[X = x] for ``n`` draws from ``N`` items of which ``r`` are marked,
    ``N`` at most 170: the factorial ratio, dividing while the running value
    is at least 1 and multiplying while it is at most 1, so no partial
    product overflows."""
    result = _FACTORIALS[n]
    num = (_FACTORIALS[r], _FACTORIALS[N - n], _FACTORIALS[N - r])
    den = (_FACTORIALS[N], _FACTORIALS[x], _FACTORIALS[n - x], _FACTORIALS[r - x],
           _FACTORIALS[N - n - r + x])
    i = j = 0
    while i < len(num) or j < len(den):
        while j < len(den) and (result >= 1 or i >= len(num)):
            result /= den[j]
            j += 1
        while i < len(num) and (result <= 1 or j >= len(den)):
            result *= num[i]
            i += 1
    return min(max(result, 0.0), 1.0)


def _hypergeom_sf(x: int, r: int, n: int, N: int) -> float:
    """P[X > x] for ``max(0, n + r - N) <= x < min(r, n)`` and ``N`` at most
    170, without scipy.

    This is the algorithm (and the operation order) of the Boost
    hypergeometric CDF that ``scipy.stats.hypergeom.sf`` calls for such
    ``N``, so the two agree bit for bit: below the mode, ``1 - CDF(x)``
    summed down from ``x``; at or above it, the upper tail summed up from
    ``x + 1``, each until a term falls below machine epsilon of its scale.
    """
    if x < math.floor(float(r + 1) * float(n + 1) / float(N + 2)):
        result = diff = _hypergeom_pmf(x, r, n, N)
        lowest = max(0, n + r - N)
        while diff > _EPSILON:
            diff = float(x) * float(N + x - n - r) * diff / (float(1 + n - x) * float(1 + r - x))
            result += diff
            if x == lowest:
                break
            x -= 1
        result = 1.0 - result
    else:
        x += 1
        result = diff = _hypergeom_pmf(x, r, n, N)
        while x <= min(r, n) and diff > result * _EPSILON:
            diff = float(n - x) * float(r - x) * diff / (float(x + 1) * float(N + x + 1 - n - r))
            result += diff
            x += 1
    return min(max(result, 0.0), 1.0)


def rack_selection_hits_pmf(
    hit_probs: AnyArray, width: int, max_hits: int
) -> AnyArray:
    """Hit-count pmf when a stripe picks ``width`` racks w/o replacement.

    A stripe selects ``width`` distinct racks uniformly from the ``R`` racks
    described by ``hit_probs``; a selected rack ``r`` then scores a hit
    independently with probability ``hit_probs[r]`` (e.g. "the stripe's row
    in this rack landed on a catastrophic pool and was lost").

    Returns ``pmf`` of length ``max_hits + 1`` where the last entry
    aggregates ``>= max_hits`` hits, so ``pmf[-1]`` is the tail probability
    that usually means "data loss".

    Implementation: an O(R * width * max_hits) dynamic program over racks,
    tracking (racks chosen so far, hits so far), normalized by C(R, width).
    """
    h = np.asarray(hit_probs, dtype=float)
    if h.ndim != 1:
        raise ValueError("hit_probs must be 1-D (one entry per rack)")
    n_racks = len(h)
    if not 0 < width <= n_racks:
        raise ValueError(f"width must be in [1, {n_racks}]")
    if max_hits < 1:
        raise ValueError("max_hits must be >= 1")
    if np.any((h < 0) | (h > 1)):
        raise ValueError("hit probabilities must be in [0, 1]")

    # dp[c, t]: weighted count of ways to have chosen c racks with t hits
    # (t capped at max_hits).  Skipping zero-probability racks keeps the
    # common sparse case (few damaged racks) cheap.
    dp = np.zeros((width + 1, max_hits + 1))
    dp[0, 0] = 1.0
    nonzero = h > 0
    n_zero = int((~nonzero).sum())
    for prob in h[nonzero]:
        new = dp.copy()  # rack not chosen
        chosen = dp[:-1]  # shift in the "chosen" dimension
        new[1:] += chosen * (1 - prob)  # chosen, no hit
        new[1:, 1:] += chosen[:, :-1] * prob  # chosen, hit
        new[1:, -1] += chosen[:, -1] * prob  # hit while already capped
        dp = new
    # Racks with zero hit probability contribute C(n_zero, j) ways of
    # filling the remaining j slots, hit-free.
    pmf = np.zeros(max_hits + 1)
    for j in range(0, min(n_zero, width) + 1):
        pmf += dp[width - j] * math.comb(n_zero, j)
    pmf /= math.comb(n_racks, width)
    return pmf


def rack_selection_hits_pmf_rows(
    hit_probs: AnyArray, width: int, max_hits: int
) -> AnyArray:
    """:func:`rack_selection_hits_pmf` of each row of ``hit_probs``.

    ``hit_probs`` is ``(rows, R)``; returns ``(rows, max_hits + 1)``, row
    ``i`` bit-identical to ``rack_selection_hits_pmf(hit_probs[i], ...)``.
    Rows are grouped by their count of nonzero racks, and each group runs
    the scalar dynamic program with every element taking the same
    operations in the same order, so only the Python loop over racks is
    shared across the rows of a group.
    """
    h = np.asarray(hit_probs, dtype=float)
    if h.ndim != 2:
        raise ValueError("hit_probs must be 2-D (one row of racks per burst)")
    n_rows, n_racks = h.shape
    if not 0 < width <= n_racks:
        raise ValueError(f"width must be in [1, {n_racks}]")
    if max_hits < 1:
        raise ValueError("max_hits must be >= 1")
    if np.any((h < 0) | (h > 1)):
        raise ValueError("hit probabilities must be in [0, 1]")

    out = np.empty((n_rows, max_hits + 1))
    nonzero = h > 0
    n_nonzero = nonzero.sum(axis=1)
    for k in np.unique(n_nonzero).tolist():
        rows = np.flatnonzero(n_nonzero == k)
        probs = h[rows][nonzero[rows]].reshape(len(rows), k)  # rack order
        dp = np.zeros((len(rows), width + 1, max_hits + 1))
        dp[:, 0, 0] = 1.0
        for col in range(k):
            prob = probs[:, col, None, None]
            new = dp.copy()
            chosen = dp[:, :-1]
            new[:, 1:] += chosen * (1 - prob)
            new[:, 1:, 1:] += chosen[:, :, :-1] * prob
            new[:, 1:, -1] += chosen[:, :, -1] * prob[:, :, 0]
            dp = new
        # The scalar ``pmf += dp[width - j] * C(n_zero, j)`` fold over j as
        # one sequential accumulate: its first partial sum, the first term,
        # equals the scalar's ``0.0 + term`` because no term is -0.0.
        n_zero = n_racks - k
        j = np.arange(min(n_zero, width) + 1)
        ways = np.array([float(math.comb(n_zero, i)) for i in j.tolist()])
        terms = dp[:, width - j] * ways[:, None]
        pmf = np.add.accumulate(terms, axis=1)[:, -1]
        pmf /= math.comb(n_racks, width)
        out[rows] = pmf
    return out


def any_of_many(q: float, count: float) -> float:
    """``1 - (1 - q)^count`` computed stably for tiny ``q``, huge ``count``.

    This converts a per-stripe loss probability into a system PDL over
    ``count`` (up to ~1e10) stripes.
    """
    if q <= 0:
        return 0.0
    if q >= 1:
        return 1.0
    return float(-np.expm1(count * np.log1p(-q)))


def poisson_binomial_pmf(probs: AnyArray) -> AnyArray:
    """Pmf of a sum of independent, non-identical Bernoulli variables.

    Used for "how many of a network stripe's rows in catastrophic pools are
    actually lost" when each catastrophic declustered pool has its own
    lost-stripe probability.  O(n^2) convolution; n is a stripe width here.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError("probs must be 1-D")
    if np.any((probs < 0) | (probs > 1)):
        raise ValueError("probabilities must be in [0, 1]")
    pmf = np.array([1.0])
    for p in probs:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def poisson_binomial_tail(probs: AnyArray, threshold: int) -> float:
    """P[sum of independent Bernoullis >= threshold]."""
    pmf = poisson_binomial_pmf(probs)
    if threshold >= len(pmf):
        return 0.0
    return float(pmf[threshold:].sum())


def poisson_binomial_pmf_rows(probs: AnyArray) -> AnyArray:
    """:func:`poisson_binomial_pmf` of each row of a 2-D ``probs``.

    Row ``i`` is bit-identical to ``poisson_binomial_pmf(probs[i])``:
    adding one Bernoulli ``p`` maps the pmf ``v`` to ``v * (1 - p)`` plus
    ``v * p`` shifted up by one -- the two products the scalar length-2
    convolution sums -- so every row shares one loop over the columns.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2:
        raise ValueError("probs must be 2-D (one row per group)")
    if np.any((probs < 0) | (probs > 1)):
        raise ValueError("probabilities must be in [0, 1]")
    n_rows, n = probs.shape
    pmf = np.zeros((n_rows, n + 1))
    pmf[:, 0] = 1.0
    for j in range(n):
        p = probs[:, j, None]
        head = pmf[:, : j + 1].copy()
        pmf[:, : j + 1] = head * (1.0 - p)
        pmf[:, 1 : j + 2] += head * p
    return pmf


def poisson_binomial_tails(probs: AnyArray, threshold: int) -> AnyArray:
    """:func:`poisson_binomial_tail` of each row of a 2-D ``probs``, bit
    for bit."""
    pmf = poisson_binomial_pmf_rows(probs)
    if threshold >= pmf.shape[1]:
        return np.zeros(len(pmf))
    return pmf[:, threshold:].sum(axis=1)


def exactly_j_cells_over_threshold_pmf(
    cells: int, cell_size: int, failures: int, threshold: int
) -> AnyArray:
    """P[exactly j cells exceed a failure threshold], j = 0..cells.

    ``failures`` devices fail uniformly at random among ``cells`` equal
    cells of ``cell_size`` devices; a cell "exceeds" when it holds more than
    ``threshold`` failures.  This is the per-rack distribution of the number
    of catastrophic pool *positions* used by the exact burst DP.

    Computed by a convolution DP over cells counting weighted layouts:
    ``ways[c][f][j]`` = layouts of ``f`` failures in the first ``c`` cells
    with ``j`` cells over threshold, divided by C(cells*cell_size, failures).
    """
    total = cells * cell_size
    if not 0 <= failures <= total:
        raise ValueError("failures out of range")
    # dp[f, j] over processed cells; use float (counts overflow ints fast,
    # and we only need 1e-12 relative precision).
    max_f = failures
    dp = np.zeros((max_f + 1, cells + 1))
    dp[0, 0] = 1.0
    binom = np.array(
        [math.comb(cell_size, i) for i in range(min(cell_size, max_f) + 1)],
        dtype=float,
    )
    for _ in range(cells):
        new = np.zeros_like(dp)
        for i in range(len(binom)):
            w = binom[i]
            over = i > threshold
            src = dp[: max_f + 1 - i]
            if over:
                new[i:, 1:] += src[:, :-1] * w
            else:
                new[i:, :] += src * w
        dp = new
    pmf = dp[failures]
    pmf /= math.comb(total, failures)
    return pmf
