"""Exact PDL under correlated failure bursts by dynamic programming (§3).

The paper's third methodology: "count the number of all the possible disk
failure layouts under a certain correlated failure burst scenario, and then
count how many such failure layouts could cause a data loss".  This module
does exactly that -- no sampling -- for all four MLEC schemes and the SLEC
placements, under the burst model "y simultaneous failures across x racks,
at least one per affected rack, all layouts equally likely".

Two layers of counting:

1. *Within a rack*: failures land uniformly among the rack's disks; the
   distribution of the number of catastrophic pool positions (pools with
   more than ``p_l`` failures) follows from exchangeable-cell counting
   (:func:`repro.analysis.combinatorics.exactly_j_cells_over_threshold_pmf`).

2. *Across racks*: for network-clustered schemes, one cell-collision DP
   (:func:`_netcp_pdl`, splits from :func:`_collision_splits`) tracks how
   many shared positions have accumulated 1, 2, ... marks, rack by rack,
   and kills states where any position reaches the loss threshold.  MLEC
   C/C and D/C mark catastrophic pool positions; SLEC Net-Cp is the same
   DP with one mark per failed disk.  An outer DP allocates the ``y``
   failures (and, for network-clustered schemes, the ``x`` racks) across
   rack groups.

Declustered caveat: wherever a declustered placement is involved the DP
uses the worst-case declustering assumption (a pool with more than ``p_l``
failures *has* lost stripes; any ``p_n+1`` co-striped catastrophic pools
*do* lose a network stripe).  For clustered-everything (C/C, Loc-Cp,
Net-Cp) the numbers are exact; for D-flavoured schemes they are tight upper
bounds, and the Monte-Carlo burst engine (:mod:`repro.sim.burst`) provides
the placement-averaged refinement.  The test suite checks DP >= MC.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from ..core.arrays import AnyArray
from ..core.scheme import MLECScheme, SLECScheme
from ..core.types import Level, Placement
from .combinatorics import exactly_j_cells_over_threshold_pmf

__all__ = [
    "mlec_burst_pdl",
    "slec_burst_pdl",
]


#: One surviving outcome of a rack's marks: (new occupancy state, ways).
_Split = tuple[tuple[int, ...], float]


def _collision_splits(
    state: tuple[int, ...], n_free: int, j: int
) -> list[_Split]:
    """Surviving ways to throw ``j`` marks into ``j`` distinct cells.

    ``state[i]`` counts the shared cells holding ``i+1`` marks and
    ``n_free`` the cells holding none; a cell that reaches
    ``len(state) + 1`` marks is a data loss.  Marks hitting a level-``i``
    cell promote it to level ``i+1``; the top level can take none.  Returns
    ``(new_state, ways)`` pairs, where ``ways`` counts the cell choices
    (the multivariate hypergeometric numerator over ``C(n_cells, j)``).
    """
    levels = len(state)
    if levels == 0:
        # threshold 1: any mark is a loss
        return [(state, 1.0)] if j == 0 else []
    out: list[_Split] = []
    top = levels - 1

    def rec(i: int, remaining: int, new_state: list[int], ways: float) -> None:
        if i == top:
            # the marks left land on free cells and make level-1 cells
            if remaining <= n_free:
                new_state[0] += remaining
                out.append(
                    (tuple(new_state), ways * math.comb(n_free, remaining))
                )
                new_state[0] -= remaining
            return
        for a in range(min(state[i], remaining) + 1):
            new_state[i] -= a
            new_state[i + 1] += a
            rec(i + 1, remaining - a, new_state, ways * math.comb(state[i], a))
            new_state[i] += a
            new_state[i + 1] -= a

    rec(0, j, list(state), 1.0)
    return out


def _prune_states(
    states: dict[tuple[int, ...], AnyArray], rel_tol: float = 1e-16
) -> dict[tuple[int, ...], AnyArray]:
    """Drop DP states whose weight is negligible *at every failure count*.

    The weight vectors are indexed by total failures ``r`` and span many
    orders of magnitude across ``r`` (layout counts grow combinatorially),
    so pruning must compare each entry against the aggregate at the same
    ``r`` -- a state is dropped only if it is below float precision of the
    final ratio everywhere.
    """
    if not states:
        return states
    agg = np.zeros_like(next(iter(states.values())))
    for v in states.values():
        agg += v
    cutoff = agg * rel_tol
    return {s: v for s, v in states.items() if bool(np.any(v > cutoff))}


def _rack_failure_ways(disks_per_rack: int, max_f: int) -> AnyArray:
    """log C(disks_per_rack, f) for f = 0..max_f (layout-count weights)."""
    f = np.arange(max_f + 1)
    return np.array(
        [math.lgamma(disks_per_rack + 1) - math.lgamma(k + 1)
         - math.lgamma(disks_per_rack - k + 1) for k in f]
    )


def _scaled_rack_weights(disks_per_rack: int, max_f: int) -> AnyArray:
    """Layout-count weights C(disks, f) scaled to stay in float range.

    Each weight is divided by ``exp(f * c)`` with a per-failure constant
    ``c``; any product of weights over racks whose failure counts sum to a
    fixed total is then scaled by the same ``exp(-total * c)``, which
    cancels in every survive/total ratio.
    """
    log_ways = _rack_failure_ways(disks_per_rack, max_f)
    c = log_ways[max_f] / max_f if max_f > 0 else 0.0
    f = np.arange(max_f + 1)
    return np.exp(log_ways - f * c)


@lru_cache(maxsize=None)
def _cat_position_pmf(
    cells: int, cell_size: int, failures: int, p_l: int
) -> tuple[float, ...]:
    """Cached P[exactly j catastrophic positions | f failures in rack]."""
    return tuple(
        exactly_j_cells_over_threshold_pmf(cells, cell_size, failures, p_l)
    )


def _per_rack_j_distributions(
    cells: int, cell_size: int, max_f: int, p_l: int
) -> list[AnyArray]:
    """j-pmf of catastrophic positions for every per-rack failure count."""
    return [
        np.asarray(_cat_position_pmf(cells, cell_size, f, p_l))
        for f in range(max_f + 1)
    ]


# ----------------------------------------------------------------------
# Network-declustered schemes: racks are exchangeable, loss happens when
# enough racks contain a catastrophic pool.
# ----------------------------------------------------------------------
def _netdp_pdl(
    disks_per_rack: int,
    cells: int,
    cell_size: int,
    p_l: int,
    loss_racks: int,
    failures: int,
    racks: int,
) -> float:
    """P[>= loss_racks racks hold a catastrophic pool] under the burst.

    DP over the ``x`` affected racks, allocating failures (>= 1 each,
    weighted by layout counts C(disks_per_rack, f)) and tracking the capped
    count of catastrophic racks.  Exact counting; weights are renormalized
    every step to stay in float range.
    """
    max_f = min(failures, disks_per_rack)
    j_dists = _per_rack_j_distributions(cells, cell_size, max_f, p_l)
    q_cat = np.array([1.0 - d[0] for d in j_dists])  # P[rack catastrophic | f]
    w = _scaled_rack_weights(disks_per_rack, max_f)

    cap = loss_racks
    # dp[u, c] = weight of using u failures so far with c catastrophic racks
    dp = np.zeros((failures + 1, cap + 1))
    dp[0, 0] = 1.0
    for _ in range(racks):
        new = np.zeros_like(dp)
        for f in range(1, max_f + 1):
            wf = w[f]
            src = dp[: failures + 1 - f]
            cat = q_cat[f]
            new[f:, : cap] += src[:, :cap] * (wf * (1 - cat))
            new[f:, 1 : cap + 1] += src[:, :cap] * (wf * cat)
            new[f:, cap] += src[:, cap] * wf
        total = new.sum()
        if total <= 0.0:
            return float("nan")
        dp = new / total  # rescale; relative shares are what matters
    final = dp[failures]
    denom = final.sum()
    if denom <= 0.0:
        return float("nan")
    return float(final[cap] / denom)


# ----------------------------------------------------------------------
# Network-clustered schemes: racks live in groups of n_n; loss requires
# >= p_n+1 catastrophic pools at the same pool position within one group.
# ----------------------------------------------------------------------
def _netcp_pdl(
    disks_per_rack: int,
    cells: int,
    j_dists: Sequence[AnyArray],
    loss_threshold: int,
    group_size: int,
    n_groups: int,
    failures: int,
    racks: int,
) -> float:
    """PDL for network-clustered schemes: exact count over group layouts.

    A rack with ``f`` failures throws ``j`` marks into distinct cells of
    the ``cells`` positions its group shares, with ``P[j] = j_dists[f][j]``;
    a position that collects ``loss_threshold`` marks is a data loss.
    """
    max_m = min(group_size, racks)
    max_f = len(j_dists) - 1
    w = _scaled_rack_weights(disks_per_rack, max_f)

    # Per-group tables, rack by rack: total[m, r] is the (scaled) number of
    # layouts of r failures in m affected racks of the group (each >= 1),
    # survive[m, r] the portion in which no position reaches the threshold.
    # The collision DP's states map occupancy levels to weights over r.
    survive = np.zeros((max_m + 1, failures + 1))
    total = np.zeros((max_m + 1, failures + 1))
    survive[0, 0] = total[0, 0] = 1.0
    conv = np.zeros(failures + 1)
    conv[0] = 1.0
    states: dict[tuple[int, ...], AnyArray] = {
        (0,) * (loss_threshold - 1): conv.copy()
    }
    # Splits memo, keyed (state, j); it lives for this call only.
    splits: dict[tuple[tuple[int, ...], int], list[_Split]] = {}
    for m in range(1, max_m + 1):
        new_conv = np.zeros_like(conv)
        for f in range(1, max_f + 1):
            new_conv[f:] += conv[: failures + 1 - f] * w[f]
        conv = new_conv
        total[m] = conv

        new_states: dict[tuple[int, ...], AnyArray] = {}
        for state, vec in states.items():
            n_free = cells - sum(state)
            for f in range(1, max_f + 1):
                src = vec[: failures + 1 - f]
                if not src.any():
                    continue
                for j, pj in enumerate(j_dists[f]):
                    if pj <= 1e-300 or j > cells:
                        continue
                    weight = w[f] * pj
                    denom = math.comb(cells, j)
                    key = (state, j)
                    if key not in splits:
                        splits[key] = _collision_splits(state, n_free, j)
                    for split, ways in splits[key]:
                        arr = new_states.get(split)
                        if arr is None:
                            arr = new_states[split] = np.zeros(failures + 1)
                        arr[f:] += src * (weight * ways / denom)
        states = _prune_states(new_states)
        agg = np.zeros(failures + 1)
        for vec in states.values():
            agg += vec
        survive[m] = agg

    # Outer DP over groups: allocate affected racks m_g (weight C(group,m))
    # and failures r_g; numerator uses survive, denominator total.
    choose = np.array([math.comb(group_size, m) for m in range(max_m + 1)])
    num = _fold_groups(survive, choose, n_groups, racks, failures, max_m)
    den = _fold_groups(total, choose, n_groups, racks, failures, max_m)
    return _ratio_to_pdl(num, den)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def mlec_burst_pdl(scheme: MLECScheme, failures: int, racks: int) -> float:
    """Exact (worst-case-declustering) PDL of an MLEC scheme under a burst.

    Parameters
    ----------
    scheme:
        Any of the four MLEC schemes.
    failures, racks:
        The burst: ``failures`` simultaneous disk failures spread over
        ``racks`` racks (each affected rack has at least one).
    """
    if racks < 1 or racks > scheme.dc.racks:
        raise ValueError("racks out of range")
    if failures < racks:
        raise ValueError("need at least one failure per affected rack")
    s = scheme
    if s.local_placement is Placement.CLUSTERED:
        cells = s.local_pools_per_rack
        cell_size = s.params.n_l
    else:
        cells = s.dc.enclosures_per_rack
        cell_size = s.dc.disks_per_enclosure
    loss = s.params.p_n + 1
    if s.network_placement is Placement.DECLUSTERED:
        return _netdp_pdl(
            s.dc.disks_per_rack, cells, cell_size, s.params.p_l,
            loss, failures, racks,
        )
    j_dists = _per_rack_j_distributions(
        cells, cell_size, min(failures, s.dc.disks_per_rack), s.params.p_l
    )
    return _netcp_pdl(
        s.dc.disks_per_rack, cells, j_dists, loss,
        s.network_group_racks, s.network_groups, failures, racks,
    )


def slec_burst_pdl(scheme: SLECScheme, failures: int, racks: int) -> float:
    """Exact (worst-case-declustering) PDL of a SLEC placement under a burst.

    * Local SLEC: loss iff any local pool exceeds ``p`` failures -- the
      network-Dp machinery with a loss threshold of one catastrophic rack.
    * Network-Dp: worst case, loss iff at least ``p+1`` racks are affected
      (every affected rack has a failed disk and any ``p+1`` disks in
      distinct racks co-host a stripe).
    * Network-Cp: collision DP over in-rack disk positions within each rack
      group, threshold ``p+1``.
    """
    if racks < 1 or racks > scheme.dc.racks:
        raise ValueError("racks out of range")
    if failures < racks:
        raise ValueError("need at least one failure per affected rack")
    s = scheme
    p = s.params.p
    if s.level is Level.LOCAL:
        if s.placement is Placement.CLUSTERED:
            cells = s.dc.disks_per_rack // s.params.n
            cell_size = s.params.n
        else:
            cells = s.dc.enclosures_per_rack
            cell_size = s.dc.disks_per_enclosure
        # Loss as soon as one rack has a catastrophic pool.
        return _netdp_pdl(
            s.dc.disks_per_rack, cells, cell_size, p, 1, failures, racks
        )
    if s.placement is Placement.DECLUSTERED:
        return 1.0 if racks >= p + 1 else 0.0
    # Network-Cp: each failed disk marks its in-rack position; loss iff a
    # position inside one rack group collects p+1 marks.  This is the
    # group-collision DP with "cells = disk positions" and each rack
    # contributing exactly f marks (all failures are marks).
    disks = s.dc.disks_per_rack
    return _netcp_pdl(
        disks, disks, list(np.eye(min(failures, disks) + 1)), p + 1,
        s.params.n, s.dc.racks // s.params.n, failures, racks,
    )


def _fold_groups(
    tables: AnyArray,
    choose: AnyArray,
    n_groups: int,
    racks: int,
    failures: int,
    max_m: int,
) -> tuple[float, float]:
    """Convolve per-group (racks, failures) tables across all groups.

    Returns ``(value, log_scale)``: the DP cell for exactly (racks,
    failures), along with the accumulated log of the rescaling applied to
    keep floats in range -- the true value is ``value * exp(log_scale)``.
    """
    dp = np.zeros((racks + 1, failures + 1))
    dp[0, 0] = 1.0
    log_scale = 0.0
    for _ in range(n_groups):
        new = np.zeros_like(dp)
        for m in range(0, max_m + 1):
            t = tables[m] * choose[m]
            nz = np.nonzero(t)[0]
            if nz.size == 0:
                continue
            for r in nz:
                new[m:, r:] += dp[: racks + 1 - m, : failures + 1 - r] * t[r]
        dp = new
        scale = dp.max()
        if scale > 0:
            dp /= scale
            log_scale += math.log(scale)
    return float(dp[racks, failures]), log_scale


def _ratio_to_pdl(
    num: tuple[float, float], den: tuple[float, float]
) -> float:
    """PDL = 1 - survive/total from two scaled fold results."""
    num_val, num_log = num
    den_val, den_log = den
    if den_val <= 0.0:
        return float("nan")
    if num_val <= 0.0:
        return 1.0
    ratio = num_val / den_val * math.exp(num_log - den_log)
    return float(min(1.0, max(0.0, 1.0 - ratio)))
