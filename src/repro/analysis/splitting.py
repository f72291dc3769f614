"""Rare-event splitting: the paper's multi-stage simulation strategy (§3).

Estimating 30+-nine durabilities by naive Monte Carlo is hopeless ("it will
take years even with a 200-core simulation"), so the paper splits the
problem:

* **Stage 1** -- simulate a *single local pool* and collect catastrophic-
  failure samples.  Even one pool's catastrophe is itself rare at AFR 1%,
  so stage 1 runs at *accelerated* failure rates and extrapolates back
  down the known power law: the catastrophic rate scales as
  ``lambda^(p_l+1)`` with ``p_l`` repair-limited attenuation factors, so a
  log-log fit over accelerated AFRs recovers both the exponent (a strong
  model check -- it should be close to ``p_l+1``) and the target-AFR rate.

* **Stage 2** -- inject catastrophic pool events at the network level at a
  *boosted* rate, count ``p_n+1``-way concurrencies among co-striped pools
  (weighted by the probability they actually share a lost network stripe),
  and scale the resulting PDL back by ``boost^(p_n+1)`` -- again the
  leading-order power law of independent-window overlap.

The Markov models (:mod:`repro.analysis.markov`,
:mod:`repro.analysis.durability`) provide the same quantities analytically;
the splitting estimators exist to *verify* them, mirroring the paper's
"our multiple methodologies verify each other".
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.config import BandwidthConfig, FailureConfig, YEAR
from ..core.scheme import MLECScheme
from ..core.types import Placement, RepairMethod
from ..repair.bandwidth import BandwidthModel
from ..runtime import TrialContext, TrialRunner
from ..sim.failures import ExponentialFailures
from ..sim.local_pool import LocalPoolSimulator
from .durability import _network_exposure_time, _stripe_share_probability
from .markov import local_pool_reliability_chain
from .nines import pdl_to_nines

__all__ = [
    "AcceleratedRatePoint",
    "Stage1Result",
    "stage1_pool_rate",
    "Stage2Result",
    "stage2_network_pdl",
    "splitting_durability_nines",
]


@dataclasses.dataclass(frozen=True)
class AcceleratedRatePoint:
    """One accelerated-AFR measurement of the pool catastrophic rate."""

    afr: float
    pool_years: float
    events: int

    @property
    def rate(self) -> float:
        return self.events / self.pool_years


@dataclasses.dataclass(frozen=True)
class Stage1Result:
    """Stage-1 output: extrapolated rate and the fitted power law."""

    points: list[AcceleratedRatePoint]
    exponent: float
    rate_at_target: float
    target_afr: float
    mean_lost_fraction: float


def _pool_simulator(
    scheme: MLECScheme,
    afr: float,
    bw: BandwidthConfig,
    failures: FailureConfig,
) -> LocalPoolSimulator:
    model = BandwidthModel(scheme, bw)
    return LocalPoolSimulator(
        pool_disks=scheme.local_pool_disks,
        stripe_width=scheme.params.n_l,
        parities=scheme.params.p_l,
        clustered=scheme.local_placement is Placement.CLUSTERED,
        disk_capacity_bytes=scheme.dc.disk_capacity_bytes,
        chunk_size_bytes=scheme.dc.chunk_size_bytes,
        repair_rate=model.single_disk_repair_rate().rate,
        detection_time=failures.detection_time,
        failure_model=ExponentialFailures(afr),
    )


def _stage1_pool_year(
    ctx: TrialContext,
    scheme: MLECScheme,
    afr: float,
    bw: BandwidthConfig,
    failures: FailureConfig,
) -> tuple[int, tuple[float, ...]]:
    """One accelerated pool-year on its own stream: catastrophic count +
    lost fractions."""
    sim = _pool_simulator(scheme, afr, bw, failures)
    result = sim.run(mission_time=YEAR, seed=ctx.seed_sequence())
    return (
        result.n_catastrophic,
        tuple(s.lost_fraction for s in result.catastrophic_samples),
    )


def stage1_pool_rate(
    scheme: MLECScheme,
    accelerated_afrs: tuple[float, ...] = (0.4, 0.5, 0.65),
    pool_years_each: int = 2000,
    bw: BandwidthConfig | None = None,
    failures: FailureConfig | None = None,
    seed: int = 0,
    runner: TrialRunner | None = None,
) -> Stage1Result:
    """Stage 1: accelerated pool simulation + power-law extrapolation.

    The ``pool_years_each`` independent pool-years per accelerated AFR are
    Monte Carlo trials; ``runner`` fans them out over worker processes with
    results identical to the serial sweep for any worker count.  A
    :class:`~repro.runtime.ResilientRunner` checkpoints each accelerated
    AFR as its own sweep ordinal, so a resumed stage-1 campaign skips
    every already-journaled pool-year chunk.
    """
    bw = bw if bw is not None else BandwidthConfig()
    failures = failures if failures is not None else FailureConfig()
    runner = runner if runner is not None else TrialRunner()
    points: list[AcceleratedRatePoint] = []
    lost_fractions: list[float] = []
    for i, afr in enumerate(accelerated_afrs):
        outcomes = runner.map(
            _stage1_pool_year,
            pool_years_each,
            seed=seed + i,
            args=(scheme, afr, bw, failures),
        )
        events = 0
        for n_catastrophic, fractions in outcomes:
            events += n_catastrophic
            lost_fractions.extend(fractions)
        points.append(
            AcceleratedRatePoint(afr=afr, pool_years=pool_years_each, events=events)
        )

    observed = [p for p in points if p.events > 0]
    if len(observed) < 2:
        raise RuntimeError(
            "not enough catastrophic events observed; raise the accelerated "
            "AFRs or the pool-year budget"
        )
    # Fit against the exponential *hazard rate*, not the AFR: the rate is
    # -ln(1-AFR)/year, noticeably super-linear in AFR at the accelerated
    # levels, and the power law lives in rate space.
    log_lam = np.log([-np.log1p(-p.afr) for p in observed])
    log_rate = np.log([p.rate for p in observed])
    exponent, intercept = np.polyfit(log_lam, log_rate, 1)
    target = failures.annual_failure_rate
    target_lam = -np.log1p(-target)
    rate_at_target = float(np.exp(intercept + exponent * np.log(target_lam)))
    return Stage1Result(
        points=points,
        exponent=float(exponent),
        rate_at_target=rate_at_target,
        target_afr=target,
        mean_lost_fraction=float(np.mean(lost_fractions)) if lost_fractions else 0.0,
    )


@dataclasses.dataclass(frozen=True)
class Stage2Result:
    """Stage-2 output: boosted-injection PDL scaled back to the true rate."""

    boosted_rate_per_pool_year: float
    boost: float
    simulated_years: float
    expected_losses_boosted: float
    pdl_per_year: float

    @property
    def nines(self) -> float:
        return pdl_to_nines(min(1.0, self.pdl_per_year))


def stage2_network_pdl(
    scheme: MLECScheme,
    method: RepairMethod,
    pool_rate_per_year: float,
    lost_fraction: float,
    boost: float | None = None,
    years: float | None = None,
    bw: BandwidthConfig | None = None,
    failures: FailureConfig | None = None,
    seed: int = 0,
) -> Stage2Result:
    """Stage 2: inject catastrophic pool events at ``boost`` x the rate.

    Samples Poisson arrivals of catastrophic pool events across the
    system, opens an exposure window per event (the repair method's
    network-stage time), and accumulates the stripe-sharing probability
    every time an arrival makes ``p_n+1`` co-striped pools concurrently
    catastrophic.  The boosted PDL scales back by ``boost^(p_n+1)``.

    ``boost``/``years`` default to an auto-tuned operating point: per
    co-stripe domain, about 5% window occupancy (keeping the leading-order
    rescaling honest) and ~2e5 total events (enough overlaps to count).
    """
    bw = bw if bw is not None else BandwidthConfig()
    failures = failures if failures is not None else FailureConfig()
    rng = np.random.default_rng(seed)
    s = scheme

    chain = local_pool_reliability_chain(s, bw, failures)
    tau = _network_exposure_time(s, method, chain, bw, failures)
    q = _stripe_share_probability(s, method, lost_fraction)
    threshold = s.params.p_n + 1

    if s.network_placement is Placement.CLUSTERED:
        n_domains = s.total_local_pools // s.params.n_n
    else:
        n_domains = 1
    if boost is None:
        # Target ~5% of each domain's timeline covered by open windows.
        domain_rate = pool_rate_per_year * s.total_local_pools / n_domains
        occupancy = domain_rate * tau / YEAR
        boost = max(1.0, 0.05 / occupancy) if occupancy > 0 else 1.0
    if years is None:
        events_per_year = pool_rate_per_year * boost * s.total_local_pools
        years = min(50_000.0, max(100.0, 2e5 / max(events_per_year, 1e-12)))

    boosted = pool_rate_per_year * boost
    total_rate = boosted * s.total_local_pools / YEAR  # events per second
    horizon = years * YEAR
    expected_events = total_rate * horizon
    if expected_events > 5e6:
        raise ValueError(
            f"boosted injection would generate ~{expected_events:.2e} events; "
            "lower `boost` or `years` (the estimate scales back analytically)"
        )
    n_events = rng.poisson(expected_events)
    times = np.sort(rng.uniform(0.0, horizon, size=n_events))
    pools = rng.integers(s.total_local_pools, size=n_events)

    if s.network_placement is Placement.CLUSTERED:
        # Pools are co-striped iff they share (rack group, pool position).
        ppr = s.local_pools_per_rack
        racks = pools // ppr
        keys = (racks // s.network_group_racks) * ppr + pools % ppr
    else:
        keys = np.zeros(n_events, dtype=np.int64)  # one big co-stripe domain
    pool_racks = pools // s.local_pools_per_rack

    expected_losses = 0.0
    open_until: dict[int, list[tuple[float, int, int]]] = {}
    for t, pool, key, rack in zip(times, pools, keys, pool_racks):
        window = open_until.setdefault(int(key), [])
        window[:] = [w for w in window if w[0] > t]
        distinct_racks = {w[2] for w in window if w[1] != pool}
        if len(distinct_racks.union({int(rack)})) >= threshold:
            expected_losses += q
        window.append((t + tau, int(pool), int(rack)))

    pdl_boosted = expected_losses / years
    pdl = pdl_boosted / boost**threshold
    return Stage2Result(
        boosted_rate_per_pool_year=boosted,
        boost=boost,
        simulated_years=years,
        expected_losses_boosted=expected_losses,
        pdl_per_year=min(1.0, pdl),
    )


def splitting_durability_nines(
    scheme: MLECScheme,
    method: RepairMethod,
    stage1: Stage1Result | None = None,
    bw: BandwidthConfig | None = None,
    failures: FailureConfig | None = None,
    seed: int = 0,
    runner: TrialRunner | None = None,
) -> float:
    """End-to-end splitting estimate of one-year durability in nines."""
    if stage1 is None:
        stage1 = stage1_pool_rate(
            scheme, bw=bw, failures=failures, seed=seed, runner=runner
        )
    stage2 = stage2_network_pdl(
        scheme,
        method,
        pool_rate_per_year=stage1.rate_at_target,
        lost_fraction=stage1.mean_lost_fraction,
        bw=bw,
        failures=failures,
        seed=seed + 1,
    )
    return stage2.nines
