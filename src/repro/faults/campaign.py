"""Chaos campaigns: sweep correlated-fault scenarios, audit invariants.

A campaign answers the paper's qualitative question -- *which MLEC scheme
degrades most gracefully?* -- by running every scheme through a set of
fault scenarios (rack outages, transient unavailability, latent sector
errors, repair-bandwidth degradation), with an
:class:`repro.faults.invariants.InvariantChecker` auditing the simulator
after every event, and aggregating the results into a structured
:class:`RobustnessReport`.

Scenarios run *accelerated* (elevated background AFR): at the paper's
nominal 1% AFR catastrophic coincidences are ~1e-5/year events, so no
finite campaign would observe them -- the same reason the paper pairs its
simulator with splitting/DP models.  Acceleration preserves the *ordering*
between schemes, which is what the campaign reports.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from ..core.arrays import AnyArray
from ..core.config import (
    DAY,
    HOUR,
    PAPER_MLEC,
    BandwidthConfig,
    DatacenterConfig,
    FailureConfig,
    MLECParams,
)
from ..core.scheme import MLEC_SCHEME_NAMES, MLECScheme, mlec_scheme_from_name
from ..core.types import RepairMethod
from ..obs import MetricsRegistry, TraceRecorder
from ..reporting import format_matrix, format_table
from ..runtime import TrialContext, TrialRunner
from ..sim.failures import ExponentialFailures
from ..sim.simulator import MLECSystemSimulator
from .events import (
    BandwidthDegradation,
    EnclosureOutage,
    FaultEvent,
    RackOutage,
    SectorErrorBurst,
)
from .injector import FaultInjector
from .invariants import InvariantChecker

__all__ = [
    "ChaosScenario",
    "CampaignCell",
    "RobustnessReport",
    "ChaosCampaign",
    "chaos_datacenter",
    "standard_scenarios",
]


def chaos_datacenter() -> DatacenterConfig:
    """Reduced topology for fast campaigns: 24 racks x 1 x 120 = 2,880 disks.

    Keeps every geometry rule of the paper's setup (rack count divisible by
    ``n_n=12``, enclosures divisible by the local-Cp pool size) so all four
    schemes are constructible, at 5% of the full system's size.  Racks
    deliberately outnumber ``n_n`` -- with ``racks == n_n`` every network
    stripe would touch every rack and declustered network placement would
    lose its spreading advantage, collapsing the C/C-vs-D/D contrast the
    campaign exists to measure.
    """
    return DatacenterConfig(racks=24, enclosures_per_rack=1, disks_per_enclosure=120)


@dataclasses.dataclass(frozen=True)
class ChaosScenario:
    """One named injection scenario.

    Attributes
    ----------
    name / description:
        Identification for the report.
    faults:
        The correlated fault events to inject.
    background_afr:
        Accelerated background disk AFR run underneath the faults.
    mission_time:
        Seconds simulated per trial.
    scrub_period:
        Optional scrub cadence (needed for latent-error scenarios).
    """

    name: str
    description: str
    faults: tuple[FaultEvent, ...]
    background_afr: float = 0.25
    mission_time: float = 30 * DAY
    scrub_period: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not 0 < self.background_afr < 1:
            raise ValueError("background_afr must be in (0, 1)")
        if not self.mission_time > 0:
            raise ValueError("mission_time must be positive")


def standard_scenarios(dc: DatacenterConfig | None = None) -> tuple[ChaosScenario, ...]:
    """The four standard fault classes of the robustness campaign.

    Rack ids are chosen inside the first network-Cp rack group so the
    scenarios exercise co-striped pools on every scheme.
    """
    dc = dc if dc is not None else chaos_datacenter()
    # One disk per enclosure picks up latent errors, re-seeded after each
    # scrub pass so the exposure persists across the mission.
    enclosures = dc.racks * dc.enclosures_per_rack
    sector_waves = tuple(
        SectorErrorBurst(time=wave, disk=e * dc.disks_per_enclosure, chunks=4)
        for wave in (12 * HOUR, 11 * DAY, 21 * DAY)
        for e in range(enclosures)
    )
    return (
        ChaosScenario(
            name="rack-outage",
            description="two permanent rack losses in one rack group",
            faults=(
                RackOutage(time=5 * DAY, rack=1),
                RackOutage(time=5 * DAY + 6 * HOUR, rack=2),
            ),
            background_afr=0.85,
            mission_time=30 * DAY,
        ),
        ChaosScenario(
            name="transient-offline",
            description="rack and enclosure drop out, return with data",
            faults=(
                RackOutage(time=2 * DAY, rack=4, duration=12 * HOUR),
                EnclosureOutage(time=6 * DAY, rack=5, enclosure=0, duration=6 * HOUR),
            ),
            background_afr=0.05,
            mission_time=15 * DAY,
        ),
        ChaosScenario(
            name="latent-sector-errors",
            description="scrub-detected silent corruption under load",
            faults=sector_waves,
            background_afr=0.8,
            mission_time=30 * DAY,
            scrub_period=10 * DAY,
        ),
        ChaosScenario(
            name="bandwidth-degradation",
            description="enclosure loss with a 60% cross-rack slowdown",
            faults=(
                EnclosureOutage(time=2 * DAY, rack=3, enclosure=0),
                BandwidthDegradation(
                    time=2 * DAY + 6 * HOUR, duration=5 * DAY, network_factor=0.4
                ),
            ),
            background_afr=0.3,
            mission_time=15 * DAY,
        ),
    )


@dataclasses.dataclass
class CampaignCell:
    """Aggregated outcome of one (scenario, scheme) sweep."""

    scenario: str
    scheme: str
    trials: int
    losses: int
    mean_disk_failures: float
    mean_catastrophic: float
    mean_cross_rack_tb: float
    mean_net_repair_hours: float
    mean_degraded_hours: float
    total_repair_replans: int
    total_unavailability: int
    total_transient_outages: int
    total_sector_errors: int
    total_latent_detected: int
    total_latent_induced: int
    invariant_violations: int
    events_checked: int

    @property
    def pdl(self) -> float:
        """Fraction of trials that lost data under this scenario."""
        return self.losses / self.trials if self.trials else 0.0


@dataclasses.dataclass
class RobustnessReport:
    """Structured campaign outcome: PDL and degraded-mode statistics."""

    scenarios: tuple[str, ...]
    schemes: tuple[str, ...]
    trials: int
    cells: dict[tuple[str, str], CampaignCell]

    def cell(self, scenario: str, scheme: str) -> CampaignCell:
        return self.cells[(scenario, scheme)]

    @property
    def total_invariant_violations(self) -> int:
        return sum(c.invariant_violations for c in self.cells.values())

    @property
    def total_events_checked(self) -> int:
        return sum(c.events_checked for c in self.cells.values())

    def pdl_matrix(self) -> AnyArray:
        return np.array([
            [self.cell(sc, s).pdl for s in self.schemes] for sc in self.scenarios
        ])

    def to_text(self) -> str:
        lines = [
            f"Chaos campaign: {len(self.scenarios)} fault classes x "
            f"{len(self.schemes)} schemes x {self.trials} trials",
            f"invariants: {self.total_invariant_violations} violations over "
            f"{self.total_events_checked} audited events",
            "",
            format_matrix(
                self.scenarios, self.schemes, self.pdl_matrix(),
                title="PDL (fraction of trials losing data):",
            ),
        ]
        for scenario in self.scenarios:
            rows = []
            for scheme in self.schemes:
                c = self.cell(scenario, scheme)
                rows.append([
                    scheme, c.pdl, c.mean_catastrophic, c.mean_cross_rack_tb,
                    c.mean_net_repair_hours, c.mean_degraded_hours,
                    c.total_repair_replans, c.total_unavailability,
                    c.total_latent_induced,
                ])
            lines.append("")
            lines.append(format_table(
                ["scheme", "PDL", "catas", "x-rack TB", "net h",
                 "degr h", "replans", "unavail", "lat-cat"],
                rows,
                title=f"[{scenario}]",
            ))
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class _TrialOutcome:
    """Per-trial statistics shipped back from a campaign worker."""

    lost: bool
    stats: tuple[float, float, float, float, float]
    replans: int
    unavail: int
    outages: int
    sector: int
    detected: int
    induced: int
    violations: int
    events_checked: int


def _campaign_trial(
    ctx: TrialContext,
    scenarios: tuple[ChaosScenario, ...],
    schemes: tuple[MLECScheme, ...],
    trials: int,
    dc: DatacenterConfig,
    method: RepairMethod,
    bw: BandwidthConfig | None,
    failures: FailureConfig | None,
    check_invariants: bool,
) -> _TrialOutcome:
    """One (scenario, scheme, trial) cell entry; runs in a worker process.

    Each trial builds its own injector and simulator (both are cheap and
    stateless across runs).  Trial ``t`` of every scenario and scheme
    runs on the sweep's stream keyed ``t`` -- common random numbers, so
    schemes are compared on paired draws.  Tasks run scenario-major, then
    scheme, then trial, so the cell follows from ``ctx.index``.
    """
    cell, trial = divmod(ctx.index, trials)
    scenario_idx, scheme_idx = divmod(cell, len(schemes))
    scenario: ChaosScenario = scenarios[scenario_idx]
    scheme = schemes[scheme_idx]
    injector = FaultInjector(
        base=ExponentialFailures(scenario.background_afr),
        faults=scenario.faults,
        dc=dc,
        scrub_period=scenario.scrub_period,
        recorder=ctx.trace,
    )
    sim = MLECSystemSimulator(
        scheme, method, bw=bw, failures=failures, failure_model=injector
    )
    checker = InvariantChecker(sim, strict=False) if check_invariants else None
    result = sim.run(
        mission_time=scenario.mission_time,
        seed=ctx.seed_sequence(trial),
        observer=checker,
        recorder=ctx.trace,
        metrics=ctx.metrics,
    )
    if ctx.trace is not None:
        ctx.trace.event(
            scenario.mission_time,
            "chaos.trial",
            scenario=scenario.name,
            scheme=scheme.name,
            lost=bool(result.lost_data),
        )
    if ctx.metrics is not None:
        ctx.metrics.counter("chaos.trials").inc()
        ctx.metrics.counter("chaos.loss_trials").inc(int(result.lost_data))
    return _TrialOutcome(
        lost=bool(result.lost_data),
        stats=(
            result.n_disk_failures,
            result.n_catastrophic_events,
            result.cross_rack_repair_bytes / 1e12,
            result.net_repair_seconds / HOUR,
            result.degraded_repair_seconds / HOUR,
        ),
        replans=result.n_repair_replans,
        unavail=result.n_unavailability_events,
        outages=result.n_transient_outages,
        sector=result.n_sector_errors,
        detected=result.n_latent_errors_detected,
        induced=result.n_latent_induced_catastrophes,
        violations=len(checker.violations) if checker is not None else 0,
        events_checked=checker.events_checked if checker is not None else 0,
    )


class ChaosCampaign:
    """Sweep fault-injection scenarios across MLEC schemes.

    Parameters
    ----------
    schemes:
        Scheme names to compare (default: all four canonical schemes).
    params / dc / method / bw / failures:
        System configuration shared by every run; ``dc`` defaults to the
        reduced :func:`chaos_datacenter` topology.
    trials:
        Trials per (scenario, scheme) cell.  Trial ``i`` draws the same
        keyed stream in every cell, so comparisons are paired.
    scenarios:
        Injection scenarios (default: :func:`standard_scenarios`).
    check_invariants:
        Audit every event with an :class:`InvariantChecker` (non-strict:
        violations are counted in the report rather than raised).
    runner:
        The :class:`~repro.runtime.TrialRunner` the flattened (scenario,
        scheme, trial) sweep fans out over (default: an in-process
        ``TrialRunner()``); results are identical for any worker count or
        backend.  A :class:`~repro.runtime.ResilientRunner` makes the
        campaign checkpointable and crash-tolerant (the flattened sweep is
        one journal sweep, so resume skips completed scenario/scheme/trial
        chunks).
    """

    def __init__(
        self,
        schemes: Sequence[str] = MLEC_SCHEME_NAMES,
        params: MLECParams = PAPER_MLEC,
        dc: DatacenterConfig | None = None,
        method: RepairMethod = RepairMethod.R_FCO,
        bw: BandwidthConfig | None = None,
        failures: FailureConfig | None = None,
        trials: int = 5,
        scenarios: Sequence[ChaosScenario] | None = None,
        check_invariants: bool = True,
        runner: TrialRunner | None = None,
    ) -> None:
        if trials <= 0:
            raise ValueError(f"trials must be positive, got {trials}")
        self.dc = dc if dc is not None else chaos_datacenter()
        self.schemes = tuple(
            mlec_scheme_from_name(name, params, self.dc) for name in schemes
        )
        self.method = method
        self.bw = bw
        self.failures = failures
        self.trials = trials
        self.scenarios = tuple(
            scenarios if scenarios is not None else standard_scenarios(self.dc)
        )
        if not self.scenarios:
            raise ValueError("campaign needs at least one scenario")
        self.check_invariants = check_invariants
        self.runner = runner if runner is not None else TrialRunner()

    # ------------------------------------------------------------------
    def run(
        self,
        seed: int = 0,
        trace: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> RobustnessReport:
        """Run the full sweep; returns the structured robustness report.

        Every (scenario, scheme, trial) combination is one task of the
        trial runner, so parallelism spans the whole campaign rather than
        one cell at a time.  ``trace``/``metrics`` collect per-trial
        telemetry through the runner (deterministic for any worker count).
        """
        tasks = len(self.scenarios) * len(self.schemes) * self.trials
        # Root the runner's span tree in a campaign span with a trace id
        # derived from the campaign's structural config (first seeding
        # wins, so the sweep inherits this identity).
        spans = self.runner.spans
        spans.seed_trace(
            "chaos",
            seed,
            tasks,
            ",".join(s.name for s in self.scenarios),
            ",".join(s.name for s in self.schemes),
        )
        with spans.span(
            "span.campaign",
            key=("campaign", seed),
            scenarios=len(self.scenarios),
            schemes=len(self.schemes),
            trials=self.trials,
        ):
            outcomes = self.runner.map(
                _campaign_trial,
                tasks,
                seed=seed,
                args=(
                    self.scenarios, self.schemes, self.trials, self.dc,
                    self.method, self.bw, self.failures, self.check_invariants,
                ),
                trace=trace,
                metrics=metrics,
            )
        cells: dict[tuple[str, str], CampaignCell] = {}
        cursor = 0
        for scenario in self.scenarios:
            for scheme in self.schemes:
                cell_outcomes = outcomes[cursor:cursor + self.trials]
                cursor += self.trials
                cells[(scenario.name, scheme.name)] = self._reduce_cell(
                    scenario.name, scheme.name, cell_outcomes
                )
        return RobustnessReport(
            scenarios=tuple(s.name for s in self.scenarios),
            schemes=tuple(s.name for s in self.schemes),
            trials=self.trials,
            cells=cells,
        )

    def _reduce_cell(
        self, scenario: str, scheme: str, outcomes: Sequence[_TrialOutcome]
    ) -> CampaignCell:
        losses = 0
        violations = 0
        events_checked = 0
        sums = np.zeros(5)  # failures, catastrophic, cross TB, net h, degr h
        replans = unavail = outages = sector = detected = induced = 0
        for outcome in outcomes:
            losses += outcome.lost
            violations += outcome.violations
            events_checked += outcome.events_checked
            sums += outcome.stats
            replans += outcome.replans
            unavail += outcome.unavail
            outages += outcome.outages
            sector += outcome.sector
            detected += outcome.detected
            induced += outcome.induced
        means = sums / self.trials
        return CampaignCell(
            scenario=scenario,
            scheme=scheme,
            trials=self.trials,
            losses=losses,
            mean_disk_failures=float(means[0]),
            mean_catastrophic=float(means[1]),
            mean_cross_rack_tb=float(means[2]),
            mean_net_repair_hours=float(means[3]),
            mean_degraded_hours=float(means[4]),
            total_repair_replans=replans,
            total_unavailability=unavail,
            total_transient_outages=outages,
            total_sector_errors=sector,
            total_latent_detected=detected,
            total_latent_induced=induced,
            invariant_violations=violations,
            events_checked=events_checked,
        )
