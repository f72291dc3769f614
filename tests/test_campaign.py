"""Chaos campaigns: robustness report, invariants, scheme ordering."""

import hashlib

import pytest

from repro.cli import main
from repro.faults import (
    ChaosCampaign,
    ChaosScenario,
    RackOutage,
    chaos_datacenter,
    standard_scenarios,
)

FAULT_CLASSES = (
    "rack-outage",
    "transient-offline",
    "latent-sector-errors",
    "bandwidth-degradation",
)


class TestScenarioCatalogue:
    def test_standard_scenarios_cover_four_fault_classes(self):
        names = [s.name for s in standard_scenarios()]
        assert names == list(FAULT_CLASSES)

    def test_scenarios_fit_both_chaos_and_paper_topologies(self):
        from repro.core.config import DatacenterConfig
        from repro.faults import FaultInjector

        for dc in (chaos_datacenter(), DatacenterConfig()):
            for scenario in standard_scenarios(chaos_datacenter()):
                FaultInjector(faults=scenario.faults, dc=dc)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ChaosScenario(name="", description="x", faults=())
        with pytest.raises(ValueError):
            ChaosScenario(name="x", description="x", faults=(),
                          background_afr=0.0)
        with pytest.raises(ValueError):
            ChaosScenario(name="x", description="x", faults=(),
                          mission_time=0.0)


class TestCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        """One full campaign: every fault class, C/C vs D/D, 5 paired
        trials, invariants audited after every event."""
        campaign = ChaosCampaign(schemes=("C/C", "D/D"), trials=5)
        return campaign.run(seed=0)

    def test_covers_all_fault_classes_and_schemes(self, report):
        assert report.scenarios == FAULT_CLASSES
        assert report.schemes == ("C/C", "D/D")
        assert len(report.cells) == len(FAULT_CLASSES) * 2

    def test_all_invariants_hold_at_every_event(self, report):
        assert report.total_invariant_violations == 0
        assert report.total_events_checked > 10_000

    def test_rack_outage_hits_cc_harder_than_dd(self, report):
        """The paper's qualitative claim: clustered/clustered co-stripes
        whole rack groups, so correlated rack loss costs it the most."""
        cc = report.cell("rack-outage", "C/C")
        dd = report.cell("rack-outage", "D/D")
        assert cc.pdl > dd.pdl

    def test_transient_outage_is_unavailability_not_loss(self, report):
        for scheme in report.schemes:
            cell = report.cell("transient-offline", scheme)
            assert cell.pdl == 0.0
            assert cell.total_transient_outages > 0
            assert cell.total_unavailability > 0

    def test_latent_errors_detected_and_induce_cc_catastrophes(self, report):
        cc = report.cell("latent-sector-errors", "C/C")
        assert cc.total_sector_errors > 0
        assert cc.total_latent_detected > 0
        assert cc.total_latent_induced > 0

    def test_bandwidth_degradation_stalls_repairs(self, report):
        for scheme in report.schemes:
            cell = report.cell("bandwidth-degradation", scheme)
            assert cell.total_repair_replans > 0
            assert cell.mean_degraded_hours > 0

    def test_report_renders_as_text(self, report):
        text = report.to_text()
        for name in FAULT_CLASSES:
            assert name in text
        assert "PDL" in text
        assert "0 violations" in text

    def test_pdl_matrix_shape(self, report):
        assert report.pdl_matrix().shape == (4, 2)

    def test_campaign_is_deterministic(self):
        scenario = ChaosScenario(
            name="one-rack", description="x",
            faults=(RackOutage(time=86_400.0, rack=1),),
            background_afr=0.5, mission_time=5 * 86_400.0,
        )
        runs = [
            ChaosCampaign(schemes=("C/C",), trials=2,
                          scenarios=(scenario,)).run(seed=9)
            for _ in range(2)
        ]
        assert runs[0].cell("one-rack", "C/C") == runs[1].cell("one-rack", "C/C")

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            ChaosCampaign(trials=0)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ChaosCampaign(workers=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ChaosCampaign(workers=-2)


class TestChaosCLI:
    def test_end_to_end_over_all_fault_classes(self, capsys):
        """Acceptance: the chaos campaign sweeps >= 4 fault classes end to
        end through the CLI with zero invariant violations."""
        code = main(["chaos", "--schemes", "C/C,D/D", "--trials", "1"])
        out = capsys.readouterr().out
        assert code == 0
        for name in FAULT_CLASSES:
            assert name in out
        assert "0 violations" in out

    def test_scenario_filter(self, capsys):
        code = main([
            "chaos", "--schemes", "D/D", "--trials", "1",
            "--scenario", "transient-offline",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "transient-offline" in out
        assert "rack-outage" not in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["chaos", "--scenario", "meteor-strike"]) == 2
        err = capsys.readouterr().err
        assert "meteor-strike" in err


class TestGoldenArtifacts:
    """Byte pins of a small campaign: every event is still audited and the
    results are unchanged by work on the checker or the initial draws."""

    REPORT_SHA256 = (
        "d91efe772df9eb9d403659562a2b16bd74958115fb5ef232864377a7cdd1633b"
    )
    TRACE_SHA256 = (
        "bb066b5b83555979650a7416af05edd42810e2ab45abf7bf3d9208d39af04f5c"
    )

    def test_report_and_audit_counts_are_pinned(self):
        report = ChaosCampaign(trials=2).run(seed=7)
        assert report.total_events_checked == 19_037
        assert report.total_invariant_violations == 0
        blob = (
            f"{report.to_text()}\n{report.total_events_checked}\n"
            f"{report.total_invariant_violations}\n"
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == self.REPORT_SHA256

    def test_cli_trace_bytes_are_pinned(self, tmp_path, capsys):
        path = tmp_path / "chaos.jsonl"
        assert main(["chaos", "--trials", "2", "--seed", "7",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.TRACE_SHA256
