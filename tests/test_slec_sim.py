"""SLEC/LRC system simulator: statistics, losses, traffic reconciliation."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.config import DatacenterConfig, LRCParams, SLECParams, YEAR
from repro.core.scheme import LRCScheme, SLECScheme
from repro.core.types import Level, Placement
from repro.faults import FaultInjector
from repro.repair.traffic_comparison import (
    lrc_annual_cross_rack_traffic,
    slec_annual_cross_rack_traffic,
)
from repro.obs import MetricsRegistry, TraceRecorder
from repro.sim.failures import ExponentialFailures, TraceFailures
from repro.sim.slec_sim import SLECSystemSimulator


def slec(level, placement, k=7, p=3):
    return SLECScheme(SLECParams(k, p), level, placement)


#: An 800-disk deployment (20 racks x 2 enclosures x 20 disks): small
#: enough for a one-year run in milliseconds, dense enough that every
#: layout loses data at AFR 0.9.
PIN_DC = DatacenterConfig(racks=20, enclosures_per_rack=2, disks_per_enclosure=20)


class TestStatistics:
    def test_failure_count_matches_afr(self):
        sim = SLECSystemSimulator(slec(Level.NETWORK, Placement.DECLUSTERED))
        r = sim.run(mission_time=YEAR / 2, seed=0)
        expected = 57_600 * -np.log1p(-0.01) / 2
        assert abs(r.n_disk_failures - expected) < 5 * np.sqrt(expected)

    def test_local_slec_traffic_stays_in_rack(self):
        sim = SLECSystemSimulator(slec(Level.LOCAL, Placement.CLUSTERED))
        r = sim.run(mission_time=YEAR / 4, seed=1)
        assert r.cross_rack_repair_bytes == 0.0
        assert r.intra_rack_repair_bytes > 0

    def test_network_traffic_reconciles_with_closed_form(self):
        """Simulated cross-rack TB/day must match the §5.1.4 model."""
        scheme = slec(Level.NETWORK, Placement.DECLUSTERED)
        sim = SLECSystemSimulator(scheme)
        r = sim.run(mission_time=YEAR, seed=2)
        analytic = slec_annual_cross_rack_traffic(scheme).tb_per_day
        assert r.cross_rack_tb_per_day == pytest.approx(analytic, rel=0.15)

    def test_lrc_traffic_reconciles_with_closed_form(self):
        scheme = LRCScheme(LRCParams(14, 2, 4))
        sim = SLECSystemSimulator(scheme)
        r = sim.run(mission_time=YEAR, seed=3)
        analytic = lrc_annual_cross_rack_traffic(scheme).tb_per_day
        assert r.cross_rack_tb_per_day == pytest.approx(analytic, rel=0.15)

    def test_lrc_cheaper_than_width_matched_slec(self):
        """§5.2.4 at the simulation level."""
        lrc = SLECSystemSimulator(LRCScheme(LRCParams(14, 2, 4)))
        wide = SLECSystemSimulator(slec(Level.NETWORK, Placement.DECLUSTERED, 14, 6))
        r_lrc = lrc.run(mission_time=YEAR / 2, seed=4)
        r_slec = wide.run(mission_time=YEAR / 2, seed=4)
        assert r_lrc.cross_rack_repair_bytes < r_slec.cross_rack_repair_bytes


class TestDataLoss:
    def test_quiet_at_nominal_rates_for_tolerant_schemes(self):
        for scheme in (
            slec(Level.LOCAL, Placement.CLUSTERED),
            LRCScheme(LRCParams(14, 2, 4)),
        ):
            r = SLECSystemSimulator(scheme).run(mission_time=YEAR / 4, seed=5)
            assert not r.lost_data

    def test_forced_loss_local_cp_via_trace(self):
        """p+1 = 4 simultaneous failures in one (7+3) pool lose data."""
        events = [(100.0 + i, d) for i, d in enumerate(range(4))]
        sim = SLECSystemSimulator(
            slec(Level.LOCAL, Placement.CLUSTERED),
            failure_model=TraceFailures(events),
        )
        r = sim.run(mission_time=10_000.0, seed=6)
        assert r.data_loss_events == 1
        assert r.first_loss_time == pytest.approx(103.0)

    def test_three_failures_survive_local_cp(self):
        events = [(100.0 + i, d) for i, d in enumerate(range(3))]
        sim = SLECSystemSimulator(
            slec(Level.LOCAL, Placement.CLUSTERED),
            failure_model=TraceFailures(events),
        )
        assert not sim.run(mission_time=10_000.0, seed=7).lost_data

    def test_loc_dp_loses_under_accelerated_failures(self):
        """Local-Dp's large pools see losses once the AFR is pushed."""
        sim = SLECSystemSimulator(
            slec(Level.LOCAL, Placement.DECLUSTERED),
            failure_model=ExponentialFailures(0.3),
        )
        r = sim.run(mission_time=YEAR, seed=8)
        assert r.n_disk_failures > 10_000
        assert r.data_loss_events > 0

    def test_injected_faults_are_rejected_not_dropped(self):
        """SLEC has no handler for scrubs or outages: a fault injector's
        events raise instead of vanishing from the run."""
        injector = FaultInjector(dc=PIN_DC, scrub_period=YEAR / 12)
        sim = SLECSystemSimulator(
            SLECScheme(SLECParams(7, 3), Level.LOCAL, Placement.CLUSTERED, PIN_DC),
            failure_model=injector,
        )
        with pytest.raises(ValueError, match="cannot handle"):
            sim.run(mission_time=YEAR, seed=0)

    def test_net_dp_alignment_protects_at_moderate_rates(self):
        """A system-wide declustered pool has few critical stripes, so the
        4th concurrent failure rarely aligns -- no loss in a short run even
        at 10x the nominal AFR."""
        sim = SLECSystemSimulator(
            slec(Level.NETWORK, Placement.DECLUSTERED),
            failure_model=ExponentialFailures(0.1),
        )
        r = sim.run(mission_time=YEAR / 2, seed=9)
        assert r.n_disk_failures > 2000
        assert r.data_loss_events < 3


class TestGoldenArtifacts:
    """Byte pins of one lossy year per layout: result, trace and metrics."""

    DIGESTS = {
        "Loc-Cp": "8367596b4e983142c85d061e30c7978a8e3453cc693f043653adfb93bc3a792d",
        "Loc-Dp": "06693ae5bac427909015c92b81cb01443ba6e1241cd13d49a7d0d4d976550bc5",
        "Net-Cp": "25c270c8a745738044bb2da449122c70b9e9e320d3ec13001c0a029db3206d6c",
        "Net-Dp": "01b5b75524594ccdd0fc6b6789bd80a45034b9202477177482e955ff5416a860",
        "LRC": "d346ed8b37d152923b92164efd0eaabba161a243cf391625c33843b3fe22ff7c",
    }

    @staticmethod
    def scheme(layout):
        if layout == "LRC":
            return LRCScheme(LRCParams(14, 2, 4), PIN_DC)
        level = Level.LOCAL if layout.startswith("Loc") else Level.NETWORK
        placement = (
            Placement.CLUSTERED if layout.endswith("Cp") else Placement.DECLUSTERED
        )
        return SLECScheme(SLECParams(7, 3), level, placement, PIN_DC)

    @pytest.mark.parametrize("layout", sorted(DIGESTS))
    def test_lossy_year_is_pinned(self, layout):
        sim = SLECSystemSimulator(
            self.scheme(layout), failure_model=ExponentialFailures(0.9)
        )
        recorder, metrics = TraceRecorder(), MetricsRegistry()
        r = sim.run(mission_time=YEAR, seed=0, recorder=recorder, metrics=metrics)
        assert r.data_loss_events > 0  # the pin covers the loss path
        blob = json.dumps(
            [dataclasses.asdict(r), recorder.records, metrics.snapshot()],
            separators=(",", ":"),
        )
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == self.DIGESTS[layout]
