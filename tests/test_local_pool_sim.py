"""Local-pool simulator vs the Markov chain (the paper's cross-check)."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.analysis.markov import PoolReliabilityChain
from repro.core.config import YEAR
from repro.sim.failures import ExponentialFailures, TraceFailures
from repro.sim.local_pool import LocalPoolSimulator

COMMON_CP = dict(
    pool_disks=20, stripe_width=20, parities=3, clustered=True,
    disk_capacity_bytes=20e12, chunk_size_bytes=128 * 1024,
    repair_rate=40e6, detection_time=1800,
)
COMMON_DP = dict(
    pool_disks=120, stripe_width=20, parities=3, clustered=False,
    disk_capacity_bytes=20e12, chunk_size_bytes=128 * 1024,
    repair_rate=264e6, detection_time=1800,
)


def run_years(sim, years, seed0=0):
    total = 0
    samples = []
    for s in range(years):
        r = sim.run(mission_time=YEAR, seed=seed0 + s)
        total += r.n_catastrophic
        samples.extend(r.catastrophic_samples)
    return total, samples


class TestAgainstMarkov:
    def test_clustered_rate_within_order_of_magnitude(self):
        afr = 0.4
        sim = LocalPoolSimulator(**COMMON_CP, failure_model=ExponentialFailures(afr))
        total, _ = run_years(sim, 1200)
        chain = PoolReliabilityChain(
            **COMMON_CP, failure_rate=-np.log1p(-afr) / YEAR
        )
        ratio = (total / 1200) / chain.catastrophic_rate_per_year()
        # Deterministic repairs in the simulator vs exponential service in
        # the chain: the chain is conservative by a small constant factor.
        assert 0.05 < ratio < 2.0

    def test_declustered_rate_within_order_of_magnitude(self):
        afr = 0.8  # high enough to observe tens of events in 300 years
        sim = LocalPoolSimulator(**COMMON_DP, failure_model=ExponentialFailures(afr))
        total, _ = run_years(sim, 300)
        chain = PoolReliabilityChain(
            **COMMON_DP, failure_rate=-np.log1p(-afr) / YEAR
        )
        ratio = (total / 300) / chain.catastrophic_rate_per_year()
        assert 0.1 < ratio < 5.0

    def test_declustered_far_more_durable_than_clustered(self):
        """Figure 7's headline, observed in simulation at accelerated AFR."""
        afr = 0.5
        cp = LocalPoolSimulator(**COMMON_CP, failure_model=ExponentialFailures(afr))
        dp = LocalPoolSimulator(**COMMON_DP, failure_model=ExponentialFailures(afr))
        cp_events, _ = run_years(cp, 600)
        dp_events, _ = run_years(dp, 600)
        # Per-disk exposure is 6x higher in the Dp pool, yet it sees far
        # fewer catastrophes.
        assert dp_events < cp_events


class TestLostStripeSamples:
    def test_clustered_loses_whole_pool(self):
        afr = 0.5
        sim = LocalPoolSimulator(**COMMON_CP, failure_model=ExponentialFailures(afr))
        _, samples = run_years(sim, 600)
        assert samples, "expected some catastrophes at AFR 0.5"
        assert all(s.lost_fraction == 1.0 for s in samples)

    def test_declustered_loses_tiny_fraction(self):
        afr = 0.8
        sim = LocalPoolSimulator(**COMMON_DP, failure_model=ExponentialFailures(afr))
        _, samples = run_years(sim, 200)
        assert samples, "expected some catastrophes at AFR 0.8"
        assert all(s.lost_fraction < 0.05 for s in samples)


class TestDeterminismAndEdges:
    def test_deterministic_given_seed(self):
        sim = LocalPoolSimulator(**COMMON_DP, failure_model=ExponentialFailures(0.5))
        a = sim.run(mission_time=YEAR, seed=42)
        b = sim.run(mission_time=YEAR, seed=42)
        assert a.n_failures == b.n_failures
        assert a.n_catastrophic == b.n_catastrophic

    def test_no_failures_no_catastrophes(self):
        sim = LocalPoolSimulator(
            **COMMON_CP, failure_model=TraceFailures([])
        )
        r = sim.run(mission_time=YEAR, seed=0)
        assert r.n_failures == 0
        assert r.n_catastrophic == 0

    def test_forced_catastrophe_via_trace(self):
        """4 near-simultaneous failures in a clustered pool must lose."""
        trace = TraceFailures([(100.0, 0), (101.0, 1), (102.0, 2), (103.0, 3)])
        sim = LocalPoolSimulator(**COMMON_CP, failure_model=trace)
        r = sim.run(mission_time=10_000.0, seed=0)
        assert r.n_catastrophic == 1
        assert r.catastrophic_samples[0].time == 103.0

    def test_three_failures_not_catastrophic(self):
        trace = TraceFailures([(100.0, 0), (101.0, 1), (102.0, 2)])
        sim = LocalPoolSimulator(**COMMON_CP, failure_model=trace)
        r = sim.run(mission_time=10_000.0, seed=0)
        assert r.n_catastrophic == 0
        assert r.max_concurrent_failures == 3

    def test_stop_at_first_catastrophe(self):
        trace = TraceFailures(
            [(100.0, 0), (101.0, 1), (102.0, 2), (103.0, 3), (104.0, 4)]
        )
        sim = LocalPoolSimulator(**COMMON_CP, failure_model=trace)
        r = sim.run(mission_time=10_000.0, seed=0, stop_at_first_catastrophe=True)
        assert r.n_catastrophic == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalPoolSimulator(
                pool_disks=10, stripe_width=20, parities=3, clustered=False,
                disk_capacity_bytes=1e12, chunk_size_bytes=1024,
                repair_rate=1e6, detection_time=0,
            )


class TestGoldenArtifacts:
    """Byte pins of one lossy 20-year mission per pool kind and stop rule."""

    DIGESTS = {
        ("clustered", False): (
            "32382c263b6bcc85a9e6ec99e5b34c12e8962f4a863ff691fccdb1f156a3e344"
        ),
        ("clustered", True): (
            "e825d219468beac9c648938eb563fa931d0692db68aac2668c8bb71a364294ca"
        ),
        ("declustered", False): (
            "888859b79a1718273683d7778c154bdfde58f09498eb10c97146036bc80c10fb"
        ),
        ("declustered", True): (
            "04ba5d0c3d2c5561b5c825e2b3d7d1c956e7ea7a0b5597a8eccffeb3636be162"
        ),
    }

    @pytest.mark.parametrize("kind,stop", sorted(DIGESTS))
    def test_lossy_mission_is_pinned(self, kind, stop):
        common = COMMON_CP if kind == "clustered" else COMMON_DP
        sim = LocalPoolSimulator(**common, failure_model=ExponentialFailures(0.9))
        r = sim.run(mission_time=20 * YEAR, seed=0, stop_at_first_catastrophe=stop)
        # the pin covers the loss path, and stopping early changes the run
        if stop:
            assert r.n_catastrophic == 1
        else:
            assert r.n_catastrophic > 1
        blob = json.dumps(dataclasses.asdict(r), separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == self.DIGESTS[(kind, stop)]
