"""Chaos campaign: the full fault-injection sweep.

Runs a complete robustness campaign -- every standard fault scenario
(rack outage, transient offline, latent sector errors, bandwidth
degradation) against C/C and D/D with invariants audited after every
event -- and emits the structured robustness report.
"""

from _harness import emit

from repro.faults import ChaosCampaign, standard_scenarios


def test_fault_injection_campaign():
    report = ChaosCampaign(schemes=("C/C", "D/D"), trials=3).run(seed=0)
    emit("fault_injection_campaign", report.to_text())

    assert report.total_invariant_violations == 0
    assert report.total_events_checked > 1000
    # Correlated rack loss must hurt the fully clustered scheme the most.
    # The PDLs are about 0.42 and 0.32, so the campaign's 3 trials cannot
    # order them; a 200-trial rack-outage campaign without invariant
    # checks does.
    rack_outage = [s for s in standard_scenarios() if s.name == "rack-outage"]
    ordering = ChaosCampaign(
        schemes=("C/C", "D/D"), trials=200, scenarios=rack_outage,
        check_invariants=False,
    ).run(seed=0)
    cc = ordering.cell("rack-outage", "C/C")
    dd = ordering.cell("rack-outage", "D/D")
    assert cc.pdl > dd.pdl
    # Transient faults cost availability, never durability.
    assert report.cell("transient-offline", "C/C").pdl == 0.0
