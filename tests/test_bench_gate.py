"""perfbench A/B gate: bound, direction, majority of pairs, unusable runs."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
BASELINE = {"setup_s": 1.0, "trials_per_s": 100.0, "rss_peak_mb": 200.0}


@pytest.fixture()
def gate(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, "check_regression", module)
    spec.loader.exec_module(module)
    return module


def result_line(*, correct=True, attempted=100, failed=0, **metrics):
    """A perfbench result line with the end-to-end metrics of BASELINE."""
    values = BASELINE | metrics
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()},
    })


def run(gate, returncode=0, **fields):
    report = "perfbench burst-grid: seed 1, 15 s, untraced\nchecks:\n"
    return gate.Run(returncode, report + result_line(**fields) + "\n")


def pairs(gate, metric, head_values):
    """One (baseline, head) pair per value of ``metric`` on the head side."""
    return [(run(gate), run(gate, **{metric: v})) for v in head_values]


def failures(rows):
    return {row.metric: row.note for row in rows if not row.ok}


class TestCheck:
    def test_within_tolerance_passes(self, gate):
        rows = gate.check(SPEC, "w", pairs(gate, "trials_per_s", [80, 90, 95, 85, 99]))
        assert failures(rows) == {}
        assert {row.metric for row in rows} == {
            "setup_s", "trials_per_s", "rss_peak_mb", "failed share"
        }

    def test_drop_beyond_tolerance_fails(self, gate):
        """Worse than the 25% bound by median and in 3 of 5 pairs."""
        rows = gate.check(SPEC, "w", pairs(gate, "trials_per_s", [60, 70, 70, 99, 99]))
        assert list(failures(rows)) == ["trials_per_s"]
        assert "3/5 pairs worse" in failures(rows)["trials_per_s"]

    def test_one_outlier_pair_passes(self, gate):
        rows = gate.check(SPEC, "w", pairs(gate, "trials_per_s", [10, 99, 99, 99, 99]))
        assert failures(rows) == {}

    def test_worse_median_needs_a_majority_of_pairs(self, gate):
        # Head's median (49) is 51% below base's (100), but only the first
        # two pairs are worse than the bound.
        assert gate.MAJORITY == 3
        values = [(100, 10), (100, 70), (100, 80), (50, 49), (50, 49)]
        runs = [
            (run(gate, trials_per_s=b), run(gate, trials_per_s=h)) for b, h in values
        ]
        rows = gate.check(SPEC, "w", runs)
        assert failures(rows) == {}
        assert "-51.0% by median, 2/5 pairs worse" in rows[1].note

    def test_tolerance_widens_the_floor(self, gate):
        """The bound is read from BENCHMARK.json, not from the code."""
        runs = pairs(gate, "trials_per_s", [60, 70, 70, 99, 99])
        loose = copy.deepcopy(SPEC)
        for metric in loose["end_to_end"]:
            metric["bound"] = 0.5
        assert failures(gate.check(SPEC, "w", runs))
        assert failures(gate.check(loose, "w", runs)) == {}

    def test_speedup_always_passes(self, gate):
        rows = gate.check(SPEC, "w", pairs(gate, "trials_per_s", [1500] * 5))
        assert failures(rows) == {}

    @pytest.mark.parametrize("metric", ["setup_s", "rss_peak_mb"])
    def test_lower_is_better(self, gate, metric):
        base = BASELINE[metric]
        higher = gate.check(SPEC, "w", pairs(gate, metric, [base * 1.5] * 5))
        assert list(failures(higher)) == [metric]
        lower = gate.check(SPEC, "w", pairs(gate, metric, [base * 0.5] * 5))
        assert failures(lower) == {}

    def test_correct_false_fails(self, gate):
        runs = [(run(gate), run(gate))] * 4 + [(run(gate), run(gate, correct=False))]
        assert failures(gate.check(SPEC, "w", runs)) == {
            "head run 5": '"correct": false'
        }

    def test_nonzero_exit_fails(self, gate):
        runs = [(run(gate), run(gate))] * 4 + [(run(gate, returncode=1), run(gate))]
        assert failures(gate.check(SPEC, "w", runs)) == {"base run 5": "exit 1"}

    def test_missing_baseline_fails(self, gate):
        runs = [(gate.Run(1, "Traceback ...\n"), run(gate))] * 5
        rows = gate.check(SPEC, "w", runs)
        assert failures(rows)["base run 1"] == "no result line (exit 1)"

    def test_missing_fresh_record_fails(self, gate):
        runs = [(run(gate), gate.Run(0, ""))] * 5
        rows = gate.check(SPEC, "w", runs)
        assert failures(rows)["head run 3"] == "no result line (exit 0)"
        assert "not reported" in failures(rows)["trials_per_s"]

    def test_corrupt_record_fails_not_crashes(self, gate):
        truncated = gate.Run(0, result_line()[:40] + "\n")
        runs = [(run(gate), run(gate))] * 4 + [(run(gate), truncated)]
        assert failures(gate.check(SPEC, "w", runs)) == {
            "head run 5": "truncated result line"
        }

    def test_higher_failed_share_fails(self, gate):
        runs = [(run(gate, failed=1), run(gate, failed=2))] * 5
        assert failures(gate.check(SPEC, "w", runs)) == {
            "failed share": "0.02 vs base 0.01"
        }
        same = [(run(gate, failed=1), run(gate, failed=1))] * 5
        assert failures(gate.check(SPEC, "w", same)) == {}


class TestMain:
    @pytest.fixture()
    def calls(self, gate, monkeypatch):
        """Record the workloads main() runs; every head run gets ``head``."""
        seen = []
        head = {}

        def fake_run_pairs(spec, base_dir, head_dir, workload):
            seen.append(workload)
            return [(run(gate), run(gate, **head))] * gate.PAIRS

        monkeypatch.setattr(gate, "run_pairs", fake_run_pairs)
        return seen, head

    def test_exit_codes_and_summary(self, gate, calls, monkeypatch, tmp_path, capsys):
        _, head = calls
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert gate.main(["base", str(REPO_ROOT), "burst-grid"]) == 0
        assert "| burst-grid | trials_per_s |" in summary.read_text()
        assert "PASS" in capsys.readouterr().out

        head["trials_per_s"] = 50.0
        assert gate.main(["base", str(REPO_ROOT), "burst-grid"]) == 1
        assert "**FAIL**" in summary.read_text()

    def test_default_workloads_are_every_benchmark_workload(self, gate, calls):
        seen, _ = calls
        assert gate.main(["base", str(REPO_ROOT)]) == 0
        assert seen == [w["name"] for w in SPEC["workloads"]]
        assert "burst-grid" in seen

    def test_unknown_workload_exits_two(self, gate, calls, capsys):
        with pytest.raises(SystemExit) as excinfo:
            gate.main(["base", str(REPO_ROOT), "no-such-workload"])
        assert excinfo.value.code == 2
        assert "no-such-workload" in capsys.readouterr().err
