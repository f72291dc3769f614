"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, parse_mlec_code
from repro.core.config import MLECParams


class TestCodeParsing:
    def test_plain_form(self):
        assert parse_mlec_code("10+2/17+3") == MLECParams(10, 2, 17, 3)

    def test_parenthesized_form(self):
        assert parse_mlec_code("(5+1)/(5+1)") == MLECParams(5, 1, 5, 1)

    def test_bad_form_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_mlec_code("10,2,17,3")


class TestImportCost:
    def test_fresh_import_loads_neither_scipy_stats_nor_the_daemon(self):
        """The CLI, the batch engine and the sweep spec stay cheap to
        import: no scipy module loads until an analysis needs one (a
        hypergeometric, a special function), and the service daemon
        loads only when ``serve`` runs."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        probe = (
            "import sys\n"
            "import repro.cli, repro.sim.batch, repro.service.spec\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'\n"
            "             or m == 'repro.service.daemon'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout
        assert out.strip() == "[]"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "C/D"]) == 0
        out = capsys.readouterr().out
        assert "(10+2)/(17+3) C/D" in out
        assert "any disks       : 11" in out
        assert "y <= x + 8" in out

    def test_info_custom_code(self, capsys):
        assert main(["info", "C/C", "--code", "5+1/5+1"]) == 0
        out = capsys.readouterr().out
        assert "(5+1)/(5+1)" in out

    def test_burst_exact(self, capsys):
        assert main(["burst", "C/C", "-y", "11", "-x", "3", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "guaranteed survivable: yes" in out

    def test_burst_monte_carlo(self, capsys):
        assert main([
            "burst", "D/D", "-y", "60", "-x", "3", "--trials", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo" in out
        assert "guaranteed survivable: no" in out

    def test_burst_workers_bitwise_identical(self, capsys):
        """--workers 4 must print exactly what --workers 1 prints."""
        base = ["burst", "D/D", "-y", "60", "-x", "3",
                "--trials", "24", "--seed", "5"]
        assert main(base + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--workers", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "95% CI" in serial

    def test_simulate_trials_fanout(self, capsys):
        code = main([
            "simulate", "C/D", "--months", "1", "--seed", "3",
            "--trials", "2", "--workers", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "trials with data loss: 0/2" in out

    def test_repair(self, capsys):
        assert main(["repair", "C/D"]) == 0
        out = capsys.readouterr().out
        for method in ("RALL", "RFCO", "RHYB", "RMIN"):
            assert method in out
        assert "2.64e+04" in out  # R_ALL's 26,400 TB

    def test_durability(self, capsys):
        assert main(["durability", "C/D", "--method", "RMIN"]) == 0
        out = capsys.readouterr().out
        assert "nines/year" in out

    def test_tradeoff(self, capsys):
        assert main(["tradeoff", "C/C", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out

    def test_simulate_quiet_year(self, capsys):
        code = main([
            "simulate", "C/D", "--months", "1", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0  # no data loss at nominal rates
        assert "disk failures" in out

    def test_traffic(self, capsys):
        assert main(["traffic", "C/D"]) == 0
        out = capsys.readouterr().out
        assert "Net-Dp-S (7+3)" in out
        assert "LRC-Dp (14,2,4)" in out
        assert "MLEC C/D RMIN" in out

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "X/Y"])


class TestErrorHandling:
    """Invalid inputs exit with code 2 and a one-line diagnostic."""

    def test_incompatible_code_exits_2(self, capsys):
        # 16+3 = 19-disk pools do not divide the 120-disk enclosures.
        assert main(["info", "C/C", "--code", "10+2/16+3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mlec-sim: error:")
        assert err.count("\n") == 1

    def test_non_positive_mission_exits_2(self, capsys):
        assert main(["simulate", "C/C", "--months", "0"]) == 2
        assert "mission_time" in capsys.readouterr().err

    def test_bad_tradeoff_input_exits_2(self, capsys):
        assert main(["durability", "C/C", "--afr", "2.0"]) == 2
        assert "mlec-sim: error:" in capsys.readouterr().err
