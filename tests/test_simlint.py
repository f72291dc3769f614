"""simlint: per-rule fixtures (positive / negative / suppressed), the
driver, the CLI entry points, and the clean-tree smoke check."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.simlint import RULE_REGISTRY, LintError, Linter
from repro.devtools.simlint.cli import main as simlint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"


def lint_source(tmp_path, source, *, rules=None, relpath="snippet.py"):
    """Lint one snippet written under ``tmp_path``; returns findings."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return Linter(rules=rules).run([str(target)])


def rule_ids(findings):
    return [f.rule for f in findings]


class TestRegistry:
    def test_all_rules_registered(self):
        Linter()  # triggers rule-module import
        assert set(RULE_REGISTRY) == {
            "SL001", "SL002", "SL004", "SL007", "SL008", "SL009", "SL010",
            "SL016", "SL017",
        }

    def test_rules_carry_title_and_rationale(self):
        Linter()
        for rule in RULE_REGISTRY.values():
            assert rule.title
            assert rule.rationale

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(LintError, match="SL999"):
            Linter(rules={"SL999"})


class TestSL001UnseededRng:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np
            rng = np.random.default_rng()
        """, rules={"SL001"})
        assert rule_ids(findings) == ["SL001"]
        assert findings[0].line == 3

    def test_global_state_call_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np
            np.random.seed(0)
            x = np.random.normal(0.0, 1.0)
        """, rules={"SL001"})
        assert rule_ids(findings) == ["SL001", "SL001"]

    def test_stdlib_random_import_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            import random
            from random import choice
        """, rules={"SL001"})
        assert rule_ids(findings) == ["SL001", "SL001"]

    def test_seeded_generator_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np
            a = np.random.default_rng(7)
            b = np.random.default_rng(seed=7)
            c = np.random.default_rng(np.random.SeedSequence(7))
        """, rules={"SL001"})
        assert findings == []

    def test_line_suppression(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np
            rng = np.random.default_rng()  # simlint: disable=SL001
        """, rules={"SL001"})
        assert findings == []


class TestSL002RngPlumbing:
    def test_fixed_seed_private_generator_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np

            def trial(n):
                rng = np.random.default_rng(42)
                return rng.random(n)
        """, rules={"SL002"})
        assert rule_ids(findings) == ["SL002"]

    def test_module_level_generator_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np

            _RNG = np.random.default_rng(0)

            def trial(n):
                return _RNG.random(n)
        """, rules={"SL002"})
        assert rule_ids(findings) == ["SL002"]

    def test_parameter_generator_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            def trial(rng, n):
                return rng.random(n)

            def method_style(self, n):
                return self.rng.integers(n)

            def seed_plumbed(seed, n):
                import numpy as np
                rng = np.random.default_rng(seed)
                return rng.random(n)

            def transitive_alias(self, stripe):
                rngs = self.rng_children(stripe)
                rng = rngs[0]
                return rng.choice(4)
        """, rules={"SL002"})
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np

            def trial(n):
                rng = np.random.default_rng(42)
                return rng.random(n)  # simlint: disable=SL002
        """, rules={"SL002"})
        assert findings == []


class TestSL004FloatEquality:
    def test_float_equality_in_analysis_dir_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            def f(pdl):
                return pdl == 0.0
        """, rules={"SL004"}, relpath="analysis/snippet.py")
        assert rule_ids(findings) == ["SL004"]

    def test_math_call_comparison_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            import math

            def f(x, y):
                return math.exp(x) != y
        """, rules={"SL004"}, relpath="sim/snippet.py")
        assert rule_ids(findings) == ["SL004"]

    def test_out_of_scope_directory_not_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            def f(pdl):
                return pdl == 0.0
        """, rules={"SL004"}, relpath="repair/snippet.py")
        assert findings == []

    def test_runtime_dir_in_scope(self, tmp_path):
        findings = lint_source(tmp_path, """
            def f(elapsed):
                return elapsed == 0.5
        """, rules={"SL004"}, relpath="runtime/snippet.py")
        assert rule_ids(findings) == ["SL004"]

    def test_codes_dir_in_scope(self, tmp_path):
        findings = lint_source(tmp_path, """
            def f(rate):
                return float(rate) != 1.0
        """, rules={"SL004"}, relpath="codes/snippet.py")
        assert rule_ids(findings) == ["SL004"]

    def test_int_and_order_comparisons_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            def f(n, pdl):
                return n == 3 and pdl <= 0.0 and pdl >= 1.0
        """, rules={"SL004"}, relpath="analysis/snippet.py")
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, """
            def f(pdl):
                return pdl == 0.0  # simlint: disable=SL004
        """, rules={"SL004"}, relpath="analysis/snippet.py")
        assert findings == []


class TestSL007NoPrintInLibrary:
    def test_print_in_library_module_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            def advance(state):
                print("advancing", state)
                return state
        """, rules={"SL007"}, relpath="src/repro/sim/mod.py")
        assert rule_ids(findings) == ["SL007"]
        assert findings[0].line == 3

    def test_cli_module_exempt(self, tmp_path):
        findings = lint_source(tmp_path, """
            def cmd_simulate(args):
                print("pdl", 1e-9)
        """, rules={"SL007"}, relpath="src/repro/cli.py")
        assert findings == []

    def test_reporting_module_exempt(self, tmp_path):
        findings = lint_source(tmp_path, """
            def show(table):
                print(table)
        """, rules={"SL007"}, relpath="src/repro/reporting.py")
        assert findings == []

    def test_devtools_tree_exempt(self, tmp_path):
        findings = lint_source(tmp_path, """
            def report(findings):
                print(findings)
        """, rules={"SL007"}, relpath="src/repro/devtools/simlint/x.py")
        assert findings == []

    def test_non_repro_path_out_of_scope(self, tmp_path):
        findings = lint_source(tmp_path, """
            print("scratch")
        """, rules={"SL007"})
        assert findings == []

    def test_shadowed_print_method_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            def render(doc):
                return doc.print()
        """, rules={"SL007"}, relpath="src/repro/sim/mod.py")
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, """
            def debug(state):
                print(state)  # simlint: disable=SL007
        """, rules={"SL007"}, relpath="src/repro/sim/mod.py")
        assert findings == []


class TestSL008AtomicResultWrite:
    def test_open_w_on_json_literal_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            import json

            def dump(path, snapshot):
                with open(str(path) + ".json", "w") as fh:
                    json.dump(snapshot, fh)
        """, rules={"SL008"}, relpath="src/repro/obs/mod.py")
        assert rule_ids(findings) == ["SL008"]

    def test_open_w_inside_write_json_helper_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            def write_json(path, payload):
                with open(path, "w") as fh:
                    fh.write(payload)
        """, rules={"SL008"}, relpath="src/repro/obs/mod.py")
        assert rule_ids(findings) == ["SL008"]

    def test_write_text_on_json_path_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            from pathlib import Path

            def save(text):
                Path("metrics.json").write_text(text)
        """, rules={"SL008"}, relpath="src/repro/obs/mod.py")
        assert rule_ids(findings) == ["SL008"]

    def test_append_mode_journal_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            def journal(path):
                with open(path, "a") as fh:
                    fh.write("{}\\n")
        """, rules={"SL008"}, relpath="src/repro/runtime/mod.py")
        assert findings == []

    def test_non_json_write_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
        """, rules={"SL008"}, relpath="src/repro/sim/mod.py")
        assert findings == []

    def test_read_mode_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            import json

            def load(path):
                with open(str(path) + ".json") as fh:
                    return json.load(fh)
        """, rules={"SL008"}, relpath="src/repro/obs/mod.py")
        assert findings == []

    def test_cli_and_devtools_exempt(self, tmp_path):
        for relpath in (
            "src/repro/cli.py",
            "src/repro/devtools/simlint/x.py",
            "src/repro/core/atomic.py",
        ):
            findings = lint_source(tmp_path, """
                def write_json(path, payload):
                    with open(path, "w") as fh:
                        fh.write(payload)
            """, rules={"SL008"}, relpath=relpath)
            assert findings == [], relpath

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, """
            def write_json(path, payload):
                with open(path, "w") as fh:  # simlint: disable=SL008
                    fh.write(payload)
        """, rules={"SL008"}, relpath="src/repro/obs/mod.py")
        assert findings == []


class TestSL009ExecutorBypass:
    def test_bare_constructor_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(jobs):
                with ProcessPoolExecutor(4) as pool:
                    return list(pool.map(run, jobs))
        """, rules={"SL009"}, relpath="src/repro/sim/mod.py")
        assert rule_ids(findings) == ["SL009"]

    def test_qualified_constructor_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            import concurrent.futures

            def fan_out(jobs):
                pool = concurrent.futures.ProcessPoolExecutor(max_workers=2)
                return pool
        """, rules={"SL009"}, relpath="src/repro/runtime/mod.py")
        assert rule_ids(findings) == ["SL009"]

    def test_executors_package_exempt(self, tmp_path):
        findings = lint_source(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            def make_pool(n):
                return ProcessPoolExecutor(n)
        """, rules={"SL009"}, relpath="src/repro/runtime/executors/mod.py")
        assert findings == []

    def test_devtools_and_non_repro_exempt(self, tmp_path):
        for relpath in (
            "src/repro/devtools/simlint/x.py",
            "tools/scratch.py",
        ):
            findings = lint_source(tmp_path, """
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(2)
            """, rules={"SL009"}, relpath=relpath)
            assert findings == [], relpath

    def test_import_alone_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            def annotate(pool: ProcessPoolExecutor) -> str:
                return repr(pool)
        """, rules={"SL009"}, relpath="src/repro/sim/mod.py")
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(2)  # simlint: disable=SL009
        """, rules={"SL009"}, relpath="src/repro/sim/mod.py")
        assert findings == []


class TestSL010ScalarLoopInBatchPath:
    BATCH_PATH = "src/repro/sim/batch.py"

    def test_loop_over_contexts_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            def impl(fn, contexts, args):
                out = []
                for ctx in contexts:
                    out.append(fn(ctx, *args))
                return out
        """, rules={"SL010"}, relpath=self.BATCH_PATH)
        assert rule_ids(findings) == ["SL010"]

    def test_loop_over_trial_range_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            def impl(fn, contexts, args):
                for i in range(len(contexts)):
                    pass
                for k in range(trials):
                    pass
        """, rules={"SL010"}, relpath=self.BATCH_PATH)
        assert rule_ids(findings) == ["SL010", "SL010"]

    def test_non_trial_loops_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            def walk(heap, repair_ends, pool, t):
                for event in heap:
                    pass
                active = [e for e in repair_ends.get(pool, ()) if e >= t]
                return active
        """, rules={"SL010"}, relpath=self.BATCH_PATH)
        assert findings == []

    def test_other_sim_modules_exempt(self, tmp_path):
        findings = lint_source(tmp_path, """
            def scalar_engine(fn, contexts, args):
                return [fn(ctx, *args) for ctx in contexts]

            def sweep(fn, contexts, args):
                for ctx in contexts:
                    fn(ctx, *args)
        """, rules={"SL010"}, relpath="src/repro/sim/burst.py")
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, """
            def impl(fn, contexts, args):
                for ctx in contexts:  # simlint: disable=SL010
                    fn(ctx, *args)
        """, rules={"SL010"}, relpath=self.BATCH_PATH)
        assert findings == []


class TestDriver:
    def test_findings_sorted_and_formatted(self, tmp_path):
        findings = lint_source(tmp_path, """
            import random
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert findings == sorted(findings)
        formatted = findings[0].format()
        assert "snippet.py:2:1: SL001" in formatted

    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            Linter().run(["/nonexistent/simlint-target"])

    def test_syntax_error_reported_as_sl000(self, tmp_path):
        """A broken file is a finding at path:lineno, not a crash."""
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\ndef broken(:\n")
        findings = Linter().run([str(bad)])
        assert rule_ids(findings) == ["SL000"]
        assert findings[0].path == str(bad)
        assert findings[0].line == 2
        assert "syntax error" in findings[0].message

    def test_syntax_error_does_not_block_other_files(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        findings = Linter().run([str(tmp_path)])
        assert sorted(rule_ids(findings)) == ["SL000", "SL001"]

    def test_linter_runs_are_independent(self, tmp_path):
        """Rule state must not leak between run() calls."""
        target = tmp_path / "snippet.py"
        target.write_text("import random\n")
        linter = Linter(rules={"SL001"})
        first = linter.run([str(target)])
        second = linter.run([str(target)])
        assert rule_ids(first) == rule_ids(second) == ["SL001"]


class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert simlint_main([str(clean)]) == 0

    def test_exit_one_with_rule_id_and_location(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import numpy as np\nr = np.random.default_rng()\n")
        assert simlint_main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "SL001" in out
        assert f"{dirty}:2:" in out

    def test_exit_two_on_missing_path(self, capsys):
        assert simlint_main(["/nonexistent/simlint-target"]) == 2
        assert "error" in capsys.readouterr().err

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert simlint_main([str(clean), "--rules", "SL999"]) == 2

    def test_list_rules(self, capsys):
        assert simlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in Linter().rule_ids:
            assert rule_id in out

    def test_rules_filter(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = 1.0 == 2.0\n")
        assert simlint_main([str(dirty), "--rules", "SL007"]) == 0

    def test_mlec_sim_lint_subcommand(self, tmp_path):
        """`mlec-sim lint` is simlint itself: same exit code and output."""
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}

        def run(*module):
            return subprocess.run(
                [sys.executable, "-m", *module, str(dirty)],
                capture_output=True, text=True, env=env, check=False,
            )

        via_cli = run("repro.cli", "lint")
        direct = run("repro.devtools.simlint")
        assert via_cli.returncode == direct.returncode == 1
        assert via_cli.stdout == direct.stdout
        assert "SL001" in direct.stdout


class TestSL000MetaDiagnostics:
    def test_cli_exit_one_on_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert simlint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:1:" in out
        assert "SL000" in out
        assert "syntax error" in out

    def test_unknown_pragma_rule_warns(self, tmp_path):
        findings = lint_source(tmp_path, """
            x = 1  # simlint: disable=SL001,SL999
        """)
        assert rule_ids(findings) == ["SL000"]
        assert "SL999" in findings[0].message

    def test_known_pragma_rules_do_not_warn(self, tmp_path):
        findings = lint_source(tmp_path, """
            import random  # simlint: disable=SL001
        """)
        assert findings == []

    def test_sl000_not_registrable(self):
        from repro.devtools.simlint.core import Rule, register_rule

        class Bogus(Rule):
            rule_id = "SL000"

        with pytest.raises(ValueError, match="SL000"):
            register_rule(Bogus)


class TestSuppressionEdgeCases:
    def test_pragma_on_decorated_def(self, tmp_path):
        """A finding anchored on a decorated ``def`` is suppressed by a
        pragma on the def line: ``node.lineno`` points at ``def``, not at
        the decorator, so that is where the pragma must live."""
        import ast

        from repro.devtools.simlint.core import FileContext

        source = textwrap.dedent("""
            @decorator
            def fn():  # simlint: disable=SL007
                pass
        """)
        target = tmp_path / "snippet.py"
        target.write_text(source)
        ctx = FileContext(target, str(target), source)
        fn = next(
            n for n in ast.walk(ctx.tree) if isinstance(n, ast.FunctionDef)
        )
        finding = ctx.finding("SL007", fn, "demo")
        assert finding.line == 3  # the def line, below the decorator
        assert ctx.is_suppressed("SL007", finding.line)
        assert not ctx.is_suppressed("SL007", 2)  # decorator line: no

    def test_disable_file_effective_anywhere_in_file(self, tmp_path):
        """disable-file applies file-wide even below the first finding."""
        findings = lint_source(tmp_path, """
            import numpy as np

            rng = np.random.default_rng()

            # simlint: disable-file=SL001
        """, rules={"SL001"})
        assert findings == []

    def test_multiple_rules_in_one_pragma(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np

            def f(pdl):
                return np.random.default_rng(), pdl == 0.0  # simlint: disable=SL001,SL004
        """, rules={"SL001", "SL004"}, relpath="analysis/snippet.py")
        assert findings == []

    def test_pragma_suppresses_only_named_rules(self, tmp_path):
        findings = lint_source(tmp_path, """
            import numpy as np

            def f(pdl):
                return np.random.default_rng(), pdl == 0.0  # simlint: disable=SL004
        """, rules={"SL001", "SL004"}, relpath="analysis/snippet.py")
        assert rule_ids(findings) == ["SL001"]


class TestSL016SpanDiscipline:
    def test_bare_begin_span_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            def run(self):
                opened = self.spans.begin_span("span.sweep", key=("sweep", 1))
                self.spans.end_span(opened)
        """, rules={"SL016"})
        assert rule_ids(findings) == ["SL016"]
        assert "begin_span" in findings[0].message

    def test_span_context_manager_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            def run(self):
                with self.spans.span("span.sweep", key=("sweep", 1)):
                    pass
        """, rules={"SL016"})
        assert findings == []

    def test_emit_is_exempt(self, tmp_path):
        findings = lint_source(tmp_path, """
            def run(self):
                self.spans.emit("span.attempt", start=0.0, duration=1.0)
        """, rules={"SL016"})
        assert findings == []

    def test_multi_item_with_statement_clean(self, tmp_path):
        findings = lint_source(tmp_path, """
            def run(self, lock):
                with lock, self.spans.span("span.sweep"):
                    pass
        """, rules={"SL016"})
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, """
            def run(self):
                self._open = self.spans.begin_span("span.campaign")  # simlint: disable=SL016
        """, rules={"SL016"})
        assert findings == []

    def test_tracer_implementation_out_of_scope(self, tmp_path):
        findings = lint_source(tmp_path, """
            def span(self, kind):
                opened = self.begin_span(kind)
                try:
                    yield opened
                finally:
                    self.end_span(opened)
        """, rules={"SL016"}, relpath="obs/spans.py")
        assert findings == []


class TestSL017BlockingCallInAsync:
    def test_time_sleep_in_coroutine_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            async def handler(request):
                time.sleep(1.0)
        """, rules={"SL017"}, relpath="service/daemon.py")
        assert rule_ids(findings) == ["SL017"]
        assert "asyncio.sleep" in findings[0].message

    def test_blocking_socket_ops_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            import socket

            async def dial(sock):
                socket.create_connection(("h", 80))
                sock.recv(1024)
                sock.sendall(b"x")
        """, rules={"SL017"}, relpath="service/daemon.py")
        assert rule_ids(findings) == ["SL017", "SL017", "SL017"]

    def test_direct_runner_use_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            from repro.runtime import ResilientRunner

            async def execute(self, runner):
                local = ResilientRunner(workers=2)
                runner.run(trial, 100)
                self.runner.map(trial, 100)
        """, rules={"SL017"}, relpath="service/executor.py")
        assert rule_ids(findings) == ["SL017", "SL017", "SL017"]
        assert "offload" in findings[1].message

    def test_offload_closure_is_exempt(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            async def execute(self, runner):
                def blocking():
                    time.sleep(0.1)
                    return runner.run(trial, 100)
                return await offload(blocking)
        """, rules={"SL017"}, relpath="service/daemon.py")
        assert findings == []

    def test_sync_function_is_exempt(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            def blocking_helper():
                time.sleep(1.0)
        """, rules={"SL017"}, relpath="service/store.py")
        assert findings == []

    def test_nested_async_def_still_in_scope(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            async def outer():
                async def inner():
                    time.sleep(1.0)
                await inner()
        """, rules={"SL017"}, relpath="service/daemon.py")
        assert rule_ids(findings) == ["SL017"]

    def test_outside_service_package_out_of_scope(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            async def poll():
                time.sleep(1.0)
        """, rules={"SL017"}, relpath="runtime/poller.py")
        assert findings == []

    def test_non_socket_receiver_not_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            async def apply(self, queue):
                queue.connect("amqp://")  # not a socket-named receiver
        """, rules={"SL017"}, relpath="service/daemon.py")
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time

            async def shim():
                time.sleep(0.0)  # simlint: disable=SL017
        """, rules={"SL017"}, relpath="service/daemon.py")
        assert findings == []


class TestCleanTree:
    def test_src_repro_lints_clean(self):
        """The acceptance gate: the shipped tree has zero findings."""
        assert SRC_TREE.is_dir()
        findings = Linter().run([str(SRC_TREE)])
        assert findings == []
