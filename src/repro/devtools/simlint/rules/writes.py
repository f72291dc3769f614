"""SL008 atomic-result-write: results files are written atomically.

Results artifacts -- ``*.json`` metrics snapshots, ``*.jsonl`` trace
streams, service ``result.json`` files -- are consumed by resume paths,
trace reports, and CI byte-comparison gates.  A plain ``open(path, "w")``
or ``Path.write_text`` truncates the target *before* the new bytes land,
so a writer killed mid-write (the exact failure the resilience layer is
built to survive) leaves a corrupt half-file that poisons every later
consumer.  Library code must route such writes through
:func:`repro.core.atomic.atomic_write_text`, which stages the payload in
a same-directory temp file, fsyncs, and renames over the target.

The rule flags a write call when the written path plausibly names a JSON
results file: either an argument mentions ``.json``/``.jsonl`` or the
enclosing function's name contains ``json``/``jsonl`` (the
``write_json``-style helper idiom).  Append-mode journals (WAL files that
*want* incremental durability) are not flagged.  Scope and exemptions
mirror SL007: ``repro`` library modules only, with ``cli.py``,
``reporting.py``, the ``devtools`` tree, and the atomic helper itself
exempt.
"""

from __future__ import annotations

import ast

from ..core import FileContext, Finding, Rule, register_rule

__all__ = ["AtomicResultWrite"]

_EXEMPT_FILES = frozenset({"cli.py", "reporting.py", "atomic.py"})
_EXEMPT_DIRS = frozenset({"devtools"})

#: open() mode strings that truncate or create the target destructively.
#: Append ("a") is deliberately not listed: WAL-style journals append by
#: design and never rewrite completed records.
_DESTRUCTIVE_MODES = frozenset(
    {"w", "wt", "tw", "w+", "+w", "wb", "bw", "x", "xt", "xb"}
)

_WRITE_ATTRS = frozenset({"write_text", "write_bytes"})


def _mentions_json(node: ast.AST) -> bool:
    """Does any literal/expression under ``node`` reference a JSON path?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if ".json" in sub.value:  # covers .jsonl too
                return True
        elif isinstance(sub, (ast.Name, ast.Attribute)):
            text = ast.unparse(sub).lower()
            if "json" in text:
                return True
    return False


def _open_mode(call: ast.Call) -> str | None:
    """The literal mode of an ``open()`` call, if statically known."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


@register_rule
class AtomicResultWrite(Rule):
    """SL008: JSON results files must be written via the atomic helper."""

    rule_id = "SL008"
    title = "atomic-result-write"
    rationale = (
        "open(.., 'w')/write_text on a .json/.jsonl results path truncates "
        "before writing, so a killed run leaves a corrupt artifact; route "
        "the write through repro.core.atomic.atomic_write_text."
    )

    @staticmethod
    def _in_scope(ctx: FileContext) -> bool:
        parts = ctx.path.parts
        if "repro" not in parts:
            return False
        if _EXEMPT_DIRS.intersection(parts):
            return False
        return ctx.path.name not in _EXEMPT_FILES

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        if not self._in_scope(ctx):
            return []
        findings: list[Finding] = []
        self._walk(ctx, ctx.tree, False, findings)
        return findings

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        fn_is_jsonish: bool,
        findings: list[Finding],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn_is_jsonish = "json" in node.name.lower()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                self._check_call(ctx, child, fn_is_jsonish, findings)
            self._walk(ctx, child, fn_is_jsonish, findings)

    def _check_call(
        self,
        ctx: FileContext,
        call: ast.Call,
        fn_is_jsonish: bool,
        findings: list[Finding],
    ) -> None:
        targets_json = fn_is_jsonish or any(
            _mentions_json(arg) for arg in call.args
        ) or any(_mentions_json(kw.value) for kw in call.keywords)
        if isinstance(call.func, ast.Attribute):
            # The path usually lives in the receiver:
            # Path("metrics.json").write_text(...)
            targets_json = targets_json or _mentions_json(call.func.value)
        if not targets_json:
            return
        if isinstance(call.func, ast.Name) and call.func.id == "open":
            mode = _open_mode(call)
            if mode is not None and mode.replace("+", "") in {
                m.replace("+", "") for m in _DESTRUCTIVE_MODES
            }:
                findings.append(ctx.finding(
                    self.rule_id, call,
                    f"open(..., {mode!r}) truncates a JSON results file in "
                    "place; use repro.core.atomic.atomic_write_text",
                ))
        elif (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _WRITE_ATTRS
        ):
            findings.append(ctx.finding(
                self.rule_id, call,
                f".{call.func.attr}() rewrites a JSON results file in "
                "place; use repro.core.atomic.atomic_write_text",
            ))
