"""simlint core: findings, suppressions, the rule registry, the driver.

simlint is an AST-based static-analysis tool for *this* codebase: its rules
encode simulation contracts (seeded randomness, no float equality in the
numerical core, library hygiene, span and event-loop discipline) that
ordinary linters cannot know about.  Everything is stdlib-only (``ast`` +
``tokenize``-free line scanning), so the tool adds no runtime dependency.

Rules are classes registered by id (``SL001`` ...).  Each rule sees one
file at a time via :meth:`Rule.visit_file`, so a file's findings depend
on that file alone.

Suppression is per line and per rule::

    risky_call()  # simlint: disable=SL001
    other()       # simlint: disable=SL001,SL004

or for a whole file (anywhere in the file, conventionally at the top)::

    # simlint: disable-file=SL007

``SL000`` is the synthetic meta-diagnostic id: it is not a registered rule
but the id findings carry when the *input itself* is broken -- a file that
does not parse, or a suppression pragma naming an unknown rule.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
    "Linter",
    "LintError",
    "META_RULE_ID",
]

_DISABLE_LINE = re.compile(r"#\s*simlint:\s*disable=([A-Z0-9, ]+)")
_DISABLE_FILE = re.compile(r"#\s*simlint:\s*disable-file=([A-Z0-9, ]+)")
#: Loose pragma scan used to *warn* about malformed/unknown suppressions
#: the strict patterns above would silently ignore.
_PRAGMA_ANY = re.compile(r"#\s*simlint:\s*disable(?:-file)?=([^\s#,]+(?:\s*,\s*[^\s#,]+)*)")

#: The synthetic rule id for meta diagnostics (syntax errors, bad pragmas).
META_RULE_ID = "SL000"


class LintError(Exception):
    """A target could not be linted at all (missing path, unreadable file)."""


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class FileContext:
    """One parsed source file handed to every rule."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.lines = source.splitlines()
        self._file_disabled: frozenset[str] | None = None

    # ------------------------------------------------------------------
    def _rules_disabled_for_file(self) -> frozenset[str]:
        if self._file_disabled is None:
            disabled: set[str] = set()
            for line in self.lines:
                match = _DISABLE_FILE.search(line)
                if match:
                    disabled.update(
                        r.strip() for r in match.group(1).split(",") if r.strip()
                    )
            self._file_disabled = frozenset(disabled)
        return self._file_disabled

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True if ``rule_id`` is disabled on ``line`` or file-wide."""
        if rule_id in self._rules_disabled_for_file():
            return True
        if 1 <= line <= len(self.lines):
            match = _DISABLE_LINE.search(self.lines[line - 1])
            if match:
                ids = {r.strip() for r in match.group(1).split(",")}
                return rule_id in ids
        return False

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule_id,
            message=message,
        )


class Rule:
    """Base class for simlint rules.

    Subclasses set :attr:`rule_id`, :attr:`title` and :attr:`rationale`,
    and implement :meth:`visit_file`.
    """

    rule_id: str = "SL000"
    title: str = ""
    rationale: str = ""

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        del ctx
        return []


RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not re.fullmatch(r"SL\d{3}", cls.rule_id):
        raise ValueError(f"bad rule id {cls.rule_id!r} (expected SLnnn)")
    if cls.rule_id == META_RULE_ID:
        raise ValueError(f"{META_RULE_ID} is reserved for meta diagnostics")
    if cls.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def _pragma_findings(ctx: FileContext) -> list[Finding]:
    """SL000 warnings for suppression pragmas naming unknown rules.

    A typo'd pragma (``disable=SL01``, ``disable=RULE``) would otherwise
    suppress nothing *silently* -- the author believes a finding is
    acknowledged when it is not.
    """
    findings: list[Finding] = []
    for lineno, line in enumerate(ctx.lines, start=1):
        match = _PRAGMA_ANY.search(line)
        if not match:
            continue
        for token in match.group(1).split(","):
            cleaned = token.strip().strip("`'\".()")
            if not cleaned:
                continue
            if cleaned not in RULE_REGISTRY and cleaned != META_RULE_ID:
                findings.append(Finding(
                    path=ctx.display_path,
                    line=lineno,
                    col=match.start() + 1,
                    rule=META_RULE_ID,
                    message=(
                        f"suppression pragma names unknown rule {cleaned!r}; "
                        "it suppresses nothing (known rules: SL001..)"
                    ),
                ))
    return findings


class Linter:
    """Runs a set of rules over a set of paths.

    Parameters
    ----------
    rules:
        Rule ids to run (default: every registered rule).
    """

    def __init__(self, rules: set[str] | None = None) -> None:
        # Import for the registration side effect; cheap and idempotent.
        from . import rules as _rules  # noqa: F401

        selected = rules if rules is not None else set(RULE_REGISTRY)
        unknown = selected - set(RULE_REGISTRY)
        if unknown:
            raise LintError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        self.rule_ids = sorted(selected)

    # ------------------------------------------------------------------
    @staticmethod
    def collect_files(paths: list[str]) -> list[Path]:
        """Expand files/directories into a sorted list of ``.py`` files."""
        files: list[Path] = []
        for raw in paths:
            path = Path(raw)
            if not path.exists():
                raise LintError(f"no such file or directory: {raw}")
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            else:
                files.append(path)
        # De-duplicate while preserving order.
        seen: set[Path] = set()
        unique = []
        for f in files:
            resolved = f.resolve()
            if resolved not in seen:
                seen.add(resolved)
                unique.append(f)
        return unique

    # -- pipeline stages ------------------------------------------------
    def parse(
        self, files: list[Path]
    ) -> tuple[list[FileContext], list[Finding]]:
        """Parse ``files``; unparsable files become SL000 findings.

        A syntax error is a *diagnostic*, not a crash: the broken file is
        reported at ``path:lineno`` and skipped, while every other file is
        still linted.  Unreadable files (permissions, vanished paths) are
        a :class:`LintError` -- the run itself is invalid.
        """
        contexts: list[FileContext] = []
        findings: list[Finding] = []
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise LintError(f"cannot read {path}: {exc}") from exc
            try:
                contexts.append(FileContext(path, str(path), source))
            except SyntaxError as exc:
                findings.append(Finding(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    rule=META_RULE_ID,
                    message=f"syntax error: {exc.msg}",
                ))
        return contexts, findings

    def run_file_rules(self, ctx: FileContext) -> list[Finding]:
        """The selected rules plus the SL000 pragma check on one file."""
        findings = _pragma_findings(ctx)
        for rule_id in self.rule_ids:
            rule = RULE_REGISTRY[rule_id]()
            findings.extend(
                f for f in rule.visit_file(ctx)
                if not ctx.is_suppressed(f.rule, f.line)
            )
        return findings

    # ------------------------------------------------------------------
    def run(self, paths: list[str]) -> list[Finding]:
        """Lint ``paths`` (files or directory trees); returns findings."""
        contexts, findings = self.parse(self.collect_files(paths))
        for ctx in contexts:
            findings.extend(self.run_file_rules(ctx))
        return sorted(findings)
