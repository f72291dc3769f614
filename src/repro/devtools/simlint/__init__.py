"""simlint: domain-aware static analysis for the MLEC simulator.

An AST-based lint suite (stdlib only) enforcing the simulation contracts
ordinary linters cannot see: seeded and plumbed randomness (SL001/SL002),
exhaustive event dispatch (SL003), no float equality in the numerical
core (SL004), unit discipline at annotated call sites (SL005), picklable
trial callables (SL006), campaign hygiene (SL007-SL010), and a
whole-program layer (module graph -> call graph -> taint) backing
RNG provenance (SL011), deterministic iteration and fold order
(SL012/SL014), pickle-boundary reachability (SL013), and ops/result
telemetry segregation (SL015).

Run it as ``mlec-sim lint <paths>`` or ``python -m repro.devtools.simlint``.
See ``docs/static-analysis.md`` for the rule catalogue, suppression
syntax, SARIF workflow, and how to add a rule.
"""

from __future__ import annotations

from .cache import DEFAULT_CACHE_PATH, run_with_cache
from .core import (
    META_RULE_ID,
    RULE_REGISTRY,
    FileContext,
    Finding,
    LintError,
    Linter,
    ProgramRule,
    Rule,
    register_rule,
)
from .sarif import render_sarif, to_sarif

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "ProgramRule",
    "RULE_REGISTRY",
    "META_RULE_ID",
    "register_rule",
    "Linter",
    "LintError",
    "DEFAULT_CACHE_PATH",
    "run_with_cache",
    "to_sarif",
    "render_sarif",
]
