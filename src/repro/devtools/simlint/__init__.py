"""simlint: domain-aware static analysis for the MLEC simulator.

An AST-based, per-file lint suite (stdlib only) for the simulation
contracts that neither ordinary linters nor the test suite enforce:
seeded and plumbed randomness (SL001/SL002), no float equality in the
numerical core (SL004), no print in library code (SL007), atomic result
writes (SL008), no executor that bypasses the runtime (SL009), no
unmarked per-trial loop in the batch engine (SL010), scoped spans
(SL016), and no blocking call in the service's event loop (SL017).

Run it as ``mlec-sim lint <paths>`` or ``python -m repro.devtools.simlint``.
See ``docs/static-analysis.md`` for the rule catalogue, suppression
syntax, the seeded-bug audit behind the rule set, and how to add a rule.
"""

from __future__ import annotations

from .core import (
    META_RULE_ID,
    RULE_REGISTRY,
    FileContext,
    Finding,
    LintError,
    Linter,
    Rule,
    register_rule,
)

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "RULE_REGISTRY",
    "META_RULE_ID",
    "register_rule",
    "Linter",
    "LintError",
]
