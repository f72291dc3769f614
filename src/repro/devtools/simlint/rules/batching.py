"""SL010 scalar-loop-in-batch-path: keep the batch engine vectorized.

The whole point of :mod:`repro.sim.batch` is to advance *all* trials of a
chunk through numpy array operations; a Python ``for`` loop over the
trial axis silently turns the O(1)-interpreter-overhead hot path back
into the scalar engine it replaced, and the regression only shows up as
a throughput drop in the benchmark gate, far from the offending line.

The rule flags ``for`` statements inside ``repro/sim/batch.py`` and
``repro/sim/burst.py`` (whose per-stream burst sampler the batch engine
calls) whose iterable mentions the per-trial collections (``contexts``,
``trials``, the per-stream generators ``rngs``): those are loops over
trial indices, the axis that must stay vectorized.
Loops over other axes (event heaps, pools, repair windows) are fine and
are not flagged.  The few *intentional* per-trial loops -- stream
hand-off, per-trial telemetry, demotion dispatch -- carry an explicit
``# simlint: disable=SL010`` marker, which doubles as documentation that
someone decided the loop is not hot.
"""

from __future__ import annotations

import ast

from ..core import FileContext, Finding, Rule, register_rule

__all__ = ["ScalarLoopInBatchPath"]

#: Names that identify the per-trial axis when they appear in a loop's
#: iterable: the chunk's TrialContext list, the per-cell trial count and
#: the per-stream generator list.
_TRIAL_AXIS_NAMES = frozenset({"contexts", "trials", "rngs"})

#: Modules on the batch engine's hot path.
_SCOPE = frozenset({"batch.py", "burst.py"})


def _iterates_trial_axis(loop: ast.For) -> bool:
    """True when the loop's iterable expression names the trial axis."""
    return any(
        isinstance(node, ast.Name) and node.id in _TRIAL_AXIS_NAMES
        for node in ast.walk(loop.iter)
    )


@register_rule
class ScalarLoopInBatchPath(Rule):
    """SL010: no per-trial Python loops inside the batch engine."""

    rule_id = "SL010"
    title = "scalar-loop-in-batch-path"
    rationale = (
        "A Python for loop over trial indices inside repro/sim/batch.py or "
        "repro/sim/burst.py de-vectorizes the batch engine's hot path; move "
        "the work into numpy array operations, or mark an intentional "
        "per-trial loop (stream hand-off, demotion dispatch) with "
        "# simlint: disable=SL010."
    )

    @staticmethod
    def _in_scope(ctx: FileContext) -> bool:
        parts = ctx.path.parts
        return "sim" in parts and ctx.path.name in _SCOPE

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        if not self._in_scope(ctx):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _iterates_trial_axis(node):
                findings.append(ctx.finding(
                    self.rule_id, node,
                    "per-trial Python loop in the batch engine; vectorize "
                    "over the trial axis with numpy, or mark an intentional "
                    "scalar section with # simlint: disable=SL010",
                ))
        return findings
