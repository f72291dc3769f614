"""Determinism rules: SL001 unseeded-rng and SL002 rng-plumbing.

Every durability estimate in this repository is a Monte Carlo statement;
an unseeded or globally-shared random source silently invalidates the
reproducibility contract PR 2 established at runtime (bitwise-identical
results for any worker count).  These two rules make the contract static:

* **SL001** bans unseeded generators and all global-random-state use:
  ``np.random.default_rng()`` with no seed, legacy ``np.random.<fn>()``
  module-state calls, and any use of the stdlib ``random`` module.
* **SL002** requires functions that *draw* from a generator to receive it
  (or the seed it derives from) as a parameter -- constructing a private
  generator from a hard-coded seed hides the stream from callers and
  breaks ``SeedSequence.spawn`` plumbing.
"""

from __future__ import annotations

import ast

from .._ast_utils import ImportMap, attribute_chain, dotted_name, root_name
from ..core import FileContext, Finding, Rule, register_rule

__all__ = ["UnseededRng", "RngPlumbing", "DRAW_METHODS"]

#: Legacy module-state draw/seed functions on ``numpy.random``.
_GLOBAL_STATE_FNS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "normal", "uniform",
    "exponential", "integers", "poisson", "binomial", "weibull",
    "standard_normal", "bytes", "get_state", "set_state", "random_integers",
})

#: ``numpy.random.Generator`` draw methods (the ones this codebase uses,
#: plus the common remainder).
DRAW_METHODS = frozenset({
    "random", "integers", "choice", "shuffle", "permutation", "permuted",
    "exponential", "normal", "standard_normal", "uniform", "weibull",
    "poisson", "binomial", "geometric", "gamma", "beta", "chisquare",
    "lognormal", "pareto", "rayleigh", "triangular", "bytes", "spawn",
})

#: Names that mark a value as generator-like when they appear in an
#: attribute chain (``st.rng.random`` -> segment "rng").
_GENERATOR_NAMES = frozenset({"rng", "generator", "gen"})


@register_rule
class UnseededRng(Rule):
    """SL001: no unseeded generators, no global random state."""

    rule_id = "SL001"
    title = "unseeded-rng"
    rationale = (
        "Monte Carlo results must be reproducible from an explicit seed; "
        "unseeded generators and global random state make runs "
        "unrepeatable and defeat SeedSequence plumbing."
    )

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        imports = ImportMap(ctx.tree)
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        findings.append(ctx.finding(
                            self.rule_id, node,
                            "stdlib `random` is banned in simulation code; "
                            "use a seeded numpy Generator",
                        ))
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    findings.append(ctx.finding(
                        self.rule_id, node,
                        "stdlib `random` is banned in simulation code; "
                        "use a seeded numpy Generator",
                    ))
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                resolved = imports.resolve(dotted)
                if resolved == "numpy.random.default_rng":
                    if not node.args and not node.keywords:
                        findings.append(ctx.finding(
                            self.rule_id, node,
                            "np.random.default_rng() without a seed/"
                            "SeedSequence draws OS entropy; pass an "
                            "explicit seed",
                        ))
                elif (
                    resolved.startswith("numpy.random.")
                    and resolved.rsplit(".", 1)[1] in _GLOBAL_STATE_FNS
                ):
                    fn = resolved.rsplit(".", 1)[1]
                    findings.append(ctx.finding(
                        self.rule_id, node,
                        f"np.random.{fn}() uses numpy's hidden global "
                        "RandomState; draw from an explicit Generator "
                        "instead",
                    ))
        return findings


def _params_of(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _references_any(node: ast.AST, names: set[str]) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(node)
    )


@register_rule
class RngPlumbing(Rule):
    """SL002: functions that draw must be handed their generator."""

    rule_id = "SL002"
    title = "rng-plumbing"
    rationale = (
        "A function that draws from a Generator it built itself (from a "
        "constant seed or module state) pins its stream invisibly; the "
        "generator or its seed must arrive via a parameter so trial "
        "runners control every stream."
    )

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        imports = ImportMap(ctx.tree)
        # Module-level names assigned from a generator constructor.
        module_generators: set[str] = set()
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if value is not None and self._is_generator_ctor(value, imports):
                    targets = (
                        stmt.targets if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name):
                            module_generators.add(target.id)

        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(
                    self._check_function(ctx, node, imports, module_generators)
                )
        return findings

    # ------------------------------------------------------------------
    @staticmethod
    def _is_generator_ctor(node: ast.expr, imports: ImportMap) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        resolved = imports.resolve(dotted)
        return resolved in (
            "numpy.random.default_rng", "numpy.random.Generator"
        )

    def _check_function(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        imports: ImportMap,
        module_generators: set[str],
    ) -> list[Finding]:
        params = _params_of(fn)
        # Locals assigned from a generator constructor: True if the seed
        # expression references a parameter (plumbed), False otherwise.
        local_ctor_plumbed: dict[str, bool] = {}
        # Locals aliased (possibly transitively) from parameter-rooted
        # expressions: rng = self.rng, rngs = self._children(), rng = rngs[0],
        # and the targets of a loop over them: for i, rng in enumerate(rngs).
        local_aliases: set[str] = set()
        assigns: list[tuple[int, str, ast.expr, bool]] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    assigns.append((node.lineno, target.id, node.value, False))
            elif isinstance(node, ast.For):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        assigns.append((node.lineno, sub.id, node.iter, True))
        for _, target_name, value, loop in sorted(assigns, key=lambda a: a[0]):
            if loop:
                if _references_any(value, params | local_aliases):
                    local_aliases.add(target_name)
                continue
            if self._is_generator_ctor(value, imports):
                local_ctor_plumbed[target_name] = _references_any(value, params)
                continue
            root = root_name(value)
            if root is not None and (root in params or root in local_aliases):
                local_aliases.add(target_name)

        findings: list[Finding] = []
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in DRAW_METHODS
            ):
                continue
            receiver = node.func.value
            chain = attribute_chain(receiver)
            if not chain:
                continue
            generator_like = (
                bool(_GENERATOR_NAMES.intersection(chain))
                or chain[0] in local_ctor_plumbed
                or chain[0] in module_generators
            )
            if not generator_like:
                continue
            root = chain[0]
            if root in params or root in local_aliases:
                continue
            if local_ctor_plumbed.get(root, False):
                continue
            if root in local_ctor_plumbed:
                findings.append(ctx.finding(
                    self.rule_id, node,
                    f"function `{fn.name}` draws from a Generator it "
                    "built from a fixed seed; accept the Generator or "
                    "seed as a parameter",
                ))
            elif root in module_generators:
                findings.append(ctx.finding(
                    self.rule_id, node,
                    f"function `{fn.name}` draws from module-level "
                    f"Generator `{root}`; plumb it through as a "
                    "parameter",
                ))
            else:
                findings.append(ctx.finding(
                    self.rule_id, node,
                    f"function `{fn.name}` draws from `{'.'.join(chain)}` "
                    "which is neither a parameter nor derived from one; "
                    "plumb the Generator through the call chain",
                ))
        return findings
