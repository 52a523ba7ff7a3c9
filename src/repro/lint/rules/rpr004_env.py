"""RPR004: no ambient ``os.environ`` reads.

Configuration must arrive through explicit parameters so a solve is a
pure function of its arguments.  Fault schedules, the last configuration
that once had an env alias, travel as explicit ``FaultPlan`` values.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.diagnostics import Diagnostic
from repro.lint.rules.base import Rule, register


@register
class EnvRule(Rule):
    id = "RPR004"
    title = "no os.environ reads"
    rationale = (
        "env reads make a solve depend on ambient process state that "
        "no caller passed and no test pins; route configuration "
        "through explicit parameters."
    )
    node_types = (ast.Attribute, ast.Name, ast.Call)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if isinstance(node, ast.Call):
            if ctx.resolve(node.func) == "os.getenv":
                yield self.diag(
                    ctx,
                    node,
                    "os.getenv(); thread the value through an explicit "
                    "parameter",
                )
            return
        if ctx.resolve(node) != "os.environ":
            return
        # Flag `os.environ` itself once, not again for `os.environ.get`.
        parent = ctx.parent(node)
        if isinstance(parent, ast.Attribute) and parent.value is node:
            node = parent  # anchor the finding on the full access
        yield self.diag(
            ctx,
            node,
            "os.environ access; thread configuration through explicit "
            "parameters",
        )
