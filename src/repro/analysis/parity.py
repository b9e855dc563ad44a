"""FAST-parity rule: every fast path must keep its scalar twin.

The entire performance story of PR 1 rests on the ``repro.perf.FAST``
switch selecting between two *numerically identical* implementations:
the vectorized/cached fast paths and the scalar reference paths that
the equivalence tests replay against.  The invariant is structural —
wherever control flow branches on the switch, **both** branches must
exist — and a fast path whose reference twin is deleted (or stubbed to
``pass``) degrades the A/B guarantee silently: the equivalence test
would then compare the fast path against itself.

This rule finds every ``if`` statement whose condition mentions
``perf.FAST`` / ``FAST`` / ``fast_paths_enabled()`` and requires a
resolvable branch for both switch positions:

* an explicit ``else`` (or ``elif``) arm, **or**
* at least one statement following the ``if`` in the same block — the
  ``if not perf.FAST: return scalar(...)`` early-exit idiom, where the
  fall-through code *is* the other branch.

A branch consisting solely of ``pass``/``...`` (or one that only raises
``NotImplementedError``) is not resolvable: it parses, but there is no
twin to compare against.  Conditional *expressions* (``a if perf.FAST
else b``) always carry both arms and are accepted by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence

from repro.analysis.core import FileContext, Finding, Rule, parent_of


def _mentions_fast(condition: ast.expr) -> bool:
    """Whether an ``if`` test references the engine's fast-path switch."""
    for node in ast.walk(condition):
        if isinstance(node, ast.Attribute) and node.attr == "FAST":
            return True
        if isinstance(node, ast.Name) and node.id == "FAST":
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name == "fast_paths_enabled":
                return True
    return False


def _is_stub_statement(statement: ast.stmt) -> bool:
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr) and isinstance(
        statement.value, ast.Constant
    ):
        return statement.value.value is Ellipsis
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        exc = statement.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name == "NotImplementedError":
            return True
    return False


def _is_stub_branch(body: Sequence[ast.stmt]) -> bool:
    """A branch that parses but provides no twin implementation."""
    return bool(body) and all(
        _is_stub_statement(statement) for statement in body
    )


def _enclosing_block(node: ast.If) -> List[ast.stmt]:
    """The statement list that directly contains ``node``."""
    parent = parent_of(node)
    if parent is None:
        return [node]
    for field in ("body", "orelse", "finalbody", "handlers"):
        block = getattr(parent, field, None)
        if isinstance(block, list) and node in block:
            return block
    return [node]


class FastParityRule(Rule):
    id = "fast-parity"
    description = (
        "FAST-gated branch without a resolvable reference (scalar) twin"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.If):
                continue
            if not _mentions_fast(node.test):
                continue
            if _is_stub_branch(node.body):
                yield context.finding(
                    self,
                    node,
                    "the FAST-gated branch is a stub; both the fast and "
                    "the reference path must be implemented",
                )
                continue
            if node.orelse:
                if _is_stub_branch(node.orelse):
                    yield context.finding(
                        self,
                        node,
                        "the other arm of this FAST-gated branch is a "
                        "stub; the scalar reference twin must stay "
                        "implemented",
                    )
                continue
            block = _enclosing_block(node)
            if block[-1] is node:
                yield context.finding(
                    self,
                    node,
                    "FAST-gated branch has no else arm and no fall-through "
                    "code after it — the scalar reference twin is missing "
                    "(deleting a twin breaks the fast/reference A/B "
                    "guarantee)",
                )


RULES: List[Rule] = [FastParityRule()]
