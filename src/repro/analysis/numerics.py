"""Numeric hygiene rules.

* ``float-eq`` — ``==``/``!=`` against a float literal.  Exact float
  equality is almost always a rounding bug in waiting; the engine's
  convention is an explicit tolerance or a validated-range guard
  (``value <= 0.0`` after a non-negativity check).  The few intentional
  *sentinel* comparisons — e.g. the ``refs == 0.0`` zero-traffic guards
  in ``sim/perfmodel.py``, where the field is either exactly the
  sentinel or meaningfully away from it — carry an inline
  ``# lint: allow(float-eq)`` pragma, which is the explicit allowlist.
* ``mutable-default`` — list/dict/set literals (or constructor calls)
  as parameter defaults: shared across calls, a classic state leak
  between supposedly independent simulations.
* ``numpy-shadow`` — any binding of the names ``np``/``numpy`` other
  than importing numpy itself.  A local ``np`` shadowing the module
  turns every subsequent ``np.foo`` in the function into an attribute
  error — or worse, into a call on the wrong object.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.core import FileContext, Finding, Rule

_NUMPY_NAMES = frozenset({"np", "numpy"})


def _is_float_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


class FloatEqualityRule(Rule):
    id = "float-eq"
    description = "exact equality comparison against a float literal"

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, operator in enumerate(node.ops):
                if not isinstance(operator, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                literal = (
                    left
                    if _is_float_literal(left)
                    else right
                    if _is_float_literal(right)
                    else None
                )
                if literal is None:
                    continue
                symbol = "==" if isinstance(operator, ast.Eq) else "!="
                assert isinstance(literal, ast.Constant)
                yield context.finding(
                    self,
                    node,
                    f"exact float {symbol} {literal.value!r}; use a "
                    "tolerance or a validated-range guard, or mark an "
                    "intentional sentinel with '# lint: allow(float-eq)'",
                )


def _mutable_default(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.List):
        return "list"
    if isinstance(node, ast.Dict):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.ListComp):
        return "list"
    if isinstance(node, ast.DictComp):
        return "dict"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"list", "dict", "set", "bytearray"}:
            return node.func.id
    return None


class MutableDefaultRule(Rule):
    id = "mutable-default"
    description = "mutable default argument shared across calls"

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                kind = _mutable_default(default)
                if kind is not None:
                    yield context.finding(
                        self,
                        default,
                        f"mutable {kind} default is shared across every "
                        f"call of {node.name}(); default to None and "
                        "construct inside the body",
                    )


class NumpyShadowRule(Rule):
    id = "numpy-shadow"
    description = "binding shadows the conventional numpy module names"

    def _flag(
        self, context: FileContext, node: ast.AST, name: str
    ) -> Finding:
        return context.finding(
            self,
            node,
            f"'{name}' shadows the numpy module alias; pick another name",
        )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in _NUMPY_NAMES:
                        continue
                    if isinstance(node, ast.Import):
                        if alias.name in {"numpy", "numpy.typing"} or (
                            alias.name.startswith("numpy.")
                        ):
                            continue
                    yield self._flag(context, node, bound)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                for arg in (
                    list(arguments.posonlyargs)
                    + list(arguments.args)
                    + list(arguments.kwonlyargs)
                    + ([arguments.vararg] if arguments.vararg else [])
                    + ([arguments.kwarg] if arguments.kwarg else [])
                ):
                    if arg.arg in _NUMPY_NAMES:
                        yield self._flag(context, arg, arg.arg)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets: List[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                else:
                    targets = [node.target]
                for target in targets:
                    for name_node in ast.walk(target):
                        if (
                            isinstance(name_node, ast.Name)
                            and isinstance(name_node.ctx, ast.Store)
                            and name_node.id in _NUMPY_NAMES
                        ):
                            yield self._flag(context, name_node, name_node.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for name_node in ast.walk(node.target):
                    if (
                        isinstance(name_node, ast.Name)
                        and name_node.id in _NUMPY_NAMES
                    ):
                        yield self._flag(context, name_node, name_node.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is None:
                        continue
                    for name_node in ast.walk(item.optional_vars):
                        if (
                            isinstance(name_node, ast.Name)
                            and name_node.id in _NUMPY_NAMES
                        ):
                            yield self._flag(context, name_node, name_node.id)


RULES: List[Rule] = [
    FloatEqualityRule(),
    MutableDefaultRule(),
    NumpyShadowRule(),
]
