"""Determinism lint rules.

PR 1's equivalence guarantees — fast/scalar twins asserted
bit-identical, sweeps byte-stable across ``--jobs`` — and the paper's
timestamped counter network both assume the engine is a pure function
of its seeds.  These rules patrol the directories whose outputs feed
those guarantees (``sim/``, ``runtime/``, ``baselines/``, and — since
the provider loop gained its own FAST-gated fast paths — ``cloud/``)
for the ways Python programs classically smuggle in nondeterminism:

* ``unseeded-random`` — calls through the module-level ``random.*`` (or
  legacy ``numpy.random.*``) global generators, whose state is shared,
  order-dependent and unseeded by default.  Constructing an explicit
  seeded generator (``random.Random(seed)``, ``numpy.random.default_rng``)
  is the sanctioned pattern and is not flagged.
* ``wall-clock`` — ``time.time()`` / ``datetime.now()`` and friends:
  any read of a real clock inside the simulated-time engine.
* ``env-read`` — ``os.environ`` / ``os.getenv``: configuration that
  varies by machine, invisible to the seed.
* ``set-iteration`` — iterating a freshly-built ``set``/``frozenset``
  (or set literal/comprehension) where the element order feeds ordered
  output.  Hash randomization makes the order vary per process, which
  is exactly how parallel sweep workers drift from in-process runs.
  ``sorted(set(...))`` and membership tests are fine.
* ``id-keyed`` — using ``id(x)`` as a container key.  CPython reuses
  addresses, so keys collide across object lifetimes and iteration
  order varies per run.

The last two are hazards anywhere, not just in the engine, so they run
repo-wide.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import FileContext, Finding, Rule

ENGINE_DIRS: FrozenSet[str] = frozenset({"sim", "runtime", "baselines", "cloud"})

_SEEDED_RANDOM_FACTORIES = frozenset(
    {
        "Random",
        "SystemRandom",
        "default_rng",
        "Generator",
        "SeedSequence",
        "MT19937",
    }
)

_WALL_CLOCK_CALLS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)


def _dotted_tail(node: ast.expr) -> Optional[Tuple[str, str]]:
    """``("base", "attr")`` for a one-level attribute access on a name.

    ``datetime.datetime.now`` resolves to ``("datetime", "now")`` — the
    clock tables only need the final two path components.
    """
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if isinstance(value, ast.Name):
        return value.id, node.attr
    if isinstance(value, ast.Attribute):
        return value.attr, node.attr
    return None


def _from_imports(context: FileContext, module: str) -> Set[str]:
    """Local names bound by ``from <module> import ...`` in this file."""
    names: Set[str] = set()
    for node in context.nodes:
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


class UnseededRandomRule(Rule):
    id = "unseeded-random"
    description = (
        "call through the shared module-level random number generator "
        "inside the deterministic engine"
    )
    scoped_dirs = ENGINE_DIRS

    def check(self, context: FileContext) -> Iterator[Finding]:
        bare_random = {
            name
            for name in _from_imports(context, "random")
            if name not in _SEEDED_RANDOM_FACTORIES
        }
        for node in context.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = _dotted_tail(func)
            if dotted is not None:
                base, attr = dotted
                if base == "random" and attr not in _SEEDED_RANDOM_FACTORIES:
                    yield context.finding(
                        self,
                        node,
                        f"random.{attr}() uses the shared global RNG; "
                        "construct a seeded random.Random(seed) instead",
                    )
                    continue
            # numpy's legacy global generator: np.random.random() etc.
            if isinstance(func, ast.Attribute):
                inner = _dotted_tail(func.value)
                if (
                    inner is not None
                    and inner[1] == "random"
                    and inner[0] in {"np", "numpy"}
                    and func.attr not in _SEEDED_RANDOM_FACTORIES
                ):
                    yield context.finding(
                        self,
                        node,
                        f"numpy.random.{func.attr}() uses the legacy global "
                        "generator; use numpy.random.default_rng(seed)",
                    )
                    continue
            if isinstance(func, ast.Name) and func.id in bare_random:
                yield context.finding(
                    self,
                    node,
                    f"{func.id}() was imported from the random module and "
                    "draws from the shared global RNG; use a seeded "
                    "random.Random(seed)",
                )


class WallClockRule(Rule):
    id = "wall-clock"
    description = "real-time clock read inside the simulated-time engine"
    scoped_dirs = ENGINE_DIRS

    def check(self, context: FileContext) -> Iterator[Finding]:
        clock_names = {
            pair[1] for pair in _WALL_CLOCK_CALLS
        } & _from_imports(context, "time")
        for node in context.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = _dotted_tail(func)
            if dotted is not None and dotted in _WALL_CLOCK_CALLS:
                yield context.finding(
                    self,
                    node,
                    f"{dotted[0]}.{dotted[1]}() reads the wall clock; the "
                    "engine must derive time from simulated cycles",
                )
            elif isinstance(func, ast.Name) and func.id in clock_names:
                yield context.finding(
                    self,
                    node,
                    f"{func.id}() reads the wall clock; the engine must "
                    "derive time from simulated cycles",
                )


class EnvReadRule(Rule):
    id = "env-read"
    description = "environment variable read inside the deterministic engine"
    scoped_dirs = ENGINE_DIRS

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            dotted = (
                _dotted_tail(node) if isinstance(node, ast.Attribute) else None
            )
            if dotted == ("os", "environ"):
                yield context.finding(
                    self,
                    node,
                    "os.environ makes engine behaviour depend on the host "
                    "environment; thread configuration in explicitly",
                )
            elif isinstance(node, ast.Call):
                call_target = _dotted_tail(node.func)
                if call_target == ("os", "getenv"):
                    yield context.finding(
                        self,
                        node,
                        "os.getenv() makes engine behaviour depend on the "
                        "host environment; thread configuration in "
                        "explicitly",
                    )


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


class SetIterationRule(Rule):
    id = "set-iteration"
    description = "iteration over a set feeding order-sensitive output"

    _ORDERING_CONSUMERS = frozenset({"list", "tuple", "enumerate"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            target: Optional[ast.expr] = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expression(node.iter):
                    target = node.iter
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expression(generator.iter):
                        target = generator.iter
                        break
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in self._ORDERING_CONSUMERS
                    and node.args
                    and _is_set_expression(node.args[0])
                ):
                    target = node.args[0]
            if target is not None:
                yield context.finding(
                    self,
                    target,
                    "iterating a set produces hash-randomized order; wrap "
                    "in sorted(...) before the order can reach any output",
                )


class IdKeyedRule(Rule):
    id = "id-keyed"
    description = "container keyed by id(); addresses are reused across runs"

    _KEY_METHODS = frozenset(
        {"get", "setdefault", "add", "discard", "remove", "pop"}
    )

    def _is_id_call(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            flagged: List[ast.expr] = []
            if isinstance(node, ast.Subscript) and self._is_id_call(
                node.slice
            ):
                flagged.append(node.slice)
            elif isinstance(node, ast.Dict):
                flagged.extend(
                    key
                    for key in node.keys
                    if key is not None and self._is_id_call(key)
                )
            elif isinstance(node, ast.Set):
                flagged.extend(
                    element
                    for element in node.elts
                    if self._is_id_call(element)
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._KEY_METHODS
                and node.args
                and self._is_id_call(node.args[0])
            ):
                flagged.append(node.args[0])
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                if self._is_id_call(node.left):
                    flagged.append(node.left)
            for expression in flagged:
                yield context.finding(
                    self,
                    expression,
                    "id() values are memory addresses — reused across "
                    "object lifetimes and different every run; key by a "
                    "stable identity instead",
                )


RULES: List[Rule] = [
    UnseededRandomRule(),
    WallClockRule(),
    EnvReadRule(),
    SetIterationRule(),
    IdKeyedRule(),
]
