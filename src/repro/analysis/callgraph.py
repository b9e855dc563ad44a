"""AST-level call graph with module-global effect summaries.

The shared-state rules in :mod:`repro.analysis.effects` need to answer
whole-program questions the per-file rules cannot: *which functions can
a sweep worker reach, and which module-level mutable objects do they
read or write on the way?*  This module builds that picture from the
parsed files of one lint scan — no imports are executed, everything is
derived from the ASTs:

* every module's **globals** are collected from module-level
  assignments and classified (mutable container, rebindable scalar —
  i.e. some function declares it ``global`` — lock, cache).  Lock
  classification covers both values built from lock factories
  (``threading.Lock()`` and friends) and the ``*_LOCK`` naming
  protocol: a global named ``..._LOCK`` is a lock slot even when it is
  initialized to ``None`` and bound to a cross-process lock later (the
  shared operating-point store's ``_CREATE_LOCK`` idiom);
* every function gets a :class:`FunctionSummary` with its resolved
  **calls** (same-module names, ``from``-imports, module-alias
  attributes, ``self.method`` within a class), its **effect sites**
  (reads/writes of module globals, each tagged with whether the site
  sits inside a ``with`` block holding one of the module's locks —
  functions whose name ends in ``_locked`` assume their caller already
  holds the module lock, so their own effects count as synchronized
  and every same-module call *to* them is recorded as a
  :class:`LockedCall` for the lock-discipline rule to check), and
  the bookkeeping the cache rules need (names bound from cache
  lookups, published cache values, names sealed by ``.seal()`` or
  ``.setflags(write=False)``, local mutations, returns);
* :class:`ProgramGraph` links the summaries into a graph and offers
  reachability in deterministic (sorted-root, BFS) order.

The analysis is deliberately conservative-but-sound-enough for the
engine's idioms: dynamic dispatch through arbitrary objects is not
resolved (``allocator.decide(...)`` edges are dropped), so the rules
built on top only claim what a direct call chain proves.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.core import (
    FileContext,
    FunctionNode,
    parent_of,
    shared_analysis,
)

#: Method names that mutate the builtin/stdlib containers the engine
#: uses for module-level state (dict, list, set, OrderedDict, deque).
MUTATOR_METHODS: FrozenSet[str] = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "move_to_end",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

_MUTABLE_FACTORIES: FrozenSet[str] = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "Counter",
        "OrderedDict",
        "defaultdict",
        "deque",
    }
)

_LOCK_FACTORIES: FrozenSet[str] = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Calls that produce provably-immutable values at a cache publish site.
FROZEN_FACTORIES: FrozenSet[str] = frozenset(
    {"frozenset", "tuple", "MappingProxyType"}
)

#: Constructors that produce a stateful RNG stream object.  Attribute
#: calls (``random.Random``, ``np.random.MT19937``) accept the full
#: set; bare names are restricted to the unambiguous ones so a local
#: class that happens to be called ``Generator`` is not misread.
RNG_FACTORY_NAMES: FrozenSet[str] = frozenset(
    {
        "Random",
        "SystemRandom",
        "default_rng",
        "RandomState",
        "MT19937",
        "PCG64",
        "Philox",
        "SFC64",
        "Generator",
    }
)

_RNG_BARE_NAMES: FrozenSet[str] = frozenset(
    {"Random", "SystemRandom", "default_rng", "RandomState", "MT19937"}
)


def is_rng_call(node: ast.AST) -> bool:
    """Whether ``node`` constructs an RNG stream object.

    Recognizes ``random.Random(...)``, ``np.random.MT19937(...)``,
    ``numpy.random.default_rng(...)`` and friends, plus bare-name calls
    of the unambiguous constructors (``Random(seed)`` after a
    ``from random import Random``).
    """
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _RNG_BARE_NAMES
    if isinstance(func, ast.Attribute):
        if func.attr not in RNG_FACTORY_NAMES:
            return False
        for part in ast.walk(func.value):
            if isinstance(part, ast.Name) and part.id in {
                "random",
                "np",
                "numpy",
            }:
                return True
            if isinstance(part, ast.Attribute) and part.attr == "random":
                return True
    return False


def module_dotted(display_path: str) -> str:
    """Best-effort dotted module name for a display path.

    ``src/repro/sim/optables.py`` becomes ``repro.sim.optables``; a
    leading ``src`` component is dropped, ``__init__`` names the
    package itself.  Synthetic test trees resolve the same way, so
    cross-module import matching works on any scanned layout.
    """
    parts = [part for part in PurePosixPath(display_path).parts if part != "/"]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class GlobalVar:
    """One module-level binding and how it can be shared/mutated."""

    name: str
    mutable: bool = False
    """Bound to a mutable container (display or known constructor)."""
    rebound: bool = False
    """Some function in the module declares it ``global`` (so scalar
    rebinding is part of the module's protocol)."""
    is_lock: bool = False
    is_cache: bool = False

    @property
    def shared_mutable(self) -> bool:
        """Whether writes to this global are a cross-thread hazard."""
        return (self.mutable or self.rebound) and not self.is_lock


@dataclass(frozen=True)
class Effect:
    """One read or write of a module global at one source site."""

    module: str
    """Dotted module owning the global (usually the site's module)."""
    name: str
    write: bool
    synchronized: bool
    """The site sits inside a ``with`` block on a lock global of the
    module owning the site."""
    node: ast.AST
    path: str


@dataclass(frozen=True)
class CachePublish:
    """A value stored into a module-level cache global."""

    cache_name: str
    value: ast.expr
    node: ast.AST


@dataclass(frozen=True)
class LockedCall:
    """A same-module call to a ``*_locked`` (lock-assuming) helper."""

    name: str
    synchronized: bool
    node: ast.AST


@dataclass(frozen=True)
class Mutation:
    """An in-place mutation of a local name (``x.append``, ``x[k]=``…)."""

    name: str
    node: ast.AST
    what: str


@dataclass(frozen=True)
class Dep:
    """One input a value expression (transitively) depends on.

    ``kind`` is one of:

    * ``"param"`` — a parameter of the enclosing function; ``chain``
      holds the attribute path when the dependence is on a field
      (``spec.seed`` → ``Dep("param", "spec", chain=("seed",))``);
    * ``"global"`` — a module-level name, with ``module`` the dotted
      module that owns it (covers same-module globals, ``from``-imports
      and module-alias attribute reads);
    * ``"loop"`` — a name bound by a ``for`` target or comprehension
      generator in the enclosing frame;
    * ``"unknown"`` — a name or expression the walker cannot classify
      (closures, unresolved call results); consumers treat it as
      "could be anything" in whichever direction is conservative for
      their rule.
    """

    kind: str
    name: str
    module: str = ""
    chain: Tuple[str, ...] = ()

    def render(self) -> str:
        """Stable human-readable form for reports and messages."""
        suffix = "".join(f".{part}" for part in self.chain)
        if self.kind == "global" and self.module:
            return f"{self.module}.{self.name}{suffix}"
        if self.kind == "loop":
            return f"{self.name}{suffix} (loop)"
        if self.kind == "unknown":
            return f"{self.name}?"
        return f"{self.name}{suffix}"


@dataclass
class FunctionSummary:
    """Per-function facts the effect rules consume."""

    key: str
    path: str
    module: str
    qualname: str
    node: FunctionNode
    calls: List[str] = field(default_factory=list)
    effects: List[Effect] = field(default_factory=list)
    has_fast_branch: bool = False
    cache_bindings: Dict[str, ast.AST] = field(default_factory=dict)
    """Local names bound directly from a cache-global lookup."""
    call_bindings: Dict[str, List[str]] = field(default_factory=dict)
    """Local names bound from a resolved call (for taint propagation)."""
    value_sources: Dict[str, List[ast.expr]] = field(default_factory=dict)
    """Every expression assigned to each local name (publish analysis)."""
    sealed_names: Dict[str, int] = field(default_factory=dict)
    """Names frozen by ``name.seal()`` or ``name.setflags(write=False)``
    (an ndarray sealed in place), with the freezing call's line."""
    locked_calls: List[LockedCall] = field(default_factory=list)
    """Same-module calls to ``*_locked`` helpers, with whether the call
    site itself sits inside a module-lock ``with`` block."""
    cache_publishes: List[CachePublish] = field(default_factory=list)
    returned_names: Set[str] = field(default_factory=set)
    returned_calls: List[str] = field(default_factory=list)
    returns_cache_lookup: bool = False
    mutations: List[Mutation] = field(default_factory=list)
    loop_depth: int = 0
    """Deepest loop nesting in this function's own frame."""
    scalar_only_calls: FrozenSet[str] = frozenset()
    """Call targets reached *only* from scalar-twin regions of a
    ``perf.FAST`` split — hot-set reachability does not follow them."""
    params: Tuple[str, ...] = ()
    """Positional + keyword-only parameter names in declaration order
    (``self``/``cls`` included; ``*args``/``**kwargs`` excluded)."""
    has_varargs: bool = False
    """The signature takes ``*args`` or ``**kwargs`` (argument mapping
    across such a call site is conservative)."""
    param_reads: FrozenSet[str] = frozenset()
    """Parameters whose value the body actually loads."""
    loop_targets: FrozenSet[str] = frozenset()
    """Names bound by ``for`` targets or comprehension generators in
    this function's own frame."""
    return_values: List[ast.expr] = field(default_factory=list)
    """The full expression of every ``return <expr>`` statement."""
    call_targets: Dict[ast.Call, str] = field(default_factory=dict)
    """Resolved ``module::qualname`` target per call node, so the
    dataflow walker can map arguments without re-resolving."""

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleInfo:
    """One scanned module: globals, locks, imports, functions."""

    path: str
    dotted: str
    globals: Dict[str, GlobalVar] = field(default_factory=dict)
    lock_names: Set[str] = field(default_factory=set)
    module_aliases: Dict[str, str] = field(default_factory=dict)
    """Local name -> dotted module (``import x.y as m``)."""
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    """Local name -> (dotted module, original name)."""
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    frozen_classes: Set[str] = field(default_factory=set)
    classes: Set[str] = field(default_factory=set)
    rng_globals: Set[str] = field(default_factory=set)
    """Module-level names bound directly to an RNG constructor."""


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _terminal_name(node.func)
        return name in _MUTABLE_FACTORIES
    return False


def _is_lock_value(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        name = _terminal_name(node.func)
        return name in _LOCK_FACTORIES
    return False


def _mentions_fast(condition: ast.expr) -> bool:
    """Whether an ``if`` test references the engine's fast-path switch.

    Mirrors the FAST-parity rule's detection: ``perf.FAST``, a bare
    ``FAST``, or a ``fast_paths_enabled()`` call.
    """
    for node in ast.walk(condition):
        if isinstance(node, ast.Attribute) and node.attr == "FAST":
            return True
        if isinstance(node, ast.Name) and node.id == "FAST":
            return True
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if name == "fast_paths_enabled":
                return True
    return False


#: AST nodes that open one level of iteration for loop-depth purposes.
#: Comprehensions count: a comprehension inside a ``for`` allocates and
#: iterates once per outer iteration, exactly the shape the hot-path
#: rules police.
LOOP_NODES: Tuple[type, ...] = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _always_exits(body: Sequence[ast.stmt]) -> bool:
    """Whether a block's last statement unconditionally leaves it."""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _trailing_statements(branch: ast.If) -> List[ast.stmt]:
    """The statements that follow ``branch`` in its enclosing block."""
    parent = parent_of(branch)
    if parent is None:
        return []
    for field_name in ("body", "orelse", "finalbody"):
        block = getattr(parent, field_name, None)
        if isinstance(block, list) and any(
            statement is branch for statement in block
        ):
            index = next(
                i for i, statement in enumerate(block) if statement is branch
            )
            return list(block[index + 1 :])
    return []


def scalar_region_nodes(node: FunctionNode) -> Set[ast.AST]:
    """Every AST node inside a scalar-twin region of a ``perf.FAST`` split.

    The engine writes its twins in two shapes, both of which the
    FAST-parity rule already recognizes:

    * ``if perf.FAST: <fast> else: <scalar>`` — the ``orelse`` block is
      the scalar twin;
    * ``if perf.FAST: return <fast>`` followed by fall-through scalar
      code — the statements after an always-exiting FAST body are the
      scalar twin (and symmetrically, ``if not perf.FAST: return
      <scalar>`` marks the *body* scalar).

    Hot-set construction does not follow calls made only from these
    regions, and the hot-path rules skip findings inside them: the
    scalar reference is *supposed* to be the slow, recompute-everything
    baseline.  Requires the parent-annotated tree a
    :class:`~repro.analysis.core.FileContext` provides.
    """
    regions: List[ast.stmt] = []
    for child in ast.walk(node):
        if not isinstance(child, ast.If) or not _mentions_fast(child.test):
            continue
        negated = isinstance(child.test, ast.UnaryOp) and isinstance(
            child.test.op, ast.Not
        )
        if negated:
            regions.extend(child.body)
        else:
            regions.extend(child.orelse)
            if _always_exits(child.body) and not child.orelse:
                regions.extend(_trailing_statements(child))
    nodes: Set[ast.AST] = set()
    for statement in regions:
        nodes.update(ast.walk(statement))
    return nodes


def fast_region_nodes(node: FunctionNode) -> Set[ast.AST]:
    """Every AST node inside a *fast* region of a ``perf.FAST`` split.

    The mirror image of :func:`scalar_region_nodes`, using the same two
    recognized twin shapes: the ``body`` of ``if perf.FAST:`` is fast,
    and for ``if not perf.FAST: <scalar, always exits>`` the ``orelse``
    plus the fall-through statements are fast.  The RNG provenance rule
    uses both region sets to prove a stream object never crosses the
    twin boundary.
    """
    regions: List[ast.stmt] = []
    for child in ast.walk(node):
        if not isinstance(child, ast.If) or not _mentions_fast(child.test):
            continue
        negated = isinstance(child.test, ast.UnaryOp) and isinstance(
            child.test.op, ast.Not
        )
        if negated:
            regions.extend(child.orelse)
            if _always_exits(child.body) and not child.orelse:
                regions.extend(_trailing_statements(child))
        else:
            regions.extend(child.body)
    nodes: Set[ast.AST] = set()
    for statement in regions:
        nodes.update(ast.walk(statement))
    return nodes


def max_loop_depth(node: FunctionNode) -> int:
    """Deepest loop nesting in ``node``'s own frame.

    Nested function/class definitions are skipped — their bodies run in
    their own frames and get their own summaries.
    """

    def walk(parent: ast.AST, depth: int) -> int:
        deepest = depth
        for child in ast.iter_child_nodes(parent):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            child_depth = depth + 1 if isinstance(child, LOOP_NODES) else depth
            deepest = max(deepest, walk(child, child_depth))
        return deepest

    return walk(node, 0)


def _relative_base(dotted: str, level: int) -> str:
    """The package a ``from ...`` import of ``level`` resolves against."""
    parts = dotted.split(".")
    if level <= 0:
        return dotted
    kept = parts[: max(len(parts) - level, 0)]
    return ".".join(kept)


def _iter_functions(
    module_body: Sequence[ast.stmt],
) -> Iterator[Tuple[str, FunctionNode]]:
    """(qualname, node) for every function/method, outer-to-inner."""

    def walk(body: Sequence[ast.stmt], prefix: str) -> Iterator[Tuple[str, FunctionNode]]:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{statement.name}"
                yield qualname, statement
                yield from walk(statement.body, f"{qualname}.")
            elif isinstance(statement, ast.ClassDef):
                yield from walk(statement.body, f"{prefix}{statement.name}.")

    return walk(module_body, "")


def _local_names(node: FunctionNode, walked: Sequence[ast.AST]) -> Set[str]:
    """Names bound locally in ``node``, given ``walked = ast.walk(node)``."""
    names: Set[str] = set()
    args = node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    for child in walked:
        if child is not node and isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(child.name)
        elif isinstance(child, ast.Name) and isinstance(
            child.ctx, (ast.Store, ast.Del)
        ):
            names.add(child.id)
    return names


def _enclosing_class(node: FunctionNode) -> Optional[str]:
    parent = parent_of(node)
    while parent is not None:
        if isinstance(parent, ast.ClassDef):
            return parent.name
        parent = parent_of(parent)
    return None


def _is_frozen_dataclass_def(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        if _terminal_name(decorator.func) != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


class _ModuleScanner:
    """Builds one :class:`ModuleInfo` from a parsed file."""

    def __init__(self, context: FileContext) -> None:
        self.context = context
        self.info = ModuleInfo(
            path=context.display_path,
            dotted=module_dotted(context.display_path),
        )

    def scan(self) -> ModuleInfo:
        self._collect_imports_and_globals()
        self._collect_rebounds()
        for qualname, node in _iter_functions(self.context.tree.body):
            summary = self._summarize_function(qualname, node)
            self.info.functions[summary.key] = summary
        return self.info

    # -- module level -----------------------------------------------------

    def _collect_imports_and_globals(self) -> None:
        info = self.info
        for statement in self.context.tree.body:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    info.module_aliases[local] = target
            elif isinstance(statement, ast.ImportFrom):
                base = (
                    _relative_base(info.dotted, statement.level)
                    if statement.level
                    else ""
                )
                module = statement.module or ""
                dotted = ".".join(part for part in (base, module) if part)
                for alias in statement.names:
                    local = alias.asname or alias.name
                    info.from_imports[local] = (dotted, alias.name)
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (
                    statement.targets
                    if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                value = statement.value
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    name = target.id
                    var = info.globals.setdefault(name, GlobalVar(name=name))
                    if value is not None:
                        if _is_lock_value(value):
                            var.is_lock = True
                            info.lock_names.add(name)
                        elif _is_mutable_value(value):
                            var.mutable = True
                    if name.endswith("_LOCK") and not var.mutable:
                        # The *_LOCK naming protocol: also covers lock
                        # slots initialized to None and bound to a
                        # cross-process lock at store attach.
                        var.is_lock = True
                        info.lock_names.add(name)
                    if "CACHE" in name.upper() and not var.is_lock:
                        var.is_cache = True
                    if value is not None and is_rng_call(value):
                        info.rng_globals.add(name)
            elif isinstance(statement, ast.ClassDef):
                info.classes.add(statement.name)
                if _is_frozen_dataclass_def(statement):
                    info.frozen_classes.add(statement.name)

    def _collect_rebounds(self) -> None:
        for node in self.context.nodes:
            if isinstance(node, ast.Global):
                for name in node.names:
                    var = self.info.globals.setdefault(
                        name, GlobalVar(name=name)
                    )
                    var.rebound = True

    # -- function level ---------------------------------------------------

    def _summarize_function(
        self, qualname: str, node: FunctionNode
    ) -> FunctionSummary:
        info = self.info
        summary = FunctionSummary(
            key=f"{info.path}::{qualname}",
            path=info.path,
            module=info.dotted,
            qualname=qualname,
            node=node,
        )
        class_name = _enclosing_class(node)
        # The *_locked suffix declares "caller already holds the module
        # lock": the helper's own effects count as synchronized, and
        # the lock-discipline rule checks its call sites instead.
        assumes_lock = qualname.rsplit(".", 1)[-1].endswith("_locked")
        args = node.args
        summary.params = tuple(
            arg.arg
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        summary.has_varargs = args.vararg is not None or args.kwarg is not None
        param_set = set(summary.params)
        param_reads: Set[str] = set()
        loop_targets: Set[str] = set()
        walked = tuple(ast.walk(node))
        locals_here = _local_names(node, walked)
        global_decls: Set[str] = set()
        for child in walked:
            if isinstance(child, ast.Global):
                global_decls.update(child.names)
        shadowed = locals_here - global_decls

        def is_module_global(name: str) -> bool:
            return name in info.globals and name not in shadowed

        def synchronized(site: ast.AST) -> bool:
            if assumes_lock:
                return True
            current = parent_of(site)
            while current is not None:
                if isinstance(current, (ast.With, ast.AsyncWith)):
                    for item in current.items:
                        expr = item.context_expr
                        lock_name: Optional[str]
                        if isinstance(expr, (ast.Name, ast.Attribute)):
                            lock_name = _terminal_name(expr)
                        elif isinstance(expr, ast.Call):
                            lock_name = _terminal_name(expr.func)
                        else:
                            lock_name = None
                        if lock_name in info.lock_names:
                            return True
                if current is node:
                    break
                current = parent_of(current)
            return False

        def effect(
            site: ast.AST, name: str, write: bool, module: Optional[str] = None
        ) -> None:
            summary.effects.append(
                Effect(
                    module=module or info.dotted,
                    name=name,
                    write=write,
                    synchronized=synchronized(site),
                    node=site,
                    path=info.path,
                )
            )

        def is_cache_lookup(expr: ast.expr) -> bool:
            """A read through a module-level cache global."""
            if isinstance(expr, ast.Subscript):
                value = expr.value
                return (
                    isinstance(value, ast.Name)
                    and is_module_global(value.id)
                    and info.globals[value.id].is_cache
                )
            if isinstance(expr, ast.Call) and isinstance(
                expr.func, ast.Attribute
            ):
                owner = expr.func.value
                return (
                    expr.func.attr in {"get", "setdefault"}
                    and isinstance(owner, ast.Name)
                    and is_module_global(owner.id)
                    and info.globals[owner.id].is_cache
                )
            return False

        def resolve_call(call: ast.Call) -> Optional[Tuple[str, str]]:
            """(dotted module, qualname) for a resolvable call target."""
            func = call.func
            if isinstance(func, ast.Name):
                name = func.id
                if name in info.from_imports:
                    return info.from_imports[name]
                if name in shadowed:
                    return None
                return (info.dotted, name)
            if isinstance(func, ast.Attribute):
                owner = func.value
                if isinstance(owner, ast.Name):
                    if owner.id == "self" and class_name is not None:
                        return (info.dotted, f"{class_name}.{func.attr}")
                    if owner.id in info.module_aliases:
                        return (
                            info.module_aliases[owner.id],
                            func.attr,
                        )
                    if owner.id in info.from_imports:
                        target_module, original = info.from_imports[owner.id]
                        dotted = (
                            f"{target_module}.{original}"
                            if target_module
                            else original
                        )
                        return (dotted, func.attr)
                elif isinstance(owner, ast.Attribute):
                    # import a.b.c; a.b.c.f(...) — longest dotted chain.
                    chain: List[str] = [func.attr]
                    cursor: ast.expr = owner
                    while isinstance(cursor, ast.Attribute):
                        chain.append(cursor.attr)
                        cursor = cursor.value
                    if isinstance(cursor, ast.Name):
                        chain.append(cursor.id)
                        chain.reverse()
                        base = chain[0]
                        if base in info.module_aliases:
                            dotted = ".".join(
                                [info.module_aliases[base]] + chain[1:-1]
                            )
                            return (dotted, chain[-1])
            return None

        scalar_nodes = scalar_region_nodes(node)
        nonscalar_targets: Set[str] = set()
        for child in walked:
            if isinstance(child, ast.If) and _mentions_fast(child.test):
                summary.has_fast_branch = True
            # -- calls ----------------------------------------------------
            if isinstance(child, ast.Call):
                resolved = resolve_call(child)
                if resolved is not None:
                    target_key = "::".join(resolved)
                    summary.calls.append(target_key)
                    summary.call_targets[child] = target_key
                    if child not in scalar_nodes:
                        nonscalar_targets.add(target_key)
                func = child.func
                # Same-module call to a lock-assuming *_locked helper.
                if (
                    isinstance(func, ast.Name)
                    and func.id.endswith("_locked")
                    and func.id not in shadowed
                ):
                    summary.locked_calls.append(
                        LockedCall(
                            name=func.id,
                            synchronized=synchronized(child),
                            node=child,
                        )
                    )
                # Mutator method on a module-global container = write.
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and is_module_global(func.value.id)
                ):
                    effect(child, func.value.id, write=True)
                # Mutator method on a local name = local mutation site.
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and not is_module_global(func.value.id)
                ):
                    summary.mutations.append(
                        Mutation(
                            name=func.value.id,
                            node=child,
                            what=f".{func.attr}(...)",
                        )
                    )
                # ``name.seal()`` marks a value frozen-at-publish, and
                # so does ``name.setflags(write=False)`` — the ndarray
                # idiom for sealing a buffer view in place.
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "seal"
                    and isinstance(func.value, ast.Name)
                ):
                    summary.sealed_names.setdefault(
                        func.value.id, getattr(child, "lineno", 0)
                    )
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "setflags"
                    and isinstance(func.value, ast.Name)
                    and any(
                        keyword.arg == "write"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is False
                        for keyword in child.keywords
                    )
                ):
                    summary.sealed_names.setdefault(
                        func.value.id, getattr(child, "lineno", 0)
                    )
            # -- assignments ----------------------------------------------
            elif isinstance(child, ast.Assign):
                value = child.value
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        if target.id in global_decls:
                            effect(child, target.id, write=True)
                        else:
                            summary.value_sources.setdefault(
                                target.id, []
                            ).append(value)
                            if is_cache_lookup(value):
                                summary.cache_bindings.setdefault(
                                    target.id, child
                                )
                            elif isinstance(value, ast.Call):
                                resolved = resolve_call(value)
                                if resolved is not None:
                                    summary.call_bindings.setdefault(
                                        target.id, []
                                    ).append("::".join(resolved))
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        # ``a, b = expr`` — record each name's source so
                        # the dataflow walker can chase dependencies.
                        # Elementwise when the arity visibly matches,
                        # otherwise the whole RHS (conservative).
                        elements = list(target.elts)
                        paired: Optional[List[ast.expr]] = None
                        if (
                            isinstance(value, (ast.Tuple, ast.List))
                            and len(value.elts) == len(elements)
                            and not any(
                                isinstance(element, ast.Starred)
                                for element in elements
                            )
                        ):
                            paired = list(value.elts)
                        for index, element in enumerate(elements):
                            if not isinstance(element, ast.Name):
                                continue
                            if element.id in global_decls:
                                effect(child, element.id, write=True)
                                continue
                            source = paired[index] if paired else value
                            summary.value_sources.setdefault(
                                element.id, []
                            ).append(source)
                    elif isinstance(target, ast.Subscript):
                        owner = target.value
                        if isinstance(owner, ast.Name) and is_module_global(
                            owner.id
                        ):
                            effect(child, owner.id, write=True)
                            if info.globals[owner.id].is_cache:
                                summary.cache_publishes.append(
                                    CachePublish(
                                        cache_name=owner.id,
                                        value=value,
                                        node=child,
                                    )
                                )
                        elif isinstance(owner, ast.Name):
                            summary.mutations.append(
                                Mutation(
                                    name=owner.id,
                                    node=child,
                                    what="[...] = ...",
                                )
                            )
                        elif (
                            isinstance(owner, ast.Attribute)
                            and isinstance(owner.value, ast.Name)
                            and owner.value.id != "self"
                        ):
                            summary.mutations.append(
                                Mutation(
                                    name=owner.value.id,
                                    node=child,
                                    what=f".{owner.attr}[...] = ...",
                                )
                            )
                    elif isinstance(target, ast.Attribute):
                        owner = target.value
                        if isinstance(owner, ast.Name):
                            if owner.id in info.module_aliases:
                                effect(
                                    child,
                                    target.attr,
                                    write=True,
                                    module=info.module_aliases[owner.id],
                                )
                            elif owner.id != "self":
                                summary.mutations.append(
                                    Mutation(
                                        name=owner.id,
                                        node=child,
                                        what=f".{target.attr} = ...",
                                    )
                                )
            elif isinstance(child, ast.AugAssign):
                target = child.target
                if isinstance(target, ast.Name) and target.id in global_decls:
                    effect(child, target.id, write=True)
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    if is_module_global(target.value.id):
                        effect(child, target.value.id, write=True)
                    else:
                        summary.mutations.append(
                            Mutation(
                                name=target.value.id,
                                node=child,
                                what="[...] += ...",
                            )
                        )
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    if isinstance(target, ast.Name) and target.id in global_decls:
                        effect(child, target.id, write=True)
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        if is_module_global(target.value.id):
                            effect(child, target.value.id, write=True)
                        else:
                            summary.mutations.append(
                                Mutation(
                                    name=target.value.id,
                                    node=child,
                                    what="del [...]",
                                )
                            )
            # -- reads ----------------------------------------------------
            elif isinstance(child, ast.Name) and isinstance(
                child.ctx, ast.Load
            ):
                if child.id in param_set:
                    param_reads.add(child.id)
                if is_module_global(child.id) and info.globals[
                    child.id
                ].shared_mutable:
                    effect(child, child.id, write=False)
            # -- returns --------------------------------------------------
            elif isinstance(child, ast.Return) and child.value is not None:
                value = child.value
                summary.return_values.append(value)
                if isinstance(value, ast.Name):
                    summary.returned_names.add(value.id)
                elif isinstance(value, ast.Call):
                    resolved = resolve_call(value)
                    if resolved is not None:
                        summary.returned_calls.append("::".join(resolved))
                if is_cache_lookup(value):
                    summary.returns_cache_lookup = True
        if summary.returned_names & set(summary.cache_bindings):
            summary.returns_cache_lookup = True
        for child in walked:
            if isinstance(child, (ast.For, ast.AsyncFor)):
                for part in ast.walk(child.target):
                    if isinstance(part, ast.Name):
                        loop_targets.add(part.id)
            elif isinstance(
                child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in child.generators:
                    for part in ast.walk(generator.target):
                        if isinstance(part, ast.Name):
                            loop_targets.add(part.id)
        summary.param_reads = frozenset(param_reads)
        summary.loop_targets = frozenset(loop_targets)
        summary.loop_depth = max_loop_depth(node)
        summary.scalar_only_calls = frozenset(
            set(summary.calls) - nonscalar_targets
        )
        return summary


def analyze_module(context: FileContext) -> ModuleInfo:
    """Scan one parsed file into a :class:`ModuleInfo`."""
    return _ModuleScanner(context).scan()


def module_info(context: FileContext) -> ModuleInfo:
    """The context's :class:`ModuleInfo`, scanned once and kept on it.

    Every consumer (the program graph, ``lock-discipline``) shares the
    one scan, so nothing may mutate the returned summaries.
    """
    if context.module_info is None:
        context.module_info = analyze_module(context)
    return context.module_info


def _suffix_match(candidate: str, dotted: str) -> bool:
    """Dotted-suffix matching either way, so synthetic test trees
    (``pkg.sim.stats``) resolve imports written as ``sim.stats`` and
    vice versa.  A match implies equal last dotted components."""
    return candidate.endswith("." + dotted) or dotted.endswith("." + candidate)


class ProgramGraph:
    """The linked whole-program view over every scanned module."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        for module in modules:
            self.modules[module.dotted] = module
        self.functions: Dict[str, FunctionSummary] = {}
        for module in modules:
            self.functions.update(module.functions)
        self._return_deps: Optional[Dict[str, FrozenSet[str]]] = None
        #: (dotted module, simple or qual name) -> function key.
        self._by_target: Dict[Tuple[str, str], str] = {}
        for key, summary in self.functions.items():
            self._by_target[(summary.module, summary.qualname)] = key
            # Calling a class runs its __init__.
            if summary.qualname.endswith(".__init__"):
                class_qual = summary.qualname.rsplit(".", 1)[0]
                self._by_target.setdefault(
                    (summary.module, class_qual), key
                )
        #: Suffix-fallback indexes, in sorted (module, name) order.
        self._by_name: Dict[str, List[Tuple[str, str]]] = {}
        for (module, name), key in sorted(self._by_target.items()):
            self._by_name.setdefault(name, []).append((module, key))
        self._modules_by_tail: Dict[str, List[str]] = {}
        for dotted in sorted(self.modules):
            tail = dotted.rsplit(".", 1)[-1]
            self._modules_by_tail.setdefault(tail, []).append(dotted)
        self._resolved: Dict[str, Optional[str]] = {}

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProgramGraph":
        return cls([module_info(context) for context in contexts])

    def resolve(self, target: str) -> Optional[str]:
        """Function key for a ``module::name`` call target, if scanned.

        Falls back to the first dotted-suffix module match (see
        :func:`_suffix_match`) in sorted module order.  Memoized: the
        graph never changes once built.
        """
        if target in self._resolved:
            return self._resolved[target]
        module, name = target.split("::", 1)
        key = self._by_target.get((module, name))
        if key is None:
            for candidate_module, candidate in self._by_name.get(name, ()):
                if _suffix_match(candidate_module, module):
                    key = candidate
                    break
        self._resolved[target] = key
        return key

    def module_for(self, dotted: str) -> Optional[ModuleInfo]:
        """Scanned module for a dotted name, suffix fallback as in resolve."""
        module = self.modules.get(dotted)
        if module is not None:
            return module
        for candidate in self._modules_by_tail.get(
            dotted.rsplit(".", 1)[-1], ()
        ):
            if _suffix_match(candidate, dotted):
                return self.modules[candidate]
        return None

    def reachable_from(
        self, roots: Sequence[str], *, follow_scalar_calls: bool = True
    ) -> Dict[str, str]:
        """Function key -> first reaching root, BFS in sorted-root order.

        Deterministic: roots are visited in sorted order and each
        function is attributed to the first root that reaches it.  With
        ``follow_scalar_calls=False`` the walk ignores call edges that
        only occur inside scalar-twin regions of a ``perf.FAST`` split —
        the traversal the hot-path analyzer uses, so scalar references
        never inherit hotness from their fast siblings.
        """
        origin: Dict[str, str] = {}
        queue: Deque[Tuple[str, str]] = deque()
        for root in sorted(roots):
            if root in self.functions and root not in origin:
                origin[root] = root
                queue.append((root, root))
        while queue:
            key, root = queue.popleft()
            summary = self.functions[key]
            for target in summary.calls:
                if (
                    not follow_scalar_calls
                    and target in summary.scalar_only_calls
                ):
                    continue
                callee = self.resolve(target)
                if callee is not None and callee not in origin:
                    origin[callee] = root
                    queue.append((callee, root))
        return origin

    def class_names(self) -> Set[str]:
        """Every class defined in any scanned module."""
        names: Set[str] = set()
        for module in self.modules.values():
            names.update(module.classes)
        return names

    def cache_accessors(self) -> Set[str]:
        """Functions that may return a value held in a module cache.

        Fixpoint: a function is an accessor if it returns a cache
        lookup directly, returns a name bound from one, or returns the
        result of calling another accessor.
        """
        accessors: Set[str] = {
            key
            for key, summary in self.functions.items()
            if summary.returns_cache_lookup
        }
        changed = True
        while changed:
            changed = False
            for key, summary in self.functions.items():
                if key in accessors:
                    continue
                for target in summary.returned_calls:
                    callee = self.resolve(target)
                    if callee in accessors:
                        accessors.add(key)
                        changed = True
                        break
        return accessors

    def frozen_class_names(self) -> Set[str]:
        """Every ``@dataclass(frozen=True)`` class name in the program."""
        names: Set[str] = set()
        for module in self.modules.values():
            names.update(module.frozen_classes)
        return names

    def return_param_dependence(self) -> Dict[str, FrozenSet[str]]:
        """Which of each function's parameters influence its return value.

        Transitive-input fixpoint over the whole graph: a call's result
        depends on exactly the arguments its (resolved) callee's return
        depends on, so ``key = _cache_key(phase, model, space, cost)``
        carries ``{phase, model, space, cost}`` into ``key``'s
        dependence set — and dropping a parameter from ``_cache_key``'s
        returned tuple is visible at every memo site that uses it.
        Results are memoized on the graph instance (one fixpoint per
        scan).
        """
        if self._return_deps is not None:
            return self._return_deps
        deps: Dict[str, FrozenSet[str]] = {
            key: frozenset() for key in self.functions
        }
        # Monotone (dependence sets only grow), so this terminates; the
        # pass cap is a backstop against pathological cycles.
        for _ in range(16):
            changed = False
            for key in sorted(self.functions):
                summary = self.functions[key]
                found: Set[str] = set()
                for value in summary.return_values:
                    for dep in expr_deps(value, summary, self, deps):
                        if dep.kind == "param":
                            found.add(dep.name)
                fresh = frozenset(found)
                if fresh != deps[key]:
                    deps[key] = fresh
                    changed = True
            if not changed:
                break
        self._return_deps = deps
        return deps


def map_call_args(
    call: ast.Call,
    callee: FunctionSummary,
    wanted: FrozenSet[str],
) -> Optional[List[ast.expr]]:
    """Argument expressions feeding the ``wanted`` callee parameters.

    Accounts for the implicit ``self``/``cls`` slot of method calls.
    Returns ``None`` when the mapping cannot be trusted (starred
    arguments, ``**kwargs`` on either side) — callers then fall back to
    "depends on every argument".
    """
    if callee.has_varargs:
        return None
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return None
    if any(keyword.arg is None for keyword in call.keywords):
        return None
    params = list(callee.params)
    offset = (
        1
        if "." in callee.qualname and params and params[0] in {"self", "cls"}
        else 0
    )
    mapped: List[ast.expr] = []
    for name in sorted(wanted):
        if name not in params:
            continue
        position = params.index(name) - offset
        if 0 <= position < len(call.args):
            mapped.append(call.args[position])
            continue
        for keyword in call.keywords:
            if keyword.arg == name:
                mapped.append(keyword.value)
                break
        # A defaulted parameter contributes no call-site dependence.
    return mapped


def expr_deps(
    expr: ast.expr,
    summary: FunctionSummary,
    graph: ProgramGraph,
    return_deps: Mapping[str, FrozenSet[str]],
    _visited: Optional[Set[str]] = None,
) -> FrozenSet[Dep]:
    """Transitive input dependencies of ``expr`` inside ``summary``.

    Chases local names through :attr:`FunctionSummary.value_sources`,
    maps resolved calls through ``return_deps`` (the
    :meth:`ProgramGraph.return_param_dependence` fixpoint, or any
    partial map during its iteration), and classifies the roots as
    :class:`Dep` entries.  Unresolved calls conservatively depend on
    every argument — the correct direction for key-folding questions.
    """
    module = graph.modules.get(summary.module)
    params = set(summary.params)
    visited = _visited if _visited is not None else set()
    deps: Set[Dep] = set()

    def name_dep(name: str) -> None:
        if name in params:
            deps.add(Dep("param", name))
        elif name in summary.loop_targets:
            deps.add(Dep("loop", name))
        elif module is not None and name in module.globals:
            deps.add(Dep("global", name, module=module.dotted))
        elif name in summary.value_sources:
            if name in visited:
                return
            visited.add(name)
            for source in summary.value_sources[name]:
                walk(source)
        elif module is not None and name in module.from_imports:
            target, original = module.from_imports[name]
            deps.add(Dep("global", original, module=target))
        else:
            deps.add(Dep("unknown", name))

    def attribute_chain(node: ast.Attribute) -> Optional[Tuple[str, Tuple[str, ...]]]:
        chain: List[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            chain.append(cursor.attr)
            cursor = cursor.value
        if isinstance(cursor, ast.Name):
            chain.reverse()
            return cursor.id, tuple(chain)
        return None

    def walk(node: ast.expr) -> None:
        if isinstance(node, ast.Constant):
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                name_dep(node.id)
            return
        if isinstance(node, ast.Attribute):
            rooted = attribute_chain(node)
            if rooted is None:
                walk(node.value)
                return
            root, chain = rooted
            if root in params:
                deps.add(Dep("param", root, chain=chain))
            elif root in summary.loop_targets:
                deps.add(Dep("loop", root, chain=chain))
            elif module is not None and root in module.module_aliases:
                deps.add(
                    Dep(
                        "global",
                        chain[0],
                        module=module.module_aliases[root],
                        chain=chain[1:],
                    )
                )
            elif module is not None and root in module.from_imports:
                target, original = module.from_imports[root]
                dotted = f"{target}.{original}" if target else original
                deps.add(Dep("global", chain[0], module=dotted, chain=chain[1:]))
            elif module is not None and root in module.globals:
                deps.add(Dep("global", root, module=module.dotted, chain=chain))
            elif root in summary.value_sources:
                name_dep(root)
            else:
                deps.add(Dep("unknown", root, chain=chain))
            return
        if isinstance(node, ast.Call):
            target = summary.call_targets.get(node)
            callee_key = graph.resolve(target) if target is not None else None
            if callee_key is not None and callee_key in return_deps:
                callee = graph.functions[callee_key]
                mapped = map_call_args(node, callee, return_deps[callee_key])
                if mapped is not None:
                    for argument in mapped:
                        walk(argument)
                    return
            for argument in node.args:
                walk(argument.value if isinstance(argument, ast.Starred) else argument)
            for keyword in node.keywords:
                walk(keyword.value)
            # The receiver of an unresolved bound-method call is a data
            # input too (``rng.random()`` depends on ``rng``); a bare
            # function name is identity, not data.
            if isinstance(node.func, ast.Attribute):
                walk(node.func.value)
            return
        if isinstance(node, ast.Lambda):
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                walk(child)
            elif isinstance(child, ast.comprehension):
                walk(child.iter)
                for condition in child.ifs:
                    walk(condition)

    walk(expr)
    return frozenset(deps)


def shared_graph(contexts: Sequence[FileContext]) -> ProgramGraph:
    """The scan-wide :class:`ProgramGraph`, built at most once per scan.

    Every whole-program rule (effects, hot-path) wants the same graph
    over the same context list; routing them through the
    :func:`~repro.analysis.core.shared_analysis` memo keeps the lint's
    own cost linear in the number of program rules.
    """
    return shared_analysis(contexts, "callgraph", ProgramGraph.build)
