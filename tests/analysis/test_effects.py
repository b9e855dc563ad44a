"""The shared-state effect rules: worker-global-write, lock-discipline,
cache-mutation.

Every rule gets a trigger case and a no-trigger twin (the same code
with the discipline restored), plus pragma suppression and the
acceptance check that the real engine modules are clean.
"""

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES
from repro.analysis.core import (
    FileContext,
    check_file,
    check_program,
    scan_paths,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestWorkerGlobalWrite:
    def test_write_in_entrypoint_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                _RESULTS = []

                def run_cell(spec):
                    _RESULTS.append(spec)
                    return spec
                """
            },
            rules=["worker-global-write"],
        )
        assert rules_of(findings) == {"worker-global-write"}
        assert "_RESULTS" in findings[0].message
        assert "worker entrypoint" in findings[0].message

    def test_write_reached_through_call_chain_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                from repro.sim.tables import lookup

                def run_cell(spec):
                    return lookup(spec)
                """,
                "src/repro/sim/tables.py": """
                _MEMO = {}

                def lookup(spec):
                    _MEMO[spec] = spec
                    return spec
                """,
            },
            rules=["worker-global-write"],
        )
        assert rules_of(findings) == {"worker-global-write"}
        (finding,) = findings
        assert finding.path == "src/repro/sim/tables.py"
        assert "run_cell" in finding.message

    def test_fast_twin_is_a_root_too(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/engine.py": """
                from repro import perf

                _SCRATCH = {}

                def kernel(x):
                    if perf.FAST:
                        _SCRATCH[x] = x
                        return x
                    return x
                """
            },
            rules=["worker-global-write"],
        )
        assert rules_of(findings) == {"worker-global-write"}
        assert "perf.FAST twin" in findings[0].message

    def test_lock_synchronized_write_does_not_fire(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                import threading

                _LOCK = threading.Lock()
                _RESULTS = []

                def run_cell(spec):
                    with _LOCK:
                        _RESULTS.append(spec)
                    return spec
                """
            },
            rules=["worker-global-write"],
        )
        assert findings == []

    def test_unreachable_write_does_not_fire(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                _RESULTS = []

                def run_cell(spec):
                    return spec

                def debug_note(spec):
                    _RESULTS.append(spec)
                """
            },
            rules=["worker-global-write"],
        )
        assert findings == []

    def test_pragma_suppresses(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                _RESULTS = []

                def run_cell(spec):
                    _RESULTS.append(spec)  # lint: allow(worker-global-write)
                    return spec
                """
            },
            rules=["worker-global-write"],
        )
        assert findings == []


class TestLockDiscipline:
    def test_unlocked_write_in_lock_module_fires(self, lint_source):
        findings = lint_source(
            """
            import threading

            _CACHE_LOCK = threading.Lock()
            _TABLE = {}

            def publish(key, value):
                _TABLE[key] = value
            """,
            rules=["lock-discipline"],
        )
        assert rules_of(findings) == {"lock-discipline"}
        assert "write to" in findings[0].message

    def test_unlocked_read_fires_once_per_site(self, lint_source):
        findings = lint_source(
            """
            import threading

            _CACHE_LOCK = threading.Lock()
            _TABLE = {}

            def peek(key):
                return _TABLE.get(key)
            """,
            rules=["lock-discipline"],
        )
        assert len(findings) == 1
        assert "read of" in findings[0].message

    def test_locked_access_does_not_fire(self, lint_source):
        findings = lint_source(
            """
            import threading

            _CACHE_LOCK = threading.Lock()
            _TABLE = {}

            def publish(key, value):
                with _CACHE_LOCK:
                    _TABLE[key] = value

            def peek(key):
                with _CACHE_LOCK:
                    return _TABLE.get(key)
            """,
            rules=["lock-discipline"],
        )
        assert findings == []

    def test_module_without_lock_is_out_of_scope(self, lint_source):
        findings = lint_source(
            """
            _TABLE = {}

            def publish(key, value):
                _TABLE[key] = value
            """,
            rules=["lock-discipline"],
        )
        assert findings == []

    def test_immutable_constant_read_does_not_fire(self, lint_source):
        findings = lint_source(
            """
            import threading

            _CACHE_LOCK = threading.Lock()
            _MAXSIZE = 4096

            def limit():
                return _MAXSIZE
            """,
            rules=["lock-discipline"],
        )
        assert findings == []


class TestStoreLockConventions:
    """The tiered-store idioms the analyzer understands: ``*_LOCK``
    named slots (even ``None``-initialized cross-process ones),
    ``*_locked`` caller-holds-the-lock helpers, and sealing an ndarray
    in place with ``setflags(write=False)`` before publishing it."""

    def test_none_initialized_lock_slot_declares_the_protocol(
        self, lint_source
    ):
        findings = lint_source(
            """
            _CREATE_LOCK = None
            _TABLE = {}

            def publish(key, value):
                _TABLE[key] = value
            """,
            rules=["lock-discipline"],
        )
        assert rules_of(findings) == {"lock-discipline"}

    def test_with_block_on_named_lock_slot_passes(self, lint_source):
        findings = lint_source(
            """
            _CREATE_LOCK = None
            _TABLE = {}

            def publish(key, value):
                with _CREATE_LOCK:
                    _TABLE[key] = value
            """,
            rules=["lock-discipline"],
        )
        assert findings == []

    def test_locked_helper_own_effects_pass(self, lint_source):
        findings = lint_source(
            """
            import threading

            _STORE_LOCK = threading.Lock()
            _SEGMENTS = {}

            def _register_locked(name, seg):
                _SEGMENTS[name] = seg

            def register(name, seg):
                with _STORE_LOCK:
                    _register_locked(name, seg)
            """,
            rules=["lock-discipline"],
        )
        assert findings == []

    def test_unlocked_call_to_locked_helper_fires(self, lint_source):
        findings = lint_source(
            """
            import threading

            _STORE_LOCK = threading.Lock()
            _SEGMENTS = {}

            def _register_locked(name, seg):
                _SEGMENTS[name] = seg

            def register(name, seg):
                _register_locked(name, seg)
            """,
            rules=["lock-discipline"],
        )
        assert rules_of(findings) == {"lock-discipline"}
        assert "_register_locked" in findings[0].message
        assert "lock already held" in findings[0].message

    def test_locked_helper_chaining_locked_helpers_passes(
        self, lint_source
    ):
        findings = lint_source(
            """
            import threading

            _STORE_LOCK = threading.Lock()
            _SEGMENTS = {}
            _VIEWS = {}

            def _view_locked(name):
                return _VIEWS.get(name)

            def _register_locked(name, seg):
                _SEGMENTS[name] = seg
                return _view_locked(name)

            def register(name, seg):
                with _STORE_LOCK:
                    return _register_locked(name, seg)
            """,
            rules=["lock-discipline"],
        )
        assert findings == []

    def test_setflags_sealed_publish_does_not_fire(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _CACHE = {}

                def publish(key, values):
                    view = values.copy()
                    view.setflags(write=False)
                    _CACHE[key] = view
                """
            },
            rules=["cache-mutation"],
        )
        assert findings == []

    def test_writable_ndarray_publish_still_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _CACHE = {}

                def publish(key, values):
                    view = values.copy()
                    view.setflags(write=True)
                    _CACHE[key] = view
                """
            },
            rules=["cache-mutation"],
        )
        assert rules_of(findings) == {"cache-mutation"}


class TestCacheMutation:
    def test_unfrozen_publish_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _CACHE = {}

                def publish(key, value):
                    _CACHE[key] = [value]
                """
            },
            rules=["cache-mutation"],
        )
        assert rules_of(findings) == {"cache-mutation"}
        assert "not provably frozen" in findings[0].message

    def test_frozen_publishes_do_not_fire(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                from dataclasses import dataclass
                from types import MappingProxyType

                _CACHE = {}

                @dataclass(frozen=True)
                class Entry:
                    value: float

                def publish_tuple(key, value):
                    _CACHE[key] = (value,)

                def publish_proxy(key, mapping):
                    _CACHE[key] = MappingProxyType(mapping)

                def publish_dataclass(key, value):
                    _CACHE[key] = Entry(value)

                def publish_sealed(key, table):
                    table.seal()
                    _CACHE[key] = table
                """
            },
            rules=["cache-mutation"],
        )
        assert findings == []

    def test_mutating_a_cache_lookup_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _CACHE = {}

                def lookup(key):
                    return _CACHE.get(key)
                """,
                "src/repro/baselines/consumer.py": """
                from repro.sim.tables import lookup

                def consume(key):
                    table = lookup(key)
                    table.append(1)
                    return table
                """,
            },
            rules=["cache-mutation"],
        )
        assert rules_of(findings) == {"cache-mutation"}
        (finding,) = findings
        assert finding.path == "src/repro/baselines/consumer.py"
        assert "lookup" in finding.message

    def test_mutating_a_copy_does_not_fire(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _CACHE = {}

                def lookup(key):
                    return _CACHE.get(key)
                """,
                "src/repro/baselines/consumer.py": """
                from repro.sim.tables import lookup

                def consume(key):
                    table = lookup(key)
                    mine = list(table)
                    mine.append(1)
                    return mine
                """,
            },
            rules=["cache-mutation"],
        )
        assert findings == []

    def test_accessor_chain_propagates(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _CACHE = {}

                def lookup(key):
                    return _CACHE.get(key)

                def true_points(key):
                    return lookup(key)
                """,
                "src/repro/baselines/consumer.py": """
                from repro.sim.tables import true_points

                def consume(key):
                    points = true_points(key)
                    points.sort()
                    return points
                """,
            },
            rules=["cache-mutation"],
        )
        assert rules_of(findings) == {"cache-mutation"}
        assert "true_points" in findings[0].message

    def test_subscript_store_into_lookup_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _CACHE = {}

                def lookup(key):
                    return _CACHE.get(key)

                def poison(key):
                    table = lookup(key)
                    table[0] = None
                """
            },
            rules=["cache-mutation"],
        )
        assert rules_of(findings) == {"cache-mutation"}


class TestRepoTipIsClean:
    """The acceptance claim: the engine's real shared state obeys all
    three disciplines (the optables publish is sealed, every global
    touch is lock-guarded, no caller mutates a cached table)."""

    @pytest.mark.parametrize(
        "relative",
        [
            "src/repro/sim/optables.py",
            "src/repro/arch/fabric.py",
            "src/repro/experiments/stats.py",
            "src/repro/cloud/provider.py",
            "src/repro/runtime/optimizer.py",
        ],
    )
    def test_engine_module_lints_clean(self, relative):
        path = REPO_ROOT / relative
        context = FileContext(relative, path.read_text(encoding="utf-8"))
        effect_rules = [
            rule
            for rule in ALL_RULES
            if rule.id
            in {"worker-global-write", "lock-discipline", "cache-mutation"}
        ]
        findings = check_program([context], effect_rules)
        findings += check_file(context, effect_rules)
        assert findings == []

    def test_whole_src_tree_runs_the_effect_rules_clean(self):
        findings = scan_paths(
            [REPO_ROOT / "src"], ALL_RULES, root=REPO_ROOT
        )
        effect_findings = [
            f
            for f in findings
            if f.rule
            in {"worker-global-write", "lock-discipline", "cache-mutation"}
        ]
        assert effect_findings == []
