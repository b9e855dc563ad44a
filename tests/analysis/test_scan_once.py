"""The analyzer does each piece of work once per scan.

Covers the mechanisms behind that: the indexed, memoized
``ProgramGraph.resolve`` (checked against the sorted linear scan it
replaced), the per-context ``ModuleInfo`` shared by the program graph
and ``lock-discipline``, the per-context node tuple, and the
``shared_analysis`` memo releasing a finished scan.
"""

import ast
import gc
import textwrap
import weakref
from collections import Counter
from pathlib import Path

from repro.analysis import ALL_RULES, RULES_BY_ID
from repro.analysis import callgraph, core
from repro.analysis.callgraph import ProgramGraph, module_info
from repro.analysis.core import (
    FileContext,
    check_file,
    check_program,
    load_contexts,
    scan_paths,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def module(path, source):
    return FileContext(path, textwrap.dedent(source))


def reference_resolve(graph, target):
    """The pre-index ``resolve``: exact hit, else the first suffix
    match in a full sort of the target table."""
    module_name, name = target.split("::", 1)
    key = graph._by_target.get((module_name, name))
    if key is not None:
        return key
    for (candidate_module, candidate_name), candidate in sorted(
        graph._by_target.items()
    ):
        if candidate_name != name:
            continue
        if candidate_module.endswith("." + module_name) or (
            module_name.endswith("." + candidate_module)
        ):
            return candidate
    return None


def reference_module_for(graph, dotted):
    """The pre-index module lookup with the same suffix fallback."""
    found = graph.modules.get(dotted)
    if found is not None:
        return found
    for candidate in sorted(graph.modules):
        if candidate.endswith("." + dotted) or dotted.endswith(
            "." + candidate
        ):
            return graph.modules[candidate]
    return None


def all_targets(graph):
    targets = set()
    for summary in graph.functions.values():
        targets.update(summary.calls)
        targets.update(summary.returned_calls)
        for bound in summary.call_bindings.values():
            targets.update(bound)
    return sorted(targets)


class TestResolveParity:
    def test_every_repo_tip_call_target_matches_the_linear_scan(self):
        contexts, errors = load_contexts([REPO_ROOT / "src"], root=REPO_ROOT)
        assert errors == []
        graph = ProgramGraph.build(contexts)
        targets = all_targets(graph)
        assert len(targets) > 1000
        resolved = 0
        for target in targets:
            expected = reference_resolve(graph, target)
            assert graph.resolve(target) == expected, target
            # Second lookup comes from the memo.
            assert graph.resolve(target) == expected, target
            resolved += expected is not None
        assert resolved > 300
        imported = sorted(
            {
                target
                for info in graph.modules.values()
                for target, _ in info.from_imports.values()
            }
        )
        for dotted in imported:
            assert graph.module_for(dotted) is reference_module_for(
                graph, dotted
            ), dotted

    def test_suffix_rule_decides_in_both_directions(self):
        graph = ProgramGraph.build(
            [
                module(
                    "pkg/sim/stats.py",
                    """
                    def run_cell(spec):
                        return spec
                    """,
                ),
                module(
                    "sim/tables.py",
                    """
                    def lookup(key):
                        return key
                    """,
                ),
                module(
                    "pkg/experiments/driver.py",
                    """
                    from sim.stats import run_cell
                    from pkg.sim.tables import lookup

                    def drive(spec):
                        return run_cell(spec), lookup(spec)
                    """,
                ),
            ]
        )
        for target, expected in (
            ("sim.stats::run_cell", "pkg/sim/stats.py::run_cell"),
            ("pkg.sim.tables::lookup", "sim/tables.py::lookup"),
            ("stats::run_cell", "pkg/sim/stats.py::run_cell"),
            ("other.stats::run_cell", None),
            ("sim.stats::missing", None),
        ):
            assert graph.resolve(target) == expected, target
            assert reference_resolve(graph, target) == expected, target
        assert graph.module_for("sim.stats") is graph.modules["pkg.sim.stats"]
        assert graph.module_for("pkg.sim.tables") is graph.modules["sim.tables"]
        assert graph.module_for("other.stats") is None
        driver = graph.functions["pkg/experiments/driver.py::drive"]
        assert [graph.resolve(target) for target in driver.calls] == [
            "pkg/sim/stats.py::run_cell",
            "sim/tables.py::lookup",
        ]

    def test_same_name_candidates_are_ordered_by_the_sort(self):
        source = """
        def run(spec):
            return spec
        """
        # Scanned in reverse order, so only the sort picks ``a``.
        graph = ProgramGraph.build(
            [
                module("b/sim/stats.py", source),
                module("a/sim/stats.py", source),
                module("c/sim/stats.py", source),
            ]
        )
        for target in ("sim.stats::run", "stats::run"):
            assert graph.resolve(target) == "a/sim/stats.py::run"
            assert reference_resolve(graph, target) == "a/sim/stats.py::run"
        assert graph.module_for("sim.stats") is graph.modules["a.sim.stats"]


class TestOneScanPerFile:
    def test_lock_discipline_and_program_rules_share_one_scan(
        self, monkeypatch
    ):
        scans = Counter()
        original = callgraph._ModuleScanner.scan

        def counting(self):
            scans[self.context.display_path] += 1
            return original(self)

        monkeypatch.setattr(callgraph._ModuleScanner, "scan", counting)
        contexts = [
            module(
                "src/repro/sim/store.py",
                """
                import threading

                _LOCK = threading.Lock()
                _CACHE = {}

                def put(key, value):
                    _CACHE[key] = value
                """,
            ),
            module(
                "src/repro/experiments/stats.py",
                """
                from repro.sim.store import put

                def run_cell(spec):
                    put(spec, spec)
                """,
            ),
        ]
        findings = []
        for context in contexts:
            findings.extend(
                check_file(context, [RULES_BY_ID["lock-discipline"]])
            )
        program_rules = [rule for rule in ALL_RULES if rule.whole_program]
        findings.extend(check_program(contexts, program_rules))
        assert {finding.rule for finding in findings} >= {
            "lock-discipline",
            "worker-global-write",
        }
        assert scans == {context.display_path: 1 for context in contexts}
        for context in contexts:
            assert module_info(context) is context.module_info

    def test_node_tuple_is_the_walk_order(self):
        context = module(
            "src/repro/sim/demo.py",
            """
            class Alpha:
                def f(self, x):
                    return [y for y in x if y]
            """,
        )
        assert context.nodes == tuple(ast.walk(context.tree))


class TestMemoReleasesScan:
    def test_scan_paths_leaves_no_context_alive(self, tmp_path, monkeypatch):
        package = tmp_path / "pkg"
        (package / "sim").mkdir(parents=True)
        (package / "experiments").mkdir()
        (package / "sim" / "tables.py").write_text(
            textwrap.dedent(
                """
                import random

                _CACHE = {}

                def lookup(key, seed):
                    hit = _CACHE.get(key)
                    if hit is None:
                        hit = random.Random(seed).random()
                        _CACHE[key] = hit
                    return hit
                """
            )
        )
        (package / "experiments" / "stats.py").write_text(
            textwrap.dedent(
                """
                from pkg.sim.tables import lookup

                def run_cell(spec):
                    return lookup(spec, spec)
                """
            )
        )
        refs = []
        original = core.load_contexts

        def recording(paths, root=None):
            contexts, errors = original(paths, root=root)
            refs.extend(weakref.ref(context) for context in contexts)
            return contexts, errors

        monkeypatch.setattr(core, "load_contexts", recording)
        scan_paths([tmp_path], ALL_RULES, root=tmp_path)
        gc.collect()
        assert len(refs) == 2
        alive = [ref().display_path for ref in refs if ref() is not None]
        assert alive == []
