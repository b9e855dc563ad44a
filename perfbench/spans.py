"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: its name, start, end and the
span that was open when it started (its parent).  The top-level span a
span runs under is its root; every span under one root belongs to the
same cell, so the root index is the cell id.  Spans live in flat
``array`` columns while the run is going and are reduced (and written
out) only when it ends.

Spans are recorded from the benchmark's own code: :meth:`Tracer.patch`
replaces the name a caller actually looks up (a class attribute, or
every ``repro`` module global bound to a function) with a timing
wrapper, and :meth:`Tracer.span` times a block the benchmark runs
itself.  :meth:`Tracer.unpatch` restores every original.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time
import types
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np


class Tracer:
    """Span columns plus the patches that feed them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.failed: List[int] = []  # indices of spans that raised
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def wrap(self, name: str, function):
        """A timing wrapper around ``function`` recording span ``name``.

        The bookkeeping is inlined: it runs on every call of hot
        functions, and what it costs before the start stamp is charged
        to the parent span, not to this one.
        """
        name_id = self._intern(name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, failed, clock = self._stack, self.failed, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            except BaseException:
                failed.append(index)
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block the benchmark runs itself."""
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield
        except BaseException:
            self.failed.append(index)
            raise
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def _set(self, owner: object, attr: str, value: object, original: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch(self, name: str, target: str) -> bool:
        """Wrap ``target`` (``"pkg.module:Class.method"`` or
        ``"pkg.module:function"``) so each call records span ``name``.

        A method is replaced on its class.  A module function is
        replaced in its module and in every loaded ``repro`` module
        that imported it by name, since that global is what those
        callers look up.  Returns False, patching nothing, when the
        target does not exist in the code under test.
        """
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner: object = module
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = vars(owner).get(attr)
        if not isinstance(original, types.FunctionType):
            return False
        wrapped = self.wrap(name, original)
        self._set(owner, attr, wrapped, original)
        if owner is module:
            for other_name, other in list(sys.modules.items()):
                if other is module or not (
                    other_name == "repro" or other_name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapped, original)
        return True

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def columns(self) -> Dict[str, np.ndarray]:
        """Every span as numpy columns, with its root (cell id)."""
        count = len(self)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        # Top-level spans point at themselves; a parent always precedes
        # its child, so jumping along the links reaches a fixpoint where
        # every span points at its root.
        root = np.where(parent >= 0, parent, np.arange(count, dtype=np.int32))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        failed = np.zeros(count, dtype=np.int8)
        failed[self.failed] = 1
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "root": root,
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "failed": failed,
        }

    def summary(self) -> Tuple[Dict[str, Dict[str, object]], float]:
        """Per span name: calls, busy and self seconds, failures and the
        duration of every call; plus the seconds covered by root spans.

        A span's self time is its duration minus the durations of its
        direct children, which (spans nest strictly on one thread) is
        the part of it no other timed span covers.
        """
        cols = self.columns()
        count = len(self)
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=count
        )
        self_time = duration - children
        name_id = cols["name_id"]
        table: Dict[str, Dict[str, object]] = {}
        for index, name in enumerate(self.names):
            mask = name_id == index
            table[name] = {
                "calls": int(mask.sum()),
                "s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "failed": int(cols["failed"][mask].sum()),
                "durations": duration[mask],
            }
        covered = float(duration[~nested].sum())
        return table, covered

    def write(self, path: Path) -> Path:
        """Write every span to ``path`` (an ``.npz`` of the columns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.columns())
        return path
