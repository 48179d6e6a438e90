"""Spans around the public calls into each `bedlam` module, from outside.

`Tracer.install` replaces the names that callers look up (module
attributes and a few class methods) with wrappers that record one span
per call: name, start, end, parent span and op id.  Spans live in typed
arrays while the run lasts and are written out when it ends.  A layer's
self time is its spans' durations minus the durations of their direct
children; all work is single-threaded, so children never overlap.

`uninstall` puts every original back.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

OP_SPAN = "bench.op"

# (module, attribute, span name).  Wrap the name the caller looks up: the
# solver's own references to eval_partial and eval_closed, not the
# statements module's, because eval_closed calls eval_partial internally.
FUNCTIONS = (
    ("bedlam.cli", "main", "cli.main"),
    ("bedlam.cli", "parse_puzzle_file", "parser.parse_puzzle_file"),
    ("bedlam.parser", "parse_puzzle_file", "parser.parse_puzzle_file"),
    ("bedlam.cli", "parse_world_file", "parser.parse_world_file"),
    ("bedlam.cli", "solve_all", "solver.solve_all"),
    ("bedlam.solver", "solve_all", "solver.solve_all"),
    ("bedlam.cli", "check_world", "solver.check_world"),
    ("bedlam.solver", "check_world", "solver.check_world"),
    ("bedlam.solver", "brute_force_solve", "solver.brute_force_solve"),
    ("bedlam.cli", "explain_solution", "solver.explain_solution"),
    ("bedlam.cli", "extract_word", "extraction.extract_word"),
    ("bedlam.solver", "eval_partial", "statements.eval_partial"),
    ("bedlam.solver", "eval_closed", "statements.eval_closed"),
)
# (module, class, method, span name).  World is counted through its
# __init__: a subclass would break the oracle's comparisons, because
# dataclass equality compares classes.
METHODS = (
    ("bedlam.puzzle", "PuzzleSpec", "validate", "puzzle.validate"),
    ("bedlam.worlds", "World", "__init__", "worlds.World"),
    ("bedlam.worlds", "World", "sort_key", "worlds.sort_key"),
)


class Tracer:
    """Records spans while installed; derives per-layer figures after."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op = [-1]
        self.unknown_results = 0
        self.accepted_checks = 0
        self.nodes = 0
        self.worlds_found = 0
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrapper(self, original, name: str, observe=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, current = self._stack, self._op
        names, starts, ends = self.name, self.start, self.end
        parents, ops = self.parent, self.op

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(current[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def _observers(self) -> dict:
        from bedlam.statements import UNKNOWN

        def partial(result):
            if result is UNKNOWN:
                self.unknown_results += 1

        def checked(result):
            if result:
                self.accepted_checks += 1

        def solved(result):
            self.nodes += result.statistics.nodes
            self.worlds_found += result.statistics.worlds_found

        return {"statements.eval_partial": partial,
                "solver.check_world": checked,
                "solver.solve_all": solved}

    def install(self) -> None:
        import importlib
        if self._patches:
            raise RuntimeError("tracer is already installed")
        observers = self._observers()
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr,
                    self._wrapper(original, name, observers.get(name)))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrapper(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as the root span of op `op_id`."""
        self._op[0] = op_id
        try:
            return self._wrapper(fn, OP_SPAN)(*args)
        finally:
            self._op[0] = -1

    # --- derivation ---

    def calls_by_op(self) -> dict[int, Counter]:
        """Span counts per op id, keyed by span name."""
        per_op: dict[int, Counter] = {}
        for nid, op in zip(self.name, self.op):
            per_op.setdefault(op, Counter())[self.names[nid]] += 1
        return per_op

    def layers(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        child = array("d", [0.0]) * len(self.start)
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        own = Counter()
        for i, (nid, start, end) in enumerate(zip(self.name, self.start,
                                                  self.end)):
            calls[nid] += 1
            own[nid] += end - start - child[i]
        return {self.names[nid]: (calls[nid], own[nid]) for nid in calls}

    def write(self, directory: Path) -> None:
        """Write the spans as one binary file per field plus a header."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {"name": self.name, "start": self.start, "end": self.end,
                  "parent": self.parent, "op": self.op}
        for field, values in fields.items():
            with open(directory / f"{field}.bin", "wb") as handle:
                values.tofile(handle)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "fields": {field: values.typecode
                       for field, values in fields.items()},
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter seconds; parent -1 is a root",
        }
        with open(directory / "spans.json", "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=1)
            handle.write("\n")
