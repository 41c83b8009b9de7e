"""Spans around the public functions of each wondersys layer, installed from outside.

`Tracer.install` replaces every public function named in `SPANS` with a
wrapper, in every loaded `wondersys` module that refers to it (so
`wondersys.rigidity.localize` and `wondersys.localize.detect_subdiagram_type`
are traced too), and wraps `RootSystem.__init__` on the class.  `uninstall`
puts the originals back, so untraced passes run the unmodified program.

Each span records its name, start, end, parent span and the op that caused
it.  Spans are kept in compact arrays in memory and written out by `dump`.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

# Span name -> (module, attribute).  "Class.__init__" wraps construction.
SPANS: Dict[str, Tuple[str, str]] = {
    "rootlat.RootSystem": ("wondersys.rootlat", "RootSystem.__init__"),
    "rootlat.detect_subdiagram_type": ("wondersys.rootlat", "detect_subdiagram_type"),
    "rootlat.positive_roots": ("wondersys.rootlat", "positive_roots"),
    "localize.localize": ("wondersys.localize", "localize"),
    "rigidity.distinguished_elements": ("wondersys.rigidity", "distinguished_elements"),
    "rigidity.critical_roots": ("wondersys.rigidity", "critical_roots"),
    "sphsys.validate_system": ("wondersys.sphsys", "validate_system"),
    "serialize.loads": ("wondersys.serialize", "loads"),
    "serialize.document_to_system": ("wondersys.serialize", "document_to_system"),
    "serialize.dumps": ("wondersys.serialize", "dumps"),
    "orbits.orbit_poset": ("wondersys.orbits", "orbit_poset"),
    "orbits.emit_graph": ("wondersys.orbits", "emit_graph"),
    "catalog.catalog_entry": ("wondersys.catalog", "catalog_entry"),
}


def _count_loads(counters, args, result):
    counters["serialize.bytes_in"] += len(args[0].encode())


def _count_validate(counters, args, result):
    counters["sphsys.validate_system.rejected"] += not result.ok
    counters["sphsys.violations"] += len(result.violations)


def _count_critical(counters, args, result):
    counters["rigidity.open_roots"] += sum(
        not e.distinguished and not e.vacuous for e in result.entries
    )


def _count_orbits(counters, args, result):
    counters["orbits.nodes"] += len(result.nodes)


# Counters taken from a traced call's arguments and result.
COUNTERS: Dict[str, Callable] = {
    "serialize.loads": _count_loads,
    "sphsys.validate_system": _count_validate,
    "rigidity.critical_roots": _count_critical,
    "orbits.orbit_poset": _count_orbits,
}
COUNTER_NAMES = ("serialize.bytes_in", "sphsys.validate_system.rejected",
                 "sphsys.violations", "rigidity.open_roots", "orbits.nodes")


class Tracer:
    def __init__(self):
        self.names: List[str] = list(SPANS)
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)
        self.current_op = -1
        self.enabled = True
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.names.index(name)
        count = COUNTERS.get(name)
        stack, start, end = self._stack, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in SPANS wherever a wondersys module refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wondersys" or n.startswith("wondersys."))]
        for name, (module_name, attr) in SPANS.items():
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def summary(self, op_scale=()) -> Dict[str, Tuple[int, float]]:
        """Calls and self seconds per span name; self = duration minus child spans.

        A span's self time is multiplied by op_scale[op] when its op has a factor.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            op = self.op[i]
            scale = op_scale[op] if 0 <= op < len(op_scale) else 1.0
            entry[0] += 1
            entry[1] += (self.end[i] - self.start[i] - child[i]) * scale
        return {k: (c, s) for k, (c, s) in out.items()}

    def localizations_under(self, parent_name: str) -> int:
        """Number of localize spans whose parent span is `parent_name`."""
        loc, par = self.names.index("localize.localize"), self.names.index(parent_name)
        return sum(1 for i in range(len(self.name))
                   if self.name[i] == loc and self.parent[i] >= 0
                   and self.name[self.parent[i]] == par)

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "counters": self.counters,
            "spans": [[self.name[i], self.parent[i], self.op[i], self.start[i], self.end[i]]
                      for i in range(len(self.start))],
        }

    def absorb(self, data: dict, op: int) -> None:
        """Append spans written by a traced child process, re-parented and tagged with `op`."""
        base = len(self.start)
        for nid, parent, _, start, end in data["spans"]:
            self.name.append(self.names.index(data["names"][nid]))
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op)
            self.start.append(start)
            self.end.append(end)
        for key, value in data["counters"].items():
            self.counters[key] += value

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, separators=(",", ":"))
