"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces each traced function in every `houghton` module
namespace that holds it, so calls are caught wherever the name is looked
up (`houghton.conjugacy.cycle_type`, `houghton.orbits.cycle_decomposition`,
`HoughtonElement.__mul__` reaching `houghton.core.compose`, ...).  Timed
functions record a span (name, start, end, parent) in CPU seconds; `apply`
is only counted.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List

TIMED = {
    "core": ("compose", "inverse", "conjugate_element", "evaluate", "serialize", "deserialize"),
    "orbits": ("cycle_decomposition", "cycle_type"),
    "conjugacy": ("fsym_conjugate", "conjugate", "compute_bounds", "construct_translation_element", "verify"),
    "oracle": ("brute_force_conjugator",),
    "cli": ("main",),
}
COUNTED = {"core": ("apply",)}
# the oracle reaches conjugacy.verify through its own namespace; those calls
# are the candidates the oracle tests, so they get a name of their own
RENAMED = {("houghton.oracle", "verify"): "oracle.verify"}
ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.labels: List[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Dict[str, List[int]] = {}
        self.fsym_hits = [0]
        self._undo = []

    def label_id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def install(self) -> None:
        targets = {}
        for kinds, timed in ((TIMED, True), (COUNTED, False)):
            for home, names in kinds.items():
                module = importlib.import_module("houghton." + home)
                for attr in names:
                    fn = getattr(module, attr)
                    targets[id(fn)] = (fn, "%s.%s" % (home, attr), timed)
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "houghton"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is None or target[0] is not value:
                    continue
                fn, label, timed = target
                label = RENAMED.get((module.__name__, attr), label)
                wrapper = self._timed(label, fn) if timed else self._counted(label, fn)
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _timed(self, label: str, fn):
        nid = self.label_id(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        hits = self.fsym_hits if label == "conjugacy.fsym_conjugate" else None
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hits is not None and result.is_conjugate:
                hits[0] += 1
            return result

        return wrapper

    def _counted(self, label: str, fn):
        cell = self.counts.setdefault(label, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def root(self):
        """A wrapper that records one operation as a root span."""
        return self._timed(ROOT_SPAN, lambda fn: fn())

    def calls_per_root(self, label: str) -> List[int]:
        """Calls of `label` under each root span, in order."""
        root = self.label_id(ROOT_SPAN)
        nid = self.labels.index(label) if label in self.labels else -1
        counts: List[int] = []
        for i in self.name:
            if i == root:
                counts.append(0)
            elif i == nid and counts:
                counts[-1] += 1
        return counts

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Calls and self CPU seconds per label.  Self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {label: {"calls": 0, "self_s": 0.0} for label in self.labels}
        for i, nid in enumerate(self.name):
            row = out[self.labels[nid]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - child[i]
        for label, cell in self.counts.items():
            out[label] = {"calls": cell[0], "self_s": 0.0}
        return out

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, nid in enumerate(self.name):
                out.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (i, self.parent[i], self.labels[nid], self.start[i], self.end[i]))
