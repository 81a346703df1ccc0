"""Outside-in span recorder for the gsembed layers.

The recorder wraps each public layer function wherever it is bound: in its
own module, in the ``gsembed`` package namespace, in every ``gsembed.*``
module that imported it by name (``cli``'s ``from .x import y``, and
cross-module bindings such as ``embanalyzer.boyd_indices``), and in
``__main__`` when the CLI runs as a script.  Calls between modules therefore
stay inside the trace.  A function calling itself opens no new span: spans
mark layer boundaries, so ``calls`` counts entries from other code.

Spans are kept in memory as (id, parent, op, name, start, end) and written
out once, at the end, as CSV.  ``aggregate`` turns them into calls and
self time per name; self time is a span's duration minus the time its
children cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from array import array

LAYERS = {
    "seqdsl": ("parse", "canonicalize", "decompose", "render", "log2_value",
               "evaluate"),
    "seqcore": ("boyd_indices", "is_almost_strongly_increasing",
                "certify_admissible"),
    "embanalyzer": ("criterion_sequence", "ellr_membership", "compactness",
                    "nuclearity", "entropy_rate"),
    "seqspacelab": ("finite_section", "embedding_norm_closed",
                    "embedding_norm_search", "nuclear_norm_tong",
                    "nuclear_norm_oracle", "entropy_upper", "entropy_lower",
                    "rate_fit"),
    "corpus": ("run_all",),
}
LAYER_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
OP = "op"  # root span of one benchmark operation
FIELDS = ("id", "parent", "op", "name", "start", "end")


class Recorder:
    def __init__(self, id_offset: int = 0):
        self.names = [OP]
        self._index = {OP: 0}
        self.ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [0]
        self.current_names = [-1]
        self.next_id = id_offset + 1
        self.op = -1
        self._patches = []

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _push(self, name_id: int) -> int:
        sid = self.next_id
        self.next_id += 1
        self.stack.append(sid)
        self.current_names.append(name_id)
        return sid

    def _pop(self, sid: int, name_id: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.current_names.pop()
        self.ids.append(sid)
        self.parents.append(self.stack[-1])
        self.ops.append(self.op)
        self.name_ids.append(name_id)
        self.starts.append(t0)
        self.ends.append(t1)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.current_names[-1] == name_id:
                return fn(*args, **kwargs)
            sid = self._push(name_id)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(sid, name_id, t0, clock())

        return traced

    def run_op(self, op: int, fn, *args):
        """Run fn(*args) as benchmark operation ``op`` under a root span."""
        self.op = op
        sid = self._push(0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._pop(sid, 0, t0, time.perf_counter())

    def install(self) -> None:
        """Wrap every layer function at every place it is bound."""
        wrappers = {}
        for mod_name, funcs in LAYERS.items():
            mod = importlib.import_module(f"gsembed.{mod_name}")
            for fname in funcs:
                orig = getattr(mod, fname)
                wrappers[id(orig)] = (orig, self.wrap(f"{mod_name}.{fname}", orig))
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "gsembed" or mname == "__main__"
                                   or mname.startswith("gsembed.")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = hit[1]

    def uninstall(self) -> None:
        for namespace, attr, orig in reversed(self._patches):
            namespace[attr] = orig
        self._patches.clear()

    def rows(self):
        for i in range(len(self.ids)):
            yield (self.ids[i], self.parents[i], self.ops[i],
                   self.names[self.name_ids[i]], self.starts[i], self.ends[i])

    def write(self, fh, header: bool = True) -> None:
        out = csv.writer(fh)
        if header:
            out.writerow(FIELDS)
        out.writerows((i, p, o, n, repr(s), repr(e))
                      for i, p, o, n, s, e in self.rows())


def read(path) -> list:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        return [(int(i), int(p), int(o), n, float(s), float(e))
                for i, p, o, n, s, e in rows]


def aggregate(spans) -> dict:
    """Per name: calls, total (inclusive) seconds and self seconds."""
    child = {}
    for sid, parent, op, name, start, end in spans:
        if parent:
            child[(op, parent)] = child.get((op, parent), 0.0) + (end - start)
    out = {}
    for sid, parent, op, name, start, end in spans:
        dur = end - start
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += dur - child.get((op, sid), 0.0)
    return out
