"""Call tracing of the `taured` layers, installed from outside the package.

:func:`install` replaces the public functions of each layer module, and a
few hot methods, with wrappers that record one span per call: its name, its
parent span, start and end.  Every module namespace that binds a wrapped
function (``from .reps import hom_basis`` copies the binding into
``tilting`` and ``reduction``) is patched, and :meth:`Tracer.remove` puts
every original back.  The program itself is not changed.

Self time is a span's duration minus the time covered by the wrapped spans
nested directly inside it.  Hit ratios are measured from outside as
``1 - distinct argument keys / calls``, which is the hit ratio of an
unbounded memo cache keyed on those arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import weakref
from time import perf_counter

LAYERS = ("dsl", "algebra", "strings", "reps", "linalg", "tilting", "reduction", "series")

# Methods traced beside the public module functions: (module, class, attribute, span name).
METHODS = (
    ("tilting", "Inventory", "find_iso", "tilting.find_iso"),
    ("tilting", "Inventory", "hom", "tilting.hom"),
    ("tilting", "Inventory", "hom_to_tau", "tilting.hom_to_tau"),
    ("tilting", "Inventory", "fac_contains", "tilting.fac_contains"),
    ("linalg", "Matrix", "rref", "linalg.rref"),
    ("linalg", "Matrix", "__matmul__", "linalg.matmul"),
    ("linalg", "Matrix", "__add__", "linalg.matrix_add"),
)

# Span names that differ from ``<layer>.<function>``.
RENAMED = {"tilting.oracle_stpairs_via_quotients": "tilting.oracle"}

# Spans whose boolean result is counted as ``<name>.true`` / ``<name>.false``.
OUTCOMES = ("reps.is_iso",)

# Memoised methods: span name -> argument key.  The inventory is part of the
# key, because each inventory holds its own cache.
MEMO_KEYS = {
    "tilting.hom": lambda inv, i, j: (inv, i, j),
    "tilting.fac_contains": lambda inv, j, sources: (inv, j, sources),
}

MARK = "__perfbench_original__"


class Tracer:
    """Records a call tree in memory; aggregates self time, calls and outcomes.

    Spans are merged by call path: one node stands for every call of one
    wrapped function under the same chain of wrapped callers, with its call
    count, total and self time, and the first start and last end among them.
    A run makes millions of calls, so one record per call would not fit.
    """

    def __init__(self):
        self.names: list[str] = ["<root>"]
        self._index: dict[str, int] = {}
        # call-tree nodes, by node id; node 0 is the root
        self.node_name = [0]
        self.node_parent = [-1]
        self.node_calls = [0]
        self.node_total = [0.0]
        self.node_self = [0.0]
        self.node_first = [0.0]
        self.node_last = [0.0]
        self._children: list[dict[int, int]] = [{}]
        self.outcomes: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.hasse_sizes: list[list[int]] = []  # [pairs, vertices, arrows] per hasse call
        self._stack: list[list] = [[0, 0.0, 0.0]]  # [node, start, time in direct children]
        self._serial = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _node(self, parent: int, name_id: int, start: float) -> int:
        node = len(self.node_name)
        self._children[parent][name_id] = node
        self._children.append({})
        self.node_name.append(name_id)
        self.node_parent.append(parent)
        self.node_calls.append(0)
        self.node_total.append(0.0)
        self.node_self.append(0.0)
        self.node_first.append(start)
        self.node_last.append(start)
        return node

    def _object_serial(self, obj) -> int:
        if obj not in self._serial:
            self._serial[obj] = next(self._next_serial)
        return self._serial[obj]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        stack, children = self._stack, self._children
        calls, total, self_s, last = (self.node_calls, self.node_total,
                                      self.node_self, self.node_last)
        memo_key = MEMO_KEYS.get(name)
        outcome = name in OUTCOMES
        record_hasse = name == "tilting.hasse"
        tracer = self

        def traced(*args, **kwargs):
            if memo_key is not None:
                key = memo_key(*args, **kwargs)
                tracer.keys.setdefault(name, set()).add(
                    (tracer._object_serial(key[0]),) + key[1:])
            parent = stack[-1]
            start = perf_counter()
            node = children[parent[0]].get(name_id)
            if node is None:
                node = tracer._node(parent[0], name_id, start)
            frame = [node, start, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[node] += 1
                total[node] += duration
                self_s[node] += duration - frame[2]
                last[node] = end
                parent[2] += duration
            if outcome:
                key = f"{name}.{'true' if result else 'false'}"
                tracer.outcomes[key] = tracer.outcomes.get(key, 0) + 1
            if record_hasse:
                tracer._record_hasse(args, result)
            return result

        functools.update_wrapper(traced, fn)
        setattr(traced, MARK, fn)
        return traced

    def _record_hasse(self, args, quiver) -> None:
        inv, pairs = args[0], args[1]
        self.hasse_sizes.append([len(pairs), len(inv.algebra.vertices), len(quiver.arrows)])

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and the METHODS, everywhere they are bound."""
        importlib.import_module("taured.cli")  # imports every layer
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "taured" or n.startswith("taured.")]
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"taured.{layer}"]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                originals[id(fn)] = (fn, self.wrap(RENAMED.get(name, name), fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patch(mod, attr, originals[id(value)][1])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"taured.{layer}"], cls_name)
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every binding :meth:`install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per span name, outcomes and distinct memo keys."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for node in range(1, len(self.node_name)):
            name = self.names[self.node_name[node]]
            calls[name] = calls.get(name, 0) + self.node_calls[node]
            self_s[name] = self_s.get(name, 0.0) + self.node_self[node]
        return {
            "calls": calls,
            "self_s": self_s,
            "outcomes": dict(self.outcomes),
            "distinct_keys": {n: len(k) for n, k in self.keys.items()},
            "hasse_sizes": self.hasse_sizes,
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per call-tree node, parents before children."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tcalls\ttotal_s\tself_s\tfirst_start_s\tlast_end_s\n")
            for node in range(1, len(self.node_name)):
                f.write(f"{node}\t{self.node_parent[node]}\t{self.names[self.node_name[node]]}\t"
                        f"{self.node_calls[node]}\t{self.node_total[node]:.9f}\t"
                        f"{self.node_self[node]:.9f}\t{self.node_first[node]:.9f}\t"
                        f"{self.node_last[node]:.9f}\n")


def installed_wrappers() -> list[str]:
    """``module.attribute`` for every wrapper still bound in a loaded taured module."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "taured" and not mod_name.startswith("taured."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod_name}.{attr}")
            if inspect.isclass(value) and value.__module__ == mod_name:
                found += [f"{mod_name}.{attr}.{a}" for a, v in vars(value).items()
                          if hasattr(v, MARK)]
    return found
