"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions at each layer boundary (and the
``ArgumentStructure`` constructor) by rebinding every attribute of a
prooflab module that holds them, so calls made through names brought in
with ``from ... import`` are seen too.  The benchmark itself calls the
package through module attributes, so its operations are seen as well.
Each call becomes a span: layer-qualified name, start, end, the span that
caused it and the operation it belongs to.  Spans are kept in flat arrays
while the run lasts and written out at the end.

A layer's self time is its spans' time minus the time their direct child
spans cover; calls are nested and single-threaded, so that is the span's
duration minus the summed durations of its children.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# layer -> public functions wrapped at its boundary; the layers are the
# package's modules
BOUNDARIES = {
    "cli": ("main",),
    "syntax": ("parse_formula", "format_formula"),
    "atomic_system": (
        "derive",
        "derivable_atoms",
        "check_consistency",
        "parse_base_text",
    ),
    "base_semantics": (
        "models",
        "il_derives",
        "search_counterexample",
        "parse_sequent",
    ),
    "validity": ("models_alpha", "check_valid"),
    "arguments": (
        "derivation_to_structure",
        "instantiate",
        "replace",
        "is_atomic_derivation",
        "structure_from_obj",
        "structure_to_obj",
    ),
    "reductions": (
        "closure",
        "search_reduct",
        "reduces_to",
        "reduce_step",
        "successors",
    ),
}
LAYERS = tuple(BOUNDARIES)
CONSTRUCTOR = "arguments.ArgumentStructure"

# reductions entry points whose results carry the visited count; reduces_to
# delegates to search_reduct, so counting it too would count twice
_VISIT_COUNTED = ("reductions.closure", "reductions.search_reduct")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.child_ns = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        self.visited = 0
        self.searches = 0
        self.searches_skipped = 0
        self._skip_flags: list[bool] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary function in every loaded prooflab module that
        binds it."""
        import prooflab.arguments as arguments

        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "prooflab" or name.startswith("prooflab."))
        ]
        for layer, funcs in BOUNDARIES.items():
            home = sys.modules.get(f"prooflab.{layer}")
            for fname in funcs:
                orig = getattr(home, fname, None) if home else None
                if orig is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._undo.append((m, attr, value))
                            setattr(m, attr, wrapped)
        cls = getattr(arguments, "ArgumentStructure", None)
        if cls is None:
            self.missing.append(CONSTRUCTOR)
        else:
            orig_init = cls.__init__
            self._undo.append((cls, "__init__", orig_init))
            cls.__init__ = self._wrap(CONSTRUCTOR, orig_init)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counts_visits = name in _VISIT_COUNTED
        is_successors = name == "reductions.successors"
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.op.append(tracer.current_op)
            tracer.child_ns.append(0)
            tracer.end.append(0)
            if counts_visits:
                tracer._skip_flags.append(False)
            tracer.stack.append(idx)
            t0 = clock()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.stack.pop()
                tracer.end[idx] = t1
                if parent >= 0:
                    tracer.child_ns[parent] += t1 - t0
            if counts_visits:
                skipped = tracer._skip_flags.pop()
                tracer._count_search(result, skipped)
            elif is_successors and tracer._skip_flags:
                if isinstance(result, tuple) and len(result) == 2 and result[1]:
                    tracer._skip_flags[-1] = True
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_search(self, result, skipped: bool) -> None:
        self.visited += int(getattr(result, "visited", 0) or 0)
        if self._skip_flags:
            # a nested search's skips belong to the enclosing one as well
            self._skip_flags[-1] |= skipped
            return
        self.searches += 1
        if skipped:
            self.searches_skipped += 1

    # -- summarising ----------------------------------------------------

    def layer_totals(self, ops=None) -> dict[str, dict[str, float]]:
        """calls and self nanoseconds per layer, over the spans of the
        given operation ids (all spans when None); set-up's spans have id
        -1."""
        out = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        built = 0
        layer_of = [n.split(".", 1)[0] for n in self.names]
        for i in range(len(self.start)):
            if ops is not None and self.op[i] not in ops:
                continue
            name = self.names[self.name_id[i]]
            row = out[layer_of[self.name_id[i]]]
            row["self_ns"] += self.end[i] - self.start[i] - self.child_ns[i]
            if name == CONSTRUCTOR:
                built += 1
            else:
                row["calls"] += 1
        out["arguments"]["structures_built"] = built
        return out

    def write(self, path: str, extra: dict) -> None:
        """Spans as JSON lines: a header, then [name, op, parent, start_ns,
        end_ns] per span in call order."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, **extra}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.name_id[i]},{self.op[i]},{self.parent[i]},"
                    f"{self.start[i]},{self.end[i]}]\n"
                )
