"""Spans around the layer boundaries of ballwsd, recorded from outside.

`Tracer.install()` wraps the functions in `SPANS` and rebinds every name
under which a `ballwsd` module can reach them: `cli` imports most of them
by name, `construct` imports `verify_configuration`, `evaluator` imports
`candidate_set` and `select_sense`, and `encoder.train` looks up
`batch_loss_and_grads` in its own module globals.  Patching only the
defining module would record nothing for those callers.

Only layer entry points are wrapped.  The per-pair predicates
(`contains`, `disconnected`, `cos_sim`, ...) run up to millions of times
per command; wrapping them would inflate the traced run well past the
work it measures.

A span is `(name, parent, start, end, counts)`: `parent` is the index of
the enclosing span or -1, times are `perf_counter` seconds, and `counts`
holds the work counted at the same boundary (rows loaded, pairs checked,
candidates offered, ...).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> functions wrapped; span names are "<module>.<function>"
SPANS = {
    "inventory": ("load_inventory",),
    "embeddings": ("load_embeddings",),
    "construct": ("construct_balls",),
    "geometry": ("verify_configuration", "save_balls", "load_balls"),
    "corpus": ("parse_annotated_corpus", "lift_to_level", "save_records"),
    "encoder": ("prepare_arrays", "batch_loss_and_grads", "train", "embed_records",
                "forward_batch", "save_encoder", "load_encoder"),
    "selector": ("candidate_set", "select_sense", "deduction_query"),
    "evaluator": ("predict_records", "score"),
    "cli": ("main", "write_manifest"),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in SPANS.items() for f in fns)


def _counts(name, args, result) -> dict | None:
    """Work done by one call, read from its arguments and result."""
    if name == "inventory.load_inventory":
        return {"nodes": len(result.taxonomy), "dropped_edges": len(result.dropped_edges)}
    if name == "embeddings.load_embeddings":
        return {"rows": len(result)}
    if name == "construct.construct_balls":
        return {"balls": len(result)}
    if name == "geometry.verify_configuration":
        return {"pairs": result.checked_containment + result.checked_disconnection}
    if name == "corpus.parse_annotated_corpus":
        return {"records": len(result)}
    if name == "corpus.lift_to_level":
        return {"offered": len(args[0]), "kept": len(result)}
    if name == "selector.select_sense":
        return {"candidates": len(args[1])}
    if name == "evaluator.predict_records":
        return {"attempted": result[0].attempted, "gold": result[0].total_gold}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []  # (module, attr, original)
        self._wrappers: dict[int, object] = {}  # id -> wrapper, kept alive

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            spans[idx][4] = _counts(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        importlib.import_module("ballwsd.cli")  # imports every module below
        by_original = {}
        for module, fns in SPANS.items():
            mod = sys.modules[f"ballwsd.{module}"]
            for fn in fns:
                orig = getattr(mod, fn)
                by_original[id(orig)] = (orig, self._wrap(f"{module}.{fn}", orig))
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("ballwsd"):
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_original.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
                    self._wrappers[id(hit[1])] = hit[1]

    def uninstall(self) -> list[str]:
        """Put every original back; return any name still not restored."""
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        problems = [f"{mod.__name__}.{attr}" for mod, attr, orig in self._patched
                    if getattr(mod, attr) is not orig]
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("ballwsd"):
                problems += [f"{modname}.{attr}" for attr, value in vars(mod).items()
                             if id(value) in self._wrappers]
        self._patched.clear()
        return problems
