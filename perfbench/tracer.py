"""Span tracer that instruments qpolykit from outside.

``Tracer.install()`` wraps the public functions of every ``qpolykit``
module, and the public methods of the classes they define, without editing
the package.  Because the modules bind names with ``from .x import y``, one
function object can sit in several module namespaces (and, for methods such
as ``FieldElement.__mul__``/``__rmul__``, under several class attributes);
every such binding is replaced and ``uninstall()`` puts each original back.

Spans live in flat arrays while the traced pass runs: a name index, start,
end, parent span index (-1 at top level) and instance id.  ``write()`` dumps
them at the end as one JSON header line plus the raw columns, in the byte
order the header names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from pathlib import Path

# Dunder methods are skipped (they are too fine-grained to trace), except the
# ones a per-layer metric names.
EXTRA_METHODS = {("numberfield", "FieldElement", "__mul__")}


def span_name(module: str, qualname: str) -> str:
    """``qpolykit.numberfield`` + ``FieldElement.__mul__`` -> ``numberfield.FieldElement.mul``."""
    parts = [module.rsplit(".", 1)[-1]] + qualname.split(".")
    parts[-1] = parts[-1].strip("_")
    return ".".join(parts)


def qpolykit_modules() -> list:
    import qpolykit

    mods = [qpolykit]
    for info in pkgutil.iter_modules(qpolykit.__path__):
        mods.append(importlib.import_module(f"qpolykit.{info.name}"))
    return mods


def trace_targets(modules) -> dict:
    """Map each traceable function object to its span name.

    Targets are functions defined in a qpolykit module whose own name is
    public, and plain public methods of classes defined there.
    """
    targets: dict = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    public = not attr.startswith("_") or (short, name, attr) in EXTRA_METHODS
                    if public and inspect.isfunction(member) and member not in targets:
                        targets[member] = span_name(mod.__name__, f"{name}.{attr}")
            elif not name.startswith("_") and callable(obj) and obj not in targets:
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    targets[obj] = span_name(mod.__name__, name)
    return targets


class Tracer:
    """Records one span per call of every wrapped qpolykit function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("q")
        self.instance_col = array("i")
        self.instance = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_col)

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, starts, ends = self.name_col, self.start_col, self.end_col
        parents, instances, stack = self.parent_col, self.instance_col, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            instances.append(self.instance)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every binding of every target in every qpolykit namespace."""
        modules = qpolykit_modules()
        targets = trace_targets(modules)
        wrappers = {id(fn): self.wrap(fn, name) for fn, name in targets.items()}
        holders = list(modules)
        for mod in modules:
            holders.extend(
                obj for obj in vars(mod).values()
                if inspect.isclass(obj) and obj.__module__ == mod.__name__
            )
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((holder, attr, obj))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        """Header JSON line, then the five columns as raw arrays."""
        columns = [self.name_col, self.start_col, self.end_col, self.parent_col, self.instance_col]
        header = {
            "names": self.names,
            "spans": len(self),
            "columns": ["name", "start", "end", "parent", "instance"],
            "typecodes": [c.typecode for c in columns],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in columns:
                col.tofile(fh)


def self_times(tracer: Tracer) -> list[float]:
    """Per span: its duration minus the durations of its direct child spans.

    Calls run on one thread, so children of a span are disjoint intervals
    inside it and their union is their sum.
    """
    dur = [e - s for s, e in zip(tracer.start_col, tracer.end_col)]
    own = list(dur)
    for i, p in enumerate(tracer.parent_col):
        if p >= 0:
            own[p] -= dur[i]
    return own


def aggregate(tracer: Tracer) -> dict[str, dict[str, float]]:
    """``{span name: {"calls": n, "self_s": seconds}}`` over all spans."""
    own = self_times(tracer)
    out = {name: {"calls": 0, "self_s": 0.0} for name in tracer.names}
    for nid, t in zip(tracer.name_col, own):
        entry = out[tracer.names[nid]]
        entry["calls"] += 1
        entry["self_s"] += t
    return out
