"""In-memory span tracing of galcov's public functions, from outside.

``Tracer.install`` replaces every public function and public method of the
layer modules by a wrapper, wherever the package binds it (module globals,
re-exports, dispatch tables).  A wrapper always counts the call.  It records
a span (name, start, end, parent span, operation id) only when it crosses a
layer boundary, i.e. when the innermost open span belongs to another module
or the benchmark; calls inside one module stay inside their caller's span,
which charges their time to the same layer.  Generator functions get a span
per ``next`` and a count of yielded items.  ``uninstall`` restores the
originals.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("groups", "cover", "equations", "divisors", "enumeration", "differentials", "jacobian", "config", "cli")

# spans recorded on every call, boundary or not, because a metric names them
ALWAYS_SPAN = {"cli.format_report"}

# yield counters named in the per-layer table, by generator
YIELD_COUNTERS = {
    "groups.characters": "groups.characters.yielded",
    "groups.elements": "groups.elements.yielded",
    "enumeration.iter_nonspecial_integral": "enumeration.divisors.yielded",
    "enumeration.iter_degree_gm1": "enumeration.divisors.yielded",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self._layers.append(name.split(".", 1)[0])
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._layers.pop()

    def _wrap_function(self, name: str, fn):
        layer = name.split(".", 1)[0]
        calls = f"{name}.calls"
        counts = self.counts
        layers = self._layers
        always = name in ALWAYS_SPAN

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[calls] += 1
            if layers and layers[-1] == layer and not always:
                return fn(*args, **kwargs)
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapped

    def _wrap_iterator(self, name: str, it):
        counter = YIELD_COUNTERS.get(name, f"{name}.yielded")
        layer = name.split(".", 1)[0]
        while True:
            crossing = not self._layers or self._layers[-1] != layer
            sid = self.open(name) if crossing else None
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if crossing:
                    self.close(sid)
            self.counts[counter] += 1
            yield item

    def _wrap_generator(self, name: str, fn):
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.counts[calls] += 1
            return self._wrap_iterator(name, fn(*args, **kwargs))

        return wrapped

    def _wrap_returning_iterator(self, name: str, fn):
        """A function that checks its input, then returns a generator."""
        inner = self._wrap_function(name, fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self._wrap_iterator(name, inner(*args, **kwargs))

        return wrapped

    # -- installation -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrapper(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        # rebind every reference the package holds: re-exports, imports, tables
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    self._set(module, attr, replaced[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            self._patched.append((obj, key, value))
                            obj[key] = replaced[id(value)]

    def _install_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                if attr == "__post_init__" and cls.__name__ == "InvariantDivisor":
                    self._set(cls, attr, self._counter(f"{layer}.InvariantDivisor.built", obj))
                continue
            if isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrapper(f"{layer}.{attr}", obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrapper(f"{layer}.{attr}", obj))

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _wrapper(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        if name in YIELD_COUNTERS:
            return self._wrap_returning_iterator(name, fn)
        return self._wrap_function(name, fn)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patched.clear()

    # -- results --------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus the time its child spans
        cover.  Children of one span never overlap (one thread, stack order),
        so the covered time is the sum of the children's durations."""
        return layer_self_times(self.names, self.name_id, self.start, self.end, self.parent)

    def span_total(self, wanted: str) -> float:
        """Total duration of the spans with the given name."""
        return sum(
            (self.end[s] - self.start[s] for s in range(len(self.start)) if self.names[self.name_id[s]] == wanted),
            0.0,
        )

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "fields": ["name_id:i32", "parent:i32", "op:i32", "start:f64", "end:f64"],
            "counts": dict(sorted(self.counts.items())),
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in (self.name_id, self.parent, self.op, self.start, self.end):
                column.tofile(handle)


def layer_self_times(names, name_id, start, end, parent) -> dict[str, float]:
    child = [0.0] * len(start)
    for sid, p in enumerate(parent):
        if p >= 0:
            child[p] += end[sid] - start[sid]
    out: dict[str, float] = {}
    for sid in range(len(start)):
        layer = names[name_id[sid]].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end[sid] - start[sid]) - child[sid]
    return out

