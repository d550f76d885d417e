"""Outside-in tracing of the hdse layers.

A traced function is replaced under every name where an hdse module looks it
up (``distance.spd_all_pairs``, ``refine.spd_all_pairs``,
``demo.build_hierarchy``, ...), so calls between layers are seen without
touching the library. Each call becomes an in-memory span: name, start, end,
parent span and item id. Self time is a span's duration minus the time its
child spans (and the counting hooks run on their results) cover.

A name missing from the library is recorded in ``Tracer.missing`` and reports
zero calls; it is not an error.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("graph", "coarsen", "distance", "refine", "attention", "demo")


def _modules(pkg):
    return [pkg] + [getattr(pkg, name) for name in LAYERS + ("cli",)
                    if hasattr(pkg, name)]


def patch(pkg, name: str, make_wrapper):
    """Replace ``layer.func`` wherever an hdse module holds that function.

    Returns an undo list of (module, attribute, original), or None when the
    name does not exist.
    """
    layer, attr = name.split(".")
    original = getattr(getattr(pkg, layer, None), attr, None)
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    undo = []
    for mod in _modules(pkg):
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))
    return undo


def unpatch(undo) -> None:
    for mod, key, original in reversed(undo):
        setattr(mod, key, original)


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "child_s")

    def __init__(self, name, start, parent, item):
        self.name, self.start, self.end = name, start, start
        self.parent, self.item, self.child_s = parent, item, 0.0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Span recorder plus named counters, installed over one hdse package.

    ``targets`` maps a traced name to ``(hook, label)``. ``hook(tracer, args,
    kwargs, result)`` runs after a successful call and adds counts; its time
    is charged to no span. ``label(args, kwargs)`` suffixes the span name
    (e.g. the demo encoding).
    """

    def __init__(self, pkg, targets: dict):
        self.pkg = pkg
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.scratch: dict = {}
        self.item = None
        self.paused = False
        self.top_hook_s = 0.0
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._undo: list = []

    def reset(self) -> None:
        self.spans, self._stack = [], []
        self.counts = defaultdict(float)
        self.scratch = {}
        self.top_hook_s = 0.0

    def __enter__(self):
        self.missing = []
        for name, (hook, label) in self.targets.items():
            undo = patch(self.pkg, name,
                         lambda fn, n=name, h=hook, lb=label: self._wrap(n, fn, h, lb))
            if undo is None:
                self.missing.append(name)
            else:
                self._undo.extend(undo)
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)
        self._undo = []

    def _wrap(self, name, fn, hook, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name if label is None else f"{name}.{label(args, kwargs)}",
                        time.perf_counter(), parent, self.item)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.total_s
            if hook is not None:
                hook(self, args, kwargs, result)
                hook_s = time.perf_counter() - span.end
                if parent is not None:
                    parent.child_s += hook_s
                else:
                    self.top_hook_s += hook_s
            return result
        return traced

    def self_s(self, name: str) -> float:
        """Summed self time of spans whose name is ``name``."""
        return sum(s.self_s for s in self.spans if s.name == name)

    def total_s(self, name: str) -> float:
        return sum(s.total_s for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def top_level_s(self) -> float:
        """Time covered by spans without a traced parent, plus their hooks."""
        return (sum(s.total_s for s in self.spans if s.parent is None)
                + self.top_hook_s)

    def dump(self) -> list:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.name, s.start, s.end,
                 None if s.parent is None else index[id(s.parent)], s.item]
                for s in self.spans]
