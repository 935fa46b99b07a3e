"""Spans around the calls between wkpdom's modules, recorded from outside it.

``Tracer.install`` replaces each public function that one wkpdom module
imported from another (for example ``cli.build_wkp``,
``constructions.is_kpds``, ``report.min_kpds``) with a wrapper that records
a span: name, layer, parent span, start and end.  The layer is the module
that defines the function.  Two bindings that callers reach without an
import are wrapped too: ``exact.min_kpds``, which ``propagation_radius`` and
``level1_intersection_check`` call inside their own module, so that their
check counts are seen; and ``reference.naive_min_kpds``, which ``report``
calls through the module object.  Calls inside one module are part of the
caller's span.  No package file changes, and ``uninstall`` restores every
binding.

Spans stay in memory; ``summary`` reduces them after the timed call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns

MODULES = ("cli", "report", "constructions", "exact", "propagation", "reference", "topology")
EXTRA_BINDINGS = (("exact", "min_kpds"), ("reference", "naive_min_kpds"))


def _trace_vertex_rounds(trace) -> int:
    return len(trace.first_step) * len(trace.rounds)


#: Work counts read from a span's return value, as (counter, function).
RESULT_COUNTS = {
    "exact.min_kpds": ("exact.checks", lambda r: r.checks_performed),
    "topology.build_wkp": ("topology.vertices", lambda g: g.n),
    "topology.build_wk": ("topology.vertices", lambda g: g.n),
    "propagation.make_certificate": ("propagation.vertex_rounds",
                                     lambda c: _trace_vertex_rounds(c.trace)),
    "propagation.propagate_fixpoint": ("propagation.vertex_rounds", _trace_vertex_rounds),
}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "counter", "count")

    def __init__(self, name: str, layer: str, parent: Span | None):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0
        self.counter: str | None = None
        self.count = 0


class Tracer:
    """Records spans for one process; install once, then call the program."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._counted_errors: dict[int, BaseException] = {}
        #: (module, attribute, original function) of every wrapped binding.
        self.bindings: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str):
        """``fn`` behind a span; returns and raises exactly what ``fn`` does."""
        spans, stack = self.spans, self._stack
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter_ns()
                stack.pop()
                self._count_error(span, exc)
                raise
            span.end = perf_counter_ns()
            stack.pop()
            if counted is not None:
                span.counter, span.count = counted[0], counted[1](result)
            return result

        return wrapper

    def _count_error(self, span: Span, exc: BaseException) -> None:
        # A budget error carries the checks made before it; the innermost
        # span it passes through counts them, once.
        checks = getattr(exc, "checks_performed", None)
        if isinstance(checks, int) and id(exc) not in self._counted_errors:
            self._counted_errors[id(exc)] = exc
            span.counter, span.count = "exact.checks", checks

    def install(self) -> None:
        modules = {m: importlib.import_module(f"wkpdom.{m}") for m in MODULES}
        targets = [
            (mod, attr) for mod in modules.values() for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and not attr.startswith("_")
            and obj.__module__.startswith("wkpdom.") and obj.__module__ != mod.__name__
        ]
        targets += [(modules[m], attr) for m, attr in EXTRA_BINDINGS]
        for mod, attr in targets:
            fn = getattr(mod, attr)
            layer = fn.__module__.rsplit(".", 1)[1]
            self.bindings.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, f"{layer}.{fn.__name__}", layer))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.bindings):
            setattr(mod, attr, fn)
        self.bindings.clear()

    def add_root(self, name: str, layer: str, start: int, end: int) -> Span:
        """Record the span of the timed call itself and adopt the open-ended top spans."""
        root = Span(name, layer, None)
        root.start, root.end = start, end
        for span in self.spans:
            if span.parent is None:
                span.parent = root
        self.spans.append(root)
        return root

    def summary(self) -> dict:
        """Self time per layer, inclusive time per span name, and work counts.

        A span's self time is its duration minus its direct children's.
        Inclusive time per name counts only spans with no same-named
        ancestor, so nesting never counts an interval twice.
        """
        child_ns: dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                child_ns[key] = child_ns.get(key, 0) + span.end - span.start
        self_ns: dict[str, int] = {}
        incl_ns: dict[str, int] = {}
        counts: dict[str, int] = {}
        negative = 0
        for span in self.spans:
            dur = span.end - span.start
            own = dur - child_ns.get(id(span), 0)
            negative += own < 0
            self_ns[span.layer] = self_ns.get(span.layer, 0) + own
            if not _has_ancestor_named(span, span.name):
                incl_ns[span.name] = incl_ns.get(span.name, 0) + dur
            if span.counter is not None:
                counts[span.counter] = counts.get(span.counter, 0) + span.count
        return {"self_ns": self_ns, "incl_ns": incl_ns, "counts": counts,
                "negative_self": negative}


def _has_ancestor_named(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False
