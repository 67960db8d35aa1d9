"""Spans recorded from outside the program.

A ``Tracer`` replaces module attributes (the names through which one layer
calls another) with wrappers that record a span per call: name, start,
end and the span that was open when the call began. ``restore`` puts the
originals back, so later calls in the same process run untraced. Nothing
in ``src/`` knows about it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    # what the span's ``info`` function kept from the call, if it has one
    info: object = None
    children: list[int] = field(default_factory=list)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        """``fn`` with a span named ``name`` around every call.

        ``info(args, kwargs, result)`` runs after the span ends and may keep
        something small from the call, such as a shape or a result array.
        """
        spans = self.spans
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent, name, time.perf_counter())
            spans.append(span)
            if parent is not None:
                spans[parent].children.append(span.id)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        """Trace calls made through ``owner.attr`` as spans named ``name``."""
        self.replace(owner, attr, self.wrap(name, owner.__dict__[attr], info))

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until ``restore``."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it covered by child spans."""
        return span.duration - sum(self.spans[c].duration for c in span.children)

    def foreign_time(self, span: Span) -> float:
        """Time inside ``span`` spent in spans of other modules (outermost only)."""
        total = 0.0
        for c in span.children:
            child = self.spans[c]
            total += child.duration if child.module != span.module else self.foreign_time(child)
        return total
