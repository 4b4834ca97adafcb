"""Nested-span tracing on the monotonic clock.

A :class:`Span` is one timed region of the pipeline — name, monotonic
start/end (``time.perf_counter``), string-keyed tags, integer counters,
and child spans.  A :class:`Tracer` hands out spans as context managers
and maintains proper nesting per thread (each thread has its own span
stack; finished root spans are collected under a lock, so one tracer can
serve concurrent query phases).

:meth:`Span.to_dict` / :meth:`Span.from_dict` round-trip the whole tree
through JSON-compatible dicts (the trace document's span form).

The default everywhere is :data:`NOOP_TRACER`: a tracer whose spans are a
shared do-nothing context manager, so the uninstrumented hot path pays one
method call and no allocation per would-be span.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator

#: Slack for float accumulation when checking duration invariants.
_EPSILON = 1e-9


class Span:
    """One timed region: name, monotonic start/end, tags, counters, children."""

    __slots__ = ("name", "start", "end", "tags", "counters", "children")

    def __init__(
        self,
        name: str,
        start: float = 0.0,
        end: float = 0.0,
        tags: dict[str, Any] | None = None,
        counters: dict[str, int] | None = None,
        children: list["Span"] | None = None,
    ):
        self.name = name
        self.start = start
        self.end = end
        self.tags = tags if tags is not None else {}
        self.counters = counters if counters is not None else {}
        self.children = children if children is not None else []

    @property
    def duration(self) -> float:
        """Wall-clock seconds from start to end (0 while still open)."""
        return max(0.0, self.end - self.start)

    def tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    # ----------------------------------------------------- serialization

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible plain-data form of the whole subtree."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "tags": dict(self.tags),
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(
            name=payload["name"],
            start=float(payload["start"]),
            end=float(payload["end"]),
            tags=dict(payload.get("tags", {})),
            counters={
                key: int(value)
                for key, value in payload.get("counters", {}).items()
            },
            children=[
                cls.from_dict(child) for child in payload.get("children", ())
            ],
        )

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration:.6f}s, "
            f"{len(self.children)} child(ren))"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:  # spans are mutable; identity hashing
        return id(self)


class _SpanHandle:
    """The context manager :meth:`Tracer.span` returns (one per entry)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer._pop(self._span)


class Tracer:
    """Produces properly-nested spans; thread-safe collection.

    Each thread keeps its own open-span stack (``threading.local``), so
    concurrent callers nest independently; finished *root* spans from all
    threads land in one shared list guarded by a lock.
    """

    #: Distinguishes live tracers from :class:`NoopTracer` without an
    #: isinstance check on the hot path.
    enabled = True

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: list[Span] = []

    # ------------------------------------------------------------ stack

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        span.start = time.perf_counter()
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order; open stack: "
                f"{[s.name for s in stack]}"
            )
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._finished.append(span)

    # -------------------------------------------------------- interface

    def span(self, name: str, **tags: Any) -> _SpanHandle:
        """A context manager opening a span named ``name``.

        Tags passed as keyword arguments are set at creation; more can be
        added through the yielded span's :meth:`Span.tag`.
        """
        return _SpanHandle(self, Span(name, tags=dict(tags) if tags else None))

    def current(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def finished(self) -> list[Span]:
        """A snapshot of the finished root spans (collection order)."""
        with self._lock:
            return list(self._finished)

    def reset(self) -> None:
        """Drop all finished spans (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()


class _NoopSpan:
    """Shared do-nothing span/context-manager for the uninstrumented path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def tag(self, key: str, value: Any) -> None:
        pass

    def count(self, key: str, amount: int = 1) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """API-compatible tracer that records nothing and allocates nothing."""

    enabled = False

    def span(self, name: str, **tags: Any) -> _NoopSpan:
        return _NOOP_SPAN

    def current(self) -> None:
        return None

    @property
    def finished(self) -> list[Span]:
        return []

    def reset(self) -> None:
        pass


#: The shared default tracer: safe to pass everywhere, never records.
NOOP_TRACER = NoopTracer()


def validate_span_tree(span: Span) -> list[str]:
    """Structural invariants of one span tree; returns human-readable
    problems (empty list = valid).

    Checked for every span: ``end >= start``, non-negative counters,
    children within the parent interval, siblings that do not overlap
    (same-thread spans obey stack discipline), and child durations that
    sum to at most the parent duration.
    """
    problems: list[str] = []

    def visit(node: Span, path: str) -> None:
        label = f"{path}/{node.name}"
        if node.end < node.start - _EPSILON:
            problems.append(f"{label}: end {node.end} before start {node.start}")
        for key, value in node.counters.items():
            if not isinstance(value, int) or value < 0:
                problems.append(f"{label}: counter {key}={value!r} invalid")
        previous_end = None
        child_total = 0.0
        for child in node.children:
            child_total += child.duration
            if child.start < node.start - _EPSILON or (
                child.end > node.end + _EPSILON
            ):
                problems.append(
                    f"{label}: child {child.name!r} [{child.start}, {child.end}] "
                    f"outside parent [{node.start}, {node.end}]"
                )
            if previous_end is not None and child.start < previous_end - _EPSILON:
                problems.append(
                    f"{label}: child {child.name!r} starts before its "
                    "predecessor ended (same-thread spans must not overlap)"
                )
            previous_end = max(previous_end or child.end, child.end)
        if child_total > node.duration + _EPSILON:
            problems.append(
                f"{label}: child durations sum to {child_total} > "
                f"parent duration {node.duration}"
            )
        for child in node.children:
            visit(child, label)

    visit(span, "")
    return problems
