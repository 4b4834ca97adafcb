"""Layer timing from outside the program.

:class:`LayerTracer` replaces a layer's public entry points — module
functions at the attribute their callers look up, methods on their class —
with wrappers that record a span per call.  Spans nest per thread; a
layer's *self time* is its spans' duration minus the time their child
spans cover, so the self times of all layers plus the benchmark's own
root span add up to the root's duration exactly.

Nothing under ``src/`` is edited: :meth:`LayerTracer.uninstall` puts every
original attribute back.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


class _Frame:
    __slots__ = ("layer", "started", "children")

    def __init__(self, layer: str, started: float) -> None:
        self.layer = layer
        self.started = started
        self.children = 0.0


class LayerTracer:
    """Per-layer self time, call counts and named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- spans

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> _Frame:
        frame = _Frame(layer, self.clock())
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        duration = self.clock() - frame.started
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].children += duration
        with self._lock:
            self.self_s[frame.layer] += duration - frame.children
            self.calls[frame.layer] += 1
        return duration

    @contextmanager
    def span(self, layer: str):
        frame = self.enter(layer)
        try:
            yield frame
        finally:
            self.exit(frame)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
            }

    # ------------------------------------------------------- wrapping

    def patch(self, owner: object, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until uninstall."""
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (classmethod, staticmethod)):
            replacement = type(static)(make(static.__func__))
        else:
            replacement = make(static)
        self._installed.append((owner, attr, static))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        observe: Callable | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` span.

        ``observe(tracer, result, args, kwargs)``, when given, runs after
        the call, outside the span, to read counts off the result.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                frame = tracer.enter(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                if observe is not None:
                    observe(tracer, result, args, kwargs)
                return result

            wrapper.__wrapped__ = original
            return wrapper

        self.patch(owner, attr, make)

    def wrap_entry(self, owner: object, attr: str, layer: str) -> None:
        """Time only the *entry* of the context manager ``owner.attr``
        returns — the wait for a lock or an admission slot."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                return _TimedEntry(tracer, layer, original(*args, **kwargs))

            wrapper.__wrapped__ = original
            return wrapper

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


class _TimedEntry:
    __slots__ = ("tracer", "layer", "inner")

    def __init__(self, tracer: LayerTracer, layer: str, inner) -> None:
        self.tracer = tracer
        self.layer = layer
        self.inner = inner

    def __enter__(self):
        frame = self.tracer.enter(self.layer)
        try:
            return self.inner.__enter__()
        finally:
            self.tracer.exit(frame)

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


# ----------------------------------------------------------- the layers


def install_engine_layers(tracer: LayerTracer) -> None:
    """Wrap the exchange → query pipeline's layers (every workload)."""
    import repro.cli as cli
    import repro.parser as parser
    import repro.reduction as reduction
    import repro.serve.protocol as protocol
    import repro.xr.segmentary as segmentary
    from repro.incremental.session import UpdateSession
    from repro.runtime.cache import SignatureProgramCache
    from repro.runtime.executor import PackedProgram, SequentialExecutor

    for module in (parser, cli):
        for name in ("parse_instance", "parse_mapping", "parse_program"):
            tracer.wrap(module, name, "parser")
    tracer.wrap(protocol, "parse_program", "parser")
    tracer.wrap(reduction, "reduce_mapping", "reduction")
    tracer.wrap(segmentary, "reduce_mapping", "reduction")

    def with_stage_timings(original):
        # The stage split comes from the public ``timings=`` argument.
        def build_exchange_data(*args, timings=None, **kwargs):
            stages = {} if timings is None else timings
            data = original(*args, timings=stages, **kwargs)
            for stage, seconds in stages.items():
                tracer.count(f"exchange.{stage}_s", seconds)
            return data

        return build_exchange_data

    def exchanged(tracer, data, args, kwargs):
        tracer.count("exchange.chased_facts", len(data.chased))
        tracer.count("exchange.groundings", len(data.groundings))
        tracer.count("exchange.violations", len(data.violations))

    tracer.patch(segmentary, "build_exchange_data", with_stage_timings)
    tracer.wrap(segmentary, "build_exchange_data", "exchange", exchanged)

    def analyzed(tracer, analysis, args, kwargs):
        tracer.count("envelope.clusters", len(analysis.clusters))
        tracer.count("envelope.suspect_source_facts", len(analysis.suspect_source))

    tracer.wrap(segmentary, "analyze_envelopes", "envelope", analyzed)
    tracer.wrap(segmentary, "ground_query", "queries")
    tracer.wrap(segmentary, "build_family_program", "program")
    tracer.wrap(segmentary, "build_xr_program", "program")
    tracer.wrap(PackedProgram, "pack", "program")
    tracer.wrap(SequentialExecutor, "run", "asp")
    for name in ("program_key", "decision_key"):
        tracer.wrap(segmentary, name, "cache")
    for name in (
        "lookup_program", "store_program", "lookup_decision",
        "store_decision", "invalidate_clusters",
    ):
        tracer.wrap(SignatureProgramCache, name, "cache")

    def answered(tracer, result, args, kwargs):
        _answers, stats = result
        tracer.count("queries.candidates", stats.candidates)
        tracer.count("queries.safe_candidates", stats.safe_candidates)
        tracer.count("program.signatures", stats.signatures)
        tracer.count("program.families", stats.families_solved)
        tracer.count("program.rules", stats.total_rules)
        tracer.count("asp.programs_solved", stats.programs_solved)
        tracer.count("asp.family_candidates", stats.family_candidates)
        tracer.count("asp.core_skips", stats.core_skips)
        tracer.count("asp.conflicts", stats.solver_stats.get("conflicts", 0))

    tracer.wrap(
        segmentary.SegmentaryEngine, "answer_with_stats", "segmentary", answered
    )
    tracer.wrap(segmentary.SegmentaryEngine, "exchange", "segmentary")

    def applied(tracer, report, args, kwargs):
        tracer.count("incremental.updates", 1)
        tracer.count("incremental.clusters_touched", report.clusters_touched)
        tracer.count("incremental.cache_invalidated", report.cache_invalidated)

    tracer.wrap(UpdateSession, "apply", "incremental", applied)
    tracer.wrap(segmentary.SegmentaryEngine, "update_session", "incremental")


def install_serve_layers(tracer: LayerTracer) -> None:
    """Wrap the serving tier's layers (``serve-rw`` only)."""
    import repro.serve.service as service
    from repro.serve.admission import AdmissionController
    from repro.serve.http import ServeHandler
    from repro.serve.rwlock import RWLock

    tracer.wrap_entry(AdmissionController, "admit", "serve.admission_wait")
    tracer.wrap_entry(RWLock, "read_locked", "serve.rwlock_wait")
    tracer.wrap_entry(RWLock, "write_locked", "serve.rwlock_wait")
    tracer.wrap(service.QueryService, "query", "serve.service")
    tracer.wrap(service.QueryService, "update", "serve.service")
    tracer.wrap(service, "answer_payload", "serve.serialize")
    tracer.wrap(service, "update_payload", "serve.serialize")
    tracer.wrap(ServeHandler, "_send_json", "serve.serialize")
    tracer.wrap(ServeHandler, "_send_bytes", "serve.write")
    tracer.wrap(ServeHandler, "do_POST", "serve.http")
