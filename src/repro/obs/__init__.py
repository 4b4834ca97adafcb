"""Structured observability: phase-level tracing, metrics, exporters.

The paper's empirical story (§5–§6) is about *where time goes* — exchange
vs. program build vs. solving — and the aggregate numbers in
``QueryPhaseStats`` cannot attribute it.  This package is the first-class
measurement layer, in the tradition of the grounder/solver statistics of
clasp/gringo and DLV:

- :mod:`repro.obs.tracing` — nested :class:`Span` trees on the monotonic
  clock, produced by a thread-safe :class:`Tracer`; spans serialize to
  plain data for the trace document;
- :mod:`repro.obs.metrics` — a deterministic :class:`Metrics` registry
  (counters, gauges, fixed-bucket histograms);
- :mod:`repro.obs.recorder` — :class:`Recorder` bundles one tracer and
  one registry; :data:`NOOP_RECORDER` is the default everywhere, keeping
  the uninstrumented hot path within noise of an unbuilt tree;
- :mod:`repro.obs.export` — the JSON trace document (with a structural
  validator) and a flat Prometheus-style text format.

Everything is stdlib-only; nothing in this package imports the rest of
``repro``, so any layer may import it freely.

Usage::

    from repro.obs import Recorder
    from repro.obs.export import write_trace_json, write_prometheus

    obs = Recorder.create()
    with SegmentaryEngine(mapping, instance, obs=obs) as engine:
        engine.answer(query)
    write_trace_json("trace.json", obs)
    write_prometheus("metrics.prom", obs.metrics)
"""

from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    spans_from_document,
    to_prometheus,
    trace_document,
    validate_trace_document,
    write_prometheus,
    write_trace_json,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Metrics,
    NoopMetrics,
    NOOP_METRICS,
)
from repro.obs.recorder import NOOP_RECORDER, Recorder
from repro.obs.tracing import (
    NoopTracer,
    NOOP_TRACER,
    Span,
    Tracer,
    validate_span_tree,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Metrics",
    "NOOP_METRICS",
    "NOOP_RECORDER",
    "NOOP_TRACER",
    "NoopMetrics",
    "NoopTracer",
    "Recorder",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "spans_from_document",
    "to_prometheus",
    "trace_document",
    "validate_trace_document",
    "validate_span_tree",
    "write_prometheus",
    "write_trace_json",
]
