"""The Recorder: one handle bundling a tracer and a metrics registry.

Everything instrumentable in the pipeline accepts an optional
``obs: Recorder``; the default is :data:`NOOP_RECORDER`, whose tracer and
metrics are the shared no-op singletons, so uninstrumented code pays a
few attribute reads and nothing else.  ``Recorder.create()`` builds a
live pair; ``recorder.enabled`` is the one flag instrumented call sites
branch on when real work (building a trace, folding counters) would
otherwise be wasted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import Metrics, NoopMetrics, NOOP_METRICS
from repro.obs.tracing import NoopTracer, Tracer, NOOP_TRACER


@dataclass
class Recorder:
    """A tracer plus a metrics registry, carried through the pipeline."""

    tracer: Tracer | NoopTracer = field(default_factory=Tracer)
    metrics: Metrics | NoopMetrics = field(default_factory=Metrics)

    @property
    def enabled(self) -> bool:
        """True when at least one side actually records."""
        return bool(self.tracer.enabled or self.metrics.enabled)

    @classmethod
    def create(cls) -> "Recorder":
        """A live recorder (fresh tracer + fresh registry)."""
        return cls()


#: The shared do-nothing recorder; the default `obs` everywhere.
NOOP_RECORDER = Recorder(tracer=NOOP_TRACER, metrics=NOOP_METRICS)
