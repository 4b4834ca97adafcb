"""The query service: one warm engine, many concurrent requests.

This is the object the HTTP layer (and the in-process tests) talk to.
It owns exactly one of everything expensive:

- one :class:`~repro.xr.segmentary.SegmentaryEngine`, its exchange phase
  materialized **once at construction** (so the first request pays no
  exchange cost and concurrent first requests cannot race to build it);
- one shared :class:`~repro.runtime.SignatureProgramCache`, bounded so a
  long-lived process has a bounded footprint — its answer layers by
  entries, its store of cluster-family engines by the clauses they hold;
- one :class:`~repro.incremental.UpdateSession` applying every write;
- one live :class:`~repro.obs.Metrics` registry, exported at
  ``/metrics`` (the tracer stays NOOP — span trees grow without bound
  in a long-lived process, so tracing is a per-run CLI affair);
- one ``gc.callbacks`` hook, so ``/metrics`` shows whether full cyclic
  collections come back after the exchange was frozen
  (:func:`~repro.runtime.heap.long_lived_build`).

Concurrency model (DESIGN.md §13):

- queries take the :class:`~repro.serve.rwlock.RWLock` **shared** and
  run truly concurrently on the engine — safe because the read path's
  shared mutable state is internally locked (cache, one-time exchange)
  and each request carries its *own*
  :class:`~repro.runtime.SolveBudget` (never mutating engine state);
- updates take the lock **exclusive** (single-writer seam): an in-flight
  query never observes a half-applied delta, and the writer-preferring
  lock keeps a steady query stream from starving updates;
- the :class:`~repro.serve.admission.AdmissionController` bounds how
  many queries execute or wait, shedding overload at the door.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left
from dataclasses import dataclass

from repro.dependencies.mapping import SchemaMapping
from repro.incremental import Delta
from repro.obs.export import to_prometheus
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, Metrics
from repro.obs.recorder import Recorder
from repro.obs.tracing import NOOP_TRACER
from repro.reduction.reduce import ReducedMapping
from repro.relational.instance import Instance
from repro.runtime.budget import NO_BUDGET, SolveBudget
from repro.runtime.cache import SignatureProgramCache
from repro.xr.segmentary import SegmentaryEngine

from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.protocol import (
    QueryRequest,
    answer_payload,
    request_budget,
    update_payload,
)
from repro.serve.rwlock import RWLock

#: Entry bounds of the serving process's two answer layers (programs,
#: decisions); the engine store has its own clause bound
#: (:data:`~repro.runtime.cache.DEFAULT_MAX_ENGINE_CLAUSES`).
MAX_CACHED_PROGRAMS = 4096
MAX_CACHED_DECISIONS = 65536


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs (every one also a ``repro serve`` CLI flag)."""

    # Budget ceiling: per-request budgets are capped by these (a client
    # can tighten its own SLO, never loosen the server's).
    deadline: float | None = None
    task_timeout: float | None = None
    # Admission control.
    max_inflight: int = 8
    max_queue: int = 16
    queue_timeout: float = 2.0

    def budget_ceiling(self) -> SolveBudget:
        if self.deadline is None and self.task_timeout is None:
            return NO_BUDGET
        return SolveBudget(
            deadline=self.deadline, task_timeout=self.task_timeout
        )


class _GcWatch:
    """Tallies the cyclic collector's runs for ``/metrics``.

    A collection can start in any thread at any allocation, including
    one made while that thread holds the metrics registry's lock, which
    is not reentrant.  So the callback touches no lock and no registry:
    it bumps plain fields (collections never overlap), and
    :meth:`export` copies them into a scrape's payload.
    """

    def __init__(self) -> None:
        self.collections = 0
        self.full_collections = 0
        self.pause_counts = [0] * (len(DEFAULT_TIME_BUCKETS) + 1)
        self.pause_sum = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        self.pause_counts[bisect_left(DEFAULT_TIME_BUCKETS, pause)] += 1
        self.pause_sum += pause
        self.collections += 1
        if info["generation"] == 2:
            self.full_collections += 1

    def export(self, payload: dict) -> dict:
        """Add the GC metrics to a :meth:`Metrics.as_dict` payload."""
        counts = list(self.pause_counts)
        payload["counters"]["gc_collections_total"] = self.collections
        payload["counters"]["gc_full_collections_total"] = (
            self.full_collections
        )
        payload["gauges"]["gc_frozen_objects"] = float(gc.get_freeze_count())
        payload["histograms"]["gc_pause_seconds"] = {
            "boundaries": list(DEFAULT_TIME_BUCKETS),
            "counts": counts,
            "sum": self.pause_sum,
            "count": sum(counts),
        }
        return payload


class QueryService:
    """A warm engine behind a readers–writer seam and admission control."""

    def __init__(
        self,
        mapping: SchemaMapping | ReducedMapping,
        instance: Instance,
        config: ServiceConfig | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = Metrics()
        self.obs = Recorder(tracer=NOOP_TRACER, metrics=self.metrics)
        self.cache = SignatureProgramCache(
            max_programs=MAX_CACHED_PROGRAMS,
            max_decisions=MAX_CACHED_DECISIONS,
        )
        self.cache.metrics = self.metrics
        self.engine = SegmentaryEngine(
            mapping,
            instance,
            cache=self.cache,
            obs=self.obs,
        )
        self._ceiling = self.config.budget_ceiling()
        self.rwlock = RWLock()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            queue_timeout=self.config.queue_timeout,
        )
        self._started = time.monotonic()
        # Materialize the exchange now: requests never pay it, and the
        # lazily-built lookup structures are warm before concurrency
        # begins.
        self.engine.exchange()
        self.session = self.engine.update_session()
        # Registered last, so a failed construction leaves no hook behind.
        self._gc_watch = _GcWatch()
        gc.callbacks.append(self._gc_watch)

    # ------------------------------------------------------------- reads

    def query(self, request: QueryRequest) -> dict:
        """Answer one request; raises :class:`AdmissionRejected` when the
        server is saturated.  Over-budget requests degrade (never 500):
        ``allow_partial=True`` surfaces ``unknown_candidates`` instead of
        raising."""
        self.metrics.inc("serve_requests_total")
        started = time.perf_counter()
        try:
            with self.admission.admit():
                with self.rwlock.read_locked():
                    answers, stats = self.engine.answer_with_stats(
                        request.query,
                        mode=request.mode,
                        allow_partial=True,
                        budget=request_budget(request, self._ceiling),
                    )
        except AdmissionRejected:
            self.metrics.inc("serve_rejected_total")
            raise
        if stats.degraded:
            self.metrics.inc("serve_degraded_total")
        self.metrics.histogram(
            "serve_request_seconds", DEFAULT_TIME_BUCKETS
        ).observe(time.perf_counter() - started)
        return answer_payload(request, answers, stats)

    # ------------------------------------------------------------ writes

    def update(self, deltas: list[Delta]) -> dict:
        """Apply delta steps in order under the exclusive lock.

        Every step is validated first, before the lock is taken: a
        stream with one bad step raises ``ValueError`` and applies none.
        """
        self.session.validate(deltas)
        with self.rwlock.write_locked():
            reports = [self.session.apply(delta) for delta in deltas]
        self.metrics.inc("serve_updates_total", len(reports))
        return update_payload(reports)

    # ------------------------------------------------------- diagnostics

    def health(self) -> dict:
        exchange = self.engine.exchange_stats
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self._started,
            "admission": self.admission.snapshot(),
            "lock": self.rwlock.snapshot(),
            "exchange": {
                "source_facts": exchange.source_facts,
                "chased_facts": exchange.chased_facts,
                "violations": exchange.violations,
                "clusters": exchange.clusters,
            },
            "cache_entries": len(self.cache),
        }

    def metrics_text(self) -> str:
        return to_prometheus(self._gc_watch.export(self.metrics.as_dict()))

    def close(self) -> None:
        if self._gc_watch in gc.callbacks:
            gc.callbacks.remove(self._gc_watch)
        self.engine.close()
