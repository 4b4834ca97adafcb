"""What the paper-figure suite shares: engines, timing and formatting.

``BenchmarkContext`` memoizes the expensive shared artifacts (the reduced
genome mapping, generated instances, warm segmentary engines) across
benchmark functions within one pytest session, so each table/figure bench
only pays for what it measures.  :func:`format_table` and
:func:`format_series` print the rows and series the paper's tables and
figures report, aligned and diff-friendly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.genomics.instances import INSTANCE_PROFILES, build_instance
from repro.genomics.generator import GeneratedInstance
from repro.genomics.queries import query_by_name
from repro.genomics.schema import genome_mapping
from repro.obs.recorder import Recorder
from repro.reduction.reduce import ReducedMapping, reduce_mapping
from repro.runtime.budget import SolveBudget
from repro.xr.monolithic import MonolithicEngine
from repro.xr.segmentary import SegmentaryEngine


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str,
    points: Sequence[tuple[object, float]],
    unit: str = "s",
) -> str:
    """Render one figure series as ``name: x=y`` pairs (one per point)."""
    body = "  ".join(f"{x}={y:.3f}{unit}" for x, y in points)
    return f"{name}: {body}"


@dataclass
class QueryResult:
    """One (engine, instance, query) measurement."""

    query: str
    seconds: float
    answers: int


@dataclass
class BenchmarkContext:
    """Session-wide cache of reduced mapping, instances, and engines.

    ``cache``, ``budget``, and ``obs`` are forwarded to every
    engine this context builds (warm engines are memoized per profile, so
    one context measures one runtime configuration).  Benchmarks that set
    a ``budget`` must report degradation (``stats.timeouts``) alongside
    timings — a degraded measurement is not comparable to an exact one.
    Likewise, a context with a live ``obs`` recorder produces *traced*
    measurements, excluded from timing baselines (see EXPERIMENTS.md).
    """

    cache: bool = True
    budget: SolveBudget | None = None
    obs: Recorder | None = None
    _reduced: ReducedMapping | None = None
    _instances: dict[str, GeneratedInstance] = field(default_factory=dict)
    _segmentary: dict[str, SegmentaryEngine] = field(default_factory=dict)

    def reduced_mapping(self) -> ReducedMapping:
        if self._reduced is None:
            self._reduced = reduce_mapping(genome_mapping())
        return self._reduced

    def instance(self, profile: str) -> GeneratedInstance:
        if profile not in self._instances:
            self._instances[profile] = build_instance(INSTANCE_PROFILES[profile])
        return self._instances[profile]

    def segmentary_engine(self, profile: str) -> SegmentaryEngine:
        """A segmentary engine with its exchange phase already run."""
        if profile not in self._segmentary:
            engine = SegmentaryEngine(
                self.reduced_mapping(),
                self.instance(profile).instance,
                cache=self.cache,
                budget=self.budget,
                obs=self.obs,
            )
            engine.exchange()
            self._segmentary[profile] = engine
        return self._segmentary[profile]

    def close(self) -> None:
        """Close the warm engines."""
        for engine in self._segmentary.values():
            engine.close()

    def __enter__(self) -> "BenchmarkContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def monolithic_engine(self, profile: str) -> MonolithicEngine:
        """A fresh monolithic engine (no shared state: the monolithic cost
        model pays for everything per query)."""
        return MonolithicEngine(
            self.reduced_mapping(),
            self.instance(profile).instance,
            budget=self.budget,
            obs=self.obs,
        )


def run_query_suite(
    engine: MonolithicEngine | SegmentaryEngine,
    query_names: list[str],
) -> list[QueryResult]:
    """Time each named Table 3 query on an engine."""
    results = []
    for name in query_names:
        query = query_by_name(name)
        started = time.perf_counter()
        answers = engine.answer(query)
        results.append(
            QueryResult(
                query=name,
                seconds=time.perf_counter() - started,
                answers=len(answers),
            )
        )
    return results
