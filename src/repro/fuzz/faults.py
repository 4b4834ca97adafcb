"""Deterministic solve cutoffs for the degradation invariants.

The resource-governance layer (:mod:`repro.runtime.budget`) promises that
whatever a budget cuts off is reported as *unknown* — never silently
dropped, never fabricated, never cached.  This module turns that promise
into a checkable invariant:

- :class:`FaultPlan` — a seeded, deterministic set of task indices whose
  solve is cut off;
- :class:`CutoffInjectingExecutor` — a
  :class:`~repro.runtime.SequentialExecutor` that solves each planned
  task under a deadline that has already passed, so the solver stops at
  its first cooperative check — the same interrupt a real budget fires;
- :func:`run_fault_check` — the differential: exact answers from a clean
  engine vs a run with the planned cutoffs, which must bracket the truth:

  ``degraded-certain ⊆ exact-certain ⊆ exact-possible ⊆ degraded-possible``

  plus completeness of the unknown report — every exact answer the
  degraded run failed to produce must be listed in
  ``stats.unknown_candidates`` — and an uncached degraded run: a clean
  engine sharing its cache must still reach the exact answers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.fuzz.differential import Discrepancy, _fmt
from repro.fuzz.render import Scenario
from repro.runtime.cache import SignatureProgramCache
from repro.runtime.executor import SequentialExecutor, solve_task


@dataclass(frozen=True)
class FaultPlan:
    """The task indices (within a batch) whose solve is cut off."""

    cut_on: frozenset = frozenset()


class CutoffInjectingExecutor(SequentialExecutor):
    """A SequentialExecutor that cuts the planned tasks off mid-solve."""

    def __init__(self, plan: FaultPlan):
        super().__init__()
        self.plan = plan

    def _solve(self, index, task, deadline, tracer):
        if index not in self.plan.cut_on:
            return super()._solve(index, task, deadline, tracer)
        # A cutoff "now": expired by the solver's first deadline check.
        return solve_task(task, deadline_at=time.monotonic(), tracer=tracer)


def fault_plan_for_seed(seed: int, max_index: int = 6) -> FaultPlan:
    """The deterministic cutoff plan for a fuzz seed.

    Seeded by integer arithmetic only (no str hashing, which is salted
    per interpreter), so campaigns and replays cut the same tasks.
    """
    rng = random.Random((seed * 2654435761 + 0x5EED) & 0xFFFFFFFF)
    # Index 0 is always cut: segmentary batches are often a single task,
    # and a plan that only hits higher indices would inject nothing.
    rest = range(1, max_index)
    return FaultPlan(cut_on=frozenset({0, *rng.sample(rest, k=rng.randint(0, 2))}))


def run_fault_check(scenario: Scenario, seed: int = 0) -> list[Discrepancy]:
    """Check the degradation invariants of one scenario under cutoffs.

    A clean engine gives the exact answers; an engine whose planned
    family solves are cut off answers with ``allow_partial=True``.  Its
    certain answers must under-, and its possible answers over-approximate
    the exact ones, with every gap accounted for in
    ``stats.unknown_candidates``; and a clean engine on the degraded
    run's cache must still answer exactly.
    """
    from repro.xr.segmentary import SegmentaryEngine

    problems: list[Discrepancy] = []
    mapping, instance, query = scenario.mapping, scenario.instance, scenario.query

    def complain(kind: str, left: str, right: str, detail: str) -> None:
        problems.append(Discrepancy(kind, left, right, detail))

    with SegmentaryEngine(mapping, instance, cache=False) as exact_engine:
        exact_certain = frozenset(exact_engine.answer(query))
        exact_possible = frozenset(exact_engine.possible_answers(query))

    cache = SignatureProgramCache()
    with SegmentaryEngine(
        mapping, instance, cache=cache,
        executor=CutoffInjectingExecutor(fault_plan_for_seed(seed)),
    ) as engine:
        degraded_certain, certain_stats = engine.answer_with_stats(
            query, mode="certain", allow_partial=True
        )
        degraded_possible, possible_stats = engine.answer_with_stats(
            query, mode="possible", allow_partial=True
        )
    degraded_certain = frozenset(degraded_certain)
    degraded_possible = frozenset(degraded_possible)

    if not degraded_certain <= exact_certain:
        complain(
            "degradation-unsound", "degraded-certain", "exact-certain",
            f"fabricated {_fmt(degraded_certain - exact_certain)}",
        )
    if not exact_certain <= degraded_certain | certain_stats.unknown_candidates:
        complain(
            "degradation-incomplete", "exact-certain", "degraded-certain",
            "dropped without being reported unknown: "
            f"{_fmt(exact_certain - degraded_certain - certain_stats.unknown_candidates)}",
        )
    if not exact_possible <= degraded_possible:
        complain(
            "degradation-unsound", "exact-possible", "degraded-possible",
            f"missing {_fmt(exact_possible - degraded_possible)}",
        )
    if not degraded_possible <= exact_possible | possible_stats.unknown_candidates:
        complain(
            "degradation-incomplete", "degraded-possible", "exact-possible",
            "fabricated beyond the unknown set: "
            f"{_fmt(degraded_possible - exact_possible - possible_stats.unknown_candidates)}",
        )

    with SegmentaryEngine(mapping, instance, cache=cache) as warm:
        warm_certain = frozenset(warm.answer(query))
        warm_possible = frozenset(warm.possible_answers(query))
    if (warm_certain, warm_possible) != (exact_certain, exact_possible):
        complain(
            "degradation-cached", "exact", "warm-after-degraded",
            f"certain {_fmt(warm_certain)}, possible {_fmt(warm_possible)}",
        )
    return problems
