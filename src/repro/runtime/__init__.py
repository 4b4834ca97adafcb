"""Pluggable solve execution and caching for the segmentary query phase.

The per-family programs of Section 6.4 are pairwise-independent by
cluster independence (Definition 8 / Propositions 5–6), which makes solving
them an embarrassingly parallel workload.  This package provides:

- :mod:`repro.runtime.executor` — a small executor abstraction over "solve
  this batch of ground programs": :class:`SequentialExecutor` (in-process,
  zero dependencies) and :class:`ParallelExecutor` (a
  ``ProcessPoolExecutor``-backed fan-out with per-task dispatch and
  graceful fallback to sequential execution);
- :mod:`repro.runtime.cache` — a cross-query result cache for signature
  programs plus a coarser per-cluster decision memo, so a warm engine
  answering repeated or structurally-similar queries skips redundant
  solving entirely;
- :mod:`repro.runtime.budget` — resource governance: wall-clock deadlines,
  per-task timeouts, and crash-retry policy (:class:`SolveBudget`),
  enforced cooperatively inside the CDCL loop and externally by the
  executors, with :class:`SolveBudgetExceeded` → ``status="timeout"``
  outcomes instead of unbounded solves.

Both executors are deterministic: a batch of programs produces the same
outcomes in the same order regardless of worker count, because each solve
is a pure function of its program.
"""

from repro.runtime.budget import (
    NO_BUDGET,
    Deadline,
    SolveBudget,
    SolveBudgetExceeded,
    backoff_delay,
)
from repro.runtime.cache import SignatureProgramCache
from repro.runtime.executor import (
    PackedProgram,
    ParallelExecutor,
    SequentialExecutor,
    SolveExecutor,
    SolveOutcome,
    SolveTask,
    make_executor,
    solve_task,
)

__all__ = [
    "Deadline",
    "NO_BUDGET",
    "PackedProgram",
    "ParallelExecutor",
    "SequentialExecutor",
    "SignatureProgramCache",
    "SolveBudget",
    "SolveBudgetExceeded",
    "SolveExecutor",
    "SolveOutcome",
    "SolveTask",
    "backoff_delay",
    "make_executor",
    "solve_task",
]
