"""Solve execution and caching for the segmentary query phase.

The per-family programs of Section 6.4 are pairwise-independent by
cluster independence (Definition 8 / Propositions 5–6).  This package
provides:

- :mod:`repro.runtime.executor` — "solve this batch of ground programs"
  in the calling process (:class:`SequentialExecutor`), one outcome per
  task, in task order;
- :mod:`repro.runtime.cache` — a cross-query result cache for signature
  programs plus a coarser per-cluster decision memo, so a warm engine
  answering repeated or structurally-similar queries skips redundant
  solving entirely;
- :mod:`repro.runtime.budget` — resource governance: wall-clock deadlines
  and per-task timeouts (:class:`SolveBudget`), enforced cooperatively
  inside the CDCL loop, with :class:`SolveBudgetExceeded` →
  ``status="timeout"`` outcomes instead of unbounded solves;
- :mod:`repro.runtime.heap` — the write-once exchange is built with the
  cyclic collector paused and then frozen out of it.
"""

from repro.runtime.budget import (
    NO_BUDGET,
    Deadline,
    SolveBudget,
    SolveBudgetExceeded,
)
from repro.runtime.cache import SignatureProgramCache
from repro.runtime.executor import (
    PackedProgram,
    SequentialExecutor,
    SolveOutcome,
    SolveTask,
    solve_task,
)

__all__ = [
    "Deadline",
    "NO_BUDGET",
    "PackedProgram",
    "SequentialExecutor",
    "SignatureProgramCache",
    "SolveBudget",
    "SolveBudgetExceeded",
    "SolveOutcome",
    "SolveTask",
    "solve_task",
]
