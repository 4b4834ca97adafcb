"""The solve executor: the query phase's family programs, in process.

A :class:`SolveTask` is one self-contained unit of query-phase work — a
cluster family's ground program plus the query-atom ids to decide
cautiously or bravely, and the :class:`~repro.runtime.budget.SolveBudget`
governing the solve.  :class:`SequentialExecutor` takes a batch of tasks
and returns one :class:`SolveOutcome` per task, *in task order*, solving
each in the calling process.  Every solve is a pure function of its task
(the CDCL search is deterministic), so a batch's outcomes do not depend
on which thread runs it or what else runs beside it.

Budgets are enforced cooperatively: the batch deadline and the task's
``task_timeout`` become one :class:`~repro.runtime.budget.Deadline` that
the CDCL loop polls, and a task whose batch deadline passed before it
started is reported as a timeout without being solved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.asp.reasoning import decide_family
from repro.asp.syntax import GroundProgram, GroundRule
from repro.obs.metrics import Metrics
from repro.obs.tracing import NOOP_TRACER
from repro.runtime.budget import NO_BUDGET, Deadline, SolveBudget


@dataclass(frozen=True)
class PackedProgram:
    """A ground program reduced to rules plus atom-universe size.

    Duck-types the two attributes the stable-model engine reads
    (``rules`` and ``num_atoms``); the atom table stays with the caller,
    which keeps the fact↔id mapping and decodes the returned atom ids.
    """

    num_atoms: int
    rules: tuple[GroundRule, ...]

    @classmethod
    def pack(cls, program: GroundProgram | "PackedProgram") -> "PackedProgram":
        if isinstance(program, PackedProgram):
            return program
        return cls(num_atoms=program.num_atoms, rules=tuple(program.rules))


@dataclass(frozen=True)
class SolveTask:
    """Decide which of ``query_atom_ids`` hold under ``mode`` in ``program``.

    ``mode`` is ``"certain"`` (cautious: true in every stable model) or
    ``"possible"`` (brave: true in some stable model).  All query atoms
    are decided on one engine with shared learned clauses
    (:func:`repro.asp.reasoning.decide_family`).  ``budget`` carries the
    per-task timeout; the default :data:`~repro.runtime.budget.NO_BUDGET`
    changes nothing.  A budget cutoff degrades per candidate: the outcome
    carries the exact verdicts reached before the interrupt plus the
    ``undecided`` remainder.
    """

    program: PackedProgram
    query_atom_ids: tuple[int, ...]
    mode: str = "certain"
    budget: SolveBudget = NO_BUDGET


@dataclass
class SolveOutcome:
    """The result of one solve: accepted atom ids plus observability data.

    ``status`` is ``"ok"`` (solved; ``decided is None`` then means the
    program has no stable model) or ``"timeout"`` (the task's or batch's
    deadline passed before every atom got a verdict).

    ``rejected`` mirrors ``decided`` with the atoms proven *not* to hold,
    and ``undecided`` lists atoms the budget cut off before a verdict.  A
    timeout with ``decided is not None`` is a *partial* outcome — its
    decided and rejected verdicts are exact and usable; only
    ``undecided`` degrades to unknown.  A batch deadline that passed
    before the task started carries ``decided=None``: nothing was decided.
    """

    decided: frozenset[int] | None  # None: no stable model (status "ok")
    seconds: float = 0.0
    solver_stats: dict[str, int] = field(default_factory=dict)
    status: str = "ok"
    rejected: frozenset[int] | None = None
    undecided: frozenset[int] = frozenset()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def solve_task(
    task: SolveTask, deadline_at: float | None = None, tracer=NOOP_TRACER
) -> SolveOutcome:
    """Solve one task in the current process.

    ``deadline_at`` is an absolute monotonic batch cutoff; it is
    intersected with the task's own ``task_timeout``.  When the resulting
    deadline fires mid-search, the outcome is reported as
    ``status="timeout"`` with the atoms still lacking a verdict in
    ``undecided``.

    The solve runs inside a ``solve.task`` span of ``tracer`` (program
    size tags, the status, and the solver's statistics as counters), so
    it nests under whatever span the caller has open.
    """
    started = time.perf_counter()
    deadline = Deadline.tightest(
        timeout=task.budget.task_timeout, at=deadline_at
    )
    with tracer.span(
        "solve.task",
        mode=task.mode,
        atoms=task.program.num_atoms,
        rules=len(task.program.rules),
        query_atoms=len(task.query_atom_ids),
    ) as span:
        # A budget cutoff is caught inside decide_family: the verdicts
        # reached before it are exact and come back with the remainder.
        verdicts = decide_family(
            task.program,
            task.query_atom_ids,
            mode="cautious" if task.mode == "certain" else "possible",
            deadline=deadline,
        )
        status = "timeout" if verdicts.undecided else "ok"
        if tracer.enabled:
            span.tag("status", status)
            for key, value in verdicts.stats.items():
                span.count(key, value)

    return SolveOutcome(
        decided=None if verdicts.no_model else verdicts.accepted,
        seconds=time.perf_counter() - started,
        # The solver's own counters plus core_skips / family_models.
        solver_stats=dict(verdicts.stats),
        status=status,
        rejected=verdicts.rejected,
        undecided=verdicts.undecided,
    )


class SequentialExecutor:
    """Run every task in the calling process, one after another.

    Holds no per-batch state, so concurrent ``run`` calls from many
    threads (the serving tier's readers sharing one engine) need no lock.
    ``metrics`` (an optional :class:`~repro.obs.Metrics`) receives the
    batch and task counters when set by the owning engine; it defaults to
    None and costs nothing when absent.
    """

    def __init__(self) -> None:
        self.metrics: Metrics | None = None

    def run(
        self,
        tasks: Sequence[SolveTask],
        deadline: Deadline | None = None,
        tracer=NOOP_TRACER,
    ) -> list[SolveOutcome]:
        if not tasks:
            return []
        if self.metrics is not None:
            self.metrics.inc("executor_batches_total")
            self.metrics.inc("executor_tasks_total", len(tasks))
        return [
            self._solve(index, task, deadline, tracer)
            for index, task in enumerate(tasks)
        ]

    def _solve(
        self, index: int, task: SolveTask, deadline: Deadline | None, tracer
    ) -> SolveOutcome:
        """Solve the batch's ``index``-th task, honoring the batch deadline."""
        if deadline is None:
            return solve_task(task, tracer=tracer)
        if deadline.expired():
            return SolveOutcome(decided=None, status="timeout")
        return solve_task(task, deadline.deadline_at, tracer=tracer)

    def close(self) -> None:
        pass
