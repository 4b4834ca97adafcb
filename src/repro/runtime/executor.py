"""Solve executors: sequential and process-parallel signature solving.

A :class:`SolveTask` is one self-contained unit of query-phase work — a
cluster family's ground program plus the query-atom ids to decide
cautiously or bravely, and the :class:`~repro.runtime.budget.SolveBudget`
governing the solve.
Executors take a batch of tasks and return one :class:`SolveOutcome` per
task, *in task order*.  Because every solve is a pure function of its task
(the CDCL search is deterministic), sequential and parallel execution are
answer-identical; only wall-clock time differs.

:class:`ParallelExecutor` dispatches pickled tasks to a
``ProcessPoolExecutor``, one future per task.  Programs are shipped as
:class:`PackedProgram` — rules plus the atom-universe size, leaving the
atom table (whose :class:`~repro.relational.instance.Fact` objects dominate
pickling cost) behind in the parent; the parent keeps the fact↔id mapping
and decodes the returned atom ids itself.

Resource governance (all off by default):

- a batch ``deadline`` bounds both the workers (cooperative checks inside
  the CDCL loop) and the parent's wait for results, so even a wedged
  worker cannot hold a query past its budget — its unfinished tasks are
  reported as ``SolveOutcome(status="timeout")`` and the stuck pool is
  abandoned and recreated for the next batch;
- a task whose worker process *crashed* (``BrokenProcessPool``) is
  re-dispatched up to its budget's ``max_retries``, with exponential
  backoff and pool recreation — only the unfinished tasks re-run, never
  the whole batch;
- pool creation itself gets bounded retries with backoff instead of a
  permanent latch, so one transient spawn failure does not disable
  parallelism for the executor's lifetime.

When process spawning stays impossible, a task does not pickle, or the
batch is too small to amortize fork overhead, the executor degrades
gracefully to in-process execution.  ``last_dispatch`` records how the
most recent batch actually ran (``"parallel"``, ``"sequential"``, or
``"mixed"`` when a batch started parallel and finished in-process).
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
from concurrent.futures import wait as _wait_futures
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.asp.reasoning import decide_family
from repro.asp.syntax import GroundProgram, GroundRule
from repro.obs.metrics import Metrics
from repro.obs.tracing import NOOP_TRACER, Tracer
from repro.runtime.budget import (
    NO_BUDGET,
    Deadline,
    SolveBudget,
    backoff_delay,
)

#: Below this many tasks a ParallelExecutor runs in-process: forking and
#: pickling cost more than the solves they would overlap.
DEFAULT_MIN_BATCH = 2

#: Extra seconds the parent waits past a deadline before declaring the
#: outstanding workers wedged: cooperative workers need a moment to notice
#: the deadline and ship their timeout outcomes back.
DEFAULT_DEADLINE_GRACE = 0.5

#: Bounded pool-recreation policy: at most this many consecutive failed
#: spawn attempts per ``run()`` call, and at most ``SPAWN_FAILURE_CAP``
#: over the executor's lifetime before parallelism is disabled for good.
POOL_RECREATE_ATTEMPTS = 3
SPAWN_FAILURE_CAP = 12
POOL_BACKOFF_BASE = 0.05
POOL_BACKOFF_CAP = 1.0


@dataclass(frozen=True)
class PackedProgram:
    """A pickling-friendly ground program: rules plus atom-universe size.

    Duck-types the two attributes the stable-model engine reads
    (``rules`` and ``num_atoms``); the atom table stays in the parent.
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
    (:func:`repro.asp.reasoning.decide_family`); a family is one task
    precisely so clause reuse survives process-pool dispatch.  ``budget``
    carries the per-task timeout and crash-retry policy; the default
    :data:`~repro.runtime.budget.NO_BUDGET` changes nothing.  A budget
    cutoff degrades per candidate: the outcome carries the exact verdicts
    reached before the interrupt plus the ``undecided`` remainder.
    ``trace`` asks the worker to record a ``solve.task`` span (with the
    solver's search statistics as span counters) and ship it back as
    plain data on the outcome — answer-neutral, off by default.
    """

    program: PackedProgram
    query_atom_ids: tuple[int, ...]
    mode: str = "certain"
    budget: SolveBudget = NO_BUDGET
    trace: bool = False


@dataclass
class SolveOutcome:
    """The result of one solve: accepted atom ids plus observability data.

    ``status`` is ``"ok"`` (solved; ``decided is None`` then means the
    program has no stable model), ``"timeout"`` (the task's or batch's
    deadline passed before every atom got a verdict), or ``"error"`` (the
    worker died and retries were exhausted).  ``attempts`` counts
    dispatches, so ``attempts - 1`` is the number of retries.  ``span``
    is the worker's serialized ``solve.task`` span tree when the task
    asked for one (``SolveTask.trace``) — the result channel doubles as
    the trace channel, so process-pool solves stay observable.

    ``rejected`` mirrors ``decided`` with the atoms proven *not* to hold,
    and ``undecided`` lists atoms the budget cut off before a verdict.  A
    timeout with ``decided is not None`` is a *partial* outcome — its
    decided and rejected verdicts are exact and usable; only
    ``undecided`` degrades to unknown.  Cutoffs outside the solve (a
    batch deadline that passed before dispatch, a wedged or crashed
    worker) carry ``decided=None``: nothing was decided.
    """

    decided: frozenset[int] | None  # None: no stable model (status "ok")
    seconds: float = 0.0
    solver_stats: dict[str, int] = field(default_factory=dict)
    status: str = "ok"
    attempts: int = 1
    span: dict | None = None
    rejected: frozenset[int] | None = None
    undecided: frozenset[int] = frozenset()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def solve_task(task: SolveTask, deadline_at: float | None = None) -> SolveOutcome:
    """Solve one task in the current process (the worker entry point).

    ``deadline_at`` is an absolute monotonic batch cutoff shipped by the
    parent; it is intersected with the task's own ``task_timeout``.  When
    the resulting deadline fires mid-search, the outcome is reported as
    ``status="timeout"`` with the atoms still lacking a verdict in
    ``undecided``.

    With ``task.trace`` set, the solve runs under a process-local tracer
    and the outcome carries the serialized ``solve.task`` span (program
    size tags, solver statistics as counters).  The span's timestamps are
    this process's monotonic epoch; the parent re-attaches the tree
    tagged ``clock="remote"``.
    """
    started = time.perf_counter()
    deadline = Deadline.tightest(
        timeout=task.budget.task_timeout, at=deadline_at
    )
    tracer = Tracer() if task.trace else NOOP_TRACER
    with tracer.span(
        "solve.task",
        mode=task.mode,
        atoms=task.program.num_atoms,
        rules=len(task.program.rules),
        query_atoms=len(task.query_atom_ids),
    ):
        # A budget cutoff is caught inside decide_family: the verdicts
        # reached before it are exact and come back with the remainder.
        verdicts = decide_family(
            task.program,
            task.query_atom_ids,
            mode="cautious" if task.mode == "certain" else "possible",
            deadline=deadline,
        )
    seconds = time.perf_counter() - started
    status = "timeout" if verdicts.undecided else "ok"

    span_payload: dict | None = None
    if task.trace:
        root = tracer.finished[0]
        root.tag("status", status)
        for key, value in verdicts.stats.items():
            root.count(key, value)
        span_payload = root.to_dict()

    return SolveOutcome(
        decided=None if verdicts.no_model else verdicts.accepted,
        seconds=seconds,
        # The solver's own counters plus core_skips / family_models.
        solver_stats=dict(verdicts.stats),
        status=status,
        span=span_payload,
        rejected=verdicts.rejected,
        undecided=verdicts.undecided,
    )


def _solve_pickled(
    payload: bytes,
    index: int = 0,
    attempt: int = 0,
    deadline_at: float | None = None,
) -> SolveOutcome:
    """Worker entry point for pre-serialized tasks.

    Tasks are pickled in the *parent* (see :meth:`ParallelExecutor.run`):
    a non-picklable task must fail synchronously there, not inside the
    pool's queue-feeder thread, where the failure wedges the pool — both
    a pending future and a joining ``shutdown`` would then block forever.

    ``index`` and ``attempt`` are unused here; they exist so alternative
    worker functions (fault injection in :mod:`repro.fuzz.faults`) can key
    behavior on which task, and which dispatch of it, they are running.
    """
    return solve_task(pickle.loads(payload), deadline_at=deadline_at)


class _DispatchRecord:
    """``last_dispatch`` bookkeeping that is correct under threads.

    A shared executor (the serving tier multiplexes every request onto
    one) is asked "how did *my* batch run?" right after ``run()`` returns
    — a single shared string would answer with whichever batch finished
    last, on any thread.  The record keeps a thread-local value (what the
    *calling* thread's most recent batch did) over a cross-thread
    fallback (the most recent batch anywhere, preserving the historical
    single-threaded reads from non-submitting threads).
    """

    __slots__ = ("_local", "_latest")

    def __init__(self) -> None:
        self._local = threading.local()
        self._latest = "none"

    def get(self) -> str:
        return getattr(self._local, "value", self._latest)

    def set(self, value: str) -> None:
        self._local.value = value
        self._latest = value


@runtime_checkable
class SolveExecutor(Protocol):
    """Anything that can run a batch of solve tasks, preserving order.

    ``last_dispatch`` must record how the most recent ``run()`` actually
    executed (not how the executor was configured): ``"sequential"``,
    ``"parallel"``, ``"mixed"``, or ``"none"`` before the first batch.
    On a shared executor the value read must be the *calling thread's*
    most recent batch when that thread has run one.
    """

    name: str
    last_dispatch: str

    def run(
        self, tasks: Sequence[SolveTask], deadline: Deadline | None = None
    ) -> list[SolveOutcome]: ...

    def close(self) -> None: ...


def _timeout_outcome(attempts: int = 1) -> SolveOutcome:
    return SolveOutcome(decided=None, status="timeout", attempts=attempts)


def _run_one(task: SolveTask, deadline: Deadline | None) -> SolveOutcome:
    """Solve a task in-process, honoring an optional batch deadline."""
    if deadline is not None and deadline.expired():
        return _timeout_outcome()
    return solve_task(
        task, deadline_at=None if deadline is None else deadline.deadline_at
    )


class SequentialExecutor:
    """Run every task in the calling process, one after another.

    ``metrics`` (an optional :class:`~repro.obs.Metrics`) receives the
    dispatch event counters when set by the owning engine; it defaults to
    None and costs nothing when absent.
    """

    name = "sequential"

    def __init__(self) -> None:
        self._dispatch = _DispatchRecord()
        self.metrics: Metrics | None = None

    @property
    def last_dispatch(self) -> str:
        return self._dispatch.get()

    @last_dispatch.setter
    def last_dispatch(self, value: str) -> None:
        self._dispatch.set(value)

    def run(
        self, tasks: Sequence[SolveTask], deadline: Deadline | None = None
    ) -> list[SolveOutcome]:
        if not tasks:
            self.last_dispatch = "none"
            return []
        self.last_dispatch = "sequential"
        if self.metrics is not None:
            self.metrics.inc("executor_batches_total")
            self.metrics.inc("executor_tasks_total", len(tasks))
            self.metrics.inc("executor_inprocess_batches_total")
        return [_run_one(task, deadline) for task in tasks]

    def close(self) -> None:
        pass

    def __enter__(self) -> "SequentialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ParallelExecutor:
    """Fan a batch of tasks out to a process pool, one future per task.

    - ``jobs``: worker-process count (defaults to the CPU count);
    - ``min_batch``: batches smaller than this run in-process;
    - ``deadline_grace``: extra parent-side wait past a deadline before
      outstanding workers are declared wedged.

    The pool is created lazily on the first large-enough batch and reused
    across calls.  Worker crashes trigger task-level retry (per the task's
    budget) with pool recreation; wedged workers are abandoned at the
    deadline; failed pool spawns retry with backoff up to a lifetime cap.
    Whatever happens, ``run`` returns one outcome per task, in order, and
    an outcome is only ever non-``ok`` when a budget or fault forced it —
    never because parallelism happened to be unavailable.

    **One batch at a time.**  Dispatch state — the lazily-(re)created
    pool, the spawn-failure counters, the crash-retry bookkeeping — is
    shared across batches, so ``run()`` serializes itself on an internal
    lock: concurrent ``submit`` from multiple threads (the serving tier
    multiplexing requests onto one executor) queues batches instead of
    interleaving their retry/pool-rebuild bookkeeping.  Answers were
    never at risk (each batch's results live in locals), but an
    interleaved ``_abandon_pool`` could strand another batch's futures
    and double-count spawn failures.  ``close()`` takes the same lock,
    so a pool is never torn down under a live batch.  ``last_dispatch``
    is thread-local (see :class:`_DispatchRecord`): each thread reads
    how *its* batch ran.
    """

    name = "parallel"

    def __init__(
        self,
        jobs: int | None = None,
        min_batch: int = DEFAULT_MIN_BATCH,
        deadline_grace: float = DEFAULT_DEADLINE_GRACE,
    ):
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.min_batch = max(1, min_batch)
        self.deadline_grace = deadline_grace
        self._dispatch = _DispatchRecord()
        self.metrics: Metrics | None = None
        # Serializes run()/close(): dispatch bookkeeping (pool handle,
        # spawn-failure counters, retry waves) is one-batch-at-a-time.
        self._batch_lock = threading.Lock()
        self._pool: _ProcessPool | None = None
        self._spawn_failures = 0  # lifetime count, capped
        # The worker entry point; fault-injecting subclasses override it.
        # Must be picklable (module-level function or functools.partial
        # of one) so spawn-based pools can ship it.
        self._worker: Callable = _solve_pickled

    @property
    def last_dispatch(self) -> str:
        return self._dispatch.get()

    @last_dispatch.setter
    def last_dispatch(self, value: str) -> None:
        self._dispatch.set(value)

    def _count(self, name: str, value: int = 1) -> None:
        """Record one executor event when a metrics registry is attached."""
        if self.metrics is not None:
            self.metrics.inc(name, value)

    # ------------------------------------------------------------- pool

    def _ensure_pool(self) -> _ProcessPool | None:
        """The live pool, (re)created with bounded, backed-off attempts.

        Returns None when this call's attempts are exhausted or the
        lifetime spawn-failure cap was hit; the caller then degrades to
        in-process execution for the current batch, but — below the cap —
        a later batch will try to spawn again.
        """
        if self._pool is not None:
            return self._pool
        attempts = 0
        while (
            attempts < POOL_RECREATE_ATTEMPTS
            and self._spawn_failures < SPAWN_FAILURE_CAP
        ):
            if attempts:
                time.sleep(
                    backoff_delay(attempts - 1, POOL_BACKOFF_BASE, POOL_BACKOFF_CAP)
                )
            try:
                self._pool = _ProcessPool(max_workers=self.jobs)
            except (OSError, ValueError, RuntimeError):
                attempts += 1
                self._spawn_failures += 1
                self._count("executor_pool_spawn_failures_total")
                continue
            return self._pool
        return None

    def _abandon_pool(self) -> None:
        """Drop a broken or wedged pool without joining its threads; a
        later :meth:`_ensure_pool` recreates it (bounded by the caps)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # --------------------------------------------------------- dispatch

    def _run_sequential(
        self, tasks: Sequence[SolveTask], deadline: Deadline | None
    ) -> list[SolveOutcome]:
        self.last_dispatch = "sequential"
        self._count("executor_inprocess_batches_total")
        return [_run_one(task, deadline) for task in tasks]

    def _wait_bound(
        self,
        deadline: Deadline | None,
        tasks: Sequence[SolveTask],
        remaining: Sequence[int],
    ) -> float | None:
        """Absolute monotonic time after which outstanding workers are
        considered wedged; None when nothing bounds the wait (today's
        unbudgeted behavior)."""
        if deadline is not None and deadline.deadline_at is not None:
            return deadline.deadline_at + self.deadline_grace
        timeouts = [tasks[i].budget.task_timeout for i in remaining]
        if timeouts and all(t is not None for t in timeouts):
            # Every task is individually bounded: even with queueing, the
            # batch cannot honestly need more than this many waves.
            waves = math.ceil(len(remaining) / self.jobs)
            return (
                time.monotonic()
                + max(timeouts) * waves
                + self.deadline_grace
            )
        return None

    def run(
        self, tasks: Sequence[SolveTask], deadline: Deadline | None = None
    ) -> list[SolveOutcome]:
        tasks = list(tasks)
        if not tasks:
            self.last_dispatch = "none"
            return []
        self._count("executor_batches_total")
        self._count("executor_tasks_total", len(tasks))
        if len(tasks) < self.min_batch or self.jobs <= 1:
            # In-process execution touches no shared dispatch state; it
            # runs outside the batch lock so small batches never queue
            # behind a pooled one.
            return self._run_sequential(tasks, deadline)
        with self._batch_lock:
            return self._run_pooled(tasks, deadline)

    def _run_pooled(
        self, tasks: list[SolveTask], deadline: Deadline | None
    ) -> list[SolveOutcome]:
        """Dispatch one batch through the pool; caller holds the lock."""
        try:
            payloads = [
                pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                for task in tasks
            ]
        except (pickle.PicklingError, AttributeError, TypeError):
            # Serialize in the parent so this fails *here*, synchronously.
            # Handing a non-picklable task to the pool would fail in its
            # queue-feeder thread instead, wedging the pool for good.
            self._count("executor_pickle_fallback_total")
            return self._run_sequential(tasks, deadline)

        results: list[SolveOutcome | None] = [None] * len(tasks)
        attempts = [0] * len(tasks)
        remaining = list(range(len(tasks)))
        pooled = 0  # outcomes that came back from a worker process
        in_process = 0  # outcomes solved in-parent (pool unavailable)
        wave = 0
        deadline_at = None if deadline is None else deadline.deadline_at

        while remaining:
            if deadline is not None and deadline.expired():
                for i in remaining:
                    results[i] = _timeout_outcome(attempts[i] + 1)
                    self._count("executor_deadline_timeouts_total")
                remaining = []
                break
            if wave:
                # Re-dispatch wave after worker crashes: back off first.
                base = max(tasks[i].budget.retry_backoff for i in remaining)
                cap = max(tasks[i].budget.backoff_cap for i in remaining)
                time.sleep(backoff_delay(wave - 1, base, cap))
            pool = self._ensure_pool()
            if pool is None:
                for i in remaining:
                    results[i] = _run_one(tasks[i], deadline)
                    in_process += 1
                remaining = []
                break

            try:
                futures = {
                    pool.submit(
                        self._worker, payloads[i], i, attempts[i], deadline_at
                    ): i
                    for i in remaining
                }
            except RuntimeError:
                # The pool was shut down or broke between batches; drop it
                # and let the next loop iteration recreate or degrade.
                self._abandon_pool()
                self._spawn_failures += 1
                continue

            retry: list[int] = []
            broken = False
            wedged = False
            not_done = set(futures)
            wait_until = self._wait_bound(deadline, tasks, remaining)
            while not_done:
                timeout = (
                    None
                    if wait_until is None
                    else max(0.0, wait_until - time.monotonic())
                )
                done, not_done = _wait_futures(not_done, timeout=timeout)
                if not done:
                    wedged = True  # bound passed with workers outstanding
                    break
                for future in done:
                    i = futures[future]
                    error = future.exception()
                    if error is None:
                        outcome = future.result()
                        outcome.attempts = attempts[i] + 1
                        results[i] = outcome
                        pooled += 1
                    else:
                        # The worker process died (BrokenProcessPool), or
                        # the pool imploded some other way.  Task-level
                        # retry: only this task re-runs, if its budget
                        # still allows it.
                        broken = True
                        self._count("executor_worker_crashes_total")
                        if attempts[i] < tasks[i].budget.max_retries:
                            attempts[i] += 1
                            retry.append(i)
                            self._count("executor_task_retries_total")
                        else:
                            results[i] = SolveOutcome(
                                decided=None,
                                status="error",
                                attempts=attempts[i] + 1,
                            )
            if wedged:
                # The wait bound has passed: no budget is left for the
                # unfinished tasks, including any queued for crash-retry.
                self._count("executor_wedged_batches_total")
                for future, i in futures.items():
                    if results[i] is None:
                        future.cancel()
                        results[i] = _timeout_outcome(attempts[i] + 1)
                        self._count("executor_deadline_timeouts_total")
                self._abandon_pool()  # its workers are stuck; start fresh
                remaining = []
                break
            if broken:
                self._abandon_pool()
            remaining = sorted(retry)
            if remaining:
                wave += 1

        if pooled and in_process:
            self.last_dispatch = "mixed"
        elif pooled or in_process == 0:
            # Everything that produced a worker outcome ran in the pool
            # (parent-marked timeouts still count as a parallel dispatch).
            self.last_dispatch = "parallel"
        else:
            self.last_dispatch = "sequential"
        assert all(outcome is not None for outcome in results)
        return results  # type: ignore[return-value]

    def close(self) -> None:
        with self._batch_lock:
            if self._pool is not None:
                # wait=True: a dying pool's queue threads must not survive
                # into a later fork() — a forked child that inherits their
                # locks mid-acquisition deadlocks on first use.
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_executor(
    jobs: int = 1, min_batch: int = DEFAULT_MIN_BATCH
) -> SolveExecutor:
    """``jobs <= 1`` → :class:`SequentialExecutor`; else a parallel one."""
    if jobs <= 1:
        return SequentialExecutor()
    return ParallelExecutor(jobs=jobs, min_batch=min_batch)
