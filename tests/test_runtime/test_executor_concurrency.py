"""Concurrent-submit tests for the solve executors.

The serving tier funnels many query threads onto **one** shared
executor.  The pre-fix :class:`ParallelExecutor` interleaved batch
dispatch and retry/pool-rebuild bookkeeping (``last_dispatch``, crash
retry counters, the pool recreation latch) across those threads; the fix
serializes pooled batches on an internal lock and makes
``last_dispatch`` thread-local, so:

- concurrent ``run()`` calls return correct, un-mixed outcome lists;
- each thread's ``last_dispatch`` read reflects *its own* batch (the
  engine reads it right after ``run()`` to stamp
  ``QueryPhaseStats.executor``);
- small batches still bypass the lock (they touch no shared state), so
  in-process solving keeps running concurrently.
"""

from __future__ import annotations

import sys
import threading

import pytest

from tests.test_runtime.test_executor import EXPECTED, a_batch, chain_program

from repro.runtime import (
    PackedProgram,
    ParallelExecutor,
    SequentialExecutor,
    SolveTask,
)

THREADS = 6
ROUNDS = 15


@pytest.fixture(autouse=True)
def _tight_switch_interval():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _run_threads(work, count=THREADS):
    errors: list[BaseException] = []
    barrier = threading.Barrier(count)

    def runner(index: int) -> None:
        try:
            barrier.wait()
            work(index)
        except BaseException as exc:  # noqa: BLE001 — the assertion channel
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _check_batch(executor) -> None:
    outcomes = executor.run(a_batch())
    assert [outcome.decided for outcome in outcomes] == EXPECTED
    assert all(outcome.ok for outcome in outcomes)


class TestSequentialConcurrentSubmit:
    def test_concurrent_runs_return_correct_outcomes(self):
        executor = SequentialExecutor()

        def work(_index: int) -> None:
            for _ in range(ROUNDS):
                _check_batch(executor)
                assert executor.last_dispatch == "sequential"

        _run_threads(work)

    def test_last_dispatch_is_per_thread(self):
        """A thread that ran an empty batch keeps reading "none" even
        while other threads run real batches."""
        executor = SequentialExecutor()
        ran_real = threading.Event()

        def work(index: int) -> None:
            if index == 0:
                executor.run([])
                assert executor.last_dispatch == "none"
                ran_real.wait(10.0)
                # Other threads' batches must not leak into this
                # thread's view.
                assert executor.last_dispatch == "none"
            else:
                for _ in range(ROUNDS):
                    _check_batch(executor)
                ran_real.set()

        _run_threads(work, count=3)


class TestParallelConcurrentSubmit:
    def test_small_batches_bypass_the_lock_and_stay_correct(self):
        """jobs > 1 but batches below min_batch: in-process path, fully
        concurrent, correct outcomes and per-thread dispatch labels."""
        executor = ParallelExecutor(jobs=2, min_batch=100)
        try:

            def work(_index: int) -> None:
                for _ in range(ROUNDS):
                    _check_batch(executor)
                    assert executor.last_dispatch == "sequential"

            _run_threads(work)
        finally:
            executor.close()

    def test_pooled_batches_serialize_without_corruption(self):
        """Real pool dispatch from many threads: outcomes stay correct
        and each thread sees a pool-side dispatch label for its batch."""
        executor = ParallelExecutor(jobs=2, min_batch=2)
        try:

            def work(_index: int) -> None:
                for _ in range(3):
                    outcomes = executor.run(a_batch())
                    assert [o.decided for o in outcomes] == EXPECTED
                    assert executor.last_dispatch in (
                        "parallel", "mixed", "sequential"
                    )

            _run_threads(work, count=4)
        finally:
            executor.close()

    def test_mixed_small_and_pooled_batches(self):
        """Half the threads run pool-sized batches, half run tiny ones;
        the tiny ones must not block behind the pool lock nor corrupt
        the pooled threads' dispatch labels."""
        executor = ParallelExecutor(jobs=2, min_batch=3)
        small = [
            SolveTask(PackedProgram.pack(chain_program(2)), (1, 2))
        ]
        try:

            def work(index: int) -> None:
                if index % 2 == 0:
                    for _ in range(3):
                        outcomes = executor.run(a_batch())
                        assert [o.decided for o in outcomes] == EXPECTED
                else:
                    for _ in range(ROUNDS):
                        [outcome] = executor.run(list(small))
                        assert outcome.decided == frozenset({1, 2})
                        assert executor.last_dispatch == "sequential"

            _run_threads(work, count=4)
        finally:
            executor.close()

    def test_empty_batch_dispatch_label(self):
        executor = ParallelExecutor(jobs=2, min_batch=2)
        try:
            assert executor.run([]) == []
            assert executor.last_dispatch == "none"
        finally:
            executor.close()
