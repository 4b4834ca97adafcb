"""Concurrent-submit tests for the in-process solve executor.

The serving tier funnels many query threads onto **one** engine and so
onto one shared :class:`SequentialExecutor`.  The executor keeps no
per-batch state, so:

- concurrent ``run()`` calls return correct, un-mixed outcome lists;
- the executor's metrics counters come out exact when reader threads
  answer concurrently on one engine.
"""

from __future__ import annotations

import sys
import threading

import pytest

from tests.test_runtime.test_executor import EXPECTED, a_batch

from repro.obs.recorder import Recorder
from repro.parser import parse_mapping, parse_program
from repro.relational import Fact, Instance
from repro.runtime import SequentialExecutor
from repro.xr.segmentary import SegmentaryEngine

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
        thread.join(timeout=120)
        assert not thread.is_alive()
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

        _run_threads(work)


MAPPING = parse_mapping(
    """
    SOURCE R/2. TARGET P/2.
    R(x, y) -> P(x, y).
    P(x, y), P(x, z) -> y = z.
    """
)

#: Two independent key conflicts: two families, so every uncached query
#: solves a two-task batch.
INSTANCE = Instance(
    [
        Fact("R", ("a", "b")), Fact("R", ("a", "c")),
        Fact("R", ("d", "e")), Fact("R", ("d", "g")),
        Fact("R", ("k", "v")),
    ]
)

QUERY = parse_program("q(x, y) :- P(x, y).")


class TestReaderThreads:
    def test_executor_counters_exact(self):
        obs = Recorder.create()
        engine = SegmentaryEngine(MAPPING, INSTANCE, cache=False, obs=obs)
        expected, stats = engine.answer_with_stats(QUERY)
        tasks_per_query = stats.programs_solved
        assert tasks_per_query == 2

        def work(_index: int) -> None:
            for _ in range(ROUNDS):
                assert engine.answer(QUERY) == expected

        _run_threads(work)
        counters = obs.metrics.counter_values()
        queries = 1 + THREADS * ROUNDS
        assert counters["executor_batches_total"] == queries
        assert counters["executor_tasks_total"] == queries * tasks_per_query

    def test_empty_batch_counts_nothing(self):
        obs = Recorder.create()
        engine = SegmentaryEngine(MAPPING, INSTANCE, obs=obs)
        assert engine.executor.run([]) == []
        counters = obs.metrics.counter_values()
        assert "executor_batches_total" not in counters
