"""Tests for the admission controller (bounded in-flight + wait queue)."""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.serve.admission import AdmissionController, AdmissionRejected


def test_admits_up_to_max_inflight():
    controller = AdmissionController(max_inflight=2, max_queue=0)
    with controller.admit():
        with controller.admit():
            assert controller.snapshot()["inflight"] == 2
    assert controller.snapshot()["inflight"] == 0


def test_overflow_beyond_queue_rejects_immediately():
    controller = AdmissionController(
        max_inflight=1, max_queue=0, queue_timeout=5.0
    )
    controller._acquire()
    try:
        started = time.monotonic()
        with pytest.raises(AdmissionRejected) as excinfo:
            with controller.admit():
                pass
        # Queue full → immediate rejection, not a queue_timeout wait.
        assert time.monotonic() - started < 1.0
        assert excinfo.value.retry_after > 0
    finally:
        controller._release()


def test_queued_waiter_gets_slot_when_released():
    controller = AdmissionController(
        max_inflight=1, max_queue=2, queue_timeout=5.0
    )
    holder_entered = threading.Event()
    release_holder = threading.Event()
    waiter_done = threading.Event()

    def holder() -> None:
        with controller.admit():
            holder_entered.set()
            release_holder.wait(5.0)

    def waiter() -> None:
        holder_entered.wait(5.0)
        with controller.admit():
            waiter_done.set()

    threads = [
        threading.Thread(target=holder), threading.Thread(target=waiter),
    ]
    for thread in threads:
        thread.start()
    holder_entered.wait(5.0)
    # Give the waiter time to queue, then free the slot.
    for _ in range(100):
        if controller.snapshot()["waiting"]:
            break
        time.sleep(0.01)
    release_holder.set()
    assert waiter_done.wait(5.0)
    for thread in threads:
        thread.join()
    assert controller.snapshot() == {
        "inflight": 0, "waiting": 0, "max_inflight": 1, "max_queue": 2,
    }


def test_queued_waiter_times_out():
    controller = AdmissionController(
        max_inflight=1, max_queue=2, queue_timeout=0.1
    )
    controller._acquire()
    try:
        started = time.monotonic()
        with pytest.raises(AdmissionRejected):
            with controller.admit():
                pass
        elapsed = time.monotonic() - started
        assert 0.05 <= elapsed < 2.0
    finally:
        controller._release()
    # The slot is usable again afterwards.
    with controller.admit():
        pass


def test_rejection_leaves_no_residue():
    """A rejected request must not leak inflight or waiting counts."""
    controller = AdmissionController(
        max_inflight=1, max_queue=0, queue_timeout=0.05
    )
    controller._acquire()
    for _ in range(5):
        with pytest.raises(AdmissionRejected):
            with controller.admit():
                pass
    controller._release()
    assert controller.snapshot()["inflight"] == 0
    assert controller.snapshot()["waiting"] == 0


def test_validation():
    with pytest.raises(ValueError):
        AdmissionController(max_inflight=0)
    with pytest.raises(ValueError):
        AdmissionController(max_queue=-1)
    with pytest.raises(ValueError):
        AdmissionController(queue_timeout=0)


@pytest.mark.parametrize("timeout", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_queue_timeout_is_rejected(timeout):
    with pytest.raises(ValueError, match="queue_timeout"):
        AdmissionController(queue_timeout=timeout)


def test_concurrent_inflight_never_exceeds_bound():
    controller = AdmissionController(
        max_inflight=3, max_queue=16, queue_timeout=5.0
    )
    peak = [0]
    current = [0]
    guard = threading.Lock()
    rejected = [0]

    def work() -> None:
        for _ in range(20):
            try:
                with controller.admit():
                    with guard:
                        current[0] += 1
                        peak[0] = max(peak[0], current[0])
                    time.sleep(0.001)
                    with guard:
                        current[0] -= 1
            except AdmissionRejected:
                with guard:
                    rejected[0] += 1

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert peak[0] <= 3
    assert controller.snapshot()["inflight"] == 0
