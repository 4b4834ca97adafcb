"""Admission control: a bounded in-flight count plus a bounded wait queue.

XR-Certain solving is Πp2-hard, so a single expensive query can pin a
request thread for its whole budget; letting an unbounded number of requests pile
onto the engine just converts overload into memory growth and tail
latency.  The controller gives the server an explicit capacity model:

- at most ``max_inflight`` requests execute concurrently;
- at most ``max_queue`` more may *wait* for a slot;
- a waiter that cannot get a slot within ``queue_timeout`` seconds is
  rejected.

Requests beyond both bounds are rejected **immediately** with
:class:`AdmissionRejected`, which the HTTP layer maps to a 429 response
with a ``Retry-After`` hint — load is shed at the door, before any
engine work happens.  Rejection is loss-free for the client: nothing was
partially computed, so a straight retry is always safe.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.runtime.budget import is_positive_finite


class AdmissionRejected(Exception):
    """The server is over capacity; retry after ``retry_after`` seconds."""

    def __init__(self, reason: str, retry_after: float = 1.0) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


class AdmissionController:
    """Counting-semaphore admission with a bounded, timed wait queue."""

    def __init__(
        self,
        max_inflight: int = 8,
        max_queue: int = 16,
        queue_timeout: float = 2.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if not is_positive_finite(queue_timeout):
            raise ValueError(
                "queue_timeout must be positive and finite, "
                f"got {queue_timeout}"
            )
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._cond = threading.Condition()
        self._inflight = 0
        self._waiting = 0

    @contextmanager
    def admit(self) -> Iterator[None]:
        """Hold one execution slot; raises :class:`AdmissionRejected`
        when the server is saturated (queue full or wait timed out)."""
        self._acquire()
        try:
            yield
        finally:
            self._release()

    def _acquire(self) -> None:
        with self._cond:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                return
            if self._waiting >= self.max_queue:
                raise AdmissionRejected(
                    f"admission queue full ({self._waiting} waiting, "
                    f"{self._inflight} in flight)",
                    retry_after=self.queue_timeout,
                )
            self._waiting += 1
            try:
                cutoff = time.monotonic() + self.queue_timeout
                while self._inflight >= self.max_inflight:
                    remaining = cutoff - time.monotonic()
                    if remaining <= 0:
                        raise AdmissionRejected(
                            f"no execution slot within {self.queue_timeout}s",
                            retry_after=self.queue_timeout,
                        )
                    self._cond.wait(remaining)
            finally:
                self._waiting -= 1
            self._inflight += 1

    def _release(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify()

    def snapshot(self) -> dict:
        """Current occupancy (diagnostics for ``/healthz``)."""
        with self._cond:
            return {
                "inflight": self._inflight,
                "waiting": self._waiting,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
            }
