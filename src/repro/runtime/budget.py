"""Resource governance for the solve path: budgets and deadlines.

XR-Certain answering is Πp2-hard, so even the segmentary engine's "many
small hard problems" can contain one family program whose CDCL search
blows up.  A :class:`SolveBudget` bounds that risk two ways:

- ``deadline`` — wall-clock seconds for a whole query (the batch of
  family solves, measured from the start of the query phase);
- ``task_timeout`` — wall-clock seconds for any single family solve.

Budgets are carried on :class:`~repro.runtime.executor.SolveTask` and
enforced **cooperatively**, by deadline checks inside the CDCL decision
loop (:class:`~repro.asp.sat.SatSolver` raises
:class:`SolveBudgetExceeded`, which the solve converts into a
``SolveOutcome(status="timeout")`` carrying the verdicts reached so far).

``NO_BUDGET`` (the default everywhere) disables every mechanism: no
deadline objects are created, no checks run, and answers are bit-identical
to an unbudgeted build.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass


class SolveBudgetExceeded(Exception):
    """Raised inside a solve when its deadline passes.

    Solves catch this and report ``SolveOutcome(status="timeout")``;
    engines surface it to callers only when ``allow_partial`` is off.
    """


def is_positive_finite(value: float) -> bool:
    """The one validity rule for every budget knob (CLI, HTTP, API)."""
    return math.isfinite(value) and value > 0


class Deadline:
    """An absolute wall-clock cutoff on the monotonic clock.

    ``deadline_at`` is a ``time.monotonic()`` timestamp, or ``None`` for
    "no deadline" (every check is then a no-op).
    """

    __slots__ = ("deadline_at",)

    def __init__(self, deadline_at: float | None = None):
        self.deadline_at = deadline_at

    @classmethod
    def after(cls, seconds: float | None) -> "Deadline":
        """A deadline ``seconds`` from now (or a no-op deadline for None)."""
        if seconds is None:
            return cls(None)
        return cls(time.monotonic() + seconds)

    @classmethod
    def tightest(
        cls, timeout: float | None = None, at: float | None = None
    ) -> "Deadline | None":
        """The earlier of "``timeout`` seconds from now" and the absolute
        cutoff ``at``; None when neither bound is set."""
        cutoffs = []
        if timeout is not None:
            cutoffs.append(time.monotonic() + timeout)
        if at is not None:
            cutoffs.append(at)
        if not cutoffs:
            return None
        return cls(min(cutoffs))

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or None when unbounded."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - time.monotonic())

    def expired(self) -> bool:
        return self.deadline_at is not None and time.monotonic() >= self.deadline_at

    def check(self) -> None:
        """Raise :class:`SolveBudgetExceeded` if the deadline has passed."""
        if self.expired():
            raise SolveBudgetExceeded(
                f"solve deadline exceeded (cutoff at monotonic {self.deadline_at:.3f})"
            )


@dataclass(frozen=True)
class SolveBudget:
    """Resource limits for one query's solve phase.

    Both fields optional; the default (:data:`NO_BUDGET`) changes nothing.
    """

    deadline: float | None = None
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        for knob in ("deadline", "task_timeout"):
            value = getattr(self, knob)
            if value is not None and not is_positive_finite(value):
                raise ValueError(
                    f"{knob} must be a positive finite number, got {value}"
                )

    @property
    def is_null(self) -> bool:
        """True when no mechanism is active (the bit-identical fast path)."""
        return self.deadline is None and self.task_timeout is None

    def started(self) -> Deadline | None:
        """Start the query-level clock; None when no deadline is set."""
        if self.deadline is None:
            return None
        return Deadline.after(self.deadline)

    def single_solve_deadline(self) -> Deadline | None:
        """The deadline for a one-shot solve (monolithic engine): the
        tighter of ``deadline`` and ``task_timeout``, started now."""
        if self.deadline is None and self.task_timeout is None:
            return None
        seconds = min(
            value
            for value in (self.deadline, self.task_timeout)
            if value is not None
        )
        return Deadline.after(seconds)


#: The shared do-nothing budget.
NO_BUDGET = SolveBudget()
