"""The serve wire protocol: JSON requests in, JSON answers out.

Kept deliberately small and deterministic:

- ``POST /query`` body: ``{"query": "q(x) :- T(x, y).", "mode":
  "certain" | "possible", "deadline": seconds?, "task_timeout":
  seconds?}`` — the query text is the same surface syntax as
  ``repro answer -q``; the optional budget fields set the
  **per-request** :class:`~repro.runtime.SolveBudget` (capped by the
  server's configured ceiling so a client cannot opt out of the SLO).
- ``POST /update`` body: ``{"updates": "+R('a').\\n-S('b')."}`` — the
  textual update-stream format of ``repro answer --updates``
  (blank-line-separated steps, each applied atomically in order).

Answer rows serialize **canonically**: every value is rendered with
``repr`` (the same rendering the CLI prints and the fuzz corpus stores),
rows are sorted by that rendering, and the row list is emitted in sorted
order.  Two answer sets are equal iff their serialized payloads are
bytewise equal — which is exactly what the concurrent-vs-sequential
differential check compares.

Malformed input raises :class:`ProtocolError`; the HTTP layer maps it to
a 400 with the message in the body.  A protocol error never reaches the
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.incremental import Delta, parse_update_stream
from repro.parser import parse_program
from repro.relational.queries import UnionOfConjunctiveQueries
from repro.runtime.budget import SolveBudget


class ProtocolError(Exception):
    """A malformed request (bad JSON shape, unparsable query, bad knob)."""


MODES = ("certain", "possible")


@dataclass
class QueryRequest:
    """One parsed ``/query`` request."""

    query: UnionOfConjunctiveQueries
    query_text: str
    mode: str = "certain"
    deadline: float | None = None
    task_timeout: float | None = None


def _positive_or_none(payload: dict, field: str) -> float | None:
    value = payload.get(field)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"{field!r} must be a number, got {value!r}")
    # json.loads accepts NaN and Infinity; neither is a usable budget.
    if not (math.isfinite(value) and value > 0):
        raise ProtocolError(
            f"{field!r} must be a positive finite number, got {value!r}"
        )
    return float(value)


def parse_query_request(payload: object) -> QueryRequest:
    """Validate and parse a ``/query`` JSON body."""
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    text = payload.get("query")
    if not isinstance(text, str) or not text.strip():
        raise ProtocolError("'query' must be a non-empty string")
    mode = payload.get("mode", "certain")
    if mode not in MODES:
        raise ProtocolError(f"'mode' must be one of {MODES}, got {mode!r}")
    unknown = set(payload) - {"query", "mode", "deadline", "task_timeout"}
    if unknown:
        raise ProtocolError(f"unknown field(s): {sorted(unknown)}")
    try:
        query = parse_program(text)
    except Exception as exc:
        raise ProtocolError(f"unparsable query: {exc}") from exc
    return QueryRequest(
        query=query,
        query_text=text,
        mode=mode,
        deadline=_positive_or_none(payload, "deadline"),
        task_timeout=_positive_or_none(payload, "task_timeout"),
    )


def request_budget(
    request: QueryRequest, ceiling: SolveBudget
) -> SolveBudget:
    """The effective per-request budget: the request's knobs, each capped
    by the server's configured ceiling (a client can tighten the SLO but
    never loosen it)."""

    def tightest(ours: float | None, theirs: float | None) -> float | None:
        if ours is None:
            return theirs
        if theirs is None:
            return ours
        return min(ours, theirs)

    deadline = tightest(ceiling.deadline, request.deadline)
    task_timeout = tightest(ceiling.task_timeout, request.task_timeout)
    if deadline is None and task_timeout is None and ceiling.is_null:
        return ceiling  # NO_BUDGET singleton stays shared
    return SolveBudget(
        deadline=deadline,
        task_timeout=task_timeout,
        max_retries=ceiling.max_retries,
        retry_backoff=ceiling.retry_backoff,
        backoff_cap=ceiling.backoff_cap,
    )


def parse_update_request(payload: object) -> list[Delta]:
    """Validate and parse an ``/update`` JSON body into delta steps."""
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    text = payload.get("updates")
    if not isinstance(text, str) or not text.strip():
        raise ProtocolError("'updates' must be a non-empty string")
    unknown = set(payload) - {"updates"}
    if unknown:
        raise ProtocolError(f"unknown field(s): {sorted(unknown)}")
    try:
        deltas = parse_update_stream(text)
    except Exception as exc:
        raise ProtocolError(f"unparsable update stream: {exc}") from exc
    if not deltas:
        raise ProtocolError("update stream contains no steps")
    return deltas


# ------------------------------------------------------------- responses


def serialize_rows(rows: set[tuple]) -> list[list[str]]:
    """Canonical row serialization: ``repr`` per value, rows sorted.

    ``repr`` round-trips every value the parser can produce (strings,
    ints) and is the rendering the CLI prints; sorting makes the payload
    deterministic, so bit-identical answer sets produce bytewise-equal
    JSON — the property the differential check relies on.
    """
    return sorted([repr(value) for value in row] for row in rows)


def answer_payload(
    request: QueryRequest, answers: set[tuple], stats
) -> dict:
    """The ``/query`` response body for one answered request."""
    payload = {
        "query": request.query_text,
        "mode": request.mode,
        "name": request.query.name,
        "rows": serialize_rows(answers),
        "degraded": stats.degraded,
        "stats": {
            "seconds": stats.seconds,
            "candidates": stats.candidates,
            "signatures": stats.signatures,
            "programs_solved": stats.programs_solved,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "timeouts": stats.timeouts,
            "executor": stats.executor,
            "strategy": stats.strategy,
        },
    }
    if stats.degraded:
        # PR 4 degraded-answer semantics, surfaced on the wire: these
        # candidates were cut off by the budget — excluded from certain
        # answers, conservatively included in possible answers.
        payload["unknown_candidates"] = serialize_rows(
            stats.unknown_candidates
        )
    return payload


def update_payload(reports) -> dict:
    """The ``/update`` response body: per-step and total effects."""
    return {
        "steps": [
            {
                "noop": report.noop,
                "inserted_source": report.inserted_source,
                "retracted_source": report.retracted_source,
                "clusters_touched": report.clusters_touched,
                "clusters_retired": report.clusters_retired,
                "cache_invalidated": report.cache_invalidated,
                "seconds": report.seconds,
            }
            for report in reports
        ],
        "applied": len(reports),
    }
