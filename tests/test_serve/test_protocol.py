"""Request/response schema round-trips and protocol validation."""

from __future__ import annotations

import json

import pytest

from repro.runtime.budget import NO_BUDGET, SolveBudget
from repro.serve.protocol import (
    ProtocolError,
    answer_payload,
    parse_query_request,
    parse_update_request,
    request_budget,
    serialize_rows,
)
from repro.xr.segmentary import QueryPhaseStats


class TestQueryRequest:
    def test_round_trip(self):
        request = parse_query_request(
            {"query": "q(x) :- P(x, y).", "mode": "possible",
             "deadline": 2.5, "task_timeout": 0.5}
        )
        assert request.mode == "possible"
        assert request.deadline == 2.5
        assert request.task_timeout == 0.5
        assert request.query.name == "q"
        assert request.query_text == "q(x) :- P(x, y)."

    def test_defaults(self):
        request = parse_query_request({"query": "q() :- P(x, y)."})
        assert request.mode == "certain"
        assert request.deadline is None and request.task_timeout is None

    def test_ucq_parses(self):
        request = parse_query_request(
            {"query": "q(x) :- P(x, y). q(y) :- P(x, y)."}
        )
        assert request.query.name == "q"

    @pytest.mark.parametrize("payload", [
        [],                                     # not an object
        {},                                     # missing query
        {"query": ""},                          # empty query
        {"query": 7},                           # wrong type
        {"query": "q(x) :- P(x, y).", "mode": "brave"},  # bad mode
        {"query": "q(x) :- P(x, y).", "deadline": 0},    # non-positive
        {"query": "q(x) :- P(x, y).", "deadline": "1"},  # wrong type
        {"query": "q(x) :- P(x, y).", "deadline": True}, # bool is not a number
        {"query": "q(x) :- P(x, y).", "typo": 1},        # unknown field
        {"query": "oops("},                     # unparsable
        # json.loads accepts these bare tokens; none is a usable budget.
        {"query": "q(x) :- P(x, y).", "deadline": float("nan")},
        {"query": "q(x) :- P(x, y).", "deadline": float("inf")},
        {"query": "q(x) :- P(x, y).", "task_timeout": float("nan")},
        {"query": "q(x) :- P(x, y).", "task_timeout": float("inf")},
    ])
    def test_rejects_malformed(self, payload):
        with pytest.raises(ProtocolError):
            parse_query_request(payload)


class TestRequestBudget:
    def test_no_knobs_keeps_null_singleton(self):
        request = parse_query_request({"query": "q() :- P(x, y)."})
        assert request_budget(request, NO_BUDGET) is NO_BUDGET

    def test_request_tightens_ceiling(self):
        request = parse_query_request(
            {"query": "q() :- P(x, y).", "deadline": 0.5}
        )
        ceiling = SolveBudget(deadline=10.0, task_timeout=2.0)
        budget = request_budget(request, ceiling)
        assert budget == SolveBudget(deadline=0.5, task_timeout=2.0)

    def test_request_cannot_loosen_ceiling(self):
        request = parse_query_request(
            {"query": "q() :- P(x, y).", "deadline": 100.0,
             "task_timeout": 100.0}
        )
        ceiling = SolveBudget(deadline=1.0, task_timeout=0.25)
        budget = request_budget(request, ceiling)
        assert budget.deadline == 1.0
        assert budget.task_timeout == 0.25


class TestUpdateRequest:
    def test_round_trip(self):
        deltas = parse_update_request(
            {"updates": "+R('a', 'b').\n-R('c', 'd').\n\n+R('e', 'f')."}
        )
        assert len(deltas) == 2
        assert len(deltas[0].inserts) == 1
        assert len(deltas[0].retracts) == 1

    @pytest.mark.parametrize("payload", [
        {},                       # missing updates
        {"updates": ""},          # empty
        {"updates": 7},           # wrong type
        {"updates": "+R('a').", "typo": 1},  # unknown field
        {"updates": "nonsense"},  # unparsable
    ])
    def test_rejects_malformed(self, payload):
        with pytest.raises(ProtocolError):
            parse_update_request(payload)


class TestAnswerPayload:
    def test_rows_canonical_and_json_safe(self):
        request = parse_query_request({"query": "q(x, y) :- P(x, y)."})
        stats = QueryPhaseStats()
        payload = answer_payload(
            request, {("b", 2), ("a", 1)}, stats
        )
        assert payload["rows"] == [["'a'", "1"], ["'b'", "2"]]
        assert payload["degraded"] is False
        assert "unknown_candidates" not in payload
        json.dumps(payload)  # everything JSON-serializable

    def test_stats_key_set_is_pinned(self):
        request = parse_query_request({"query": "q(x) :- P(x, y)."})
        payload = answer_payload(request, set(), QueryPhaseStats())
        assert set(payload) == {"query", "mode", "name", "rows", "degraded", "stats"}
        assert set(payload["stats"]) == {
            "seconds", "candidates", "signatures", "programs_solved",
            "cache_hits", "cache_misses", "timeouts",
        }

    def test_degraded_payload_surfaces_unknowns(self):
        request = parse_query_request({"query": "q(x) :- P(x, y)."})
        stats = QueryPhaseStats(
            degraded=True, timeouts=1,
            unknown_candidates={("z",), ("a",)},
        )
        payload = answer_payload(request, {("a",)}, stats)
        assert payload["degraded"] is True
        assert payload["unknown_candidates"] == [["'a'"], ["'z'"]]

    def test_serialization_is_deterministic(self):
        rows = {("b",), ("a", 1), ()}
        assert serialize_rows(rows) == serialize_rows(set(rows))
        assert serialize_rows(rows) == sorted(
            [[repr(v) for v in row] for row in rows]
        )
