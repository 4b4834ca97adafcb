"""In-process tests for :class:`QueryService` (no HTTP involved)."""

from __future__ import annotations

import threading

import pytest

from repro.parser import parse_mapping
from repro.relational import Fact, Instance
from repro.serve import (
    AdmissionRejected,
    QueryService,
    ServiceConfig,
    parse_query_request,
    parse_update_request,
)


def f(rel, *args):
    return Fact(rel, args)


@pytest.fixture
def mapping():
    return parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )


@pytest.fixture
def instance():
    return Instance(
        [f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e")]
    )


@pytest.fixture
def service(mapping, instance):
    built = QueryService(mapping, instance, ServiceConfig())
    yield built
    built.close()


def request(text: str, **extra):
    return parse_query_request({"query": text, **extra})


class TestQuery:
    def test_certain_answers(self, service):
        payload = service.query(request("q(x) :- P(x, y)."))
        assert payload["rows"] == [["'a'"], ["'d'"]]
        assert payload["degraded"] is False
        assert payload["stats"]["candidates"] >= 2

    def test_possible_answers(self, service):
        payload = service.query(
            request("q(x, y) :- P(x, y).", mode="possible")
        )
        assert ["'a'", "'b'"] in payload["rows"]
        assert ["'a'", "'c'"] in payload["rows"]
        assert ["'d'", "'e'"] in payload["rows"]

    def test_deadline_exceeded_degrades_not_raises(self, service):
        """An over-deadline request returns a degraded payload — the PR 4
        semantics on the wire — never an exception/500."""
        payload = service.query(
            request("q(x) :- P(x, y).", deadline=1e-9)
        )
        assert payload["degraded"] is True
        # The conflicted candidate is unknown; the clean one may or may
        # not have been decided before the cutoff.
        assert ["'a'"] in payload["unknown_candidates"]
        assert ["'a'"] not in payload["rows"]  # excluded from certain
        assert service.metrics.counter_values().get("serve_degraded_total") == 1

    def test_degraded_possible_includes_unknowns(self, service):
        payload = service.query(
            request("q(x) :- P(x, y).", mode="possible", deadline=1e-9)
        )
        assert payload["degraded"] is True
        for row in payload["unknown_candidates"]:
            assert row in payload["rows"]  # conservatively included

    def test_degraded_answers_never_cached(self, service):
        degraded = service.query(
            request("q(x) :- P(x, y).", deadline=1e-9)
        )
        assert degraded["degraded"]
        exact = service.query(request("q(x) :- P(x, y)."))
        assert exact["degraded"] is False
        assert exact["rows"] == [["'a'"], ["'d'"]]

    def test_metrics_flow(self, service):
        service.query(request("q(x) :- P(x, y)."))
        assert service.metrics.counter_values().get("serve_requests_total") == 1
        assert service.metrics.counter_values().get("queries_total") == 1
        text = service.metrics_text()
        assert "serve_requests_total 1" in text
        assert "serve_request_seconds" in text


class TestAdmission:
    def test_overflow_rejects_and_counts(self, mapping, instance):
        service = QueryService(
            mapping, instance,
            ServiceConfig(max_inflight=1, max_queue=0, queue_timeout=0.1),
        )
        try:
            service.admission._acquire()  # saturate the only slot
            with pytest.raises(AdmissionRejected):
                service.query(request("q(x) :- P(x, y)."))
            service.admission._release()
            assert service.metrics.counter_values().get("serve_rejected_total") == 1
            assert service.metrics.counter_values().get("serve_requests_total") == 1
            # Capacity restored: the next request answers normally.
            payload = service.query(request("q(x) :- P(x, y)."))
            assert payload["rows"] == [["'a'"], ["'d'"]]
        finally:
            service.close()


class TestUpdate:
    def test_update_then_query_sees_post_delta_answers(self, service):
        before = service.query(request("q(x, y) :- P(x, y)."))
        assert before["rows"] == [["'d'", "'e'"]]  # a is conflicted
        # Retract one side of the conflict: a becomes clean.
        result = service.update(
            parse_update_request({"updates": "-R('a', 'c')."})
        )
        assert result["applied"] == 1
        assert result["steps"][0]["retracted_source"] == 1
        after = service.query(request("q(x, y) :- P(x, y)."))
        assert after["rows"] == [["'a'", "'b'"], ["'d'", "'e'"]]
        assert service.metrics.counter_values().get("serve_updates_total") == 1

    def test_update_stream_steps_apply_in_order(self, service):
        service.update(parse_update_request(
            {"updates": "-R('a', 'c').\n\n+R('z', 'z')."}
        ))
        payload = service.query(request("q(x) :- P(x, y)."))
        assert payload["rows"] == [["'a'"], ["'d'"], ["'z'"]]

    def test_update_of_non_source_relation_raises_value_error(self, service):
        with pytest.raises(ValueError):
            service.update(
                parse_update_request({"updates": "+P('a', 'b')."})
            )

    @staticmethod
    def state(service):
        """Everything an applied step would change, as comparable values."""
        data, analysis = service.engine.data, service.engine.analysis
        return (
            set(data.source_instance),
            set(data.chased),
            list(data.groundings),
            list(data.violations),
            [cluster.index for cluster in analysis.clusters],
            dict(service.cache._programs),
            dict(service.cache._decisions),
        )

    @pytest.mark.parametrize(
        "updates",
        [
            "-R('a', 'c').\n\n+Nope(1).\n",  # bad relation in step 2
            "-R('a', 'c').\n\n+R(7).\n",  # bad arity in step 2
        ],
    )
    def test_rejected_stream_applies_no_step(self, service, updates):
        service.query(request("q(x) :- P(x, y)."))  # warm the caches
        before = self.state(service)
        with pytest.raises(ValueError):
            service.update(parse_update_request({"updates": updates}))
        assert self.state(service) == before
        assert service.metrics.counter_values().get("serve_updates_total") is None

    def test_health_reflects_updates(self, service):
        source_before = service.health()["exchange"]["source_facts"]
        service.update(parse_update_request({"updates": "+R('q', 'q')."}))
        health = service.health()
        assert health["exchange"]["source_facts"] == source_before + 1
        assert health["status"] == "ok"
        assert health["admission"]["inflight"] == 0


class TestConcurrency:
    def test_queries_during_updates_see_full_states_only(self, service):
        """Readers overlapping the single writer observe pre- or
        post-delta answers — never a half-applied mix."""
        valid = (
            (("'a'",), ("'d'",)),            # with the a-conflict
            (("'a'",), ("'d'",), ("'z'",)),  # after insert
        )
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader() -> None:
            try:
                while not stop.is_set():
                    payload = service.query(request("q(x) :- P(x, y)."))
                    rows = tuple(tuple(row) for row in payload["rows"])
                    assert rows in valid, rows
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(10):
                service.update(parse_update_request(
                    {"updates": "+R('z', 'z')."}
                ))
                service.update(parse_update_request(
                    {"updates": "-R('z', 'z')."}
                ))
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
