"""Unit tests of the span/tracer core: nesting, clocks, serialization."""

import threading

import pytest

from repro.obs.tracing import (
    NOOP_TRACER,
    Span,
    Tracer,
    validate_span_tree,
)


class TestNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        roots = tracer.finished
        assert [span.name for span in roots] == ["parent"]
        parent = roots[0]
        assert [child.name for child in parent.children] == ["first", "second"]
        assert validate_span_tree(parent) == []

    def test_timestamps_monotonic_and_contained(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.finished[0]
        inner = outer.children[0]
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert inner.duration <= outer.duration

    def test_sibling_durations_sum_to_at_most_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            for _ in range(5):
                with tracer.span("child"):
                    pass
        parent = tracer.finished[0]
        total = sum(child.duration for child in parent.children)
        assert total <= parent.duration + 1e-9
        assert validate_span_tree(parent) == []

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="closed out of order"):
            outer.__exit__(None, None, None)

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("a") as a:
            assert tracer.current() is a
            with tracer.span("b") as b:
                assert tracer.current() is b
            assert tracer.current() is a
        assert tracer.current() is None

    def test_reset_drops_finished_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert tracer.finished
        tracer.reset()
        assert tracer.finished == []


class TestThreads:
    def test_threads_nest_independently(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(name):
            with tracer.span(name):
                barrier.wait()  # both spans provably open at once
                with tracer.span(f"{name}.child"):
                    pass

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        roots = tracer.finished
        assert sorted(span.name for span in roots) == ["t0", "t1"]
        for root in roots:
            assert [c.name for c in root.children] == [f"{root.name}.child"]
            assert validate_span_tree(root) == []


class TestTagsCountersSerialization:
    def test_tags_and_counters(self):
        tracer = Tracer()
        with tracer.span("solve", mode="certain") as span:
            span.tag("status", "ok")
            span.count("conflicts", 3)
            span.count("conflicts", 2)
        done = tracer.finished[0]
        assert done.tags == {"mode": "certain", "status": "ok"}
        assert done.counters == {"conflicts": 5}

    def test_dict_roundtrip(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer:
            outer.count("work", 7)
            with tracer.span("inner"):
                pass
        original = tracer.finished[0]
        assert Span.from_dict(original.to_dict()) == original


class TestValidation:
    def test_end_before_start_rejected(self):
        span = Span("bad", start=2.0, end=1.0)
        assert any("before start" in p for p in validate_span_tree(span))

    def test_negative_counter_rejected(self):
        span = Span("bad", start=0.0, end=1.0, counters={"work": -1})
        assert any("invalid" in p for p in validate_span_tree(span))

    def test_child_outside_parent_rejected(self):
        child = Span("child", start=0.0, end=5.0)
        parent = Span("parent", start=1.0, end=2.0, children=[child])
        problems = validate_span_tree(parent)
        assert any("outside parent" in p for p in problems)

    def test_overlapping_siblings_rejected(self):
        first = Span("a", start=0.0, end=2.0)
        second = Span("b", start=1.0, end=3.0)
        parent = Span("parent", start=0.0, end=10.0, children=[first, second])
        assert any("must not overlap" in p for p in validate_span_tree(parent))


class TestNoop:
    def test_noop_records_nothing(self):
        assert not NOOP_TRACER.enabled
        with NOOP_TRACER.span("anything", tag="x") as span:
            span.tag("k", "v")
            span.count("n")
        assert NOOP_TRACER.finished == []
        assert NOOP_TRACER.current() is None
