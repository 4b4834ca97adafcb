"""Self-time accounting and wrapping in :mod:`perfbench.tracing`."""

from __future__ import annotations

import threading
import types
from contextlib import contextmanager

import pytest

from perfbench.tracing import LayerTracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_times_add_up_to_the_root():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    with tracer.span("bench"):
        clock.advance(1)
        with tracer.span("exchange"):
            clock.advance(2)
            with tracer.span("parser"):
                clock.advance(3)
        with tracer.span("asp"):
            clock.advance(4)
    totals = tracer.snapshot()["self_s"]
    assert totals == {"bench": 1, "exchange": 2, "parser": 3, "asp": 4}
    assert sum(totals.values()) == 10


def test_wrap_times_calls_counts_results_and_uninstalls():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def work(n):
        clock.advance(n)
        return [0] * n

    module = types.SimpleNamespace(work=work)
    seen = []
    tracer.wrap(module, "work", "layer",
                lambda t, result, args, kwargs: seen.append(len(result)))
    assert module.work(3) == [0, 0, 0]
    assert tracer.snapshot()["self_s"] == {"layer": 3}
    assert tracer.snapshot()["calls"] == {"layer": 1}
    assert seen == [3]
    tracer.uninstall()
    assert module.work is work


def test_wrap_keeps_methods_classmethods_and_exceptions():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    class Thing:
        def method(self, n):
            clock.advance(n)
            return self

        @classmethod
        def build(cls, n):
            clock.advance(n)
            return cls()

        def fail(self):
            clock.advance(1)
            raise ValueError("boom")

    original = Thing.__dict__["build"]
    tracer.wrap(Thing, "method", "m")
    tracer.wrap(Thing, "build", "b")
    tracer.wrap(Thing, "fail", "f")
    thing = Thing.build(2)
    assert isinstance(thing, Thing)
    assert thing.method(5) is thing
    with pytest.raises(ValueError):
        thing.fail()
    assert tracer.snapshot()["self_s"] == {"b": 2, "m": 5, "f": 1}
    tracer.uninstall()
    assert Thing.__dict__["build"] is original


def test_wrap_entry_times_only_the_wait():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    class Lock:
        @contextmanager
        def held(self):
            clock.advance(2)  # waiting for the lock
            yield "inside"
            clock.advance(100)  # releasing is not waiting

    tracer.wrap_entry(Lock, "held", "wait")
    with tracer.span("root"):
        with Lock().held() as value:
            assert value == "inside"
            clock.advance(5)
    assert tracer.snapshot()["self_s"] == {"wait": 2, "root": 105}


def test_spans_nest_per_thread():
    tracer = LayerTracer()
    barrier = threading.Barrier(4)

    def worker():
        with tracer.span("outer"):
            barrier.wait(timeout=10)
            with tracer.span("inner"):
                pass

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert tracer.snapshot()["calls"] == {"outer": 4, "inner": 4}
