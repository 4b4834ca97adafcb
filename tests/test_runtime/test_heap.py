"""The exchange's heap contract (:mod:`repro.runtime.heap`).

The exchange is built with the cyclic collector paused and then frozen.
That is safe only if the collector's state is restored exactly on every
path, and if the published exchange state holds no reference cycles:
frozen objects are still freed by reference counting, but a frozen cycle
would never be reclaimed.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.parser import parse_mapping
from repro.relational import Fact, Instance
from repro.runtime.heap import long_lived_build
from repro.xr.segmentary import SegmentaryEngine

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def mapping():
    return parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )


def conflict_instance(keys: int = 50) -> Instance:
    facts = [Fact("R", (f"k{i}", "b")) for i in range(keys)]
    return Instance(facts + [Fact("R", ("k0", "c"))])


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on, and leave it as it was."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.mark.usefixtures("collector_enabled")
class TestBookkeeping:
    def test_exchange_freezes_and_restores(self, mapping):
        before = gc.get_freeze_count()
        engine = SegmentaryEngine(mapping, conflict_instance())
        engine.exchange()
        assert gc.isenabled()
        assert gc.get_freeze_count() > before

    def test_failed_exchange_leaves_collector_as_it_was(self, mapping):
        undeclared = Instance([Fact("R", ("a", "b")), Fact("Zed", ("a",))])
        engine = SegmentaryEngine(mapping, undeclared)
        before = gc.get_freeze_count()
        with pytest.raises(ValueError, match="Zed"):
            engine.exchange()
        assert gc.isenabled()
        assert gc.get_freeze_count() == before
        assert engine.analysis is None

    def test_caller_who_disabled_gc_gets_it_back_disabled(self, mapping):
        gc.disable()
        SegmentaryEngine(mapping, conflict_instance()).exchange()
        assert not gc.isenabled()

    def test_nested_use_does_not_freeze_early(self):
        with long_lived_build():
            assert not gc.isenabled()
            before = gc.get_freeze_count()
            with long_lived_build():
                pass
            assert gc.get_freeze_count() == before
            assert not gc.isenabled()
        assert gc.get_freeze_count() > before
        assert gc.isenabled()

    def test_failed_nested_use_cancels_the_freeze(self):
        before = gc.get_freeze_count()
        with long_lived_build():
            with pytest.raises(KeyError):
                with long_lived_build():
                    raise KeyError("inner")
        assert gc.get_freeze_count() == before
        assert gc.isenabled()

    def test_concurrent_exchanges_end_with_collector_enabled(self, mapping):
        """Threads overlap their builds (more threads than cores, a short
        switch interval); one of them fails.  However the uses interleave,
        the last one out restores the collector."""
        engines = [
            SegmentaryEngine(mapping, conflict_instance(400)) for _ in range(3)
        ]
        engines.append(
            SegmentaryEngine(mapping, Instance([Fact("Zed", ("a",))]))
        )
        start = threading.Barrier(len(engines))
        errors: list[BaseException] = []

        def exchange(engine):
            start.wait(timeout=10)
            try:
                engine.exchange()
            except ValueError as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=exchange, args=(engine,))
                for engine in engines
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(errors) == 1
        assert all(engine.analysis is not None for engine in engines[:3])
        assert gc.isenabled()


#: Runs in a fresh interpreter: exercises engines end to end, drops
#: them, then thaws the permanent generation and counts what only the
#: cyclic collector could reclaim.
_NO_LEAK_SCRIPT = textwrap.dedent(
    """
    import gc

    from repro.genomics import build_instance, genome_mapping
    from repro.genomics.queries import all_queries
    from repro.incremental import Delta
    from repro.parser import parse_query
    from repro.relational import Fact, Instance
    from repro.scenarios.tpch import tpch_scenario
    from repro.serve import QueryService, parse_query_request
    from repro.xr.segmentary import SegmentaryEngine

    TPCH_QUERIES = [
        "qon(o, rk) :- order_nation(o, nk, rk).",
        "qoc(o, st, nk) :- t_orders(o, c, st), order_customer(o, c, nk).",
    ]


    def update_stream(session, instance):
        fact = sorted(instance, key=repr)[0]
        rejected = Delta(inserts=frozenset({Fact(fact.relation, ("x",))}))
        try:
            session.apply_stream([Delta(retracts=frozenset({fact})), rejected])
        except ValueError:
            pass
        else:
            raise AssertionError("the malformed step was not rejected")
        session.apply(Delta(retracts=frozenset({fact})))
        session.apply(Delta(inserts=frozenset({fact})))


    def tpch():
        scenario = tpch_scenario(0.01, 0.2, 0)
        engine = SegmentaryEngine(scenario.mapping, scenario.instance)
        for text in TPCH_QUERIES:
            for mode in ("certain", "possible"):
                engine.answer_with_stats(parse_query(text), mode=mode)
        update_stream(engine.update_session(), scenario.instance)
        engine.answer_with_stats(parse_query(TPCH_QUERIES[1]))
        engine.close()


    def genomics():
        generated = build_instance("S3")
        service = QueryService(genome_mapping(), generated.instance)
        for name, query in all_queries()[:6]:
            for mode in ("certain", "possible"):
                service.engine.answer_with_stats(query, mode=mode)
        service.query(parse_query_request({"query": "xr2(k) :- knownGene("
            "k, a, b, c, d, e, f, g, h, i, j, l).", "mode": "possible"}))
        service.metrics_text()
        update_stream(service.session, generated.instance)
        service.close()


    gc.collect()
    tpch()
    genomics()
    assert gc.get_freeze_count() > 0, "nothing was frozen"
    gc.unfreeze()
    found = gc.collect()
    assert found == 0, f"{found} objects were only reclaimable as cycles"
    assert gc.garbage == [], gc.garbage
    print("ok")
    """
)


def test_published_state_is_acyclic():
    """If a cycle is ever added to ExchangeData, EnvelopeAnalysis, the
    update session, the caches or the service, freezing leaks it: this
    test then finds it once the permanent generation is thawed."""
    completed = subprocess.run(
        [sys.executable, "-c", _NO_LEAK_SCRIPT],
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
