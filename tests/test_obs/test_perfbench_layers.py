"""The benchmark's layer tracer against the real program.

``perfbench.tracing`` times each layer by replacing entry points of
``repro`` by name: module globals the pipeline calls through
(``segmentary.ground_query``, ``segmentary.program_key``, ...) and
methods on their classes.  A refactor that renames one of them makes a
traced benchmark run crash at install; one that stops calling through
it makes the run misattribute the layer's time to its caller.  This
test installs both layer sets, drives a query that reaches a family
solve plus one update, and checks that every engine layer saw calls —
then that uninstalling puts every original back.
"""

from __future__ import annotations

import inspect

from perfbench import tracing
from repro.incremental import Delta
from repro.parser import parse_mapping, parse_query
from repro.relational import Fact, Instance
from repro.xr.segmentary import SegmentaryEngine

ENGINE_LAYERS = (
    "queries", "program", "asp", "cache", "segmentary", "exchange",
    "envelope", "incremental",
)


def test_installed_layers_see_a_family_solve_and_an_update():
    tracer = tracing.LayerTracer()
    tracing.install_engine_layers(tracer)
    tracing.install_serve_layers(tracer)
    # What each patched attribute held before install (an attribute
    # patched twice records the first wrapper as its second original).
    originals = {}
    for owner, attr, original in tracer._installed:
        originals.setdefault((owner, attr), original)
    try:
        for (owner, attr), original in originals.items():
            assert inspect.getattr_static(owner, attr) is not original, attr
        mapping = parse_mapping(
            """
            SOURCE R/2. TARGET P/2.
            R(x, y) -> P(x, y).
            P(x, y), P(x, z) -> y = z.
            """
        )
        instance = Instance(
            [Fact("R", ("a", "b")), Fact("R", ("a", "c")), Fact("R", ("d", "e"))]
        )
        with SegmentaryEngine(mapping, instance) as engine:
            _answers, stats = engine.answer_with_stats(
                parse_query("q(x, y) :- P(x, y).")
            )
            assert stats.families_solved == 1
            engine.update_session().apply(
                Delta(inserts=frozenset({Fact("R", ("d", "f"))}))
            )
    finally:
        tracer.uninstall()
    calls = tracer.snapshot()["calls"]
    missing = [layer for layer in ENGINE_LAYERS if not calls.get(layer)]
    assert not missing, f"layers that recorded no call: {missing}"
    for (owner, attr), original in originals.items():
        assert inspect.getattr_static(owner, attr) is original, attr
