"""An update costs what its delta costs, not what the exchange costs.

These tests pad a one-cluster exchange with 10k groundings unrelated to
the cluster, then retract and re-insert one source fact inside it.  The
padding must not change what the update reports (its work counters, the
cone sizes of the two rederive passes included), the update must never
walk the grounding list or the source instance in full, and it must
allocate nothing sized to the exchange.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import pytest

from repro.incremental import Delta, UpdateSession
from repro.parser import parse_mapping
from repro.reduction import reduce_mapping
from repro.relational import Fact, Instance
from repro.xr.envelope import analyze_envelopes
from repro.xr.exchange import build_exchange_data

MAPPING = parse_mapping(
    """
    SOURCE R/2, S/1. TARGET P/2, Q/2, T/1, U/1.
    R(x, y) -> P(x, y).
    P(x, y) -> Q(x, y).
    Q(x, y), Q(x, z) -> y = z.
    S(x) -> T(x).
    T(x) -> U(x).
    """
)
#: One conflict on key 'a' (the only cluster) and one safe fact.
FAMILY = [
    Fact("R", ("a", "b")),
    Fact("R", ("a", "c")),
    Fact("R", ("e", "f")),
]
#: Each padding fact S(x) adds two groundings, S(x)->T(x) and T(x)->U(x).
PADDING = 5000
#: Retracting it dissolves the cluster and flips R(a, c) safe;
#: re-inserting it restores both.
MOVED = Fact("R", ("a", "b"))
STEPS = [Delta(retracts=frozenset({MOVED})), Delta(inserts=frozenset({MOVED}))]


class _NoIteration(list):
    """A list that may be indexed and edited but never walked in full."""

    def __iter__(self):
        raise AssertionError("update iterated a whole exchange-sized list")


class _NoIterationInstance(Instance):
    __slots__ = ()

    def __iter__(self):
        raise AssertionError("update iterated the whole source instance")


def _session(padding: int) -> UpdateSession:
    facts = FAMILY + [Fact("S", (f"s{i}",)) for i in range(padding)]
    data = build_exchange_data(reduce_mapping(MAPPING).gav, Instance(facts))
    return UpdateSession(data, analysis=analyze_envelopes(data))


def _work(reports):
    """The reports without their wall-clock time."""
    return [replace(report, seconds=0.0) for report in reports]


def test_padding_leaves_the_update_reports_unchanged():
    small = _session(0)
    padded = _session(PADDING)
    assert len(padded.data.groundings) >= 2 * PADDING
    expected = _work(small.apply_stream(STEPS))
    assert expected[0].cone_facts > 0 and expected[1].cone_facts > 0
    assert expected[0].facts_removed == 3 and expected[1].facts_added == 3
    assert _work(padded.apply_stream(STEPS)) == expected
    assert padded.analysis.safe_ids >= small.analysis.safe_ids


def test_apply_never_walks_the_groundings_or_the_source():
    expected = _work(_session(PADDING).apply_stream(STEPS))
    session = _session(PADDING)
    data = session.data
    data.grounding_bodies = _NoIteration(data.grounding_bodies)
    data.grounding_heads = _NoIteration(data.grounding_heads)
    data.source_instance.__class__ = _NoIterationInstance
    assert _work([session.apply(step) for step in STEPS]) == expected


@pytest.mark.parametrize("step", [0, 1], ids=["retract", "insert"])
def test_apply_allocates_nothing_exchange_sized(step):
    session = _session(PADDING)
    session.apply_stream(STEPS)  # warm the lazy join indexes
    if step:
        session.apply(STEPS[0])
    # The smallest exchange-sized structure: one pointer per fact id.
    exchange_sized = 8 * len(session.data.facts_by_id)
    assert len(session.analysis.safe_ids) > PADDING
    tracemalloc.start()
    try:
        session.apply(STEPS[step])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < exchange_sized // 2, (peak, exchange_sized)
