"""A family's program costs what its focus costs, not what the exchange costs.

The segmentary engine builds one repair part per cluster family, hundreds
on instances with many small clusters, and adds each query's part to its
engine.  These tests pad a small exchange with ~10k groundings unrelated
to a one-cluster family and check that neither part changes and that
building them neither scans the grounding list nor allocates anything
sized to the exchange.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.parser import parse_mapping
from repro.reduction import reduce_mapping
from repro.relational import Fact, Instance
from repro.xr.envelope import analyze_envelopes
from repro.xr.exchange import build_exchange_data
from repro.xr.program import (
    FamilyEngine,
    build_family_program,
    family_query_part,
)

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
FAMILY = [
    Fact("R", ("a", "b")),
    Fact("R", ("a", "c")),
    Fact("R", ("a", "d")),
    Fact("R", ("e", "f")),
]
#: Each padding fact S(x) adds two groundings, S(x)->T(x) and T(x)->U(x).
PADDING = 5000
QUERY_GROUNDINGS = [
    (Fact("q", ("a",)), (Fact("Q", ("a", "b")),)),
    (Fact("q", ("e",)), (Fact("Q", ("e", "f")),)),
]


class _NoIteration(list):
    """A list that may be indexed but never walked in full."""

    def __iter__(self):
        raise AssertionError("program build iterated every grounding")


def _analysis(padding: int):
    facts = FAMILY + [Fact("S", (f"s{i}",)) for i in range(padding)]
    data = build_exchange_data(reduce_mapping(MAPPING).gav, Instance(facts))
    return data, analyze_envelopes(data)


def _repair_part(data, analysis, encoding):
    (cluster,) = analysis.clusters
    return build_family_program(
        data,
        clusters=[cluster],
        safe_ids=analysis.safe_ids,
        encoding=encoding,
    )


def _query_part(family, data, analysis):
    groundings = [
        (candidate, tuple(map(data.fact_ids.__getitem__, support)))
        for candidate, support in QUERY_GROUNDINGS
    ]
    return family_query_part(family, groundings, analysis.safe_ids)


def _family_program(data, analysis, encoding):
    """The family's repair part, and a query's part over its engine."""
    repair = _repair_part(data, analysis, encoding)
    return repair, _query_part(FamilyEngine.of(repair), data, analysis)


def _shape(parts):
    repair, query_part = parts
    program = repair.program
    return (
        [(r.head, r.body_pos, r.body_neg) for r in program.rules],
        [program.atoms.fact_of(i) for i in program.atoms.ids()],
        query_part.bodies,
        query_part.trivially_certain,
    )


@pytest.mark.parametrize("encoding", ["repair", "figure1"])
def test_padding_leaves_the_family_program_unchanged(encoding):
    small = _family_program(*_analysis(0), encoding)
    data, analysis = _analysis(PADDING)
    assert len(data.groundings) >= 2 * PADDING
    assert _shape(_family_program(data, analysis, encoding)) == _shape(small)


@pytest.mark.parametrize("encoding", ["repair", "figure1"])
def test_family_build_never_scans_the_groundings(encoding):
    data, analysis = _analysis(PADDING)
    expected = _shape(_family_program(data, analysis, encoding))
    data.grounding_heads = _NoIteration(data.grounding_heads)
    assert _shape(_family_program(data, analysis, encoding)) == expected


@pytest.mark.parametrize("encoding", ["repair", "figure1"])
def test_family_build_allocates_nothing_exchange_sized(encoding):
    data, analysis = _analysis(PADDING)
    _family_program(data, analysis, encoding)  # warm lazy caches
    # The smallest exchange-sized structure: one pointer per fact id.
    exchange_sized = 8 * len(data.facts_by_id)
    assert len(analysis.safe_ids) > PADDING
    # Both parts are traced; the engine between them (family-sized, but
    # the solver's own business) is not.
    tracemalloc.start()
    try:
        repair = _repair_part(data, analysis, encoding)
        _current, repair_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    family = FamilyEngine.of(repair)
    tracemalloc.start()
    try:
        _query_part(family, data, analysis)
        _current, query_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak = max(repair_peak, query_peak)
    assert peak < exchange_sized // 2, (peak, exchange_sized)
