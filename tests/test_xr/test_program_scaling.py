"""A family's program costs what its focus costs, not what the exchange costs.

The segmentary engine builds one program per cluster family, hundreds per
query on instances with many small clusters.  These tests pad a small
exchange with ~10k groundings unrelated to a one-cluster family and check
that the family's program does not change and that building it neither
scans the grounding list nor allocates anything sized to the exchange.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.parser import parse_mapping
from repro.reduction import reduce_mapping
from repro.relational import Fact, Instance
from repro.xr.envelope import analyze_envelopes
from repro.xr.exchange import build_exchange_data
from repro.xr.program import build_family_program

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


def _family_program(data, analysis, encoding):
    (cluster,) = analysis.clusters
    return build_family_program(
        data,
        query_groundings=QUERY_GROUNDINGS,
        clusters=[cluster],
        safe_ids=analysis.safe_ids,
        encoding=encoding,
    )


def _shape(xr_program):
    program = xr_program.program
    return (
        [(r.head, r.body_pos, r.body_neg) for r in program.rules],
        [program.atoms.fact_of(i) for i in program.atoms.ids()],
        xr_program.query_atoms,
        xr_program.trivially_certain,
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
    tracemalloc.start()
    try:
        _family_program(data, analysis, encoding)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < exchange_sized // 2, (peak, exchange_sized)
