"""Repair envelopes, suspect facts, and violation clusters (paper §6.2–6.3).

Walks through the paper's own running examples:

- **Example 1** — the suspect set is a sound but not minimal source repair
  envelope: ``Q(b, c)`` is suspect, yet no repair ever deletes it.
- **Example 2** — n independent key conflicts split into n violation
  clusters: certain answers are decided per cluster, never enumerating the
  2^n repairs.
- **Example 3** — two clusters with disjoint source envelopes can still
  jointly affect target facts: the signature of those facts contains both
  clusters, and deciding them requires one program over both influences.

Run:  python examples/repair_envelopes.py
"""

from repro import Fact, Instance, parse_mapping, parse_query, source_repairs
from repro.reduction import reduce_mapping
from repro.xr.envelope import analyze_envelopes
from repro.xr.exchange import build_exchange_data
from repro.xr.segmentary import SegmentaryEngine


def example_1() -> None:
    print("Example 1 — Isuspect is not a minimal envelope")
    mapping = parse_mapping(
        """
        SOURCE P/2, Q/2. TARGET Pp/2, Qp/2.
        P(x, y) -> Pp(x, y).
        Q(x, y) -> Qp(x, y).
        Pp(x, y), Pp(x, y2) -> y = y2.
        Pp(x, y), Pp(x, y2), Qp(y, y2) -> y = y2.
        """
    )
    instance = Instance(
        [Fact("P", ("a", "b")), Fact("P", ("a", "c")), Fact("Q", ("b", "c"))]
    )
    reduced = reduce_mapping(mapping)
    analysis = analyze_envelopes(build_exchange_data(reduced.gav, instance))
    print("    suspect facts:", sorted(map(repr, analysis.suspect_source)))

    repairs = source_repairs(instance, mapping)
    never_deleted = set(instance)
    for repair in repairs:
        never_deleted &= repair
    print("    kept by every repair:", sorted(map(repr, never_deleted)))
    assert Fact("Q", ("b", "c")) in analysis.suspect_source
    assert Fact("Q", ("b", "c")) in never_deleted
    print(
        "    -> Q(b,c) is suspect (in the PTIME envelope) although the key\n"
        "       constraint on Pp already resolves the second egd: the ideal\n"
        "       envelope is strictly smaller, and computing it is coNP-hard\n"
        "       (Theorem 3).\n"
    )


def example_2(n: int = 8) -> None:
    print(f"Example 2 — {n} independent conflicts, 2^{n} repairs, {n} clusters")
    mapping = parse_mapping(
        "SOURCE P/3. TARGET Q/3.\n"
        "P(i, x, y) -> Q(i, x, y).\n"
        "Q(i, x, y), Q(i, x, z) -> y = z.\n"
    )
    facts = []
    for index in range(n):
        facts.append(Fact("P", (index, "a", "b")))
        facts.append(Fact("P", (index, "a", "c")))
    instance = Instance(facts)

    engine = SegmentaryEngine(mapping, instance)
    stats = engine.exchange()
    print(f"    violations: {stats.violations}, clusters: {stats.clusters}")
    assert stats.clusters == n

    answers = engine.answer(parse_query("q(i) :- Q(i, x, y)."))
    print(f"    q(i) :- Q(i, x, y) certain for all {len(answers)} groups")
    assert len(answers) == n
    print(
        f"    -> answered by solving {engine.last_query_stats.programs_solved} "
        "small programs, never materializing the exponential repair space.\n"
    )


def example_3() -> None:
    print("Example 3 — disjoint source envelopes, shared target influence")
    mapping = parse_mapping(
        """
        SOURCE P/2, Q/2. TARGET R/2, S/2, T/3.
        P(x, y) -> R(x, y).
        Q(x, y) -> S(x, y).
        R(x, y), S(x, z) -> T(x, y, z).
        R(x, y), R(x, y2) -> y = y2.
        S(x, y), S(x, y2) -> y = y2.
        """
    )
    instance = Instance(
        [
            Fact("P", ("a1", "a2")), Fact("P", ("a1", "a3")),
            Fact("Q", ("a1", "a2")), Fact("Q", ("a1", "a3")),
        ]
    )
    reduced = reduce_mapping(mapping)
    data = build_exchange_data(reduced.gav, instance)
    analysis = analyze_envelopes(data)
    print(f"    clusters: {len(analysis.clusters)}")
    shared = (
        analysis.clusters[0].influence_ids & analysis.clusters[1].influence_ids
    )
    t_facts = sorted(
        repr(fact)
        for fact in map(data.facts_by_id.__getitem__, shared)
        if fact.relation == "T"
    )
    print(f"    T-facts in both influences: {t_facts}")

    engine = SegmentaryEngine(mapping, instance)
    full = engine.answer(parse_query("q(x, y, z) :- T(x, y, z)."))
    projected = engine.answer(parse_query("q(x) :- T(x, y, z)."))
    print(f"    certain T rows: {sorted(full)}  |  certain T projections: {sorted(projected)}")
    assert full == set() and projected == {("a1",)}
    print(
        "    -> no specific T row is certain (each repair picks different\n"
        "       values), but every repair has some T(a1, ·, ·): deciding this\n"
        "       needed both clusters in one signature program."
    )


def main() -> None:
    example_1()
    example_2()
    example_3()


if __name__ == "__main__":
    main()
