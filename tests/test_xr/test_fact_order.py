"""The exchange's canonical order: total, cheap, and free of hash seeds.

The chased facts are interned in :func:`~repro.relational.instance.fact_order`
order, groundings are sorted by int keys and violations by
:func:`~repro.xr.exchange.violation_order`.  These tests check that the
order is total on every kind of value a fact can hold, that the native
sort of :func:`~repro.relational.instance.sorted_facts` agrees with the
key, and that two interpreters with different ``PYTHONHASHSEED`` values
number the same exchange identically, before and after an update.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.relational.instance import Fact, Instance, fact_order, sorted_facts
from repro.relational.terms import Null, SkolemValue, value_order

REPO = Path(__file__).resolve().parents[2]

constants = st.one_of(
    st.text(max_size=3),
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False),
)
values = st.recursive(
    st.one_of(constants, st.integers(0, 3).map(Null), st.text(max_size=2).map(Null)),
    lambda inner: st.builds(
        SkolemValue,
        st.sampled_from(["f", "g"]),
        st.lists(inner, max_size=2).map(tuple),
    ),
    max_leaves=5,
)
homogeneous_rows = st.one_of(
    st.lists(st.tuples(st.text(max_size=2), st.integers(-3, 3))),
    st.lists(st.tuples(st.floats(-3, 3, allow_nan=False), st.text(max_size=2))),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(values, values), max_size=12), st.randoms())
def test_fact_order_is_total_on_mixed_columns(rows, rng):
    facts = list(dict.fromkeys(Fact("R", row) for row in rows))
    ordered = sorted(facts, key=fact_order)  # never raises
    shuffled = facts[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled, key=fact_order) == ordered
    for before, after in zip(ordered, ordered[1:]):
        assert fact_order(before) < fact_order(after)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(values, values), max_size=8), homogeneous_rows,
       st.lists(st.tuples(st.integers(0, 3)), max_size=4))
def test_sorted_facts_matches_fact_order(mixed, native, unary):
    instance = Instance(
        [Fact("M", row) for row in mixed]
        + [Fact("N", row) for row in native]
        + [Fact("N", ("ragged",))] * bool(native and len(mixed) % 2)
        + [Fact("A", row) for row in unary]
        + [Fact("Z", ())]
    )
    assert sorted_facts(instance) == sorted(instance, key=fact_order)


def test_value_order_ranks_kinds():
    ranked = [
        "", "b", -1, 0.5, True, 2, Null("a"), Null(1),
        SkolemValue("f", ("a",)), SkolemValue("f", (1,)),
        SkolemValue("f", (SkolemValue("g", ()),)), SkolemValue("g", ()),
    ]
    keys = [value_order(value) for value in ranked]
    assert keys == sorted(keys)
    assert value_order(1) == value_order(1.0) == value_order(True)


_NUMBERING = """
import json
from repro.genomics import build_instance, genome_mapping
from repro.reduction.reduce import reduce_mapping
from repro.xr.exchange import build_exchange_data

data = build_exchange_data(
    reduce_mapping(genome_mapping()).gav, build_instance("S3").instance
)
print(json.dumps({
    "facts": [repr(fact) for fact in data.facts_by_id],
    "groundings": [
        [rule.label, data.fact_ids[head], [data.fact_ids[f] for f in body]]
        for rule, body, head in data.groundings
    ],
    "violations": [repr(violation) for violation in data.violations],
    "violation_bodies": data.violation_bodies,
}))
"""


def test_numbering_is_the_same_under_every_hash_seed():
    """Genomics S3 after the GLAV reduction mixes str, int and skolem
    values in one column (the ``EQ`` relation)."""
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = str(REPO / "src")
        result = subprocess.run(
            [sys.executable, "-c", _NUMBERING], capture_output=True,
            text=True, env=env, check=True, timeout=300,
        )
        runs.append(json.loads(result.stdout))
    first, second = runs
    assert first["violations"], "the scenario should have a violation"
    assert any("sk_" in text for text in first["facts"])
    for field in ("facts", "groundings", "violations", "violation_bodies"):
        assert first[field] == second[field], field


_NUMBERING_AFTER_UPDATE = """
import json
from repro.incremental import Delta
from repro.reduction.reduce import reduce_mapping
from repro.relational.instance import fact_order
from repro.scenarios.tpch import tpch_scenario
from repro.xr.exchange import build_exchange_data

base = tpch_scenario(0.01, 0.2, 3).instance
inserts = sorted(
    (fact for fact in tpch_scenario(0.03, 0.2, 3).instance if fact not in base),
    key=fact_order,
)[:400]
mapping = reduce_mapping(tpch_scenario(0.01, 0.2, 3).mapping).gav
data = build_exchange_data(mapping, base)
data.update_session().apply(Delta(inserts=frozenset(inserts)))
print(json.dumps({
    "facts": [repr(fact) for fact in data.facts_by_id],
    "groundings": [
        [rule.label, data.fact_ids[head], [data.fact_ids[f] for f in body]]
        for rule, body, head in data.groundings
    ],
    "grounding_heads": data.grounding_heads,
    "grounding_bodies": data.grounding_bodies,
    "violations": [repr(violation) for violation in data.violations],
    "violation_bodies": data.violation_bodies,
}))
"""


def test_numbering_after_an_update_is_the_same_under_every_hash_seed():
    """A 400-fact insert-only delta on TPC-H SF 0.01: the delta's new
    facts are interned in fact order and its groundings and violations
    appended in canonical order, whatever order the chase found them in."""
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = str(REPO / "src")
        result = subprocess.run(
            [sys.executable, "-c", _NUMBERING_AFTER_UPDATE],
            capture_output=True, text=True, env=env, check=True, timeout=300,
        )
        runs.append(json.loads(result.stdout))
    first, second = runs
    assert len(first["groundings"]) > 500 and first["violations"]
    for field in first:
        assert first[field] == second[field], field
