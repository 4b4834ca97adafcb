"""Grounding queries into candidate answers and their support sets.

Section 6.4: a UCQ is turned into new GAV tgds deriving a fresh query
relation; the *candidate answers* (Definition 2) are its groundings over the
canonical quasi-solution, and each grounding's body is one support set of
the candidate fact.  Answers are restricted to constants (``q↓``).
"""

from __future__ import annotations

from repro.chase.batch import _BodyPlan, _tuple_projector
from repro.relational.instance import Fact
from repro.relational.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.relational.terms import is_constant_value
from repro.xr.exchange import ExchangeData

QUERY_RELATION_PREFIX = "__q_"


def query_relation_name(query_name: str) -> str:
    return QUERY_RELATION_PREFIX + query_name


def ground_query(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    data: ExchangeData,
) -> list[tuple[Fact, tuple[Fact, ...]]]:
    """All (candidate fact, support set) pairs of the query over the
    chased instance of ``data``.

    Each disjunct is one batch hash join whose tracked rows carry the
    support facts, probing the long-lived ``data.index_cache``.  Only
    answers of constants are kept — skolem values stand for labelled
    nulls.
    """
    chased, cache = data.chased, data.index_cache
    disjuncts = (
        [query] if isinstance(query, ConjunctiveQuery) else list(query.disjuncts)
    )
    relation = query_relation_name(query.name)
    results: list[tuple[Fact, tuple[Fact, ...]]] = []
    seen: set[tuple[Fact, tuple[Fact, ...]]] = set()
    for disjunct in disjuncts:
        plan = _BodyPlan(chased, disjunct.body, transient=True)
        answer_of = _tuple_projector([plan.layout[v] for v in disjunct.head_vars])
        body_of = _tuple_projector(plan.body_order)
        for values, facts in plan.rows_hash_tracked(cache):
            answer = answer_of(values)
            if not all(is_constant_value(value) for value in answer):
                continue
            key = (Fact(relation, answer), tuple(dict.fromkeys(body_of(facts))))
            if key not in seen:
                seen.add(key)
                results.append(key)
    return results


def answers_from_facts(facts: set[Fact] | frozenset[Fact]) -> set[tuple]:
    """Extract the answer tuples from accepted query-relation facts."""
    return {fact.args for fact in facts}
