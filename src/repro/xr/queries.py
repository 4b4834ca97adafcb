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
from repro.relational.terms import NULL_TYPES
from repro.xr.exchange import ExchangeData

QUERY_RELATION_PREFIX = "__q_"


def query_relation_name(query_name: str) -> str:
    return QUERY_RELATION_PREFIX + query_name


def ground_query(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    data: ExchangeData,
) -> list[tuple[Fact, tuple[int, ...]]]:
    """All (candidate fact, support set) pairs of the query over the
    chased instance of ``data``, each support as the fact ids of the
    matched body, deduplicated in body order.

    Each disjunct is one batch hash join whose tracked rows carry the
    support facts' slots, probing the long-lived ``data.index_cache``.
    Only answers of constants are kept — skolem values stand for
    labelled nulls.  A candidate :class:`Fact` is built once per distinct
    answer and shared by all its pairs.
    """
    chased, cache = data.chased, data.index_cache
    id_at = cache.id_at.__getitem__
    disjuncts = (
        [query] if isinstance(query, ConjunctiveQuery) else list(query.disjuncts)
    )
    relation = query_relation_name(query.name)
    # answer tuple -> its candidate, or False for an answer with a null.
    candidates: dict[tuple, Fact | bool] = {}
    results: list[tuple[Fact, tuple[int, ...]]] = []
    seen: set[tuple[tuple, tuple[int, ...]]] = set()
    for disjunct in disjuncts:
        plan = _BodyPlan(chased, disjunct.body, transient=True)
        answer_of = _tuple_projector([plan.layout[v] for v in disjunct.head_vars])
        body_of = _tuple_projector(plan.body_order)
        # Only atoms of one relation can match one fact twice.  Otherwise
        # a row's support is its own (a binding is fixed by the facts it
        # matched), so only another disjunct can repeat a pair.
        repeats = len({atom.relation for atom in disjunct.body}) < len(disjunct.body)
        unique = not repeats and len(disjuncts) == 1
        for values, slots in plan.rows_hash_tracked(cache):
            answer = answer_of(values)
            candidate = candidates.get(answer)
            if candidate is None:
                candidate = candidates[answer] = (
                    NULL_TYPES.isdisjoint(map(type, answer))
                    and Fact(relation, answer)
                )
            if candidate is False:
                continue
            support = tuple(map(id_at, body_of(slots)))
            if repeats:
                support = tuple(dict.fromkeys(support))
            if not unique:
                key = (answer, support)
                if key in seen:
                    continue
                seen.add(key)
            results.append((candidate, support))
    return results


def answers_from_facts(facts: set[Fact] | frozenset[Fact]) -> set[tuple]:
    """Extract the answer tuples from accepted query-relation facts."""
    return {fact.args for fact in facts}
