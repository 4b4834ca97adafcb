"""The nested-loop reference exchange (test-only).

Production joins run on the hash operators of :mod:`repro.chase.batch`;
this module keeps the original tuple-at-a-time evaluator, driven by the
index nested-loop :func:`~repro.relational.queries.match_atoms`, as the
smallest reference that pins them: the semi-naive :func:`gav_chase`,
:func:`enumerate_groundings` (Definition 4) and :func:`find_violations`
(Definition 5), assembled by :func:`reference_exchange_data`, and
:func:`reference_ground_query`.  The fuzzer, the bit-identity tests and
the micro-benchmark's batch-vs-reference series use it; no production
module imports it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.chase.batch import check_gav_rules
from repro.dependencies.tgds import TGD, SkolemTerm
from repro.relational.instance import Fact, Instance
from repro.relational.queries import (
    Atom,
    CompiledJoin,
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    match_atoms,
)
from repro.relational.terms import Const, Variable, is_constant_value

#: Every order- and numbering-sensitive artifact of an exchange build
#: (besides the chased fact *set*): production and reference must agree
#: on each of them exactly.
COMPARED_FIELDS = (
    "groundings",
    "violations",
    "fact_ids",
    "facts_by_id",
    "grounding_bodies",
    "grounding_heads",
)


def _unify_atom_with_fact(
    atom: Atom, fact: Fact, binding: dict[Variable, Any]
) -> dict[Variable, Any] | None:
    """Extend ``binding`` so that ``atom`` matches ``fact``, or None."""
    if atom.relation != fact.relation or len(atom.terms) != len(fact.args):
        return None
    local = dict(binding)
    for term, value in zip(atom.terms, fact.args):
        if isinstance(term, Variable):
            if term in local:
                if local[term] != value:
                    return None
            else:
                local[term] = value
        elif isinstance(term, Const):
            if term.value != value:
                return None
        else:
            raise TypeError(f"unexpected body term {term!r}")
    return local


_VAR, _CONST, _SKOLEM = 0, 1, 2


def compile_head_grounder(rule: TGD) -> Callable[[dict[Variable, Any]], Fact]:
    """A function instantiating the (single) GAV head under a binding."""
    atom = rule.head[0]
    relation = atom.relation
    ops: list[tuple[int, Any]] = []
    for term in atom.terms:
        if isinstance(term, Variable):
            ops.append((_VAR, term))
        elif isinstance(term, Const):
            ops.append((_CONST, term.value))
        elif isinstance(term, SkolemTerm):
            ops.append((_SKOLEM, term))
        else:
            raise TypeError(f"unexpected head term {term!r}")

    def ground(binding: dict[Variable, Any]) -> Fact:
        return Fact(
            relation,
            [
                binding[payload]
                if kind == _VAR
                else (payload if kind == _CONST else payload.ground(binding))
                for kind, payload in ops
            ],
        )

    return ground


def compile_substituter(atom: Atom) -> Callable[[dict[Variable, Any]], Fact]:
    """A function instantiating a body atom (variables/constants only)."""
    relation = atom.relation
    ops: list[tuple[bool, Any]] = []
    for term in atom.terms:
        if isinstance(term, Variable):
            ops.append((True, term))
        elif isinstance(term, Const):
            ops.append((False, term.value))
        else:
            raise TypeError(f"cannot ground term {term!r}")

    def substitute(binding: dict[Variable, Any]) -> Fact:
        return Fact(
            relation,
            [binding[payload] if is_var else payload for is_var, payload in ops],
        )

    return substitute


def gav_chase(
    instance: Instance,
    rules: Sequence[TGD],
    max_rounds: int = 1_000_000,
    stats: dict[str, int] | None = None,
) -> Instance:
    """Compute the least fixpoint of ``rules`` over ``instance`` (a copy).

    Semi-naive evaluation with *strict* rounds: facts derived in round
    ``k`` only become visible to joins in round ``k + 1``, so the
    per-round derivation set — and the ``rounds`` counter — is a pure
    function of (instance, rules), which :func:`~repro.chase.batch.chase_insert`
    reproduces bit-for-bit.  Each (rule, pivot-atom) pair compiles the join
    over the rest of its body once, on first use.  When ``stats`` is a
    dict, the counters ``rounds`` and ``derived_facts`` are recorded.
    """
    check_gav_rules(rules)
    # relation -> [pivot atom, rest of the body, head grounder, lazy join]
    by_relation: dict[str, list[list]] = {}
    for rule in rules:
        ground = compile_head_grounder(rule)
        for position, pivot in enumerate(rule.body):
            rest = [a for i, a in enumerate(rule.body) if i != position]
            by_relation.setdefault(pivot.relation, []).append(
                [pivot, rest, ground, None]
            )
    work = instance.copy()
    delta = list(instance)

    rounds = 0
    while delta:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(f"gav_chase exceeded {max_rounds} rounds")
        pending: set[Fact] = set()
        for fact in delta:
            for entry in by_relation.get(fact.relation, ()):
                pivot, rest, ground, join = entry
                seed = _unify_atom_with_fact(pivot, fact, {})
                if seed is None:
                    continue
                if join is None:
                    join = entry[3] = CompiledJoin(
                        work, rest, pivot.variables()
                    )
                # Buffer heads until the round ends: a derivation that
                # needs an in-round fact fires next round instead, so the
                # fixpoint is unchanged but each round's output depends
                # only on the (work, delta) sets.
                derived = [
                    ground(binding) for binding in join.bindings(work, seed)
                ]
                for head_fact in derived:
                    if head_fact not in work:
                        pending.add(head_fact)
        delta = list(pending)
        for head_fact in delta:
            work.add(head_fact)
    if stats is not None:
        stats["rounds"] = rounds
        stats["derived_facts"] = len(work) - len(instance)
    return work


def enumerate_groundings(
    rules: Iterable[TGD],
    instance: Instance,
) -> Iterator[tuple[TGD, tuple[Fact, ...], Fact]]:
    """Yield every grounding ``(rule, body_facts, head_fact)`` over ``instance``.

    A grounding is an instantiation of the rule whose body facts all hold in
    the instance.  Duplicate bindings that produce the same (body, head)
    pair are deduplicated per rule.  *Tautological* groundings — the head
    fact occurring in its own body (e.g. transitivity instantiated with a
    reflexive premise) — are dropped: they can never contribute a genuine
    derivation or support set.
    """
    for rule in rules:
        seen: set[tuple[tuple[Fact, ...], Fact]] = set()
        substituters = [compile_substituter(atom) for atom in rule.body]
        ground = compile_head_grounder(rule)
        for binding in match_atoms(instance, list(rule.body)):
            body_facts = tuple(sub(binding) for sub in substituters)
            head_fact = ground(binding)
            if head_fact in body_facts:
                continue
            key = (body_facts, head_fact)
            if key not in seen:
                seen.add(key)
                yield rule, body_facts, head_fact


def find_violations(mapping, chased: Instance) -> list:
    """All grounded-egd violations over the chased instance (Definition 5),
    canonicalized.

    For constants-only egds, only clashes between two distinct constants
    count — skolem values stand for nulls, which the original chase would
    simply unify.
    """
    from repro.xr.exchange import Violation, canonicalize_violations

    violations = []
    for egd in mapping.target_egds:
        for binding in match_atoms(chased, list(egd.body)):
            lhs_value = binding[egd.lhs]
            rhs_value = (
                binding[egd.rhs]
                if isinstance(egd.rhs, Variable)
                else egd.rhs.value
            )
            if lhs_value == rhs_value:
                continue
            if egd.constants_only and not (
                is_constant_value(lhs_value) and is_constant_value(rhs_value)
            ):
                continue
            body_facts = tuple(atom.substitute(binding) for atom in egd.body)
            violations.append(Violation(egd, body_facts, lhs_value, rhs_value))
    return canonicalize_violations(violations)


def reference_exchange_data(
    mapping, source_instance: Instance, timings: dict[str, float] | None = None
):
    """The exchange data of ``mapping`` over ``source_instance``, computed
    by the nested-loop reference.

    Same validation, same canonical ordering and the same interned
    universe as :func:`~repro.xr.exchange.build_exchange_data`, so the
    two results must agree on the chased set and on every field of
    :data:`COMPARED_FIELDS`.  ``timings`` gets the same stage keys.
    """
    from repro.xr.exchange import assemble_exchange_data, check_exchange_input

    check_exchange_input(mapping, source_instance)
    clock = time.perf_counter
    tgds = list(mapping.all_tgds())
    started = clock()
    chased = gav_chase(source_instance, tgds)
    chased_at = clock()
    groundings = list(enumerate_groundings(tgds, chased))
    grounded_at = clock()
    violations = find_violations(mapping, chased)
    violations_at = clock()
    data = assemble_exchange_data(
        mapping, source_instance, chased, groundings, violations
    )
    if timings is not None:
        timings["chase"] = chased_at - started
        timings["groundings"] = grounded_at - chased_at
        timings["violations"] = violations_at - grounded_at
        timings["index"] = clock() - violations_at
    return data


def exchange_mismatches(data, reference) -> list[str]:
    """The artifacts on which two exchange builds disagree: ``"chased"``
    (as a set) and the names in :data:`COMPARED_FIELDS`."""
    mismatches = []
    if set(data.chased) != set(reference.chased):
        mismatches.append("chased")
    for name in COMPARED_FIELDS:
        if getattr(data, name) != getattr(reference, name):
            mismatches.append(name)
    return mismatches


def reference_ground_query(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    chased: Instance,
) -> list[tuple[Fact, tuple[Fact, ...]]]:
    """All (candidate fact, support set) pairs of the query over
    ``chased``, by nested-loop matching: the reference for
    :func:`repro.xr.queries.ground_query`."""
    from repro.xr.queries import query_relation_name

    disjuncts = (
        [query] if isinstance(query, ConjunctiveQuery) else list(query.disjuncts)
    )
    relation = query_relation_name(query.name)
    results: list[tuple[Fact, tuple[Fact, ...]]] = []
    seen: set[tuple[Fact, tuple[Fact, ...]]] = set()
    for disjunct in disjuncts:
        for binding in match_atoms(chased, list(disjunct.body)):
            answer = tuple(binding[v] for v in disjunct.head_vars)
            if not all(is_constant_value(value) for value in answer):
                continue
            candidate = Fact(relation, answer)
            support = tuple(
                dict.fromkeys(atom.substitute(binding) for atom in disjunct.body)
            )
            key = (candidate, support)
            if key not in seen:
                seen.add(key)
                results.append(key)
    return results
