"""Ground disjunctive programs whose stable models are the XR-solutions.

Two encodings are provided.

**Figure 1 (as published)** — :func:`build_figure1_program` transcribes the
program of Theorem 2 literally: chase / deletion / remainder rules per tgd
grounding, disjunctive deletion rules per violated ground egd, incidental
("i") classification, and the one-of-three constraints.  During this
reproduction we found that the literal Figure 1 program *misses* XR-solutions
in which every violated-egd body fact is only *incidentally* deleted — e.g.
when deleting a single shared source fact removes all facts of a violation
at once: the ``¬Ri`` guards then withdraw the support of the very deletion
that caused the cascade, and no stable model represents that repair (see
``tests/test_xr/test_figure1_incompleteness.py`` for the minimal example).
The encoding is kept for study and for the ablation benchmarks.

**Repair-guess (default)** — :func:`build_repair_program` encodes
Definition 1 directly, sized by the repair envelope:

- safe source facts always remain; each *suspect* source fact ``f`` is
  guessed ``fd ∨ fr``;
- a "remains" chase layer derives ``gr`` for every grounding whose body
  remains;
- one integrity constraint per violated ground egd forbids its body to
  remain entirely (consistency);
- per suspect fact ``f``, a side chase of ``remains ∪ {f}`` (restricted to
  the influence of ``f``) derives ``conflict_f`` when adding ``f`` back
  would re-create a violation; ``⊥ ← fd, ¬conflict_f`` enforces
  ⊆-maximality of the repair.

Stable models correspond exactly to source repairs; cautious truth of the
query atoms is XR-Certain membership.  Both builders accept the segmentary
``focus``/``safe`` restriction of Section 6.4 (safe facts are represented by
the value *true*).

Implementation note: both builders run over the **interned id universe** of
:class:`~repro.xr.exchange.ExchangeData`.  Focus/safe sets are normalized to
int sets once (callers holding ids — the segmentary engine — pass
``focus_ids``/``safe_ids`` directly and skip the conversion).  A build does
work in proportion to its focus, the groundings headed there and its
violations — never to the size of the exchange, since the segmentary
engine builds one program per cluster family: the caller's id sets are
used as given (never copied or unioned), the groundings are found by
walking ``groundings_by_head`` from the focus (:func:`_focus_groundings`),
and lazily interned atom ids live in dicts keyed by the facts the program
touches (:class:`_LazyAtoms`), not in arrays over the fact universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable

from repro.asp.syntax import AtomTable, GroundProgram, GroundRule
from repro.relational.instance import Fact
from repro.xr.exchange import ExchangeData, Violation
from repro.xr.subscripts import deleted, incidental, remains

WITH_FACT = "__with__"  # copy-layer relation: fact g in chase(remains ∪ {f})
CONFLICT = "__conflict__"  # adding f back would violate an egd


@dataclass
class XRProgram:
    """A ground program plus the query-answer atoms to reason about."""

    program: GroundProgram
    # Candidate answer fact -> atom id (cautious membership = XR-Certain).
    query_atoms: dict[Fact, int] = field(default_factory=dict)
    # Candidates accepted outright (an entirely-safe support set).
    trivially_certain: set[Fact] = field(default_factory=set)


class _Emitter:
    """Dedup-and-append rule emission over raw (head, pos, neg) tuples.

    Hashes three int tuples per rule instead of a :class:`GroundRule`
    dataclass (whose ``__hash__`` re-derives the same tuple hash through
    dataclass machinery on every probe).
    """

    __slots__ = ("program", "seen")

    def __init__(self, program: GroundProgram):
        self.program = program
        self.seen: set[tuple] = set()

    def __call__(
        self,
        head: tuple[int, ...],
        body_pos: tuple[int, ...] = (),
        body_neg: tuple[int, ...] = (),
    ) -> None:
        key = (head, body_pos, body_neg)
        if key not in self.seen:
            self.seen.add(key)
            self.program.add_rule(
                GroundRule(head=head, body_pos=body_pos, body_neg=body_neg)
            )


class _LazyAtoms(dict):
    """Fact id -> atom id of ``wrap(fact)``, interned on first lookup.

    Holds only the facts a program touches, so its size follows the
    program, not the fact universe.  Interning happens at first lookup,
    which keeps atom numbering in rule-emission order.
    """

    __slots__ = ("_intern", "_facts_by_id", "_wrap")

    def __init__(
        self,
        atoms: AtomTable,
        facts_by_id: list[Fact],
        wrap: Callable[[Fact], Fact],
    ):
        super().__init__()
        self._intern = atoms.intern
        self._facts_by_id = facts_by_id
        self._wrap = wrap

    def __missing__(self, fact_id: int) -> int:
        atom_id = self[fact_id] = self._intern(
            self._wrap(self._facts_by_id[fact_id])
        )
        return atom_id


def _normalize_scope(
    data: ExchangeData,
    focus: set[Fact] | None,
    safe: set[Fact] | None,
    focus_ids: AbstractSet[int] | None,
    safe_ids: AbstractSet[int] | None,
) -> tuple[AbstractSet[int], AbstractSet[int]]:
    """Resolve the focus/safe scope to id sets (interning stray facts).

    Id sets passed in are returned as they are: the builders only read
    them, and a copy would cost the size of the caller's set (the safe
    set spans nearly the whole exchange).
    """
    if focus_ids is None:
        if focus is None:
            focus_ids = data.id_set(data.chased)
        else:
            focus_ids = data.id_set(focus)
    if safe_ids is None:
        safe_ids = data.id_set(safe) if safe else set()
    return focus_ids, safe_ids


def _within(
    ids: Iterable[int], focus_ids: AbstractSet[int], safe_ids: AbstractSet[int]
) -> bool:
    """True iff every id lies in focus or safe (the union is never built)."""
    for fact_id in ids:
        if fact_id not in focus_ids and fact_id not in safe_ids:
            return False
    return True


def _focus_groundings(
    data: ExchangeData, focus_ids: AbstractSet[int], safe_ids: AbstractSet[int]
) -> list[int]:
    """Ascending indexes of the groundings whose head is in focus, not safe.

    Walks ``groundings_by_head`` from the focus, so the cost follows the
    focus rather than the grounding list.  Ascending order is grounding
    order, which fixes rule order and atom numbering.
    """
    by_head = data.groundings_by_head
    indexes = [
        index
        for head_id in focus_ids
        if head_id not in safe_ids
        for index in by_head[head_id]
    ]
    indexes.sort()
    return indexes


def _normalize_violations(
    data: ExchangeData, violations: list[Violation] | None
) -> list[tuple[Violation, tuple[int, ...]]]:
    """Pair each violation with its deduplicated body id tuple."""
    if violations is None:
        return list(zip(data.violations, data.violation_bodies))
    return [(v, data.violation_body_ids(v)) for v in violations]


def _emit_query_rules(
    result: XRProgram,
    emit: _Emitter,
    data: ExchangeData,
    remains_atom,
    query_groundings,
    focus_ids: AbstractSet[int],
    safe_ids: AbstractSet[int],
) -> None:
    """Shared query-rule emission: ``q ← remains(support set)``."""
    atoms = result.program.atoms
    id_of = data.fact_ids.get
    for query_fact, body_facts in query_groundings or ():
        body_ids = []
        in_scope = True
        for fact in body_facts:
            fact_id = id_of(fact)
            if fact_id is None or (
                fact_id not in focus_ids and fact_id not in safe_ids
            ):
                in_scope = False
                break
            body_ids.append(fact_id)
        if not in_scope:
            continue
        focus_body = tuple(
            dict.fromkeys(i for i in body_ids if i not in safe_ids)
        )
        query_id = atoms.intern(query_fact)
        result.query_atoms[query_fact] = query_id
        if not focus_body:
            result.trivially_certain.add(query_fact)
            emit((query_id,))
            continue
        emit((query_id,), tuple(remains_atom(i) for i in focus_body))


# ---------------------------------------------------------------------------
# The corrected (default) encoding.
# ---------------------------------------------------------------------------


def _suspect_source_ids(
    data: ExchangeData,
    violation_bodies: Iterable[tuple[int, ...]],
    within_ids: AbstractSet[int],
) -> set[int]:
    """Source fact ids inside ``within_ids`` lying in a violation's support
    closure (backward closure walked over the id adjacency)."""
    closure: set[int] = set()
    frontier: list[int] = []
    for body_ids in violation_bodies:
        for fact_id in body_ids:
            if fact_id not in closure:
                closure.add(fact_id)
                frontier.append(fact_id)
    groundings_by_head = data.groundings_by_head
    bodies = data.grounding_bodies
    while frontier:
        fact_id = frontier.pop()
        for index in groundings_by_head[fact_id]:
            for body_id in bodies[index]:
                if body_id not in closure:
                    closure.add(body_id)
                    frontier.append(body_id)
    source_mask = data.source_id_mask
    return {
        fact_id
        for fact_id in closure
        if source_mask[fact_id] and fact_id in within_ids
    }


def build_repair_program(
    data: ExchangeData,
    query_groundings: list[tuple[Fact, tuple[Fact, ...]]] | None = None,
    focus: set[Fact] | None = None,
    safe: set[Fact] | None = None,
    violations: list[Violation] | None = None,
    focus_ids: AbstractSet[int] | None = None,
    safe_ids: AbstractSet[int] | None = None,
) -> XRProgram:
    """Build the repair-guess program (see module docstring).

    ``focus``/``safe`` restrict the program for the segmentary engine:
    only facts in ``focus`` are modelled, facts in ``safe`` are true, rules
    touching other facts are dropped (independent clusters).  Callers that
    already hold interned ids pass ``focus_ids``/``safe_ids`` instead.
    """
    focus_ids, safe_ids = _normalize_scope(data, focus, safe, focus_ids, safe_ids)
    scoped_violations = _normalize_violations(data, violations)

    facts_by_id = data.facts_by_id
    source_mask = data.source_id_mask
    grounding_bodies = data.grounding_bodies
    grounding_heads = data.grounding_heads

    program = GroundProgram(AtomTable())
    atoms = program.atoms
    emit = _Emitter(program)

    # Lazily interned atom ids of the "remains" copies.
    remains_atom = _LazyAtoms(atoms, facts_by_id, remains).__getitem__

    suspects = _suspect_source_ids(
        data, (body for _v, body in scoped_violations), focus_ids
    )

    # --- source layer: guesses for suspects, units for the rest.
    for fact_id in sorted(focus_ids):
        if not source_mask[fact_id]:
            continue
        remains_id = remains_atom(fact_id)
        if fact_id in suspects:
            emit((atoms.intern(deleted(facts_by_id[fact_id])), remains_id))
        else:
            emit((remains_id,))

    # --- remains chase layer.
    for index in _focus_groundings(data, focus_ids, safe_ids):
        head_id = grounding_heads[index]
        body_ids = grounding_bodies[index]
        focus_body: list[int] = []
        in_scope = True
        for body_id in body_ids:
            if body_id in safe_ids:
                continue
            if body_id not in focus_ids:
                in_scope = False
                break
            focus_body.append(body_id)
        if not in_scope:
            continue
        head_atom = remains_atom(head_id)
        if not focus_body:
            emit((head_atom,))
            continue
        emit((head_atom,), tuple(remains_atom(i) for i in focus_body))

    # --- consistency: no violated egd body may remain entirely.
    relevant_violations: list[tuple[Violation, tuple[int, ...]]] = []
    for violation, body_ids in scoped_violations:
        if not _within(body_ids, focus_ids, safe_ids):
            continue
        relevant_violations.append((violation, body_ids))
        focus_body = [i for i in body_ids if i not in safe_ids]
        if not focus_body:
            raise ValueError(
                f"unrepairable violation: every fact of {violation!r} is safe"
            )
        emit((), tuple(remains_atom(i) for i in focus_body))

    # --- maximality: a deleted suspect must re-create some violation.
    for suspect in sorted(suspects):
        influence = data.influence_ids_of(suspect) & focus_ids
        suspect_fact = facts_by_id[suspect]
        conflict_id = atoms.intern(Fact(CONFLICT, (suspect_fact,)))
        copy_atom = _LazyAtoms(
            atoms,
            facts_by_id,
            lambda fact, added=suspect_fact: Fact(WITH_FACT, (fact, added)),
        ).__getitem__

        # The added fact itself, and everything still remaining.
        emit((copy_atom(suspect),))
        for fact_id in sorted(influence):
            if fact_id == suspect:
                continue
            emit((copy_atom(fact_id),), (remains_atom(fact_id),))
        # Chase within the influence of the suspect: only groundings whose
        # head lies in the influence can fire, and `groundings_by_head`
        # yields exactly those (no full grounding rescan per suspect).
        for head_id in sorted(influence):
            for index in data.groundings_by_head[head_id]:
                body_ids = grounding_bodies[index]
                if not _within(body_ids, focus_ids, safe_ids):
                    continue
                rule_body: list[int] = []
                for fact_id in body_ids:
                    if fact_id == suspect or fact_id in safe_ids:
                        continue
                    if fact_id in influence:
                        rule_body.append(copy_atom(fact_id))
                    else:
                        rule_body.append(remains_atom(fact_id))
                emit((copy_atom(head_id),), tuple(rule_body))
        # Conflict detection against every relevant violation.
        for _violation, body_ids in relevant_violations:
            if not any(fact_id in influence for fact_id in body_ids):
                continue  # unaffected by re-adding the suspect
            rule_body = []
            for fact_id in body_ids:
                if fact_id in safe_ids:
                    continue
                if fact_id in influence:
                    rule_body.append(copy_atom(fact_id))
                else:
                    rule_body.append(remains_atom(fact_id))
            emit((conflict_id,), tuple(rule_body))
        emit(
            (),
            (atoms.intern(deleted(suspect_fact)),),
            (conflict_id,),
        )

    result = XRProgram(program=program)
    _emit_query_rules(
        result, emit, data, remains_atom, query_groundings, focus_ids, safe_ids
    )
    return result


# ---------------------------------------------------------------------------
# The literal Figure 1 encoding (published variant; see module docstring).
# ---------------------------------------------------------------------------


def build_figure1_program(
    data: ExchangeData,
    query_groundings: list[tuple[Fact, tuple[Fact, ...]]] | None = None,
    focus: set[Fact] | None = None,
    safe: set[Fact] | None = None,
    violations: list[Violation] | None = None,
    focus_ids: AbstractSet[int] | None = None,
    safe_ids: AbstractSet[int] | None = None,
) -> XRProgram:
    """Build the ground Figure 1 program of Theorem 2, literally.

    Kept as a study/ablation artifact: on mappings with chained tgds it can
    miss XR-solutions (module docstring); on single-level mappings — e.g.
    key constraints directly over exchanged facts — it agrees with
    :func:`build_repair_program`.
    """
    focus_ids, safe_ids = _normalize_scope(data, focus, safe, focus_ids, safe_ids)
    scoped_violations = _normalize_violations(data, violations)

    facts_by_id = data.facts_by_id
    source_mask = data.source_id_mask
    grounding_bodies = data.grounding_bodies
    grounding_heads = data.grounding_heads

    program = GroundProgram(AtomTable())
    atoms = program.atoms
    emit = _Emitter(program)

    def lazy(wrap: Callable[[Fact], Fact]) -> Callable[[int], int]:
        return _LazyAtoms(atoms, facts_by_id, wrap).__getitem__

    fact_atom = lazy(lambda fact: fact)
    remains_atom = lazy(remains)
    deleted_atom = lazy(deleted)
    incidental_atom = lazy(incidental)

    # --- per-fact rules.
    for fact_id in sorted(focus_ids):
        atom = fact_atom(fact_id)
        deleted_id = deleted_atom(fact_id)
        remains_id = remains_atom(fact_id)
        if not source_mask[fact_id]:  # target fact
            incidental_id = incidental_atom(fact_id)
            emit((incidental_id,), (atom,), (remains_id, deleted_id))
            emit((), (remains_id, deleted_id))
            emit((), (remains_id, incidental_id))
            emit((), (deleted_id, incidental_id))
        else:
            emit((atom,))
            emit((remains_id,), (atom,), (deleted_id,))

    # --- chase / deletion / remainder rules per tgd grounding.
    for index in _focus_groundings(data, focus_ids, safe_ids):
        head_id = grounding_heads[index]
        body_ids = grounding_bodies[index]
        if not _within(body_ids, focus_ids, safe_ids):
            continue
        if head_id in body_ids:
            continue  # tautological grounding
        focus_body = tuple(i for i in body_ids if i not in safe_ids)
        if not focus_body:
            emit((fact_atom(head_id),))
            emit((remains_atom(head_id),))
            continue
        body_atoms = tuple(fact_atom(i) for i in focus_body)
        emit((fact_atom(head_id),), body_atoms)
        emit(
            tuple(deleted_atom(i) for i in focus_body),
            (deleted_atom(head_id),) + body_atoms,
            tuple(
                incidental_atom(i)
                for i in focus_body
                if not source_mask[i]
            ),
        )
        emit(
            (remains_atom(head_id),),
            tuple(remains_atom(i) for i in focus_body),
        )

    # --- egd deletion rules.
    for violation, body_ids in scoped_violations:
        if not _within(body_ids, focus_ids, safe_ids):
            continue
        focus_body = tuple(i for i in body_ids if i not in safe_ids)
        if not focus_body:
            raise ValueError(
                f"unrepairable violation: every fact of {violation!r} is safe"
            )
        emit(
            tuple(deleted_atom(i) for i in focus_body),
            tuple(fact_atom(i) for i in focus_body),
            tuple(
                incidental_atom(i)
                for i in focus_body
                if not source_mask[i]
            ),
        )

    result = XRProgram(program=program)
    _emit_query_rules(
        result, emit, data, remains_atom, query_groundings, focus_ids, safe_ids
    )
    return result


ENCODINGS = {
    "repair": build_repair_program,
    "figure1": build_figure1_program,
}


def build_family_program(
    data: ExchangeData,
    query_groundings: list[tuple[Fact, tuple[Fact, ...]]],
    clusters: Iterable,
    safe_ids: AbstractSet[int],
    encoding: str = "repair",
    builder=None,
) -> XRProgram:
    """One shared ground program for a whole cluster *family*.

    A family is a set of signature groups whose signatures overlap on
    violation clusters; ``clusters`` is the union of those clusters
    (:class:`~repro.xr.envelope.ViolationCluster` instances, deduplicated
    by the caller).  The program is the ordinary XR encoding over the
    union focus — sound because clusters are pairwise independent
    (Definition 8): restricting a stable model of the union program to
    one member signature's focus yields exactly a stable model of that
    member's program built alone, so cautious/brave verdicts of the
    query atoms coincide.  All candidates of the family then share one
    solver, and everything it learns transfers across them.
    """
    focus_ids: set[int] = set()
    violations: list[Violation] = []
    for cluster in clusters:
        # Filter member by member: ``focus_ids -= safe_ids`` would walk
        # the whole safe set.
        focus_ids.update(
            fact_id
            for fact_id in cluster.influence_ids
            if fact_id not in safe_ids
        )
        violations.extend(cluster.violations)
    if builder is None:
        builder = build_xr_program
    return builder(
        data,
        query_groundings=query_groundings,
        violations=violations,
        encoding=encoding,
        focus_ids=focus_ids,
        safe_ids=safe_ids,
    )


def build_xr_program(
    data: ExchangeData,
    query_groundings: list[tuple[Fact, tuple[Fact, ...]]] | None = None,
    focus: set[Fact] | None = None,
    safe: set[Fact] | None = None,
    violations: list[Violation] | None = None,
    encoding: str = "repair",
    focus_ids: AbstractSet[int] | None = None,
    safe_ids: AbstractSet[int] | None = None,
) -> XRProgram:
    """Dispatch to the selected encoding (``"repair"`` or ``"figure1"``)."""
    try:
        builder = ENCODINGS[encoding]
    except KeyError:
        raise ValueError(
            f"unknown encoding {encoding!r}; choose from {sorted(ENCODINGS)}"
        ) from None
    return builder(
        data,
        query_groundings=query_groundings,
        focus=focus,
        safe=safe,
        violations=violations,
        focus_ids=focus_ids,
        safe_ids=safe_ids,
    )
