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
``focus_ids``/``safe_ids`` restriction of Section 6.4 (safe facts are
represented by the value *true*).

Implementation note: both builders run over the **interned id universe** of
:class:`~repro.xr.exchange.ExchangeData`, and take their scope as id sets
(with no focus, every chased fact).  A build does
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
from typing import AbstractSet, Callable, Iterable, Iterator

from repro.asp.stable import StableModelEngine
from repro.asp.syntax import AtomTable, GroundProgram, GroundRule
from repro.relational.instance import Fact
from repro.xr.envelope import influence_ids, support_closure_ids
from repro.xr.exchange import ExchangeData, Violation
from repro.xr.subscripts import deleted, incidental, remains

#: ``(candidate fact, support fact ids)`` pairs, as
#: :func:`~repro.xr.queries.ground_query` yields them.
QueryGroundings = Iterable[tuple[Fact, tuple[int, ...]]]

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
    # The scope the program was built for, and fact id -> atom id of the
    # "remains" copies it interned: what a query part needs
    # (:func:`family_query_part`).
    focus_ids: AbstractSet[int] = frozenset()
    remains_atoms: dict[int, int] = field(default_factory=dict)


@dataclass(eq=False)
class FamilyEngine:
    """A cluster family's repair part, translated to a solver once.

    Holds only what later queries need: the
    :class:`~repro.asp.stable.StableModelEngine`, fact id → atom id of
    the "remains" copies in the family's focus, the focus ids, and the
    repair part's size.  The :class:`~repro.asp.syntax.GroundProgram`
    and its fact-keyed atom table are not kept.  Each query is added as
    goal definitions (:func:`family_query_part`,
    :meth:`~repro.asp.stable.StableModelEngine.define_goal`), so one
    engine decides every query and mode asked of its family.
    """

    engine: StableModelEngine
    remains_atoms: dict[int, int] = field(default_factory=dict)
    focus_ids: AbstractSet[int] = frozenset()
    repair_rules: int = 0
    repair_atoms: int = 0

    @classmethod
    def of(cls, repair: XRProgram) -> "FamilyEngine":
        """Translate a family's repair part (no query rules)."""
        program = repair.program
        return cls(
            engine=StableModelEngine(program),
            remains_atoms=dict(repair.remains_atoms),
            focus_ids=repair.focus_ids,
            repair_rules=len(program),
            repair_atoms=program.num_atoms,
        )

    @property
    def clauses(self) -> int:
        """Clauses the engine's solver holds (the store's size measure)."""
        return len(self.engine.solver.clauses)


@dataclass
class QueryPart:
    """One query's candidates over a family, as goal bodies.

    ``bodies`` maps each in-scope candidate to its support bodies, each a
    tuple of remains-atom ids (a body naming a fact the repair part has
    no remains atom for never holds and is left out); ``trivially_certain``
    holds the candidates with an entirely-safe support; ``rules`` counts
    the query rules a standalone program would carry, one per distinct
    (candidate, support body).
    """

    bodies: dict[Fact, list[tuple[int, ...]]] = field(default_factory=dict)
    trivially_certain: set[Fact] = field(default_factory=set)
    rules: int = 0


class _Emitter:
    """Dedup-and-append rule emission over raw (head, pos, neg) tuples.

    Hashes three int tuples per rule instead of a :class:`GroundRule`
    dataclass (whose ``__hash__`` re-derives the same tuple hash through
    dataclass machinery on every probe).  Equal head and body tuples are
    shared: an atom heads ~5 rules on the XR programs, a remains atom
    feeds one copy rule per suspect whose influence holds it, and a
    family engine keeps its rules.
    """

    __slots__ = ("program", "seen", "tuples")

    def __init__(self, program: GroundProgram):
        self.program = program
        self.seen: set[tuple] = set()
        self.tuples: dict[tuple[int, ...], tuple[int, ...]] = {}

    def __call__(
        self,
        head: tuple[int, ...],
        body_pos: tuple[int, ...] = (),
        body_neg: tuple[int, ...] = (),
    ) -> None:
        key = (head, body_pos, body_neg)
        if key not in self.seen:
            self.seen.add(key)
            share = self.tuples.setdefault
            head = share(head, head)
            body_pos = share(body_pos, body_pos)
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
    focus_ids: AbstractSet[int] | None,
    safe_ids: AbstractSet[int] | None,
) -> tuple[AbstractSet[int], AbstractSet[int]]:
    """The focus/safe scope: by default every chased fact, none safe.

    Id sets passed in are returned as they are: the builders only read
    them, and a copy would cost the size of the caller's set (the safe
    set spans nearly the whole exchange).
    """
    if focus_ids is None:
        fact_ids = data.fact_ids
        focus_ids = {fact_ids[fact] for fact in data.chased}
    return focus_ids, set() if safe_ids is None else safe_ids


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


def _query_supports(
    query_groundings: QueryGroundings | None,
    focus_ids: AbstractSet[int],
    safe_ids: AbstractSet[int],
) -> Iterator[tuple[Fact, tuple[int, ...]]]:
    """The query part's one scan: each grounding whose support lies in
    focus ∪ safe, as ``(candidate, focus body ids)`` in grounding order
    (safe facts are *true* and drop out; an empty body is an entirely
    safe support)."""
    for query_fact, body_ids in query_groundings or ():
        if _within(body_ids, focus_ids, safe_ids):
            yield query_fact, tuple(
                dict.fromkeys(i for i in body_ids if i not in safe_ids)
            )


def _emit_query_rules(
    result: XRProgram,
    emit: _Emitter,
    remains_atom,
    query_groundings,
    focus_ids: AbstractSet[int],
    safe_ids: AbstractSet[int],
) -> None:
    """A standalone program's query rules: ``q ← remains(support set)``."""
    atoms = result.program.atoms
    for query_fact, focus_body in _query_supports(
        query_groundings, focus_ids, safe_ids
    ):
        query_id = atoms.intern(query_fact)
        result.query_atoms[query_fact] = query_id
        if not focus_body:
            result.trivially_certain.add(query_fact)
            emit((query_id,))
            continue
        emit((query_id,), tuple(remains_atom(i) for i in focus_body))


def family_query_part(
    family: FamilyEngine,
    query_groundings: QueryGroundings,
    safe_ids: AbstractSet[int],
) -> QueryPart:
    """A query's part over a kept family engine (see :class:`QueryPart`).

    The same scan as a standalone program's query rules, with the
    remains atoms looked up in the family's map instead of interned:
    a fact the repair part never interned heads no rule, so a body
    naming it is false in every stable model and is left out.
    """
    part = QueryPart()
    remains_atoms = family.remains_atoms
    seen: set[tuple] = set()
    for query_fact, focus_body in _query_supports(
        query_groundings, family.focus_ids, safe_ids
    ):
        bodies = part.bodies.setdefault(query_fact, [])
        if (query_fact, focus_body) in seen:
            continue
        seen.add((query_fact, focus_body))
        if not focus_body:
            part.trivially_certain.add(query_fact)
            continue
        atoms = tuple(map(remains_atoms.get, focus_body))
        if None not in atoms:
            bodies.append(atoms)
    part.rules = len(seen)
    return part


# ---------------------------------------------------------------------------
# The corrected (default) encoding.
# ---------------------------------------------------------------------------


def build_repair_program(
    data: ExchangeData,
    query_groundings: QueryGroundings | None = None,
    violations: list[Violation] | None = None,
    focus_ids: AbstractSet[int] | None = None,
    safe_ids: AbstractSet[int] | None = None,
) -> XRProgram:
    """Build the repair-guess program (see module docstring).

    ``focus_ids``/``safe_ids`` restrict the program for the segmentary
    engine: only facts in focus are modelled, safe facts are true, rules
    touching other facts are dropped (independent clusters).
    """
    focus_ids, safe_ids = _normalize_scope(data, focus_ids, safe_ids)
    scoped_violations = _normalize_violations(data, violations)

    facts_by_id = data.facts_by_id
    source_mask = data.source_id_mask
    grounding_bodies = data.grounding_bodies
    grounding_heads = data.grounding_heads

    program = GroundProgram(AtomTable())
    atoms = program.atoms
    emit = _Emitter(program)

    # Lazily interned atom ids of the "remains" copies.
    remains_ids = _LazyAtoms(atoms, facts_by_id, remains)
    remains_atom = remains_ids.__getitem__

    # Suspects: the in-focus source facts of the violations' closure.
    suspects = {
        fact_id
        for fact_id in support_closure_ids(
            {i for _v, body in scoped_violations for i in body}, data
        )
        if source_mask[fact_id] and fact_id in focus_ids
    }

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
        influence = influence_ids({suspect}, data) & focus_ids
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

    result = XRProgram(
        program=program,
        focus_ids=focus_ids,
        remains_atoms=remains_ids,
    )
    _emit_query_rules(
        result, emit, remains_atom, query_groundings, focus_ids, safe_ids
    )
    return result


# ---------------------------------------------------------------------------
# The literal Figure 1 encoding (published variant; see module docstring).
# ---------------------------------------------------------------------------


def build_figure1_program(
    data: ExchangeData,
    query_groundings: QueryGroundings | None = None,
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
    focus_ids, safe_ids = _normalize_scope(data, focus_ids, safe_ids)
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
    remains_ids = _LazyAtoms(atoms, facts_by_id, remains)
    remains_atom = remains_ids.__getitem__
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

    result = XRProgram(
        program=program,
        focus_ids=focus_ids,
        remains_atoms=remains_ids,
    )
    _emit_query_rules(
        result, emit, remains_atom, query_groundings, focus_ids, safe_ids
    )
    return result


ENCODINGS = {
    "repair": build_repair_program,
    "figure1": build_figure1_program,
}


def build_family_program(
    data: ExchangeData,
    clusters: Iterable,
    safe_ids: AbstractSet[int],
    encoding: str = "repair",
    builder=None,
) -> XRProgram:
    """The repair part of a whole cluster *family*: no query rules.

    A family is a set of signature groups whose signatures overlap on
    violation clusters; ``clusters`` is the union of those clusters
    (:class:`~repro.xr.envelope.ViolationCluster` instances, deduplicated
    by the caller).  The program is the ordinary XR encoding over the
    union focus — sound because clusters are pairwise independent
    (Definition 8): restricting a stable model of the union program to
    one member signature's focus yields exactly a stable model of that
    member's program built alone, so cautious/brave verdicts coincide.
    Its stable models are the family's repairs, which no query changes
    (arXiv:1509.06390), so one translation (:class:`FamilyEngine`)
    serves every query and mode: each adds its candidates as goals
    (:func:`family_query_part`).
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
        violations=violations,
        encoding=encoding,
        focus_ids=focus_ids,
        safe_ids=safe_ids,
    )


def build_xr_program(
    data: ExchangeData,
    query_groundings: QueryGroundings | None = None,
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
        violations=violations,
        focus_ids=focus_ids,
        safe_ids=safe_ids,
    )
