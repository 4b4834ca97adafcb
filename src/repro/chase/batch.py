"""Set-at-a-time join evaluation: the one join engine and the one chase.

The exchange build, the delta-chase of :mod:`repro.incremental`, query
grounding (:func:`repro.xr.queries.ground_query`) and the ASP grounder
all join through these operators; the nested-loop :mod:`repro.chase.gav`
is only the test reference they are checked against.

- a binding is a plain ``tuple`` of values laid out by a fixed
  variable-to-slot assignment compiled per body (no dicts, no copies);
- each join level is a compiled :class:`_AtomStep` probing a multi-column
  **hash index** over the relation extension, shared across plans by
  signature and kept exact as the instance changes (:class:`_IndexCache`);
- constant filters and repeated-variable checks are folded into the index
  build, so they run once per stored fact instead of once per probe.

A :class:`_BodyPlan` joins a whole body; a :class:`_PivotPlan` seeds one
body atom with given facts (the semi-naive step).  *Tracked* rows carry
the matched facts' slots along (ints: the index cache numbers every fact
it holds), so groundings and supports need no re-instantiation and no
fact hashing.  Row order follows the join; callers canonicalize.

:func:`chase_insert` is the one semi-naive chase, and its rows are the
groundings: the exchange build inserts the source into an empty
instance, an update inserts its delta into the live one, and the ASP
grounder keeps only the fixpoint.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from collections.abc import Mapping
from typing import AbstractSet, Any, Callable, Iterable, Iterator, Sequence

from repro.dependencies.egds import EGD
from repro.dependencies.tgds import TGD, SkolemTerm
from repro.relational.instance import Fact, Instance
from repro.relational.queries import Atom, plan_join_order
from repro.relational.terms import Const, SkolemValue, Variable, is_constant_value

#: How many indexes transient (query) plans may keep in one
#: :class:`_IndexCache` on top of the ones the exchange and delta-chase
#: plans use; past it the oldest query-introduced index is dropped.
QUERY_INDEX_LIMIT = 64


def check_gav_rules(rules: Sequence[TGD]) -> None:
    """Raise ``ValueError`` unless every rule is GAV (one head atom, no
    existential variable)."""
    for rule in rules:
        if not rule.is_gav():
            raise ValueError(
                f"{rule.label}: the GAV chase requires GAV rules "
                "(single head atom, no existential variables)"
            )


# --------------------------------------------------------------- compilation


def _key_projector(positions: Sequence[int]) -> Callable[[Sequence], Any]:
    """A compiled index-key projection: scalar for one column, tuple else."""
    if not positions:
        return lambda values: ()
    return itemgetter(*positions)


def _tuple_projector(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A compiled projection that always yields a tuple (row extension)."""
    if not positions:
        return lambda values: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda values: (values[position],)
    return itemgetter(*positions)


class _AtomStep:
    """One join level of a batch plan, compiled for a fixed slot layout.

    ``key_positions``/``key_slots`` pair fact argument positions with the
    row slots they must equal (bound variables, and constants the layout
    gives a slot of their own); ``const_checks`` and ``same_checks`` are
    folded into the index build; ``new_positions`` are projected into the
    row extension, binding fresh slots in first-occurrence order.
    """

    __slots__ = (
        "relation",
        "key_positions",
        "key_slots",
        "const_checks",
        "same_checks",
        "new_positions",
        "key_of_args",
        "ext_of_args",
        "key_of_row",
        "signature",
    )

    def __init__(self, atom: Atom, layout: dict[Any, int]) -> None:
        self.relation = atom.relation
        key_positions: list[int] = []
        key_slots: list[int] = []
        const_checks: list[tuple[int, Any]] = []
        same_checks: list[tuple[int, int]] = []
        new_positions: list[int] = []
        first_here: dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if not isinstance(term, (Variable, Const)):
                raise TypeError(f"unexpected body term {term!r}")
            slot = layout.get(term)
            if slot is not None:
                key_positions.append(position)
                key_slots.append(slot)
            elif isinstance(term, Const):
                const_checks.append((position, term.value))
            elif term in first_here:
                same_checks.append((first_here[term], position))
            else:
                first_here[term] = position
                new_positions.append(position)
        for variable in first_here:
            layout[variable] = len(layout)
        self.key_positions = tuple(key_positions)
        self.key_slots = tuple(key_slots)
        self.const_checks = tuple(const_checks)
        self.same_checks = tuple(same_checks)
        self.new_positions = tuple(new_positions)
        # Compiled projections: a single-column key stays a scalar (both
        # sides of the index agree), a multi-column key is itemgetter's
        # tuple; extensions are always tuples (rows concatenate them).
        self.key_of_args = _key_projector(self.key_positions)
        self.key_of_row = _key_projector(self.key_slots)
        self.ext_of_args = _tuple_projector(self.new_positions)
        # Everything admit() looks at: two steps with equal signatures
        # build identical indexes, so the cache can share one.
        self.signature = (
            self.relation,
            self.key_positions,
            self.const_checks,
            self.same_checks,
            self.new_positions,
        )

    def admit(self, fact: Fact) -> tuple[Any, tuple] | None:
        """``(key, extension)`` for a fact passing the folded filters."""
        args = fact.args
        for position, value in self.const_checks:
            if args[position] != value:
                return None
        for left, right in self.same_checks:
            if args[left] != args[right]:
                return None
        return (self.key_of_args(args), self.ext_of_args(args))


class FactIds(Mapping):
    """Fact -> id over an :class:`_IndexCache`'s universe: its slot map
    read through ``id_at``, so renumbering ids rehashes no fact."""

    __slots__ = ("_slots", "_id_at")

    def __init__(self, slots: dict[Fact, int], id_at: list[int]) -> None:
        self._slots = slots
        self._id_at = id_at

    def __getitem__(self, fact: Fact) -> int:
        return self._id_at[self._slots[fact]]

    def get(self, fact: Fact, default: Any = None) -> Any:
        slot = self._slots.get(fact)
        return default if slot is None else self._id_at[slot]

    def __contains__(self, fact: object) -> bool:
        return fact in self._slots

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)


class _IndexCache:
    """Hash indexes over one instance, kept exact as the instance changes,
    and the dense id universe of the instance's facts.

    **Ids and slots.**  Every fact that enters the instance is interned:
    it gets a *slot* — ``slots`` is the one map keyed by facts — and a
    dense id, and ``facts_by_id`` lists the facts by id.  The indexes and
    tracked rows address facts by slot.  Owners may renumber ids
    (:meth:`renumber`: the exchange puts them in canonical order) without
    touching an index or rehashing a fact, because slots never change:
    ``slot_of`` maps an id to its slot and ``id_at`` a slot to its id
    (:meth:`ids`, :attr:`fact_ids`).  A fact keeps its id and slot after
    it leaves the instance, so a re-inserted fact gets both back.  A new
    fact's id equals its slot until the next renumbering.

    **Indexes.**  Keyed by step *signature*: plans that join a relation
    the same way — e.g. the two self-join atoms of a key egd — share one
    index.  An index maps a key to a bucket ``{slot: extension}``; it is
    built lazily from the extension and then maintained by
    :meth:`add_fact` and :meth:`discard_fact`, a discard being one dict
    deletion, never a bucket scan (a key-less step's one bucket holds the
    whole relation).

    Readers may build indexes concurrently (queries under the serving
    tier's read lock): registration runs under a lock, so a signature gets
    exactly one index.  At most :data:`QUERY_INDEX_LIMIT` indexes only
    *transient* (query) plans asked for are kept, oldest dropped first.
    Writers must exclude readers.
    """

    __slots__ = (
        "instance",
        "slots",
        "facts_by_id",
        "slot_of",
        "id_at",
        "fact_ids",
        "_by_signature",
        "_by_relation",
        "_transient",
        "_lock",
    )

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.slots: dict[Fact, int] = {}
        self.facts_by_id: list[Fact] = []
        self.slot_of: list[int] = []
        self.id_at: list[int] = []
        self.fact_ids = FactIds(self.slots, self.id_at)
        self._by_signature: dict[tuple, dict] = {}
        self._by_relation: dict[str, list[tuple[_AtomStep, dict]]] = {}
        self._transient: dict[tuple, None] = {}  # oldest first
        self._lock = threading.Lock()
        for fact in instance:
            self.intern(fact)

    # --------------------------------------------------------- the universe

    def intern(self, fact: Fact) -> int:
        """The slot of ``fact``, giving it the next slot and id if new."""
        slot = self.slots.setdefault(fact, len(self.id_at))
        if slot == len(self.id_at):
            self.facts_by_id.append(fact)
            self.slot_of.append(slot)
            self.id_at.append(slot)
        return slot

    def ids(self, slots: Iterable[int]) -> tuple[int, ...]:
        """The ids of the facts at ``slots``."""
        return tuple(map(self.id_at.__getitem__, slots))

    def renumber(self, start: int, order: Sequence[int]) -> None:
        """Give the facts of ids ``order`` (every id from ``start`` on,
        each once) the ids ``start, start + 1, ...`` in that order.

        Slots stay, so no index changes and no fact is hashed; rows
        holding slots translate to the new ids through :meth:`ids`."""
        facts_by_id, slot_of, id_at = self.facts_by_id, self.slot_of, self.id_at
        slots = [slot_of[old] for old in order]
        facts_by_id[start:] = [facts_by_id[old] for old in order]
        slot_of[start:] = slots
        for new_id, slot in enumerate(slots, start):
            id_at[slot] = new_id

    # -------------------------------------------------------------- indexes

    def index_for(self, step: _AtomStep, transient: bool = False) -> dict:
        index = self._by_signature.get(step.signature)
        if index is None or (not transient and step.signature in self._transient):
            with self._lock:
                index = self._register(step, transient)
        return index

    def _register(self, step: _AtomStep, transient: bool) -> dict:
        signature = step.signature
        index = self._by_signature.get(signature)
        if index is not None:
            if not transient:  # a pinned plan keeps it for good
                self._transient.pop(signature, None)
            return index
        index: dict = {}
        admit = step.admit
        slots = self.slots
        for fact in self.instance.facts_of(step.relation):
            entry = admit(fact)
            if entry is not None:
                slot = slots[fact]
                bucket = index.get(entry[0])
                if bucket is None:  # no throwaway default dict per fact
                    index[entry[0]] = {slot: entry[1]}
                else:
                    bucket[slot] = entry[1]
        self._by_relation.setdefault(step.relation, []).append((step, index))
        self._by_signature[signature] = index
        if transient:
            self._transient[signature] = None
            if len(self._transient) > QUERY_INDEX_LIMIT:
                oldest = next(iter(self._transient))
                del self._transient[oldest], self._by_signature[oldest]
                self._by_relation[oldest[0]] = [
                    entry
                    for entry in self._by_relation[oldest[0]]
                    if entry[0].signature != oldest
                ]
        return index

    def add_fact(self, fact: Fact, slot: int) -> None:
        """Index a fact the instance just gained, at its slot."""
        for step, index in self._by_relation.get(fact.relation, ()):
            entry = step.admit(fact)
            if entry is not None:
                bucket = index.get(entry[0])
                if bucket is None:
                    index[entry[0]] = {slot: entry[1]}
                else:
                    bucket[slot] = entry[1]

    def discard_fact(self, fact_id: int) -> None:
        """Drop the fact of ``fact_id`` from the indexes (one added or
        indexed before)."""
        fact = self.facts_by_id[fact_id]
        slot = self.slot_of[fact_id]
        for step, index in self._by_relation.get(fact.relation, ()):
            entry = step.admit(fact)
            if entry is not None:
                bucket = index[entry[0]]
                del bucket[slot]
                if not bucket:
                    del index[entry[0]]


def _probe(
    step: _AtomStep, index: dict[Any, dict[int, tuple]], rows: list[tuple]
) -> list[tuple]:
    key_of_row = step.key_of_row
    out: list[tuple] = []
    append = out.append
    get = index.get
    for row in rows:
        bucket = get(key_of_row(row))
        if bucket:
            for extension in bucket.values():
                append(row + extension)
    return out


def _probe_tracked(
    step: _AtomStep,
    index: dict[Any, dict[int, tuple]],
    rows: list[tuple[tuple, tuple]],
    skip: AbstractSet[int] | None = None,
) -> list[tuple[tuple, tuple]]:
    """Like :func:`_probe`, but rows are ``(values, provenance slots)``.

    Provenance rows let grounding enumeration emit the matched body facts
    without re-instantiating them by substitution — the contributing
    stored fact's slot rides along with every probe extension.  Slots in
    ``skip`` are not matched.
    """
    key_of_row = step.key_of_row
    out: list[tuple[tuple, tuple]] = []
    append = out.append
    get = index.get
    for values, slots in rows:
        bucket = get(key_of_row(values))
        if not bucket:
            continue
        if skip is None:
            for slot, extension in bucket.items():
                append((values + extension, slots + (slot,)))
        else:
            for slot, extension in bucket.items():
                if slot not in skip:
                    append((values + extension, slots + (slot,)))
    return out


_VAR, _CONST, _SKOLEM = 0, 1, 2
_FIRST = itemgetter(0)


def compile_slot_head(
    rule: TGD, layout: dict[Any, int]
) -> Callable[[tuple], Fact]:
    """The head grounder of a GAV rule, compiled against a slot layout."""
    atom = rule.head[0]
    relation = atom.relation
    ops: list[tuple[int, Any]] = []
    for term in atom.terms:
        if isinstance(term, Variable):
            ops.append((_VAR, layout[term]))
        elif isinstance(term, Const):
            ops.append((_CONST, term.value))
        elif isinstance(term, SkolemTerm):
            arg_ops = tuple(
                (True, layout[argument])
                if isinstance(argument, Variable)
                else (False, argument.value)
                for argument in term.args
            )
            ops.append((_SKOLEM, (term.function, arg_ops)))
        else:
            raise TypeError(f"unexpected head term {term!r}")

    if all(kind == _VAR for kind, _payload in ops):
        # The common GAV case (no constants, no skolems): the head args
        # are a plain projection of the row.
        project = _tuple_projector([payload for _kind, payload in ops])

        def ground_projection(row: tuple) -> Fact:
            return Fact(relation, project(row))

        return ground_projection

    def ground(row: tuple) -> Fact:
        args = []
        for kind, payload in ops:
            if kind == _VAR:
                args.append(row[payload])
            elif kind == _CONST:
                args.append(payload)
            else:
                function, arg_ops = payload
                args.append(
                    SkolemValue(
                        function,
                        tuple(
                            row[value] if is_var else value
                            for is_var, value in arg_ops
                        ),
                    )
                )
        return Fact(relation, args)

    return ground


def compile_slot_substituter(
    atom: Atom, layout: dict[Any, int]
) -> Callable[[tuple], Fact]:
    """A body-atom instantiator (variables/constants), row-slot based."""
    relation = atom.relation
    ops = tuple(
        (True, layout[term])
        if isinstance(term, Variable)
        else (False, term.value)
        for term in atom.terms
    )

    def substitute(row: tuple) -> Fact:
        return Fact(
            relation,
            [row[slot] if is_var else slot for is_var, slot in ops],
        )

    return substitute


def compile_violations(egd: EGD, layout: dict[Any, int]) -> Callable:
    """``rows -> [Violation]`` for an egd body, compiled against a slot
    layout.  For constants-only egds only clashes between two distinct
    constants count (skolem values stand for nulls, which the chase would
    simply unify); body facts are instantiated for violating rows only."""
    from repro.xr.exchange import Violation

    substituters = tuple(
        compile_slot_substituter(atom, layout) for atom in egd.body
    )
    lhs_slot = layout[egd.lhs]
    rhs_is_var = isinstance(egd.rhs, Variable)
    rhs_slot = layout[egd.rhs] if rhs_is_var else None
    rhs_const = None if rhs_is_var else egd.rhs.value
    constants_only = egd.constants_only

    def violations_of(rows: Iterable[tuple]) -> list:
        violations = []
        for row in rows:
            lhs_value = row[lhs_slot]
            rhs_value = row[rhs_slot] if rhs_is_var else rhs_const
            if lhs_value == rhs_value:
                continue
            if constants_only and not (
                is_constant_value(lhs_value) and is_constant_value(rhs_value)
            ):
                continue
            body_facts = tuple(sub(row) for sub in substituters)
            violations.append(Violation(egd, body_facts, lhs_value, rhs_value))
        return violations

    return violations_of


# --------------------------------------------------------------------- plans


def _planned_positions(
    instance: Instance,
    body: Sequence[Atom],
    positions: Iterable[int],
    bound: set[Variable],
) -> list[int]:
    """``positions`` of ``body`` in :func:`plan_join_order`'s greedy order
    (matched back by identity: a body may hold the same atom twice)."""
    remaining = list(positions)
    ordered: list[int] = []
    for atom in plan_join_order(instance, [body[i] for i in remaining], bound):
        for index, position in enumerate(remaining):
            if body[position] is atom:
                ordered.append(remaining.pop(index))
                break
    return ordered


def _body_order(join_order: Sequence[int]) -> tuple[int, ...]:
    """Each body position's place in ``join_order`` (reorders join-order
    provenance back into body order)."""
    inverse = [0] * len(join_order)
    for join_position, body_position in enumerate(join_order):
        inverse[body_position] = join_position
    return tuple(inverse)


def _join(
    steps,
    cache: _IndexCache,
    rows: list,
    tracked: bool,
    transient: bool = False,
    skips: Sequence[AbstractSet[int] | None] | None = None,
) -> list:
    """Probe ``rows`` through ``steps``; tracked rows are ``(values, slots)``.

    ``skips`` (tracked rows only) gives per step the slots it does not
    match, None for a step that matches every fact."""
    probe = _probe_tracked if tracked else _probe
    for position, step in enumerate(steps):
        if not rows:
            break
        index = cache.index_for(step, transient)
        if skips is None or skips[position] is None:
            rows = probe(step, index, rows)
        else:
            rows = _probe_tracked(step, index, rows, skips[position])
    return rows


class _BodyPlan:
    """A compiled full-body join: every atom is a probe step.

    Rows start as :attr:`initial` and grow one atom at a time in the
    planned order.  A *transient* (query) plan slots its constants into
    :attr:`initial`, making them index keys rather than folded filters —
    queries differing only in constants share indexes — and registers the
    indexes it introduces as transient (bounded).
    """

    __slots__ = ("steps", "layout", "body_order", "initial", "transient")

    def __init__(
        self, instance: Instance, atoms: Sequence[Atom], transient: bool = False
    ) -> None:
        body = list(atoms)
        order = _planned_positions(instance, body, range(len(body)), set())
        self.body_order = _body_order(order)
        self.layout: dict[Any, int] = {}
        self.transient = transient
        if transient:
            for atom in body:
                for term in atom.terms:
                    if isinstance(term, Const):
                        self.layout.setdefault(term, len(self.layout))
        self.initial = tuple(constant.value for constant in self.layout)
        self.steps = [_AtomStep(body[i], self.layout) for i in order]

    def rows_hash(self, cache: _IndexCache) -> list[tuple]:
        return _join(self.steps, cache, [self.initial], False, self.transient)

    def rows_of_fact_pairs(self, cache: _IndexCache) -> list[tuple]:
        """The rows of a two-atom body (not transient) whose atoms match
        two different facts."""
        first, second = self.steps
        # Nothing is bound before the first step: its one bucket, keyed
        # ``()``, holds its rows by slot.  (Queries over the relation
        # probe the same index, so building it here is not wasted.)
        starts = cache.index_for(first).get(())
        if not starts:
            return []
        get = cache.index_for(second).get
        key_of_row = second.key_of_row
        rows: list[tuple] = []
        append = rows.append
        for slot, row in starts.items():
            matches = get(key_of_row(row))
            if matches is None or (len(matches) == 1 and slot in matches):
                continue
            for other, extension in matches.items():
                if other != slot:
                    append(row + extension)
        return rows

    def rows_hash_tracked(self, cache: _IndexCache) -> list[tuple[tuple, tuple]]:
        """Rows as ``(values, slots-in-join-order)``; reorder the slots
        through :attr:`body_order` to recover the body-order tuple, and
        translate them with :meth:`_IndexCache.ids`."""
        rows = [(self.initial, ())]
        return _join(self.steps, cache, rows, True, self.transient)


class _PivotPlan:
    """A body join whose pivot atom's rows come straight from given
    facts: the semi-naive step of the batch chase and the delta-chase."""

    __slots__ = ("pivot", "steps", "layout", "body_order", "before_pivot")

    def __init__(
        self, instance: Instance, body: Sequence[Atom], position: int
    ) -> None:
        self.pivot = body[position]
        self.layout: dict[Any, int] = {}
        seed_step = _AtomStep(self.pivot, self.layout)
        rest = _planned_positions(
            instance,
            body,
            (i for i in range(len(body)) if i != position),
            set(self.layout),
        )
        self.steps = [seed_step] + [_AtomStep(body[i], self.layout) for i in rest]
        self.body_order = _body_order([position] + rest)
        #: Per joined step (after the pivot's): does its atom stand
        #: before the pivot in the body?
        self.before_pivot = tuple(i < position for i in rest)

    def rows(self, cache: _IndexCache, facts: Iterable[Fact]) -> list:
        """Every row of the body with the pivot matched to one of
        ``facts``."""
        admit = self.steps[0].admit
        rows = []
        for fact in facts:
            entry = admit(fact)
            if entry is not None:
                rows.append(entry[1])
        return _join(self.steps[1:], cache, rows, False)

    def rows_tracked(
        self,
        cache: _IndexCache,
        facts: Iterable[tuple[int, Fact]],
        skip_before: AbstractSet[int],
    ) -> list[tuple[tuple, tuple]]:
        """Every row of the body with the pivot matched to one of the
        ``(slot, fact)`` pairs ``facts``, carrying the matched slots in
        join order (pivot first, see :attr:`body_order`).  Atoms before
        the pivot in the body match no slot of ``skip_before``."""
        admit = self.steps[0].admit
        rows = []
        for slot, fact in facts:
            entry = admit(fact)
            if entry is not None:
                rows.append((entry[1], (slot,)))
        skips = [skip_before if before else None for before in self.before_pivot]
        return _join(self.steps[1:], cache, rows, True, skips=skips)


# -------------------------------------------------------------------- chase


class ChasePlans:
    """The semi-naive joins of one mapping, compiled once per exchange.

    Per pivot relation: one :class:`_PivotPlan` per (tgd, body position)
    with the rule's position in :attr:`rules`, the head grounder and the
    body-order projector, and one per (egd, body position) with its
    violations builder.  Join order is planned against ``instance``
    (relation sizes break ties).
    """

    __slots__ = ("rules", "tgds", "egds")

    def __init__(
        self, instance: Instance, rules: Iterable[TGD], egds: Iterable[EGD] = ()
    ) -> None:
        self.rules = tuple(rules)
        check_gav_rules(self.rules)
        self.tgds: dict[str, list[tuple]] = {}
        for rule_position, rule in enumerate(self.rules):
            for position in range(len(rule.body)):
                plan = _PivotPlan(instance, rule.body, position)
                self.tgds.setdefault(plan.pivot.relation, []).append(
                    (
                        rule_position,
                        plan,
                        compile_slot_head(rule, plan.layout),
                        _tuple_projector(plan.body_order),
                    )
                )
        self.egds: dict[str, list[tuple]] = {}
        for egd in egds:
            for position in range(len(egd.body)):
                plan = _PivotPlan(instance, egd.body, position)
                self.egds.setdefault(plan.pivot.relation, []).append(
                    (plan, compile_violations(egd, plan.layout))
                )


def chase_insert(
    plans: ChasePlans,
    cache: _IndexCache,
    facts: Iterable[Fact],
    max_rounds: int = 1_000_000,
    stats: dict[str, int] | None = None,
) -> tuple[dict[str, list[int]], list[tuple[int, int, tuple[int, ...]]]]:
    """Insert ``facts`` into ``cache.instance`` and chase to the fixpoint.

    Strict-round semi-naive evaluation: round ``k`` pivots the facts new
    in round ``k - 1`` (the inserted ones first) through every tgd body
    over the instance as it stood when the round began, and its heads
    become visible only in round ``k + 1``.  The per-round derivation set
    is thus a pure function of the (instance, delta) sets, so the fixpoint
    and the ``rounds``/``derived_facts`` counters equal the reference
    :func:`repro.chase.gav.gav_chase`'s.

    A fact is interned in ``cache`` when first derived (or inserted), so
    the chase works on slots (:class:`_IndexCache`).  Every
    provenance-tracked row is a grounding ``(rule position, head slot,
    body slots)`` with a new body fact.  It is found in the round of its
    newest body fact, by the pivot at the first body position holding a
    fact of that round: the positions before the pivot match no fact of
    the round (the join skips them at the probe), so each grounding is
    built and emitted once.  Tautologies (head in body) are dropped.
    Returns the slots of the facts the instance gained, by relation, and
    the groundings, both in no fixed order; the instance and every index
    of ``cache`` are kept exact.
    """
    instance = cache.instance
    add_fact = cache.add_fact
    intern = cache.slots.setdefault
    facts_by_id, slot_of, id_at = cache.facts_by_id, cache.slot_of, cache.id_at
    fresh: dict[int, Fact] = {}  # this round's, by slot
    for fact in facts:
        if fact not in instance:
            fresh[cache.intern(fact)] = fact
    inserted = len(fresh)
    added: dict[str, list[int]] = {}
    groundings: list[tuple[int, int, tuple[int, ...]]] = []
    append = groundings.append
    rounds = 0
    while fresh:
        delta_by_relation: dict[str, list[tuple[int, Fact]]] = {}
        for slot, fact in fresh.items():
            instance.add(fact)
            add_fact(fact, slot)
            delta_by_relation.setdefault(fact.relation, []).append((slot, fact))
        for relation, relation_delta in delta_by_relation.items():
            added.setdefault(relation, []).extend(map(_FIRST, relation_delta))
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(f"the chase exceeded {max_rounds} rounds")
        pending: dict[int, Fact] = {}
        for relation, relation_delta in delta_by_relation.items():
            for rule_position, plan, ground, body_of in plans.tgds.get(
                relation, ()
            ):
                for values, provenance in plan.rows_tracked(
                    cache, relation_delta, fresh
                ):
                    body = body_of(provenance)
                    head_fact = ground(values)
                    new = len(id_at)
                    head = intern(head_fact, new)
                    if head == new:  # first derived: a new slot and id
                        facts_by_id.append(head_fact)
                        slot_of.append(new)
                        id_at.append(new)
                        pending[head] = head_fact
                    else:
                        if head in body:
                            continue  # tautological; never a real derivation
                        if head not in pending and head_fact not in instance:
                            pending[head] = head_fact
                    append((rule_position, head, body))
        fresh = pending
    if stats is not None:
        stats["rounds"] = rounds
        stats["derived_facts"] = sum(map(len, added.values())) - inserted
    return added, groundings


# ------------------------------------------------------------ violations


def _one_fact_satisfies(egd: EGD) -> bool:
    """Whether a row matching one fact at both atoms of the two-atom body
    of ``egd`` always satisfies it: ``lhs`` and ``rhs`` stand at the same
    position of the two atoms (a key egd ``R(k, a), R(k, b) -> a = b``, or
    a symmetric one), so such a row reads both from one argument."""
    first, second = egd.body
    return first.relation == second.relation and any(
        {left, right} == {egd.lhs, egd.rhs}
        for left, right in zip(first.terms, second.terms)
    )


def find_violations_batch(egds: Sequence[EGD], cache: _IndexCache) -> list:
    """All grounded-egd violations over ``cache.instance``: one batch hash
    join per distinct egd body, probing the indexes of ``cache``, whose
    rows every egd of that body checks.  A two-atom body all of whose egds
    a single fact satisfies (:func:`_one_fact_satisfies`; the key egds)
    joins only pairs of distinct facts.

    Returns raw :class:`~repro.xr.exchange.Violation` objects including
    both orientations of symmetric egds; callers dedup through
    :func:`repro.xr.exchange.canonicalize_violations`.
    """
    by_body: dict[tuple[Atom, ...], list[EGD]] = {}
    for egd in egds:
        by_body.setdefault(egd.body, []).append(egd)
    violations = []
    for body, group in by_body.items():
        plan = _BodyPlan(cache.instance, body)
        if len(body) == 2 and all(map(_one_fact_satisfies, group)):
            rows = plan.rows_of_fact_pairs(cache)
        else:
            rows = plan.rows_hash(cache)
        if rows:
            for egd in group:
                violations += compile_violations(egd, plan.layout)(rows)
    return violations
