"""Set-at-a-time batch evaluation for the exchange phase.

The tuple-at-a-time evaluator (:mod:`repro.chase.gav`,
:mod:`repro.relational.queries`) walks one candidate fact at a time and
copies a binding dict per successful match.  This module replaces those
inner loops with **batch operators** over tuple rows:

- a binding is a plain ``tuple`` of values laid out by a fixed
  variable-to-slot assignment compiled per rule (no dicts, no copies);
- each join level is a compiled :class:`_AtomStep` probing a multi-column
  **hash index** over the relation extension — built once per
  (relation, key-positions) signature, shared across rules, and maintained
  incrementally as the chase derives new facts;
- constant filters and repeated-variable checks are folded into the index
  build, so they run once per stored fact instead of once per probe.

The hash join is the only execution mode: the semi-naive chase, grounding
enumeration and violation detection all run every rule or egd body
through it.  Grounding enumeration tracks the matched body facts through
the join; violation detection joins values only and instantiates the body
of the (few) violating rows.  Row order differs from the tuple path's;
the canonical sorting in :mod:`repro.xr.exchange` absorbs that.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.dependencies.egds import EGD
from repro.dependencies.tgds import TGD, SkolemTerm
from repro.relational.instance import Fact, Instance
from repro.relational.queries import Atom, plan_join_order
from repro.relational.terms import Const, SkolemValue, Variable, is_constant_value


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
    row slots they must equal (bound variables, including a variable bound
    twice within this atom); ``const_checks`` and ``same_checks`` are
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

    def __init__(self, atom: Atom, layout: dict[Variable, int]) -> None:
        self.relation = atom.relation
        key_positions: list[int] = []
        key_slots: list[int] = []
        const_checks: list[tuple[int, Any]] = []
        same_checks: list[tuple[int, int]] = []
        new_positions: list[int] = []
        first_here: dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                slot = layout.get(term)
                if slot is not None:
                    key_positions.append(position)
                    key_slots.append(slot)
                elif term in first_here:
                    same_checks.append((first_here[term], position))
                else:
                    first_here[term] = position
                    new_positions.append(position)
            elif isinstance(term, Const):
                const_checks.append((position, term.value))
            else:
                raise TypeError(f"unexpected body term {term!r}")
        for variable, position in first_here.items():
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


class _IndexCache:
    """Hash indexes over one instance, maintained incrementally.

    Keyed by step *signature* (relation, key positions, folded filters,
    projection): plans that join the same relation the same way — e.g.
    the two self-join atoms of every key egd over one relation — share a
    single index.  Each index is built exactly once from the extension
    and then extended fact-by-fact as the chase derives new rows
    (:meth:`add_fact`).
    """

    __slots__ = ("instance", "_by_signature", "_by_relation")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._by_signature: dict[tuple, dict] = {}
        self._by_relation: dict[str, list[tuple[_AtomStep, dict]]] = {}

    def index_for(self, step: _AtomStep) -> dict[Any, list[tuple]]:
        index = self._by_signature.get(step.signature)
        if index is None:
            index = {}
            admit = step.admit
            for fact in self.instance.facts_of(step.relation):
                entry = admit(fact)
                if entry is not None:
                    index.setdefault(entry[0], []).append((entry[1], fact))
            self._by_signature[step.signature] = index
            self._by_relation.setdefault(step.relation, []).append(
                (step, index)
            )
        return index

    def add_fact(self, fact: Fact) -> None:
        for step, index in self._by_relation.get(fact.relation, ()):
            entry = step.admit(fact)
            if entry is not None:
                index.setdefault(entry[0], []).append((entry[1], fact))


def _probe(
    step: _AtomStep, index: dict[Any, list[tuple]], rows: list[tuple]
) -> list[tuple]:
    key_of_row = step.key_of_row
    out: list[tuple] = []
    append = out.append
    get = index.get
    for row in rows:
        bucket = get(key_of_row(row))
        if bucket:
            for extension, _fact in bucket:
                append(row + extension)
    return out


def _probe_tracked(
    step: _AtomStep,
    index: dict[Any, list[tuple]],
    rows: list[tuple[tuple, tuple]],
) -> list[tuple[tuple, tuple]]:
    """Like :func:`_probe`, but rows are ``(values, provenance facts)``.

    Provenance rows let grounding enumeration emit the matched body facts
    without re-instantiating them by substitution — the contributing
    stored fact rides along with every probe extension.
    """
    key_of_row = step.key_of_row
    out: list[tuple[tuple, tuple]] = []
    append = out.append
    get = index.get
    for values, facts in rows:
        bucket = get(key_of_row(values))
        if bucket:
            for extension, fact in bucket:
                append((values + extension, facts + (fact,)))
    return out


_VAR, _CONST, _SKOLEM = 0, 1, 2


def compile_slot_head(
    rule: TGD, layout: dict[Variable, int]
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
    atom: Atom, layout: dict[Variable, int]
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


# ------------------------------------------------------------- full-body join


class _BodyPlan:
    """A compiled full-body join: every atom is a probe step.

    Rows start as the empty tuple and grow one atom at a time in the
    planned order; the slot layout is the first-occurrence order of the
    variables along that order.
    """

    __slots__ = ("steps", "layout", "body_order")

    def __init__(self, instance: Instance, atoms: Sequence[Atom]) -> None:
        original = list(atoms)
        ordered = list(plan_join_order(instance, original, set()))
        # Recover each planned atom's original position (by object
        # identity — a body may contain equal atoms twice), so provenance
        # tuples in join order can be reordered back to body order.
        join_to_body: list[int] = []
        taken: set[int] = set()
        for atom in ordered:
            for index, candidate in enumerate(original):
                if index not in taken and candidate is atom:
                    taken.add(index)
                    join_to_body.append(index)
                    break
        inverse = [0] * len(original)
        for join_position, body_index in enumerate(join_to_body):
            inverse[body_index] = join_position
        self.body_order = tuple(inverse)
        self.layout: dict[Variable, int] = {}
        self.steps = [_AtomStep(atom, self.layout) for atom in ordered]

    def rows_hash(self, cache: _IndexCache) -> list[tuple]:
        rows: list[tuple] = [()]
        for step in self.steps:
            rows = _probe(step, cache.index_for(step), rows)
            if not rows:
                return rows
        return rows

    def rows_hash_tracked(
        self, cache: _IndexCache
    ) -> list[tuple[tuple, tuple]]:
        """Hash-join rows with the matched facts riding along.

        Each result is ``(values, facts-in-join-order)``; reorder the
        facts through :attr:`body_order` to recover the body-order tuple.
        """
        rows: list[tuple[tuple, tuple]] = [((), ())]
        for step in self.steps:
            rows = _probe_tracked(step, cache.index_for(step), rows)
            if not rows:
                return rows
        return rows


# -------------------------------------------------------------------- chase


class _PivotPlan:
    """One (rule, pivot-position) batch plan for the semi-naive chase.

    The pivot atom seeds rows directly from delta facts; the remaining
    atoms are probe steps against the (round-stable) work instance.
    """

    __slots__ = ("rule", "pivot", "steps", "ground", "layout")

    def __init__(self, instance: Instance, rule: TGD, position: int) -> None:
        self.rule = rule
        self.pivot = rule.body[position]
        self.layout: dict[Variable, int] = {}
        seed_step = _AtomStep(self.pivot, self.layout)
        rest = [a for i, a in enumerate(rule.body) if i != position]
        ordered = plan_join_order(instance, rest, set(self.layout))
        self.steps = [seed_step] + [
            _AtomStep(atom, self.layout) for atom in ordered
        ]
        self.ground = compile_slot_head(rule, self.layout)

    def seed_rows(self, facts: Iterable[Fact]) -> list[tuple]:
        admit = self.steps[0].admit
        rows = []
        for fact in facts:
            entry = admit(fact)
            if entry is not None:
                rows.append(entry[1])
        return rows


def batch_chase(
    instance: Instance,
    rules: Sequence[TGD],
    max_rounds: int = 1_000_000,
    stats: dict[str, int] | None = None,
) -> Instance:
    """Strict-round semi-naive fixpoint, evaluated set-at-a-time.

    Bit-identical to :func:`repro.chase.gav.gav_chase` (same fixpoint,
    same ``rounds``/``derived_facts`` counters): both use strict rounds,
    so the per-round derivation set is a pure function of the (work,
    delta) sets and the evaluation strategy cannot be observed.
    """
    from repro.chase.gav import _check_rules

    _check_rules(rules)
    work = instance.copy()
    cache = _IndexCache(work)
    by_relation: dict[str, list[_PivotPlan]] = {}
    for rule in rules:
        for position in range(len(rule.body)):
            plan = _PivotPlan(work, rule, position)
            by_relation.setdefault(plan.pivot.relation, []).append(plan)

    delta = list(instance)
    rounds = 0
    while delta:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(f"batch_chase exceeded {max_rounds} rounds")
        delta_by_relation: dict[str, list[Fact]] = {}
        for fact in delta:
            delta_by_relation.setdefault(fact.relation, []).append(fact)
        pending: set[Fact] = set()
        for relation, facts in delta_by_relation.items():
            for plan in by_relation.get(relation, ()):
                rows = plan.seed_rows(facts)
                for step in plan.steps[1:]:
                    if not rows:
                        break
                    rows = _probe(step, cache.index_for(step), rows)
                ground = plan.ground
                for row in rows:
                    head_fact = ground(row)
                    if head_fact not in work:
                        pending.add(head_fact)
        delta = list(pending)
        for head_fact in delta:
            work.add(head_fact)
            cache.add_fact(head_fact)
    if stats is not None:
        stats["rounds"] = rounds
        stats["derived_facts"] = len(work) - len(instance)
    return work


# ------------------------------------------------- groundings and violations


def enumerate_groundings_batch(
    rules: Iterable[TGD], instance: Instance
) -> Iterator[tuple[TGD, tuple[Fact, ...], Fact]]:
    """Batch equivalent of :func:`repro.chase.gav.enumerate_groundings`.

    Same dedup semantics — one grounding per distinct ``(body facts, head
    fact)`` pair per rule, tautological groundings (head in own body)
    dropped — but each rule body is one batch hash join instead of a
    per-binding nested loop.  The matched body facts come straight from
    the join's provenance (no re-instantiation by substitution).  Yield
    order within a rule follows the join, which is *not* the tuple path's
    order; callers canonicalize.
    """
    cache = _IndexCache(instance)
    for rule in rules:
        plan = _BodyPlan(instance, rule.body)
        ground = compile_slot_head(rule, plan.layout)
        body_of = _tuple_projector(plan.body_order)
        seen: set[tuple[tuple[Fact, ...], Fact]] = set()
        for values, provenance in plan.rows_hash_tracked(cache):
            body_facts = body_of(provenance)
            head_fact = ground(values)
            if head_fact in body_facts:
                continue
            key = (body_facts, head_fact)
            if key not in seen:
                seen.add(key)
                yield rule, body_facts, head_fact


def find_violations_batch(egds: Sequence[EGD], chased: Instance) -> list:
    """All grounded-egd violations, one batch hash join per egd.

    Returns raw :class:`~repro.xr.exchange.Violation` objects including
    both orientations of symmetric egds; callers dedup through
    :func:`repro.xr.exchange.canonicalize_violations`, exactly as the
    tuple path does.
    """
    from repro.xr.exchange import Violation

    cache = _IndexCache(chased)
    violations = []
    for egd in egds:
        plan = _BodyPlan(chased, egd.body)
        rows = plan.rows_hash(cache)
        if not rows:
            continue
        substituters = tuple(
            compile_slot_substituter(atom, plan.layout) for atom in egd.body
        )
        lhs_slot = plan.layout[egd.lhs]
        rhs_is_var = isinstance(egd.rhs, Variable)
        rhs_slot = plan.layout[egd.rhs] if rhs_is_var else None
        rhs_const = None if rhs_is_var else egd.rhs.value
        constants_only = egd.constants_only
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
