"""Conjunctive queries, unions of conjunctive queries, and their evaluation.

Evaluation is a backtracking index nested-loop join: at every step the atom
with the most bound variables (and the smallest candidate set) is expanded
next, using the instance's hash indexes.  This matcher serves the standard
chase, :func:`evaluate`, and the nested-loop reference exchange of
:mod:`repro.chase.gav`; the pipeline's own joins run on the hash operators
of :mod:`repro.chase.batch`, which share :func:`plan_join_order`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.relational.instance import Fact, Instance
from repro.relational.terms import Const, Variable, is_constant_value

Term = Any  # Variable | Const | SkolemTerm (dependencies.skolem)


class Atom:
    """A relational atom ``R(t1, ..., tk)`` with variable/constant terms."""

    __slots__ = ("relation", "terms", "_hash")

    def __init__(self, relation: str, terms: Iterable[Term]):
        self.relation = relation
        self.terms = tuple(terms)
        self._hash = hash((relation, self.terms))

    def __repr__(self) -> str:
        inner = ",".join(repr(t) for t in self.terms)
        return f"{self.relation}({inner})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self._hash == other._hash
            and self.relation == other.relation
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> set[Variable]:
        return {t for t in self.terms if isinstance(t, Variable)}

    def substitute(self, binding: dict[Variable, Any]) -> Fact:
        """Instantiate this atom into a fact under a total binding."""
        args = []
        for term in self.terms:
            if isinstance(term, Variable):
                args.append(binding[term])
            elif isinstance(term, Const):
                args.append(term.value)
            else:
                raise TypeError(f"cannot ground term {term!r}")
        return Fact(self.relation, args)


class _AtomMatcher:
    """One join level, compiled for a fixed set of already-bound variables.

    Compilation classifies every term position once — the indexed probe,
    required-value checks (constants and bound variables), equality joins
    between repeated fresh variables, and the positions each fresh variable
    binds — so the per-fact loop is plain tuple indexing with no isinstance
    dispatch and no dict copy on failure.
    """

    __slots__ = (
        "relation", "arity", "probe_pos", "probe_const", "probe_var",
        "const_checks", "var_checks", "same", "binders",
    )

    def __init__(self, atom: Atom, bound_vars: set[Variable]):
        self.relation = atom.relation
        self.arity = len(atom.terms)
        # Indexed probe: first position holding a constant or bound variable.
        self.probe_pos = -1
        self.probe_const: Any = None
        self.probe_var: Variable | None = None
        self.const_checks: list[tuple[int, Any]] = []
        self.var_checks: list[tuple[int, Variable]] = []
        self.same: list[tuple[int, int]] = []  # position == earlier position
        self.binders: list[tuple[Variable, int]] = []  # fresh var <- position
        first_of: dict[Variable, int] = {}
        for pos, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term in bound_vars:
                    if self.probe_pos < 0:
                        self.probe_pos, self.probe_var = pos, term
                    else:
                        self.var_checks.append((pos, term))
                else:
                    earlier = first_of.get(term)
                    if earlier is None:
                        first_of[term] = pos
                        self.binders.append((term, pos))
                    else:
                        self.same.append((pos, earlier))
            elif isinstance(term, Const):
                if self.probe_pos < 0:
                    self.probe_pos, self.probe_const = pos, term.value
                else:
                    self.const_checks.append((pos, term.value))
            else:
                raise TypeError(f"unexpected term in body atom: {term!r}")

    def matches(
        self, instance: Instance, binding: dict[Variable, Any]
    ) -> Iterator[dict[Variable, Any]]:
        """Yield extensions of ``binding`` matching the atom in ``instance``.

        ``binding`` must bind (at least) the ``bound_vars`` the matcher was
        compiled for, and no other variable of the atom.
        """
        if self.probe_var is not None:
            candidates: Iterable[Fact] = instance.lookup(
                self.relation, self.probe_pos, binding[self.probe_var]
            )
        elif self.probe_pos >= 0:
            candidates = instance.lookup(
                self.relation, self.probe_pos, self.probe_const
            )
        else:
            candidates = instance.facts_of(self.relation)
        # The index lookup guarantees equality at the probe position.
        checks = self.const_checks
        if self.var_checks:
            checks = checks + [(pos, binding[var]) for pos, var in self.var_checks]
        arity = self.arity
        same = self.same
        binders = self.binders
        for fact in candidates:
            args = fact.args
            if len(args) != arity:
                continue
            matched = True
            for pos, required in checks:
                if args[pos] != required:
                    matched = False
                    break
            if not matched:
                continue
            for pos, earlier in same:
                if args[pos] != args[earlier]:
                    matched = False
                    break
            if not matched:
                continue
            local = dict(binding)
            for var, pos in binders:
                local[var] = args[pos]
            yield local


class CompiledJoin:
    """A planned, compiled index nested-loop join.

    Compile once per (atom list, bound-variable set), then run
    :meth:`bindings` for every seed binding with exactly that key set —
    the reference chase does this per (rule, pivot-atom) across all
    rounds, instead of re-planning and re-classifying terms per fact.
    """

    __slots__ = ("matchers",)

    def __init__(
        self,
        instance: Instance,
        atoms: Sequence[Atom],
        bound_vars: set[Variable],
    ):
        order = plan_join_order(instance, atoms, set(bound_vars))
        bound = set(bound_vars)
        self.matchers: list[_AtomMatcher] = []
        for atom in order:
            self.matchers.append(_AtomMatcher(atom, bound))
            bound |= atom.variables()

    def bindings(
        self, instance: Instance, binding: dict[Variable, Any]
    ) -> Iterator[dict[Variable, Any]]:
        """All extensions of ``binding`` satisfying every atom (explicit
        backtracking stack, no recursion)."""
        matchers = self.matchers
        if not matchers:
            yield dict(binding)
            return
        depth = len(matchers)
        stack: list[Iterator[dict[Variable, Any]]] = [
            matchers[0].matches(instance, binding)
        ]
        while stack:
            extended = next(stack[-1], None)
            if extended is None:
                stack.pop()
                continue
            if len(stack) == depth:
                yield extended
            else:
                stack.append(matchers[len(stack)].matches(instance, extended))


def plan_join_order(
    instance: Instance,
    atoms: Sequence[Atom],
    bound_vars: set[Variable],
) -> list[Atom]:
    """Greedy join order: most bound/constant terms first, small relations
    breaking ties.  The order depends only on *which* variables are bound,
    never on their values, so one plan serves the whole enumeration.
    """
    remaining = list(atoms)
    sizes = {
        atom.relation: len(instance.facts_of(atom.relation)) for atom in atoms
    }
    bound = set(bound_vars)
    order: list[Atom] = []
    while remaining:
        best_index = 0
        best_key: tuple[int, int] | None = None
        for index, atom in enumerate(remaining):
            bound_terms = sum(
                1
                for t in atom.terms
                if isinstance(t, Const) or (isinstance(t, Variable) and t in bound)
            )
            key = (-bound_terms, sizes[atom.relation])
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        chosen = remaining.pop(best_index)
        order.append(chosen)
        bound |= chosen.variables()
    return order


def match_atoms(
    instance: Instance,
    atoms: Sequence[Atom],
    binding: dict[Variable, Any] | None = None,
) -> Iterator[dict[Variable, Any]]:
    """Yield all bindings satisfying every atom in ``atoms`` over ``instance``.

    Index nested-loop join along a greedily planned atom order, with an
    explicit backtracking stack (no recursion, no per-level re-sorting).
    """
    if binding is None:
        binding = {}
    if not atoms:
        yield dict(binding)
        return
    join = CompiledJoin(instance, atoms, set(binding))
    yield from join.bindings(instance, binding)


class ConjunctiveQuery:
    """A conjunctive query ``q(x) :- A1, ..., An [, s != t, ...]``.

    ``head_vars`` lists the answer variables (possibly empty, for a Boolean
    query).  Optional ``inequalities`` are pairs of terms required to be
    distinct — used internally by dependency machinery; plain paper queries
    have none.
    """

    __slots__ = ("name", "head_vars", "body", "inequalities")

    def __init__(
        self,
        head_vars: Sequence[Variable],
        body: Sequence[Atom],
        inequalities: Sequence[tuple[Term, Term]] = (),
        name: str = "q",
    ):
        self.name = name
        self.head_vars = tuple(head_vars)
        self.body = tuple(body)
        self.inequalities = tuple(inequalities)
        body_vars = set().union(*(a.variables() for a in body)) if body else set()
        missing = [v for v in self.head_vars if v not in body_vars]
        if missing:
            raise ValueError(f"unsafe query: head variables {missing} not in body")

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for atom in self.body:
            out |= atom.variables()
        return out

    def is_boolean(self) -> bool:
        return not self.head_vars

    def __repr__(self) -> str:
        head = ",".join(v.name for v in self.head_vars)
        body = ", ".join(repr(a) for a in self.body)
        return f"{self.name}({head}) :- {body}"


class UnionOfConjunctiveQueries:
    """A union of conjunctive queries with a shared head signature."""

    __slots__ = ("name", "disjuncts")

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery], name: str = "q"):
        if not disjuncts:
            raise ValueError("a UCQ needs at least one disjunct")
        widths = {len(d.head_vars) for d in disjuncts}
        if len(widths) != 1:
            raise ValueError(f"disjuncts disagree on head width: {widths}")
        self.name = name
        self.disjuncts = tuple(disjuncts)

    @property
    def head_width(self) -> int:
        return len(self.disjuncts[0].head_vars)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def __repr__(self) -> str:
        return " ∨ ".join(repr(d) for d in self.disjuncts)


def _binding_satisfies_inequalities(
    cq: ConjunctiveQuery, binding: dict[Variable, Any]
) -> bool:
    for left, right in cq.inequalities:
        lval = binding[left] if isinstance(left, Variable) else left.value
        rval = binding[right] if isinstance(right, Variable) else right.value
        if lval == rval:
            return False
    return True


def evaluate(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries, instance: Instance
) -> set[tuple]:
    """All answers ``q(I)`` of ``query`` on ``instance`` (tuples of values)."""
    if isinstance(query, UnionOfConjunctiveQueries):
        answers: set[tuple] = set()
        for disjunct in query:
            answers |= evaluate(disjunct, instance)
        return answers

    answers = set()
    for binding in match_atoms(instance, query.body):
        if not _binding_satisfies_inequalities(query, binding):
            continue
        answers.add(tuple(binding[v] for v in query.head_vars))
    return answers


def evaluate_constants_only(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries, instance: Instance
) -> set[tuple]:
    """The null-free answers ``q↓(I)``: answers whose values are all constants."""
    return {
        row
        for row in evaluate(query, instance)
        if all(is_constant_value(v) for v in row)
    }
