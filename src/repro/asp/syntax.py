"""Rule syntax and ground program representation for the DLP solver.

Non-ground rules reuse the relational :class:`~repro.relational.queries.Atom`
vocabulary; ground programs intern ground atoms (facts) to integer ids so the
solver can work with machine integers.

A rule has the shape::

    α1 ∨ ... ∨ αn ← β1, ..., βm, ¬γ1, ..., ¬γk, c1, ..., cj.

with atoms ``α, β, γ`` and builtin comparisons ``c`` (``t ≠ t'`` and the
``const(t)`` test used by the reduction's constants-only egds).  An empty
head is an integrity constraint.  Rules must be *safe*: every variable in
the head, in a negative literal, or in a comparison must occur in a positive
body atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.relational.instance import Fact
from repro.relational.queries import Atom
from repro.relational.terms import Const, Variable, is_constant_value

NEQ = "neq"
IS_CONST = "const"


@dataclass(frozen=True)
class Comparison:
    """A builtin literal: ``neq(left, right)`` or ``const(left)``."""

    op: str
    left: Variable | Const
    right: Variable | Const | None = None

    def __post_init__(self) -> None:
        if self.op not in (NEQ, IS_CONST):
            raise ValueError(f"unknown comparison op {self.op!r}")
        if self.op == NEQ and self.right is None:
            raise ValueError("neq needs two terms")

    def variables(self) -> set[Variable]:
        out = set()
        if isinstance(self.left, Variable):
            out.add(self.left)
        if isinstance(self.right, Variable):
            out.add(self.right)
        return out

    def holds(self, binding: dict[Variable, Any]) -> bool:
        left = binding[self.left] if isinstance(self.left, Variable) else self.left.value
        if self.op == IS_CONST:
            return is_constant_value(left)
        right = (
            binding[self.right] if isinstance(self.right, Variable) else self.right.value
        )
        return left != right

    def __repr__(self) -> str:
        if self.op == IS_CONST:
            return f"const({self.left!r})"
        return f"{self.left!r} != {self.right!r}"


class Rule:
    """A (possibly non-ground) disjunctive rule."""

    __slots__ = ("head", "body_pos", "body_neg", "comparisons", "label")

    def __init__(
        self,
        head: Sequence[Atom],
        body_pos: Sequence[Atom] = (),
        body_neg: Sequence[Atom] = (),
        comparisons: Sequence[Comparison] = (),
        label: str = "",
    ):
        self.head = tuple(head)
        self.body_pos = tuple(body_pos)
        self.body_neg = tuple(body_neg)
        self.comparisons = tuple(comparisons)
        self.label = label
        self._check_safety()

    def _check_safety(self) -> None:
        positive_vars: set[Variable] = set()
        for atom in self.body_pos:
            positive_vars |= atom.variables()
        needed: set[Variable] = set()
        for atom in self.head:
            needed |= atom.variables()
        for atom in self.body_neg:
            needed |= atom.variables()
        for comparison in self.comparisons:
            needed |= comparison.variables()
        unsafe = needed - positive_vars
        if unsafe:
            names = sorted(v.name for v in unsafe)
            raise ValueError(
                f"unsafe rule {self.label or self!r}: variables {names} "
                "do not occur in a positive body atom"
            )

    def is_constraint(self) -> bool:
        return not self.head

    def is_fact_rule(self) -> bool:
        return len(self.head) == 1 and not (
            self.body_pos or self.body_neg or self.comparisons
        )

    def __repr__(self) -> str:
        head = " | ".join(repr(a) for a in self.head) if self.head else "⊥"
        parts = [repr(a) for a in self.body_pos]
        parts.extend(f"not {a!r}" for a in self.body_neg)
        parts.extend(repr(c) for c in self.comparisons)
        if not parts:
            return f"{head}."
        return f"{head} :- {', '.join(parts)}."


class AtomTable:
    """Bidirectional mapping between ground atoms (facts) and 1-based ids."""

    __slots__ = ("_by_fact", "_by_id")

    def __init__(self) -> None:
        self._by_fact: dict[Fact, int] = {}
        self._by_id: list[Fact | None] = [None]  # index 0 unused

    def intern(self, fact: Fact) -> int:
        atom_id = self._by_fact.get(fact)
        if atom_id is None:
            atom_id = len(self._by_id)
            self._by_fact[fact] = atom_id
            self._by_id.append(fact)
        return atom_id

    def id_of(self, fact: Fact) -> int | None:
        return self._by_fact.get(fact)

    def fact_of(self, atom_id: int) -> Fact:
        if not 1 <= atom_id < len(self._by_id):
            raise KeyError(f"no atom with id {atom_id}")
        fact = self._by_id[atom_id]
        assert fact is not None
        return fact

    def __len__(self) -> int:
        return len(self._by_id) - 1

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._by_fact

    def ids(self) -> range:
        return range(1, len(self._by_id))


@dataclass(frozen=True, slots=True)
class GroundRule:
    """A ground rule over interned atom ids (head may be empty).

    Slotted: a family engine holds its program's rules for as long as it
    is kept, and a slotted instance is 40 bytes smaller.
    """

    head: tuple[int, ...]
    body_pos: tuple[int, ...] = ()
    body_neg: tuple[int, ...] = ()

    def is_fact(self) -> bool:
        return len(self.head) == 1 and not self.body_pos and not self.body_neg

    def is_constraint(self) -> bool:
        return not self.head

    def is_disjunctive(self) -> bool:
        return len(self.head) > 1


class GroundProgram:
    """A ground disjunctive program: an atom table plus ground rules."""

    __slots__ = ("atoms", "rules")

    def __init__(self, atoms: AtomTable | None = None, rules: Iterable[GroundRule] = ()):
        self.atoms = atoms if atoms is not None else AtomTable()
        self.rules: list[GroundRule] = list(rules)

    def add_rule(self, rule: GroundRule) -> None:
        self.rules.append(rule)

    def add_fact(self, fact: Fact) -> int:
        atom_id = self.atoms.intern(fact)
        self.rules.append(GroundRule(head=(atom_id,)))
        return atom_id

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[GroundRule]:
        return iter(self.rules)

    def decode(self, atom_ids: Iterable[int]) -> set[Fact]:
        """Translate a set of atom ids back to facts."""
        return {self.atoms.fact_of(atom_id) for atom_id in atom_ids}

    def statistics(self) -> dict[str, int]:
        disjunctive = sum(1 for rule in self.rules if rule.is_disjunctive())
        constraints = sum(1 for rule in self.rules if rule.is_constraint())
        facts = sum(1 for rule in self.rules if rule.is_fact())
        return {
            "atoms": self.num_atoms,
            "rules": len(self.rules),
            "facts": facts,
            "disjunctive_rules": disjunctive,
            "constraints": constraints,
        }
