"""Facts and instances.

An instance is identified with its (finite) set of facts, per Section 2 of
the paper.  The implementation keeps a per-relation extension plus lazily
built hash indexes on ``(relation, position)`` for the index nested-loop
joins of :func:`~repro.relational.queries.match_atoms`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.relational.terms import is_null_value, value_order


class Fact:
    """A fact ``R(a1, ..., ak)``: a relation name and a tuple of values.

    Values are raw Python objects (see :mod:`repro.relational.terms`):
    constants are plain hashables, nulls are :class:`~repro.relational.terms.Null`,
    skolem values are :class:`~repro.relational.terms.SkolemValue`.
    """

    __slots__ = ("relation", "args", "_hash")

    def __init__(self, relation: str, args: Iterable[Hashable]):
        self.relation = relation
        self.args = tuple(args)
        self._hash = hash((relation, self.args))

    def __repr__(self) -> str:
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.relation}({inner})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Fact)
            and self._hash == other._hash
            and self.relation == other.relation
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so _hash is recomputed on unpickle:
        # str hashes are salted per interpreter, so a pickled hash would be
        # stale in a spawn-started worker process.
        return (Fact, (self.relation, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def has_nulls(self) -> bool:
        """True if any argument is a labelled null or skolem value."""
        return any(is_null_value(a) for a in self.args)


def fact_order(fact: Fact) -> tuple:
    """A sort key putting facts in one total, hash-seed-free order:
    by relation name, then argument by argument under
    :func:`~repro.relational.terms.value_order`."""
    return (fact.relation, tuple(map(value_order, fact.args)))


_ARGS = attrgetter("args")
#: Column type sets whose values compare natively as their
#: :func:`value_order` keys do (one rank each, no NaN from the parser).
_NATIVE_COLUMNS = (frozenset({str}), frozenset({int, float, bool}))


def _native(rows: list[tuple]) -> bool:
    """True iff the argument tuples ``rows`` (one relation's) have one
    arity and each column holds only strings or only numbers, so they
    order natively as their :func:`fact_order` keys do."""
    if len(set(map(len, rows))) > 1:
        return False
    for column in zip(*rows):
        kinds = set(map(type, column))
        if not any(kinds <= native for native in _NATIVE_COLUMNS):
            return False
    return True


def fact_order_argsort(facts: Sequence[Fact]) -> list[int]:
    """The positions of ``facts``, distinct facts of one relation, in
    :func:`fact_order`.

    Facts whose columns each hold only strings or only numbers (every
    relation of a TPC-H exchange) sort on their raw argument tuples,
    which order like their keys without building any; others sort on
    :func:`fact_order`.
    """
    keys = list(map(_ARGS, facts))
    if not _native(keys):
        keys = list(map(fact_order, facts))
    return sorted(range(len(keys)), key=keys.__getitem__)


class Instance:
    """A finite database instance: a set of facts with join indexes.

    Supports the set-of-facts view used throughout the paper (sub-instances
    are subsets, restriction keeps only some relations) and provides indexed
    lookups for evaluation:

    - ``facts_of(R)`` — the extension of relation ``R``;
    - ``lookup(R, pos, value)`` — all ``R``-facts with ``value`` at ``pos``.

    Indexes are built lazily on first use and invalidated on mutation of the
    corresponding relation.
    """

    __slots__ = ("_extensions", "_indexes", "_size")

    def __init__(self, facts: Iterable[Fact] = ()):
        self._extensions: dict[str, set[Fact]] = {}
        # (relation, position) -> value -> list[Fact]
        self._indexes: dict[tuple[str, int], dict[Any, list[Fact]]] = {}
        self._size = 0
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------- mutation

    def add(self, fact: Fact) -> bool:
        """Add a fact; returns True if it was not already present."""
        ext = self._extensions.get(fact.relation)
        if ext is None:
            ext = set()
            self._extensions[fact.relation] = ext
        size = len(ext)
        ext.add(fact)  # one hash: a fact already present leaves the size
        if len(ext) == size:
            return False
        self._size += 1
        if self._indexes:  # only the nested-loop lookup() builds them
            for pos in range(len(fact.args)):
                index = self._indexes.get((fact.relation, pos))
                if index is not None:
                    index.setdefault(fact.args[pos], []).append(fact)
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Add many facts; returns the number actually added."""
        return sum(1 for fact in facts if self.add(fact))

    def discard(self, fact: Fact) -> bool:
        """Remove a fact if present; returns True if it was present."""
        ext = self._extensions.get(fact.relation)
        if ext is None or fact not in ext:
            return False
        ext.remove(fact)
        self._size -= 1
        # Drop affected indexes rather than surgically removing entries.
        if self._indexes:
            for pos in range(len(fact.args)):
                self._indexes.pop((fact.relation, pos), None)
        return True

    # -------------------------------------------------------------- queries

    def __contains__(self, fact: Fact) -> bool:
        ext = self._extensions.get(fact.relation)
        return ext is not None and fact in ext

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Fact]:
        for ext in self._extensions.values():
            yield from ext

    def __bool__(self) -> bool:
        return self._size > 0

    def facts_of(self, relation: str) -> set[Fact]:
        """The extension of ``relation`` (a live set; do not mutate)."""
        return self._extensions.get(relation, set())

    def relations(self) -> set[str]:
        """Names of relations with at least one fact."""
        return {name for name, ext in self._extensions.items() if ext}

    def lookup(self, relation: str, position: int, value: Any) -> list[Fact]:
        """All facts of ``relation`` with ``value`` at ``position`` (indexed)."""
        key = (relation, position)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for fact in self._extensions.get(relation, ()):
                index.setdefault(fact.args[position], []).append(fact)
            self._indexes[key] = index
        return index.get(value, [])

    def active_domain(self) -> set[Any]:
        """All values occurring in facts of this instance."""
        domain: set[Any] = set()
        for fact in self:
            domain.update(fact.args)
        return domain

    # ------------------------------------------------------ set-like algebra

    def copy(self) -> "Instance":
        return Instance(self)

    def restrict(self, relation_names: Iterable[str]) -> "Instance":
        """The sub-instance containing only facts over the given relations."""
        wanted = set(relation_names)
        out = Instance()
        for name in wanted:
            out.add_all(self._extensions.get(name, ()))
        return out

    def union(self, other: "Instance") -> "Instance":
        out = self.copy()
        out.add_all(other)
        return out

    def difference(self, other: "Instance") -> "Instance":
        return Instance(fact for fact in self if fact not in other)

    def intersection(self, other: "Instance") -> "Instance":
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return Instance(fact for fact in small if fact in large)

    def issubset(self, other: "Instance") -> bool:
        return all(fact in other for fact in self)

    def as_frozenset(self) -> frozenset[Fact]:
        return frozenset(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return len(self) == len(other) and self.issubset(other)

    def __repr__(self) -> str:
        if self._size <= 8:
            inner = ", ".join(sorted(repr(f) for f in self))
            return f"Instance({{{inner}}})"
        return f"Instance(<{self._size} facts over {len(self.relations())} relations>)"
