"""Terms and values.

The paper fixes two disjoint infinite sets: ``Const`` (constants) and
``Nulls`` (labelled nulls).  Instances range over ``Const ∪ Nulls``; source
instances contain no nulls.  Queries and dependencies additionally use
first-order *variables*.

This module represents all three, plus *skolem values* — ground terms of the
form ``f(v1, ..., vk)`` that the GLAV-to-GAV reduction (Theorem 1) uses to
stand for the labelled nulls created by the chase.  From the point of view of
a GAV chase, a skolem value behaves like an ordinary value (it can be joined
on and indexed), but like a null it can be equated with other values without
causing an equality-generating dependency to fail.

Design notes
------------
Values stored inside facts are plain Python objects:

- a constant is any hashable, non-``Null``/non-``SkolemValue`` object
  (typically ``str`` or ``int``);
- a null is a :class:`Null` instance;
- a skolem value is a :class:`SkolemValue` instance.

Representing constants as raw Python values keeps instances compact and fast
to hash, which matters for the chase and the grounder.  :class:`Const` exists
for contexts that need an explicit term object (query atoms, dependency
atoms), where a raw string would be ambiguous with a variable name.
"""

from __future__ import annotations

import itertools
from typing import Any, Hashable


class Variable:
    """A first-order variable, used in queries and dependencies.

    Variables are compared by name: two ``Variable("x")`` objects are equal.
    The hash is computed once: variables serve as binding-dict keys in the
    innermost loops of the chase and the grounder.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("var", name))

    def __repr__(self) -> str:
        return f"?{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so _hash is recomputed on unpickle
        # (str hashes are salted per interpreter; see Fact.__reduce__).
        return (Variable, (self.name,))


class Const:
    """An explicit constant term wrapping a raw Python value.

    Used in atoms (query bodies, dependency bodies/heads) to distinguish the
    constant ``"a"`` from the variable ``a``.  Inside instances, the *raw*
    value is stored, not the wrapper.
    """

    __slots__ = ("value",)

    def __init__(self, value: Hashable):
        self.value = value

    def __repr__(self) -> str:
        return f"{self.value!r}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("const", self.value))


class Null:
    """A labelled null, created by the chase for existential variables.

    Nulls are compared by identity of their label.  Use :func:`fresh_null`
    to create a globally fresh one.
    """

    __slots__ = ("label", "_hash")

    def __init__(self, label: int | str):
        self.label = label
        self._hash = hash(("null", label))

    def __repr__(self) -> str:
        return f"N{self.label}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null) and self.label == other.label

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so _hash is recomputed on unpickle.
        return (Null, (self.label,))


class SkolemValue:
    """A ground skolem term ``f(v1, ..., vk)``.

    Produced by the GLAV-to-GAV reduction: each existential variable ``y`` of
    a tgd ``σ`` gives rise to a skolem function ``f_{σ,y}`` applied to the
    frontier (universally quantified, exported) variables of ``σ``.  Skolem
    values are hashable and can be nested (weak acyclicity bounds the nesting
    depth).
    """

    __slots__ = ("function", "args", "_hash", "_order")

    def __init__(self, function: str, args: tuple[Any, ...]):
        self.function = function
        self.args = args
        self._hash = hash(("skolem", function, args))
        self._order: tuple | None = None  # value_order's key, once built

    def __repr__(self) -> str:
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.function}({inner})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkolemValue)
            and self._hash == other._hash
            and self.function == other.function
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so _hash is recomputed on unpickle
        # (str hashes are salted per interpreter; see Fact.__reduce__).
        return (SkolemValue, (self.function, self.args))

    def depth(self) -> int:
        """Nesting depth of this skolem term (a flat term has depth 1)."""
        inner = 0
        for arg in self.args:
            if isinstance(arg, SkolemValue):
                inner = max(inner, arg.depth())
        return 1 + inner


_null_counter = itertools.count(1)


def fresh_null() -> Null:
    """Return a globally fresh labelled null."""
    return Null(next(_null_counter))


def reset_null_counter() -> None:
    """Reset the fresh-null counter (for reproducible tests only)."""
    global _null_counter
    _null_counter = itertools.count(1)


def is_null_value(value: Any) -> bool:
    """True if ``value`` is a labelled null or a skolem value.

    Both kinds of value may be equated with anything by an egd without
    causing a chase failure; only two distinct *constants* clash.
    """
    return isinstance(value, (Null, SkolemValue))


def value_order(value: Any) -> tuple:
    """A sort key giving every value a place in one total order.

    Strings come first, then numbers (``int``, ``float`` and ``bool``
    compare by value), then nulls by label, then skolem values by
    function name and argument keys, recursively; equal values get
    equal keys.  Unlike ``repr`` order it costs no string building, and
    unlike hash order it is the same in every interpreter.  Constants of
    any other type, which no parser produces, go last, by type name and
    ``repr``.
    """
    if isinstance(value, str):
        return (0, value)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, Null):
        return (2, value_order(value.label))
    if isinstance(value, SkolemValue):
        # Nested terms share their inner values: build each key once.
        if value._order is None:
            value._order = (3, value.function, tuple(map(value_order, value.args)))
        return value._order
    return (4, type(value).__qualname__, repr(value))


#: The types of the values that are not constants (no subclasses exist).
NULL_TYPES = frozenset({Null, SkolemValue})


def is_constant_value(value: Any) -> bool:
    """True if ``value`` is a constant (i.e. not a null or skolem value)."""
    return not isinstance(value, (Null, SkolemValue))
