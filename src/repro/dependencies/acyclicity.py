"""Weak acyclicity (Fagin, Kolaitis, Miller, Popa 2005).

A set of tgds is weakly acyclic when its *position graph* has no cycle
through a special edge.  The nodes of the position graph are the positions
``(R, i)`` of the relations mentioned by the tgds.  For each tgd
``φ(x) → ∃y ψ(x, y)``, each universally quantified variable ``x`` occurring
in ``φ`` at position ``(R, i)`` and in ``ψ`` at position ``(S, j)``
contributes a regular edge ``(R, i) → (S, j)``; and for each existential
variable ``y`` occurring in ``ψ`` at position ``(S, j)``, a *special* edge
``(R, i) → (S, j)``.

Weak acyclicity guarantees termination of the chase in polynomially many
steps, and bounds the nesting depth of skolem values in the skolemized
chase — the property the Theorem 1 reduction relies on.  Both checks run
on the SCCs of the position graph, from the in-repo Tarjan of
:mod:`repro.graphs`.
"""

from __future__ import annotations

from typing import Iterable

from repro.dependencies.tgds import TGD, SkolemTerm
from repro.graphs import tarjan_scc
from repro.relational.terms import Variable

REGULAR = "regular"
SPECIAL = "special"

Position = tuple[str, int]
#: ``{position: {successor: kind}}``, every position a key.
PositionGraph = dict[Position, dict[Position, str]]


def position_graph(tgds: Iterable[TGD]) -> PositionGraph:
    """Build the position graph of a set of tgds.

    Each edge's kind is either ``"regular"`` or ``"special"``; between the
    same two positions a special edge wins over a regular one (both checks
    below only ask whether a special edge exists).  Skolem terms in heads
    are treated like the existential variables they stand for (their
    argument positions emit special edges).
    """
    graph: PositionGraph = {}

    def add_edge(src: Position, dst: Position, kind: str) -> None:
        successors = graph[src]
        if successors.get(dst) != SPECIAL:
            successors[dst] = kind

    for tgd in tgds:
        body_positions: dict[Variable, list[Position]] = {}
        for atom in tgd.body:
            for pos, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    body_positions.setdefault(term, []).append((atom.relation, pos))
                    graph.setdefault((atom.relation, pos), {})

        for atom in tgd.head:
            for pos, term in enumerate(atom.terms):
                dst = (atom.relation, pos)
                graph.setdefault(dst, {})
                if isinstance(term, Variable):
                    if term in tgd.existential:
                        # Special edge from every body position of every
                        # frontier variable of the tgd.
                        for frontier_var in tgd.frontier:
                            for src in body_positions.get(frontier_var, ()):
                                add_edge(src, dst, SPECIAL)
                    else:
                        for src in body_positions.get(term, ()):
                            add_edge(src, dst, REGULAR)
                elif isinstance(term, SkolemTerm):
                    for arg in term.args:
                        if isinstance(arg, Variable):
                            for src in body_positions.get(arg, ()):
                                add_edge(src, dst, SPECIAL)
    return graph


def _components(graph: PositionGraph) -> tuple[list[list[Position]], dict]:
    """The SCCs of ``graph``, successors first, and each position's
    component index."""
    components = tarjan_scc({node: list(succ) for node, succ in graph.items()})
    component_of = {
        node: index for index, component in enumerate(components) for node in component
    }
    return components, component_of


def is_weakly_acyclic(tgds: Iterable[TGD]) -> bool:
    """True if the set of tgds is weakly acyclic.

    A special edge inside a strongly connected component of the position
    graph witnesses a cycle through a special edge.
    """
    graph = position_graph(tgds)
    _, component_of = _components(graph)
    return not any(
        kind == SPECIAL and component_of[src] == component_of[dst]
        for src, successors in graph.items()
        for dst, kind in successors.items()
    )


def existential_rank(tgds: Iterable[TGD]) -> dict[Position, int]:
    """The *rank* of each position: the maximum number of special edges on
    any path of the position graph reaching it.

    Finite for weakly acyclic sets; it bounds how deeply nulls created at a
    position can depend on other nulls (and hence skolem nesting depth).
    Raises ``ValueError`` when the set is not weakly acyclic.
    """
    graph = position_graph(tgds)
    components, component_of = _components(graph)

    # Longest path counting special edges, over the SCCs in topological
    # order (Tarjan's reversed).  Edges inside an SCC add nothing, unless
    # one is special: then the set is not weakly acyclic.
    rank = [0] * len(components)
    for index in range(len(components) - 1, -1, -1):
        for node in components[index]:
            for successor, kind in graph[node].items():
                target = component_of[successor]
                if target == index:
                    if kind == SPECIAL:
                        raise ValueError(
                            "existential rank is undefined: not weakly acyclic"
                        )
                    continue
                reached = rank[index] + (kind == SPECIAL)
                if reached > rank[target]:
                    rank[target] = reached
    return {pos: rank[component_of[pos]] for pos in graph}
