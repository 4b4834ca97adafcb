"""Brute-force stable models: the reference the solver tests check against.

Enumerates every subset of a small atom universe and keeps the minimal
models of their own reduct (Gelfond–Lifschitz, with Przymusinski's
minimality for disjunctive heads).  Exponential by design; only for
programs of a handful of atoms.
"""

import itertools

from repro.asp.syntax import AtomTable, GroundProgram, GroundRule
from repro.relational.instance import Fact


def program_over(num_atoms, rules):
    """A ground program over atoms ``1..num_atoms`` with ``rules``."""
    program = GroundProgram(AtomTable())
    for index in range(num_atoms):
        program.atoms.intern(Fact("A", (index + 1,)))
    program.rules = list(rules)
    return program


def brute_stable(num_atoms, rules):
    """The set of stable models (frozensets of atom ids) of ``rules``."""

    def satisfies(model, rule):
        if any(b not in model for b in rule.body_pos):
            return True
        if any(g in model for g in rule.body_neg):
            return True
        return any(h in model for h in rule.head)

    def reduct(model):
        return [
            GroundRule(r.head, r.body_pos, ())
            for r in rules
            if not any(g in model for g in r.body_neg)
        ]

    def is_model(model, reduct_rules):
        return all(satisfies(model, r) for r in reduct_rules)

    atoms = list(range(1, num_atoms + 1))
    subsets = [
        frozenset(a for a in atoms if bits[a - 1])
        for bits in itertools.product([0, 1], repeat=num_atoms)
    ]
    return {
        model
        for model in subsets
        if is_model(model, reduct(model))
        and not any(
            other < model and is_model(other, reduct(model)) for other in subsets
        )
    }


def brute_consequences(num_atoms, rules, atoms):
    """``(cautious, brave)`` subsets of ``atoms``, or None without models."""
    models = brute_stable(num_atoms, rules)
    if not models:
        return None
    atoms = frozenset(atoms)
    cautious = atoms.intersection(*models)
    brave = atoms & frozenset().union(*models)
    return cautious, brave
