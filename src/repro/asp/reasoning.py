"""Cautious and brave reasoning over stable models.

The cautious answers to a query w.r.t. a program are the atoms true in
**every** stable model (Section 2 of the paper); brave answers are true in
**some** stable model.  :func:`decide_family` computes either for a whole
batch of goal atoms on one engine, by iterative constraining — the same
technique clingo uses (``--enum-mode=cautious``): start from one stable
model, then repeatedly demand a stable model that would change some
still-open verdict, until none exists.

Steering goes through assumption-guarded clauses
(:meth:`StableModelEngine.solve_under`), so CDCL learned clauses, loop
formulas, variable activities, and saved phases carry across every goal
atom.  Soundness hinges on what persists: loop formulas and learned
clauses hold in *every* stable model, while per-round steering clauses
(which do not) stay behind selector literals and are retired after use.
Every solver caller — the monolithic engine's one program, the
segmentary engine's family programs — decides through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.asp.stable import StableModelEngine
from repro.asp.syntax import GroundProgram


@dataclass(frozen=True)
class FamilyVerdicts:
    """Outcome of one :func:`decide_family` run.

    ``accepted``/``rejected`` are exact verdicts (true resp. false under
    the requested mode's quantifier); ``undecided`` is non-empty only
    when the solve budget fired mid-family — those atoms got no verdict
    and degrade to *unknown*, per-candidate rather than per-batch.
    ``no_model`` flags a program with no stable models at all (both
    verdict sets are empty then; the caller owns the convention).
    """

    accepted: frozenset[int]
    rejected: frozenset[int]
    undecided: frozenset[int] = frozenset()
    no_model: bool = False
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def interrupted(self) -> bool:
        return bool(self.undecided)


def decide_family(
    program: GroundProgram,
    goal_atoms: Iterable[int],
    mode: str = "cautious",
    engine: StableModelEngine | None = None,
    deadline=None,
) -> FamilyVerdicts:
    """Decide every goal atom of a cluster family on **one** engine.

    ``mode="cautious"``: accepted atoms are true in every stable model
    (XR-certain); ``mode="possible"``/``"brave"``: accepted atoms are
    true in at least one (XR-possible).  All candidates share the
    engine's learned clauses, loop formulas, and phases:

    - **Entailment skips.**  Atoms already forced at decision level 0 by
      the clause database (program encoding + everything learned so far)
      are decided without any search — the database's models
      overapproximate the stable models, so a top-level forced value
      holds in all of them.
    - **Model harvesting.**  Every stable model found decides *all*
      still-undecided atoms it can (cautious: false-in-model rejects;
      brave: true-in-model accepts), not just the atom that prompted
      the search.
    - **Guarded steering.**  Each refinement round demands a
      counterexample model through a selector-guarded clause activated
      via ``solve(assumptions=[selector])`` and retired afterwards, so
      the unsound-in-general steering constraint never pollutes the
      shared clause database.

    A :class:`~repro.runtime.budget.SolveBudgetExceeded` raised by
    ``deadline`` degrades per-candidate: verdicts reached before the
    interrupt are exact and kept; the rest return in ``undecided``.
    """
    # Deferred to dodge the repro.asp ↔ repro.runtime package cycle (the
    # budget module itself is stdlib-only).
    from repro.runtime.budget import SolveBudgetExceeded

    if mode not in ("cautious", "possible", "brave"):
        raise ValueError(f"unknown family mode {mode!r}")
    brave = mode != "cautious"
    if engine is None:
        engine = StableModelEngine(program, deadline=deadline)
    undecided = set(goal_atoms)
    accepted: set[int] = set()
    rejected: set[int] = set()
    core_skips = 0
    models_found = 0

    def verdicts(no_model: bool = False) -> FamilyVerdicts:
        stats = dict(engine.statistics)
        stats["core_skips"] = core_skips
        stats["family_models"] = models_found
        return FamilyVerdicts(
            accepted=frozenset(accepted),
            rejected=frozenset(rejected),
            undecided=frozenset(undecided),
            no_model=no_model,
            stats=stats,
        )

    def harvest(model: frozenset[int]) -> None:
        # One model decides every undecided atom it can: under cautious a
        # false atom cannot be in all models; under brave a true atom is
        # witnessed.  This is what makes non-excluding search complete —
        # no model's evidence is ever thrown away.
        if brave:
            decided = {atom for atom in undecided if atom in model}
            accepted.update(decided)
        else:
            decided = {atom for atom in undecided if atom not in model}
            rejected.update(decided)
        undecided.difference_update(decided)

    try:
        first = engine.solve_under()
        if first is None:
            undecided.clear()
            return verdicts(no_model=True)
        models_found += 1
        # Level-0 entailment pass (after existence is established): the
        # clause database alone settles atoms the search never needs to
        # touch — on warm engines, cores learned from earlier candidates.
        for atom in sorted(undecided):
            value = engine.entailed_value(atom)
            if value == 1:
                accepted.add(atom)
                undecided.discard(atom)
                core_skips += 1
            elif value == 0:
                rejected.add(atom)
                undecided.discard(atom)
                core_skips += 1
        harvest(first)
        while undecided:
            if deadline is not None:
                deadline.check()
            selector = engine.new_selector()
            if brave:
                # Demand a model witnessing some still-unwitnessed atom.
                engine.add_guarded_clause(selector, sorted(undecided))
            else:
                # Demand a counterexample refuting some candidate.
                engine.add_guarded_clause(
                    selector, [-atom for atom in sorted(undecided)]
                )
            model = engine.solve_under([selector])
            engine.retire_selector(selector)
            if model is None:
                # No stable model can steer further: every remaining atom
                # resolves to the quantifier's default.
                if brave:
                    rejected.update(undecided)
                else:
                    accepted.update(undecided)
                undecided.clear()
                break
            models_found += 1
            harvest(model)
    except SolveBudgetExceeded:
        # Per-candidate degradation: everything decided so far is exact;
        # the remainder stays undecided (reported unknown upstream).
        pass
    return verdicts()
