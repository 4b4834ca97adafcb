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
from typing import Container, Iterable

from repro.asp.stable import StableModelEngine
from repro.asp.syntax import GroundProgram


#: Engine statistics that are sizes, not counters: reported as they
#: stand after a call rather than as the call's growth.
_SIZES = frozenset({"vars", "clauses"})


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
      the search.  The engine remembers the models its searches found
      (:meth:`~repro.asp.stable.StableModelEngine.known_truths`), and a
      call harvests them before any search: on a kept engine most
      verdicts come from models earlier questions found, and when one
      exists the existence solve is skipped.
    - **Guarded steering.**  Each refinement round demands a
      counterexample model through a selector-guarded clause activated
      via ``solve(assumptions=[selector])`` and retired afterwards, so
      the unsound-in-general steering constraint never pollutes the
      shared clause database.  Each steering model is new (it breaks
      the agreement of every harvested model on the undecided atoms),
      and the verdicts the last, unsatisfiable round proves hold in
      every stable model, so they are installed as unit clauses
      (:meth:`~repro.asp.stable.StableModelEngine.add_consequences`):
      asking the same question again takes no search.

    ``engine`` is an engine already built for ``program`` (a kept family
    engine; ``program`` is then unused), and ``goal_atoms`` may name its
    goal variables (:meth:`StableModelEngine.define_goal`) as well as
    atoms.  ``deadline`` is installed on the engine for this call only,
    and the verdicts' ``stats`` count this call's work alone: the
    solver's sizes (``vars``, ``clauses``) are reported as they stand,
    every other counter as its growth during the call.  Two counters
    are the call's own: ``family_models`` (models its searches found)
    and ``known_models`` (stored models it harvested), next to
    ``core_skips`` (atoms the entailment pass settled).

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
        engine = StableModelEngine(program)
    baseline = engine.statistics
    undecided = set(goal_atoms)
    accepted: set[int] = set()
    rejected: set[int] = set()
    core_skips = 0
    models_found = 0
    known_models = 0

    def verdicts(no_model: bool = False) -> FamilyVerdicts:
        stats = {
            key: value if key in _SIZES else value - baseline[key]
            for key, value in engine.statistics.items()
        }
        stats["core_skips"] = core_skips
        stats["family_models"] = models_found
        stats["known_models"] = known_models
        return FamilyVerdicts(
            accepted=frozenset(accepted),
            rejected=frozenset(rejected),
            undecided=frozenset(undecided),
            no_model=no_model,
            stats=stats,
        )

    def harvest(model: Container[int]) -> None:
        # One model decides every undecided atom it can: under cautious a
        # false atom cannot be in all models; under brave a true atom is
        # witnessed.  This is what makes non-excluding search complete —
        # no model's evidence is ever thrown away.  ``model`` holds the
        # atoms it makes true among those still undecided.
        if brave:
            decided = {atom for atom in undecided if atom in model}
            accepted.update(decided)
        else:
            decided = {atom for atom in undecided if atom not in model}
            rejected.update(decided)
        undecided.difference_update(decided)

    engine.set_deadline(deadline)
    try:
        # Stored models first: each is a stable model of the program, so
        # it decides goals as well as a fresh search would — and once
        # one exists the program has a stable model, so the existence
        # solve is skipped.
        for truths in engine.known_truths(sorted(undecided)):
            known_models += 1
            harvest(truths)
            if not undecided:
                break
        first = None
        if not known_models:
            first = engine.solve_under(goals=undecided)
            if first is None:
                undecided.clear()
                return verdicts(no_model=True)
            models_found += 1
        # Level-0 entailment pass (after existence is established): the
        # clause database alone settles atoms the search never needs to
        # touch — on warm engines, cores learned from earlier candidates
        # and the consequences earlier calls proved.
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
        if first is not None:
            harvest(first)
        while undecided:
            if deadline is not None:
                deadline.check()
            selector = engine.new_selector()
            # Every model harvested so far agrees on the undecided atoms
            # (cautious: all true; brave: all false), so a model meeting
            # the steering clause is none of them.
            if brave:
                # Demand a model witnessing some still-unwitnessed atom.
                engine.add_guarded_clause(selector, sorted(undecided))
            else:
                # Demand a counterexample refuting some candidate.
                engine.add_guarded_clause(
                    selector, [-atom for atom in sorted(undecided)]
                )
            model = engine.solve_under([selector], goals=undecided)
            engine.retire_selector(selector)
            if model is None:
                # No stable model can steer further: every remaining atom
                # resolves to the quantifier's default, which then holds
                # in every stable model — a unit clause for later calls.
                if brave:
                    rejected.update(undecided)
                    engine.add_consequences(-atom for atom in sorted(undecided))
                else:
                    accepted.update(undecided)
                    engine.add_consequences(sorted(undecided))
                undecided.clear()
                break
            models_found += 1
            harvest(model)
    except SolveBudgetExceeded:
        # Per-candidate degradation: everything decided so far is exact;
        # the remainder stays undecided (reported unknown upstream).
        pass
    finally:
        engine.set_deadline(None)
        engine.solver.compact()
    return verdicts()
