"""Stable models of ground disjunctive programs.

The engine follows the classic *generate and test* architecture (Janhunen et
al.; also the architecture of claspD), built on the CDCL solver:

- **Generate.**  A SAT encoding whose models overapproximate the stable
  models: every rule becomes a clause, every rule body gets a definition
  literal, and every true atom is required to have an *exclusive* supporting
  rule (a rule whose body holds and in which it is the only true head atom —
  a necessary condition for membership in a minimal model of the reduct).
  Duplicate rules are dropped, single-literal bodies reuse the literal and
  identical bodies share one variable, so one small encoding serves both
  enumeration and the family solves of :mod:`repro.asp.reasoning`.
- **Test.**  A candidate model ``M`` is stable iff it is a minimal model of
  its reduct.  For normal programs this is a linear-time least-model
  computation (Dowling–Gallier) resumed from a model-independent scaffold;
  for truly disjunctive programs it is a
  co-NP check, performed with a second, small SAT instance over the atoms
  of ``M``.
- **Refine.**  A failed candidate yields an unfounded set ``U``; the engine
  adds the (conjunctive) loop formulas of ``U`` (Lin–Zhao / ASSAT for normal
  programs, Lee's model-theoretic generalization for disjunctive ones),
  which are valid in every stable model and exclude the candidate.

Head-cycle-free disjunctive programs are *shifted* into equivalent normal
programs first (Ben-Eliyahu & Dechter), enabling the fast minimality test.

Hot-path notes: atoms that appear in no rule head are false in every stable
model (the generator forces them false up front), so candidate extraction
and the enumeration-blocking clauses of :meth:`StableModelEngine._exclude`
range over the *head atoms* only — on the XR programs most atoms are
body-only "remains" copies of safe context facts, and the full-universe
clauses dominated solve time.  The ``heads_of`` index built during
generation is reused to visit only the relevant rules in the loop-formula
steps, and SCCs come from the in-repo iterative Tarjan
(:mod:`repro.graphs`), which needs no graph object per program build.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.asp.sat import SatSolver
from repro.asp.syntax import GroundProgram, GroundRule
from repro.graphs import nontrivial_sccs, tarjan_scc

#: How many stable models an engine remembers (:meth:`StableModelEngine.
#: known_truths`).  A bound, not a knob: a full list only means later
#: questions harvest fewer models, never a different verdict.  Each model
#: is held as a bitmask over the atom ids, so a full list costs at most
#: four bytes per atom — less than any one of the solver's seven
#: per-variable arrays (eight bytes per entry, and every atom is a
#: variable) — and the engine store's clause bound
#: (:data:`repro.runtime.cache.DEFAULT_MAX_ENGINE_CLAUSES`) still sizes
#: what an engine holds.  The benchmark workloads' family engines have
#: 1 to 9 distinct stable models each.
MAX_KNOWN_MODELS = 32


def _positive_adjacency(rules: Iterable[GroundRule]) -> dict[int, list[int]]:
    """head atom -> positive body atoms, over all rules (dependency graph)."""
    adjacency: dict[int, list[int]] = {}
    for rule in rules:
        for head_atom in rule.head:
            edges = adjacency.setdefault(head_atom, [])
            for body_atom in rule.body_pos:
                edges.append(body_atom)
    return adjacency


def is_head_cycle_free(rules: Iterable[GroundRule]) -> bool:
    """True if no two atoms in one disjunctive head share a positive cycle."""
    rules = list(rules)
    component_of: dict[int, int] = {}
    for index, component in enumerate(tarjan_scc(_positive_adjacency(rules))):
        for node in component:
            component_of[node] = index
    for rule in rules:
        if len(rule.head) < 2:
            continue
        components = [component_of[a] for a in rule.head]
        if len(set(components)) < len(components):
            return False
    return True


def shift_disjunctions(rules: Iterable[GroundRule]) -> list[GroundRule]:
    """Shift ``a1 ∨ ... ∨ an ← B`` into ``ai ← B, ¬a1, ..., ¬an (j≠i)``.

    Sound and complete for head-cycle-free programs.
    """
    shifted: list[GroundRule] = []
    for rule in rules:
        if len(rule.head) < 2:
            shifted.append(rule)
            continue
        for position, head_atom in enumerate(rule.head):
            others = rule.head[:position] + rule.head[position + 1:]
            shifted.append(
                GroundRule(
                    head=(head_atom,),
                    body_pos=rule.body_pos,
                    body_neg=rule.body_neg + others,
                )
            )
    return shifted


class StableModelEngine:
    """Enumerates the stable models of a ground disjunctive program.

    Usage::

        engine = StableModelEngine(program)
        for model in engine.stable_models():      # sets of atom ids
            ...

    The engine is incremental.  :meth:`next_stable_model` resumes
    enumeration; :meth:`solve_under` finds a model under assumptions
    without excluding it, :meth:`add_guarded_clause` installs
    selector-guarded steering clauses between calls,
    :meth:`define_goal` adds a question (a disjunction of conjunctions
    of atoms) as a goal variable, and :meth:`known_truths` answers goals
    on the stable models found so far (the primitives of
    :func:`repro.asp.reasoning.decide_family`).  An engine may be kept
    and asked about new goals for as long as its program holds; it does
    not keep the :class:`~repro.asp.syntax.GroundProgram` it was built
    from.
    """

    def __init__(
        self,
        program: GroundProgram,
        auto_shift: bool = True,
        deadline=None,
    ):
        # ``deadline`` is a :class:`repro.runtime.budget.Deadline` (or any
        # object with a ``check()`` raising to abort); it is installed as
        # the cooperative interrupt of every SAT search this engine runs
        # (:meth:`set_deadline` swaps it between solves).
        self.deadline = deadline
        rules = list(program.rules)
        self.was_shifted = False
        if any(r.is_disjunctive() for r in rules):
            if auto_shift and is_head_cycle_free(rules):
                rules = shift_disjunctions(rules)
                self.was_shifted = True
        self.rules = rules
        self.is_normal = all(len(r.head) <= 1 for r in self.rules)
        self.num_atoms = program.num_atoms
        self._exhausted = False
        self._candidates_tested = 0
        self._models_found = 0
        self._loop_formulas = 0
        #: Precomputed reduct-derivation scaffold, built lazily on the
        #: first minimality check.
        self._reduct_scaffold = None
        #: Failed-assumption core of the last :meth:`solve_under` that
        #: returned None (mirrors ``SatSolver.failed_assumptions``).
        self.failed_assumptions: list[int] | None = None
        #: Goal variables (:meth:`define_goal`), keyed by their body set,
        #: and the inverse: each goal's body set.
        self._goals: dict[frozenset, int] = {}
        self._goal_keys: dict[int, frozenset[frozenset[int]]] = {}
        self._goal_bodies: dict[frozenset[int], int] = {}
        #: The stable models found so far (at most
        #: :data:`MAX_KNOWN_MODELS`), each its head-atom set as a bitmask
        #: over atom ids (:meth:`known_truths`).
        self._known: list[int] = []
        self._build_encoding()
        self._add_upfront_loop_formulas()
        # Everything added past this point (loop refinements, CDCL learned
        # clauses, guarded steering clauses) is knowledge *carried* across
        # solves rather than part of the program encoding.
        self._base_clauses = len(self.solver.clauses)

    # ---------------------------------------------------------- generation

    def _build_encoding(self) -> None:
        """The generator: a SAT encoding whose models overapproximate the
        stable models.

        Every rule becomes a clause ``body → head``, every rule body gets
        a definition literal, and every head atom needs an *exclusive*
        supporting rule (its body holds and it is the only true head
        atom); atoms that head no rule are forced false.  Three
        equivalence-preserving rewrites keep the encoding small:

        - **Duplicate rules are dropped.**  Grounding the same cluster
          through overlapping query supports emits repeated rules; a rule
          set is idempotent, so only the first copy is kept (``self.rules``
          is replaced, keeping the reduct and loop-formula machinery
          consistent with the encoding).
        - **Single-literal bodies use the literal itself.**  A definition
          variable constrained ``beta ↔ l`` is ``l``; on the XR programs
          half the rules have one-literal bodies, so this removes both the
          variable and its two defining clauses.
        - **Identical bodies share one definition variable.**  Bodies are
          hash-consed, so rules differing only in their head reuse the
          same ``beta`` instead of re-encoding the conjunction.

        A small variable universe cuts both clause construction and —
        because every CDCL model must assign every variable — the
        per-solve propagation bill that dominates family solving.
        """
        deduped: list[GroundRule] = []
        seen_rules: set[tuple] = set()
        for rule in self.rules:
            key = (rule.head, rule.body_pos, rule.body_neg)
            if key not in seen_rules:
                seen_rules.add(key)
                deduped.append(rule)
        self.rules = deduped

        solver = SatSolver(self.num_atoms)
        self.solver = solver
        self.set_deadline(self.deadline)
        self.true_var = solver.new_var()
        solver.add_clause([self.true_var])

        # Clauses stream through one :meth:`SatSolver.add_clauses_raw`
        # call at the end — per-clause simplification and backtrack
        # bookkeeping dominated build time at this clause volume.  The raw
        # loader's contract (no duplicate/tautological literals, no
        # mention of pre-assigned variables — here only ``true_var``) is
        # discharged clause-kind by clause-kind below.
        pending: list[list[int]] = []
        true_var = self.true_var

        # Body definition literals (not necessarily fresh variables).
        body_cache: dict[tuple, int] = {}
        self.body_var = []
        for rule in self.rules:
            if not rule.body_pos and not rule.body_neg:
                self.body_var.append(true_var)
                continue
            if len(rule.body_pos) + len(rule.body_neg) == 1:
                self.body_var.append(
                    rule.body_pos[0] if rule.body_pos else -rule.body_neg[0]
                )
                continue
            body_key = (rule.body_pos, rule.body_neg)
            beta = body_cache.get(body_key)
            if beta is None:
                beta = solver.new_var()
                body_cache[body_key] = beta
                # Repeated atoms would duplicate literals in the reverse
                # clause; a pos/neg overlap makes the body unsatisfiable.
                body_pos = tuple(dict.fromkeys(rule.body_pos))
                body_neg = tuple(dict.fromkeys(rule.body_neg))
                if set(body_pos) & set(body_neg):
                    pending.append([-beta])
                    self.body_var.append(beta)
                    continue
                reverse_clause = [beta]
                for atom in body_pos:
                    pending.append([-beta, atom])
                    reverse_clause.append(-atom)
                for atom in body_neg:
                    pending.append([-beta, -atom])
                    reverse_clause.append(atom)
                pending.append(reverse_clause)
            self.body_var.append(beta)

        # Rule clauses: body -> head disjunction.  ``heads_of`` is kept:
        # the loop-formula steps use it to visit only the rules whose head
        # meets a given atom set.
        heads_of: dict[int, list[int]] = {}
        # One int object per rule index, shared by ``heads_of`` and the
        # reduct scaffold's watcher lists (the engine may be kept).
        self._rule_ids = rule_ids = list(range(len(self.rules)))
        for index, rule in zip(rule_ids, self.rules):
            body_lit = self.body_var[index]
            head = rule.head
            for atom in head:
                heads_of.setdefault(atom, []).append(index)
            if body_lit == true_var:
                # Satisfied body: the clause is the head disjunction.
                clause = list(dict.fromkeys(head))
            elif len(head) == 1 and abs(body_lit) <= self.num_atoms:
                # Atom-literal body meeting its own head: ``h :- h`` is a
                # tautological clause, ``h :- not h`` collapses to ``h``.
                if body_lit == head[0]:
                    continue
                clause = (
                    [head[0]]
                    if body_lit == -head[0]
                    else [-body_lit, head[0]]
                )
            elif len(head) <= 1:
                clause = [-body_lit] + list(head)
            else:
                heads_unique = list(dict.fromkeys(head))
                if body_lit in heads_unique:
                    continue  # tautology: the head contains the body atom
                clause = [-body_lit] + [
                    atom for atom in heads_unique if atom != -body_lit
                ]
            pending.append(clause)
        # Every stable model is a subset of the head atoms: candidate
        # extraction and blocking range over this list only.
        self.head_atoms = sorted(heads_of)
        self.heads_of = {
            atom: tuple(indexes) for atom, indexes in heads_of.items()
        }

        # Exclusive-support clauses; atoms heading no rule are forced false.
        self._exclusive_var_cache = {}
        for atom in range(1, self.num_atoms + 1):
            rule_indexes = heads_of.get(atom)
            if not rule_indexes:
                pending.append([-atom])
                continue
            support_literals: list[int] = []
            trivially_supported = False
            for index in rule_indexes:
                rule = self.rules[index]
                if len(rule.head) == 1:
                    if self.body_var[index] == true_var:
                        trivially_supported = True
                        break
                    support_literals.append(self.body_var[index])
                else:
                    support_literals.append(
                        self._exclusive_support_var(index, atom, pending)
                    )
            if trivially_supported or atom in support_literals:
                # ``a :- a`` makes the support clause tautological.
                continue
            clause = [-atom]
            clause.extend(
                lit for lit in support_literals if lit != -atom
            )
            pending.append(clause)

        solver.add_clauses_raw(pending)
        # Bias the first candidates toward small models.
        for var in range(1, solver.num_vars + 1):
            solver.set_default_phase(var, False)
        self._exclusive_var_cache = None  # build-time only

    def _exclusive_support_var(
        self, rule_index: int, atom: int, pending: list[list[int]]
    ) -> int:
        """An aux var implying: body of rule holds and no *other* head atom
        is true.  Its defining clauses go to ``pending``, the generator's
        bulk-clause buffer."""
        key = (rule_index, atom)
        cached = self._exclusive_var_cache.get(key)
        if cached is not None:
            return cached
        sigma = self.solver.new_var()
        if self.body_var[rule_index] != self.true_var:
            pending.append([-sigma, self.body_var[rule_index]])
        for other in dict.fromkeys(self.rules[rule_index].head):
            if other != atom:
                pending.append([-sigma, -other])
        self._exclusive_var_cache[key] = sigma
        return sigma

    # ------------------------------------------------------------- testing

    def _build_reduct_scaffold(self) -> None:
        """One-time derivation state for :meth:`_least_model_of_reduct`.

        Rules without negative body survive *every* reduct, so their
        closure (and the counter state it leaves behind) is shared by all
        checks; only rules with a negative body vary with the model.
        """
        rules = self.rules
        count = len(rules)
        heads = [rule.head[0] if rule.head else 0 for rule in rules]
        counters = [0] * count
        watchers: dict[int, list[int]] = {}
        neg_rules: list[int] = []
        queue: list[int] = []
        for index, rule in zip(self._rule_ids, rules):
            if rule.body_neg:
                neg_rules.append(index)
            unique_body = set(rule.body_pos)
            counters[index] = len(unique_body)
            for atom in unique_body:
                watchers.setdefault(atom, []).append(index)
            if not unique_body and not rule.body_neg and heads[index]:
                queue.append(index)
        derived: set[int] = set()
        while queue:
            index = queue.pop()
            head_atom = heads[index]
            if head_atom in derived:
                continue
            derived.add(head_atom)
            for watching in watchers.get(head_atom, ()):
                counters[watching] -= 1
                if (
                    counters[watching] == 0
                    and heads[watching]
                    and not rules[watching].body_neg
                ):
                    queue.append(watching)
        watchers = {atom: tuple(indexes) for atom, indexes in watchers.items()}
        self._reduct_scaffold = (heads, counters, watchers, neg_rules, derived)

    def _least_model_of_reduct(self, model: frozenset[int]) -> set[int]:
        """Least model of the reduct w.r.t. ``model`` (normal programs only).

        Because ``model`` satisfies the program, the least model is a subset
        of ``model``.  The per-rule counters, watcher lists, and the closure
        under the negation-free rules — all model-independent — come from
        the scaffold; each check only replays the (few) negative-body rules
        the reduct keeps.
        """
        if self._reduct_scaffold is None:
            self._build_reduct_scaffold()
        heads, base_counters, watchers, neg_rules, base_derived = (
            self._reduct_scaffold
        )
        rules = self.rules
        # Rules the reduct removes: a negative body literal is in the model.
        blocked: set[int] = set()
        for index in neg_rules:
            if any(atom in model for atom in rules[index].body_neg):
                blocked.add(index)
        derived = set(base_derived)
        counters = base_counters.copy()
        # Resume the closure with the surviving negative-body rules enabled.
        queue = [
            index
            for index in neg_rules
            if index not in blocked and counters[index] == 0 and heads[index]
        ]
        while queue:
            index = queue.pop()
            head_atom = heads[index]
            if head_atom in derived:
                continue
            derived.add(head_atom)
            for watching in watchers.get(head_atom, ()):
                counters[watching] -= 1
                if (
                    counters[watching] == 0
                    and heads[watching]
                    and watching not in blocked
                ):
                    queue.append(watching)
        return derived

    def _minimality_witness(self, model: frozenset[int]) -> frozenset[int] | None:
        """For disjunctive programs: a model of the reduct strictly inside
        ``model``, or None if ``model`` is minimal (hence stable)."""
        atom_list = sorted(model)
        local_of = {atom: index + 1 for index, atom in enumerate(atom_list)}
        checker = SatSolver(len(atom_list))
        if self.deadline is not None:
            checker.interrupt_check = self.deadline.check
        for rule in self.rules:
            if not rule.head and not rule.body_pos:
                continue
            if any(atom in model for atom in rule.body_neg):
                continue
            if any(atom not in model for atom in rule.body_pos):
                continue  # some body atom is false in every subset of model
            clause = [-local_of[atom] for atom in rule.body_pos]
            clause.extend(local_of[atom] for atom in rule.head if atom in model)
            checker.add_clause(clause)
        checker.add_clause([-local_of[atom] for atom in atom_list])
        if not checker.solve():
            return None
        values = checker.model()
        return frozenset(atom for atom in atom_list if values[local_of[atom]])

    # ------------------------------------------------------------ refining

    def _add_upfront_loop_formulas(self) -> None:
        """Install loop formulas for every SCC of the positive dependency
        graph before search starts.

        Cyclically-supporting atom groups (e.g. a symmetric pair derived
        from each other) otherwise survive the generator and have to be
        eliminated one failed candidate at a time.  Inner loops strictly
        inside an SCC are still handled on demand by the refinement step.
        """
        for component in nontrivial_sccs(_positive_adjacency(self.rules)):
            self._add_loop_clauses(frozenset(component))

    def _refine_with_unfounded(self, unfounded: frozenset[int]) -> None:
        """Add loop formulas for each SCC of the unfounded set (decomposing
        yields several stronger formulas instead of one weak one)."""
        adjacency: dict[int, list[int]] = {atom: [] for atom in unfounded}
        for index in self._rules_meeting(unfounded):
            rule = self.rules[index]
            for head_atom in rule.head:
                if head_atom not in unfounded:
                    continue
                edges = adjacency[head_atom]
                for body_atom in rule.body_pos:
                    if body_atom in unfounded:
                        edges.append(body_atom)
        for component in tarjan_scc(adjacency):
            self._add_loop_clauses(frozenset(component))

    def _rules_meeting(self, atoms: frozenset[int]) -> list[int]:
        """Sorted indexes of the rules whose head meets ``atoms``."""
        heads_of = self.heads_of
        indexes: set[int] = set()
        for atom in atoms:
            indexes.update(heads_of.get(atom, ()))
        return sorted(indexes)

    def _add_loop_clauses(self, unfounded: frozenset[int]) -> None:
        """Add the loop formulas of the unfounded set (valid in all stable
        models; exclude the current candidate)."""
        external_literals: list[int] = []
        pending: list[list[int]] = []
        for index in self._rules_meeting(unfounded):
            rule = self.rules[index]
            if any(atom in unfounded for atom in rule.body_pos):
                continue
            outside_head = [atom for atom in rule.head if atom not in unfounded]
            if not outside_head:
                external_literals.append(self.body_var[index])
            else:
                tau = self.solver.new_var()
                pending.append([-tau, self.body_var[index]])
                for atom in outside_head:
                    pending.append([-tau, -atom])
                external_literals.append(tau)
        for atom in unfounded:
            pending.append([-atom] + external_literals)
        self.solver.add_clauses(pending)
        self._loop_formulas += 1

    # ----------------------------------------------------------- interface

    def set_deadline(self, deadline) -> None:
        """Install ``deadline`` (None: none) as the cooperative interrupt
        of every search this engine runs from now on."""
        self.deadline = deadline
        self.solver.interrupt_check = (
            None if deadline is None else deadline.check
        )

    def define_goal(self, bodies: Iterable[Sequence[int]]) -> int:
        """A fresh solver variable ``q`` with ``q ↔ ∨ᵢ ∧ bodyᵢ``.

        Each body is a conjunction of atom ids; the clauses are permanent.
        A goal occurs in no rule, so the definition is a conservative
        extension: every model of the encoding extends to exactly one
        value of ``q``, which is true iff some body holds.  Loop formulas,
        learned clauses, :meth:`entailed_value` and the stored models of
        :meth:`known_truths` therefore stay valid for every later
        question, on whatever goals it is asked.

        A body naming an atom that heads no rule is dropped (the generator
        forces that atom false, so the body never holds), multi-atom
        bodies share one hash-consed definition variable, and goals are
        deduplicated by their body set: equal questions get one variable.
        The goal's new variables (one per new multi-atom body, then the
        goal) are allocated in one step.
        """
        heads_of = self.heads_of
        kept = {
            atoms
            for atoms in map(frozenset, bodies)
            if all(atom in heads_of for atom in atoms)
        }
        key = frozenset(kept)
        goal = self._goals.get(key)
        if goal is not None:
            return goal
        ordered = sorted(kept, key=sorted)
        body_vars = self._goal_bodies
        fresh = [
            atoms
            for atoms in ordered
            if len(atoms) > 1 and atoms not in body_vars
        ]
        solver = self.solver
        first = solver.num_vars + 1
        solver.add_vars(len(fresh) + 1)
        goal = solver.num_vars
        pending: list[list[int]] = []
        for body, atoms in zip(range(first, goal), fresh):
            body_vars[atoms] = body
            atom_list = sorted(atoms)
            pending.extend([-body, atom] for atom in atom_list)
            pending.append([body] + [-atom for atom in atom_list])
        literals: list[int] = []
        for atoms in ordered:
            if not atoms:
                literals.append(self.true_var)
            elif len(atoms) == 1:
                literals.append(next(iter(atoms)))
            else:
                literals.append(body_vars[atoms])
        pending.append([-goal] + literals)
        pending.extend([-literal, goal] for literal in literals)
        if not solver.add_clauses(pending):
            self._exhausted = True
        self._goals[key] = goal
        self._goal_keys[goal] = key
        return goal

    def new_selector(self) -> int:
        """A fresh *selector literal*: a raw solver variable outside the
        atom universe, used to guard steering clauses.

        Selectors must live outside the atom range — a program-level
        guard atom would be forced false by the generator's headless-atom
        clauses before it could select anything.  Activate a selector by
        passing it as an assumption to :meth:`solve_under`; permanently
        switch its clauses off with :meth:`retire_selector`.
        """
        return self.solver.new_var()

    def add_guarded_clause(self, selector: int, literals: Sequence[int]) -> None:
        """Install ``selector → (l₁ ∨ … ∨ lₙ)`` over atom and goal ids.

        The clause is inert unless ``selector`` is assumed true, so
        per-candidate steering constraints (which are *not* valid in all
        stable models) can share one solver without poisoning each other.
        """
        for literal in literals:
            var = abs(literal)
            if var > self.num_atoms and var not in self._goal_keys:
                raise ValueError(
                    f"literal {literal} is not an atom or goal id"
                )
        if not self.solver.add_clause([-selector] + list(literals)):
            self._exhausted = True

    def retire_selector(self, selector: int) -> None:
        """Permanently disable every clause guarded by ``selector``.

        The unit clause ``¬selector`` satisfies all its guarded clauses
        at the top level; the solver never branches on them again.
        """
        if not self.solver.add_clause([-selector]):
            self._exhausted = True

    def entailed_value(self, atom: int) -> int:
        """1/0 when top-level propagation of the clause database alone
        forces the atom, -1 otherwise.

        Sound for every stable model: the database's models
        overapproximate the stable models, and guarded clauses cannot
        force atoms while their selector is undecided or retired.  Only
        meaningful on engines driven through :meth:`solve_under` — the
        enumeration path's :meth:`_exclude` blocking clauses are *not*
        valid in all stable models and would break this guarantee.
        """
        return self.solver.top_level_value(atom)

    def solve_under(
        self, assumptions: Sequence[int] = (), goals: Iterable[int] = ()
    ) -> frozenset[int] | None:
        """One stable model consistent with ``assumptions``, or None.

        Unlike :meth:`next_stable_model` the found model is **not**
        excluded: blocking clauses are enumeration bookkeeping, unsound
        to share across different candidate questions, while everything
        this search *learns* — loop formulas and CDCL learned clauses,
        both valid in every stable model — persists for later calls.
        Callers drive enumeration themselves via guarded steering
        clauses (:meth:`add_guarded_clause`).

        The model is its true head atoms plus those of ``goals`` (goal
        variables of :meth:`define_goal`) that it makes true; stability
        is tested on the head atoms alone, which fix every goal's value.
        Only the goals asked about are read, so a kept engine's cost per
        model does not grow with the goals earlier questions defined.

        After None, :attr:`failed_assumptions` holds the failed
        assumption core when the database stays satisfiable ([] when the
        program has no stable models at all); the engine remains usable
        either way unless the database itself became unsatisfiable.
        """
        self.failed_assumptions = None
        goals = tuple(goals)
        if self._exhausted:
            self.failed_assumptions = []
            return None
        while True:
            if self.deadline is not None:
                self.deadline.check()
            if not self.solver.solve(assumptions):
                if not self.solver.ok:
                    self._exhausted = True
                self.failed_assumptions = list(
                    self.solver.failed_assumptions or []
                )
                return None
            values = self.solver.model()
            candidate = frozenset(
                atom for atom in self.head_atoms if values[atom]
            )
            self._candidates_tested += 1
            if self.is_normal:
                least = self._least_model_of_reduct(candidate)
                if least == candidate:
                    return self._stable(candidate, values, goals)
                self._refine_with_unfounded(frozenset(candidate - least))
            else:
                witness = self._minimality_witness(candidate)
                if witness is None:
                    return self._stable(candidate, values, goals)
                self._refine_with_unfounded(frozenset(candidate - witness))

    def _stable(
        self,
        candidate: frozenset[int],
        values: list[bool],
        goals: tuple[int, ...],
    ) -> frozenset[int]:
        """A found stable model, with those of ``goals`` it makes true.

        The model's head atoms are remembered while fewer than
        :data:`MAX_KNOWN_MODELS` are (:meth:`known_truths`).
        """
        self._models_found += 1
        if len(self._known) < MAX_KNOWN_MODELS:
            bits = bytearray((self.num_atoms >> 3) + 1)
            for atom in candidate:
                bits[atom >> 3] |= 1 << (atom & 7)
            self._known.append(int.from_bytes(bits, "little"))
        if not goals:
            return candidate
        return candidate | {goal for goal in goals if values[goal]}

    def known_truths(self, goals: Iterable[int]) -> Iterator[set[int]]:
        """For each remembered stable model, in the order found, those of
        ``goals`` (atom ids and :meth:`define_goal` variables) it makes
        true.

        Every model a search returned is remembered, up to
        :data:`MAX_KNOWN_MODELS`.  It is a stable model of the program
        the engine was built for, and nothing added since changes that
        (goal definitions, loop formulas, learned clauses and proven
        consequences are conservative; steering clauses are guarded and
        retired), so it answers any goal, including goals defined after
        it was found: an atom holds iff it is one of the model's head
        atoms, a goal iff one of its bodies lies inside them.
        """
        if not self._known:
            return
        # Each goal's bodies as bitmasks (an atom is its own one body).
        masks = []
        for goal in goals:
            if goal <= self.num_atoms:
                bodies = (1 << goal,)
            else:
                bodies = tuple(
                    sum(1 << atom for atom in body)
                    for body in self._goal_keys[goal]
                )
            masks.append((goal, bodies))
        for model in self._known:
            yield {
                goal
                for goal, bodies in masks
                if any(model & body == body for body in bodies)
            }

    def add_consequences(self, literals: Iterable[int]) -> None:
        """Install each literal (over atom and goal ids) as a unit clause.

        The caller vouches that every literal holds in **every** stable
        model — :func:`~repro.asp.reasoning.decide_family` passes the
        verdicts its final steering search proved.  Such a clause keeps
        every stable model, so the database's models still
        overapproximate them, and later questions read the literals off
        :meth:`entailed_value` without search.
        """
        if not self.solver.add_clauses([literal] for literal in literals):
            self._exhausted = True

    def next_stable_model(self) -> frozenset[int] | None:
        """The next stable model (a frozenset of atom ids), or None.

        One :meth:`solve_under` search, then the model is excluded so the
        next call finds a different one.
        """
        model = self.solve_under()
        if model is None:
            self._exhausted = True
            return None
        self._exclude(model)
        return model

    def _exclude(self, model: frozenset[int]) -> None:
        """Exclude exactly this atom assignment (for enumeration).

        The blocking clause ranges over the head atoms only: every stable
        model agrees on the remaining (forced-false) atoms, so a clause
        over the full atom range would block exactly the same assignments
        while being as wide as the atom table.
        """
        clause = [
            -atom if atom in model else atom for atom in self.head_atoms
        ]
        if not self.solver.add_clause(clause):
            self._exhausted = True

    @property
    def statistics(self) -> dict[str, int]:
        """Search statistics: the SAT solver's counters plus the
        generate-and-test loop's own (candidates tested against
        minimality, stable models found, loop formulas installed)."""
        stats = dict(self.solver.statistics)
        stats["candidates_tested"] = self._candidates_tested
        stats["stable_models_found"] = self._models_found
        stats["loop_formulas"] = self._loop_formulas
        # Clauses beyond the initial program encoding: loop refinements,
        # CDCL learned clauses, and guarded steering clauses — the
        # knowledge an incremental family solve carries across candidates.
        stats["carried_clauses"] = len(self.solver.clauses) - self._base_clauses
        return stats

    def stable_models(self, limit: int | None = None) -> Iterator[frozenset[int]]:
        """Yield stable models until exhaustion (or ``limit`` models)."""
        produced = 0
        while limit is None or produced < limit:
            model = self.next_stable_model()
            if model is None:
                return
            produced += 1
            yield model
