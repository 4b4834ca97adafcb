"""A CDCL SAT solver.

Conflict-driven clause learning with two watched literals, first-UIP conflict
analysis, non-chronological backjumping, VSIDS-style variable activities,
Luby restarts, and phase saving.  Incremental: clauses may be added between
``solve`` calls, and ``solve`` accepts assumption literals.

When a solve is unsatisfiable *under its assumptions*, final-conflict
analysis (the ``analyzeFinal`` of MiniSat) walks the implication graph of
the falsified assumption back to the assumptions it depends on and records
that subset in :attr:`SatSolver.failed_assumptions` — the **failed core**.
The core distinguishes "unsatisfiable because of these assumptions" (a
non-empty core; dropping it restores satisfiability) from "the clause
database itself is unsatisfiable" (an empty core, ``ok`` now False).
Assumption-based callers — the family solver of
:mod:`repro.asp.reasoning` — use the core to skip goals already refuted
by learned clauses without a fresh search.

Literals are non-zero integers: ``+v`` is the positive literal of variable
``v``, ``-v`` the negative one (variables are 1-based).  Internally a literal
``l`` is indexed as ``2*v + (1 if l < 0 else 0)``.

The stable-model engine uses this solver both to generate model candidates
(with default phases biasing toward small models) and to run minimality
checks on reducts.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

_UNASSIGNED = -1

#: Search-loop iterations (one conflict or decision each) between
#: cooperative interrupt checks — frequent enough that a budgeted solve
#: stops within milliseconds of its deadline, rare enough to be free.
_INTERRUPT_GRANULARITY = 64


def _lit_index(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


class SatSolver:
    """A CDCL SAT solver over variables ``1..num_vars``."""

    def __init__(self, num_vars: int = 0):
        self.num_vars = 0
        # Per-variable state.
        self.assign: list[int] = [_UNASSIGNED]  # 0 false, 1 true (index 0 unused)
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.phase: list[int] = [0]  # saved phase: 0 false, 1 true
        # Conflict analysis marks: all False between analyses (each
        # analysis clears the marks it set).
        self._seen: list[bool] = [False]
        # Watches: literal index -> list of clauses.
        self.watches: list[list[list[int]]] = [[], []]
        self.clauses: list[list[int]] = []
        self.trail: list[int] = []  # assigned literals in order
        self.trail_lim: list[int] = []  # trail positions per decision level
        self.propagate_head = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True  # False once a top-level conflict is found
        self._conflicts_total = 0
        self._propagations_total = 0
        self._decisions_total = 0
        self._restarts_total = 0
        self._interrupt_polls_total = 0
        # Cooperative cancellation: when set, called every
        # ``_INTERRUPT_GRANULARITY`` search-loop iterations; it may raise
        # (e.g. ``SolveBudgetExceeded``) to abort the search.  None (the
        # default) costs one attribute test per loop iteration.
        self.interrupt_check = None
        self._interrupt_tick = 0
        # After an unsatisfiable ``solve(assumptions)``: the subset of the
        # assumptions responsible (the failed core, in assumption order);
        # [] when the clause database alone is unsatisfiable; None after a
        # satisfiable solve (or before the first one).
        self.failed_assumptions: list[int] | None = None
        # Lazy max-activity heap of decision candidates: (-activity, var).
        # None between solves after :meth:`compact` (only ever at decision
        # level 0); the next solve rebuilds it.
        self._order: list[tuple[float, int]] | None = []
        if num_vars:
            self.add_vars(num_vars)

    # ------------------------------------------------------------ variables

    def add_vars(self, count: int) -> None:
        """Grow the variable universe by ``count`` fresh variables."""
        if count <= 0:
            return
        first = self.num_vars + 1
        self.num_vars += count
        self.assign.extend([_UNASSIGNED] * count)
        self.level.extend([0] * count)
        self.reason.extend([None] * count)
        self.activity.extend([0.0] * count)
        self.phase.extend([0] * count)
        self._seen.extend([False] * count)
        self.watches.extend([] for _ in range(2 * count))
        if self._order is not None:
            for var in range(first, self.num_vars + 1):
                heapq.heappush(self._order, (0.0, var))

    def new_var(self) -> int:
        self.add_vars(1)
        return self.num_vars

    def set_default_phase(self, var: int, value: bool) -> None:
        """Set the initial saved phase of ``var`` (biases the first model)."""
        self.phase[var] = 1 if value else 0

    # -------------------------------------------------------------- clauses

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        May be called between ``solve`` calls: the solver first backtracks
        to decision level 0.  Tautologies are dropped; duplicate literals
        are merged; literals already false at level 0 are removed.
        """
        if not self.ok:
            return False
        self._backtrack(0)
        seen: set[int] = set()
        lits: list[int] = []
        for lit in literals:
            if lit in seen:
                continue
            if -lit in seen:
                return True  # tautology
            var = abs(lit)
            if var > self.num_vars:
                raise ValueError(f"literal {lit} exceeds variable count {self.num_vars}")
            value = self.assign[var]
            if value != _UNASSIGNED and self.level[var] == 0:
                if (value == 1) == (lit > 0):
                    return True  # already satisfied at top level
                continue  # falsified at top level: drop literal
            seen.add(lit)
            lits.append(lit)

        if not lits:
            self.ok = False
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):
                self.ok = False
                return False
            self.ok = self.propagate() is None
            return self.ok
        clause = lits
        self.clauses.append(clause)
        self._watch(clause)
        return True

    def add_clauses(self, clause_iter: Iterable[Iterable[int]]) -> bool:
        """Bulk clause loading: :meth:`add_clause` semantics, one backtrack.

        Backtracks to level 0 once, streams the clauses through the same
        level-0 simplification (tautology and duplicate removal, satisfied
        clauses dropped, falsified literals stripped), but enqueues unit
        clauses without propagating until the end — one propagation pass
        settles the whole batch.  Deferring is sound because every literal
        a pending unit assigns is already visible in ``assign`` (enqueue
        writes it immediately), so later clauses in the batch still
        simplify against it, and the final propagation restores the watch
        invariant for every clause touched by the new units.

        Returns False (and clears ``ok``) if the formula became
        unsatisfiable.  The stable-model engine installs each loop formula
        through it, one backtrack and one propagation pass per formula.
        """
        if not self.ok:
            return False
        self._backtrack(0)
        assign = self.assign
        level = self.level
        num_vars = self.num_vars
        for literals in clause_iter:
            kept: list[int] = []
            satisfied = False
            for lit in literals:
                var = lit if lit > 0 else -lit
                if var > num_vars:
                    raise ValueError(
                        f"literal {lit} exceeds variable count {num_vars}"
                    )
                value = assign[var]
                if value != _UNASSIGNED and level[var] == 0:
                    if (value == 1) == (lit > 0):
                        satisfied = True
                        break
                    continue  # falsified at top level: drop literal
                kept.append(lit)
            if satisfied:
                continue
            if len(kept) > 1:
                # Tautology / duplicate-literal removal (rare; the common
                # two-literal case avoids building a set).
                if len(kept) == 2:
                    if kept[0] == -kept[1]:
                        continue
                    if kept[0] == kept[1]:
                        kept.pop()
                else:
                    seen: set[int] = set()
                    unique: list[int] = []
                    tautology = False
                    for lit in kept:
                        if -lit in seen:
                            tautology = True
                            break
                        if lit not in seen:
                            seen.add(lit)
                            unique.append(lit)
                    if tautology:
                        continue
                    kept = unique
            if not kept:
                self.ok = False
                return False
            if len(kept) == 1:
                if not self._enqueue(kept[0], None):
                    self.ok = False
                    return False
                continue
            self.clauses.append(kept)
            self.watches[_lit_index(-kept[0])].append(kept)
            self.watches[_lit_index(-kept[1])].append(kept)
        self.ok = self.ok and self.propagate() is None
        return self.ok

    def add_clauses_raw(self, clause_iter: Iterable[list[int]]) -> bool:
        """Bulk clause loading without per-literal simplification.

        The caller owns the invariants :meth:`add_clause` normally
        enforces; violating them corrupts the watch scheme silently.
        Each clause must:

        - contain no duplicate literals and no tautological pair,
        - mention no variable that was assigned before the call (variables
          assigned *during* the batch by its own unit clauses are fine —
          their watch lists are revisited by the final propagation),
        - stay within the current variable universe.

        The stable-model engine's generator qualifies: it emits structurally
        clean clauses over fresh variables, with the handful of edge cases
        (``true_var`` mentions, self-referential single-literal bodies)
        filtered at construction.  Clause lists are adopted, not copied.
        """
        if not self.ok:
            return False
        clauses = self.clauses
        watches = self.watches
        for lits in clause_iter:
            if len(lits) > 1:
                clauses.append(lits)
                first, second = lits[0], lits[1]
                watches[_lit_index(-first)].append(lits)
                watches[_lit_index(-second)].append(lits)
            elif lits:
                if not self._enqueue(lits[0], None):
                    self.ok = False
                    return False
            else:
                self.ok = False
                return False
        self.ok = self.propagate() is None
        return self.ok

    def _watch(self, clause: list[int]) -> None:
        self.watches[_lit_index(-clause[0])].append(clause)
        self.watches[_lit_index(-clause[1])].append(clause)

    # ---------------------------------------------------------- assignments

    def value_of(self, lit: int) -> int:
        """1 if lit is true, 0 if false, -1 if unassigned."""
        value = self.assign[abs(lit)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if lit > 0 else 1 - value

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        var = abs(lit)
        current = self.assign[var]
        if current != _UNASSIGNED:
            return (current == 1) == (lit > 0)
        self.assign[var] = 1 if lit > 0 else 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None.

        The solver's hot loop, so it reads literal values straight from
        ``assign`` (``l`` is true when ``assign[|l|]`` is 1 for ``l > 0``,
        0 for ``l < 0``; -1 is unassigned) and writes implied literals in
        place of :meth:`_enqueue`.  Watch lists are visited in order:
        which clause propagates first decides the implication graph, and
        with it every later conflict and decision.
        """
        trail = self.trail
        assign = self.assign
        level = self.level
        reason = self.reason
        watches = self.watches
        decision_level = len(self.trail_lim)
        start = head = self.propagate_head
        conflict: list[int] | None = None
        while conflict is None and head < len(trail):
            lit = trail[head]
            head += 1
            false_lit = -lit
            watch_list = watches[(lit << 1) if lit > 0 else (false_lit << 1) | 1]
            kept: list[list[int]] = []
            for index, clause in enumerate(watch_list):
                # Normalize: the watched literals are clause[0] and
                # clause[1], and clause[1] is the one just made false.
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if (assign[first] == 1) if first > 0 else (assign[-first] == 0):
                    kept.append(clause)
                    continue
                # Look for a replacement watch: a literal not false.
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if (
                        (assign[candidate] != 0)
                        if candidate > 0
                        else (assign[-candidate] != 1)
                    ):
                        # Swap the watch out (moving clause[1] allocates
                        # nothing, ``-lit`` would).
                        clause[1] = candidate
                        clause[position] = false_lit
                        watches[
                            (candidate << 1) | 1
                            if candidate > 0
                            else (-candidate) << 1
                        ].append(clause)
                        break
                else:
                    kept.append(clause)
                    if first > 0:
                        value = assign[first]
                        var = first
                    else:
                        value = assign[-first]
                        var = -first
                    if value != -1:
                        # ``first`` is false: conflict.  Keep the
                        # remaining watchers and report.
                        kept.extend(watch_list[index + 1:])
                        conflict = clause
                        break
                    assign[var] = 1 if first > 0 else 0
                    level[var] = decision_level
                    reason[var] = clause
                    trail.append(first)
            watch_list[:] = kept
        self.propagate_head = head
        self._propagations_total += head - start
        return conflict

    # ----------------------------------------------------- conflict analysis

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for index in range(1, self.num_vars + 1):
                self.activity[index] *= 1e-100
            self.var_inc *= 1e-100
            self._order = [(-self.activity[v], v) for v in range(1, self.num_vars + 1)]
            heapq.heapify(self._order)
        else:
            heapq.heappush(self._order, (-self.activity[var], var))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP analysis; returns (learned clause, backjump level)."""
        current_level = len(self.trail_lim)
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        counter = 0
        lit = 0
        trail_pos = len(self.trail) - 1
        reason: Sequence[int] = conflict

        while True:
            for clause_lit in reason:
                # Skip the literal this reason clause propagated (the trail
                # literal itself, i.e. the negation of the resolvent `lit`).
                if clause_lit == -lit:
                    continue
                var = abs(clause_lit)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(clause_lit)
            # Pick the next literal to resolve on from the trail.
            while not seen[abs(self.trail[trail_pos])]:
                trail_pos -= 1
            lit = -self.trail[trail_pos]
            seen[abs(lit)] = False
            trail_pos -= 1
            counter -= 1
            if counter == 0:
                break
            var_reason = self.reason[abs(lit)]
            assert var_reason is not None
            reason = var_reason
        learned[0] = lit
        # Resolved variables were unmarked on the way; the learned
        # clause's lower-level literals are the marks left.
        for clause_lit in learned[1:]:
            seen[abs(clause_lit)] = False

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        max_pos = 1
        for position in range(2, len(learned)):
            if self.level[abs(learned[position])] > self.level[abs(learned[max_pos])]:
                max_pos = position
        learned[1], learned[max_pos] = learned[max_pos], learned[1]
        return learned, self.level[abs(learned[1])]

    def _analyze_final(self, failed: int, assumptions: Sequence[int]) -> list[int]:
        """The failed-assumption core: the subset of ``assumptions`` whose
        conjunction the clause database refutes.

        ``failed`` is an assumption found false during assumption
        re-assertion (its negation is on the trail).  Walking the trail
        backwards through the reason clauses of every marked variable
        reaches exactly the decisions the falsification depends on — and
        during the re-assertion scan every decision on the trail is an
        earlier assumption (free decisions only happen once all
        assumptions hold, and any backjump that unassigned an assumption
        removed the later free decisions with it).
        """
        assumed = set(assumptions)
        core = {failed}
        if not self.trail_lim:
            return [failed]  # falsified by top-level propagation alone
        seen = self._seen
        seen[abs(failed)] = True
        for position in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[position]
            var = abs(lit)
            if not seen[var]:
                continue
            reason = self.reason[var]
            if reason is None:
                # A decision — an assumption (see docstring); record it.
                if lit in assumed:
                    core.add(lit)
            else:
                for clause_lit in reason:
                    if clause_lit == lit:
                        continue
                    if self.level[abs(clause_lit)] > 0:
                        seen[abs(clause_lit)] = True
            seen[var] = False
        # Every mark on a variable of the walked trail suffix was cleared
        # above; ``failed`` may sit below it (level 0).
        seen[abs(failed)] = False
        # Report in assumption order (deduplicated) for deterministic
        # consumers.
        ordered: list[int] = []
        for lit in assumptions:
            if lit in core and lit not in ordered:
                ordered.append(lit)
        return ordered or [failed]

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        limit = self.trail_lim[target_level]
        for position in range(len(self.trail) - 1, limit - 1, -1):
            lit = self.trail[position]
            var = abs(lit)
            self.phase[var] = self.assign[var]
            self.assign[var] = _UNASSIGNED
            self.reason[var] = None
            heapq.heappush(self._order, (-self.activity[var], var))
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        self.propagate_head = min(self.propagate_head, len(self.trail))

    # -------------------------------------------------------------- search

    def _decide(self) -> int:
        """Pick an unassigned variable with maximal activity; 0 if none.

        Uses a lazy heap: stale entries (assigned variables, outdated
        activities) are discarded on pop.
        """
        while self._order:
            neg_activity, var = heapq.heappop(self._order)
            if self.assign[var] == _UNASSIGNED and -neg_activity == self.activity[var]:
                return var if self.phase[var] == 1 else -var
        # Heap exhausted by staleness: repopulate it with every unassigned
        # variable (at its current activity) so this O(n) rebuild is paid
        # once and subsequent decisions are O(log n) again, instead of
        # degrading to a linear scan on every remaining decision.
        self._order = self._unassigned_order()
        if not self._order:
            return 0
        _neg_activity, var = heapq.heappop(self._order)
        return var if self.phase[var] == 1 else -var

    def _unassigned_order(self) -> list[tuple[float, int]]:
        """A fresh decision heap: every unassigned variable, once."""
        activity = self.activity
        assign = self.assign
        order = [
            (-activity[var], var)
            for var in range(1, self.num_vars + 1)
            if assign[var] == _UNASSIGNED
        ]
        heapq.heapify(order)
        return order

    def compact(self) -> None:
        """Backtrack to level 0 and drop the decision heap until the next
        solve.

        Every backtrack pushes each unassigned variable again, and stale
        entries leave the lazy heap only when popped, so a solver kept
        across many solves (the family engines of
        :class:`~repro.runtime.SignatureProgramCache`) would grow it
        without bound.  A kept solver holds no heap at all between
        solves; :meth:`solve` rebuilds it in O(vars), the same decisions
        in the same order (a pop takes the variable of highest activity,
        ties to the lowest id, whatever the heap's history).
        """
        self._backtrack(0)
        self._order = None

    @staticmethod
    def _luby(index: int) -> int:
        """The Luby restart sequence 1,1,2,1,1,2,4,... (0-based index)."""
        size, sequence = 1, 0
        while size < index + 1:
            sequence += 1
            size = 2 * size + 1
        while size - 1 != index:
            size = (size - 1) // 2
            sequence -= 1
            index = index % size
        return 1 << sequence

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Search for a model; True if satisfiable (under the assumptions).

        After True, :meth:`model` returns the satisfying assignment.  The
        solver state (learned clauses, activities, phases) persists across
        calls; assumptions do not.  After False,
        :attr:`failed_assumptions` holds the failed-assumption core ([]
        when the clause database is unsatisfiable outright).
        """
        self.failed_assumptions = [] if not self.ok else None
        if not self.ok:
            return False
        self._backtrack(0)
        conflict = self.propagate()
        if conflict is not None:
            self.ok = False
            self.failed_assumptions = []
            return False
        if self._order is None:
            self._order = self._unassigned_order()

        restart_count = 0
        conflict_budget = 64 * self._luby(restart_count)
        conflicts_here = 0

        while True:
            if self.interrupt_check is not None:
                self._interrupt_tick += 1
                if self._interrupt_tick >= _INTERRUPT_GRANULARITY:
                    self._interrupt_tick = 0
                    self._interrupt_polls_total += 1
                    self.interrupt_check()
            conflict = self.propagate()
            if conflict is not None:
                self._conflicts_total += 1
                conflicts_here += 1
                if len(self.trail_lim) == 0:
                    self.ok = False
                    self.failed_assumptions = []
                    return False
                # First-UIP analysis assumes the conflict clause contains a
                # literal at the current decision level; if the conflict sits
                # entirely below it, fall back to that level first.
                conflict_level = max(self.level[abs(lit)] for lit in conflict)
                if conflict_level == 0:
                    self.ok = False
                    self.failed_assumptions = []
                    return False
                if conflict_level < len(self.trail_lim):
                    self._backtrack(conflict_level)
                # If the backjump target is inside the assumptions, the
                # decision loop re-asserts them on the way back down.
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) > 1:
                    self.clauses.append(learned)
                    self._watch(learned)
                if not self._enqueue(learned[0], learned if len(learned) > 1 else None):
                    self.ok = False
                    self.failed_assumptions = []
                    return False
                self.var_inc /= self.var_decay
                if conflicts_here >= conflict_budget:
                    restart_count += 1
                    self._restarts_total += 1
                    conflict_budget = 64 * self._luby(restart_count)
                    conflicts_here = 0
                    self._backtrack(0)
                continue

            # Re-assert any assumption not yet satisfied.
            decision = 0
            for assumption in assumptions:
                value = self.value_of(assumption)
                if value == 0:
                    # Assumption conflicts with forced literals: compute the
                    # failed core (the subset of assumptions responsible) via
                    # MiniSat-style final-conflict analysis so callers can
                    # skip other candidate sets sharing that core.  The
                    # clause database itself stays satisfiable (ok holds).
                    self.failed_assumptions = self._analyze_final(
                        assumption, assumptions
                    )
                    return False
                if value == _UNASSIGNED:
                    decision = assumption
                    break
            if decision == 0:
                decision = self._decide()
                if decision == 0:
                    return True  # complete assignment: model found
            self._decisions_total += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(decision, None)

    def model(self) -> list[bool]:
        """The satisfying assignment found by the last successful solve.

        Index 0 is unused; ``model()[v]`` is the value of variable ``v``.
        """
        return [value == 1 for value in self.assign]

    def top_level_value(self, lit: int) -> int:
        """The literal's value under top-level propagation alone.

        1 true, 0 false, -1 when the clause database does not force it
        at decision level 0.  Restores the solver to level 0 (cheap when
        already there) and completes pending unit propagation first, so
        the answer reflects every clause added so far.  Sound for *all*
        models of the database — which overapproximate the stable models
        when the database is a generator encoding.
        """
        if not self.ok:
            return _UNASSIGNED
        self._backtrack(0)
        if self.propagate() is not None:
            self.ok = False
            self.failed_assumptions = []
            return _UNASSIGNED
        var = abs(lit)
        if var > self.num_vars or self.assign[var] == _UNASSIGNED:
            return _UNASSIGNED
        if self.level[var] != 0:
            return _UNASSIGNED
        return self.value_of(lit)

    @property
    def statistics(self) -> dict[str, int]:
        return {
            "vars": self.num_vars,
            "clauses": len(self.clauses),
            "conflicts": self._conflicts_total,
            "propagations": self._propagations_total,
            "decisions": self._decisions_total,
            "restarts": self._restarts_total,
            "interrupt_polls": self._interrupt_polls_total,
        }
