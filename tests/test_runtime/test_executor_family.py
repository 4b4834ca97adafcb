"""Family solve tasks through the executors.

A ``SolveTask`` decides all its query atoms on one engine
via :func:`repro.asp.reasoning.decide_family`; the outcome carries exact
accept/reject verdicts plus (after a budget cutoff) the undecided
remainder.  These tests pin the solve-path semantics and the
partial-degradation contract.
"""

import time

import pytest

from repro.asp.reasoning import FamilyVerdicts
from repro.asp.syntax import AtomTable, GroundProgram, GroundRule
from repro.relational import Fact
from repro.runtime import (
    Deadline,
    PackedProgram,
    SequentialExecutor,
    SolveTask,
    solve_task,
)
from repro.obs.tracing import Tracer, validate_span_tree
from repro.runtime import executor as executor_module


def family_program() -> GroundProgram:
    """a1 ∨ a2.  a3 :- a1.  a3 :- a2.  a4. — mixed verdicts."""
    program = GroundProgram(AtomTable())
    for index in range(4):
        program.atoms.intern(Fact("a", (index,)))
    program.add_rule(GroundRule(head=(1, 2)))
    program.add_rule(GroundRule(head=(3,), body_pos=(1,)))
    program.add_rule(GroundRule(head=(3,), body_pos=(2,)))
    program.add_rule(GroundRule(head=(4,)))
    return program


def unsat_program() -> GroundProgram:
    """a1 :- not a1. — no stable model."""
    program = GroundProgram(AtomTable())
    program.atoms.intern(Fact("a", (0,)))
    program.add_rule(GroundRule(head=(1,), body_neg=(1,)))
    return program


def family_task(mode: str = "certain", **kwargs) -> SolveTask:
    return SolveTask(
        PackedProgram.pack(family_program()), (1, 2, 3, 4), mode, **kwargs
    )


class TestFamilyWorkerPath:
    def test_cautious_family_verdicts(self):
        outcome = solve_task(family_task("certain"))
        assert outcome.ok
        assert outcome.decided == frozenset({3, 4})
        assert outcome.rejected == frozenset({1, 2})
        assert outcome.undecided == frozenset()

    def test_brave_family_verdicts(self):
        outcome = solve_task(family_task("possible"))
        assert outcome.ok
        assert outcome.decided == frozenset({1, 2, 3, 4})
        assert outcome.rejected == frozenset()

    def test_family_stats_carry_reuse_counters(self):
        outcome = solve_task(family_task("certain"))
        assert "core_skips" in outcome.solver_stats
        assert "family_models" in outcome.solver_stats
        assert outcome.solver_stats["family_models"] >= 1
        assert "carried_clauses" in outcome.solver_stats

    def test_no_stable_model_reports_decided_none(self):
        outcome = solve_task(
            SolveTask(
                PackedProgram.pack(unsat_program()), (1,), "certain"
            )
        )
        assert outcome.ok
        assert outcome.decided is None

    def test_expired_deadline_degrades_per_candidate(self):
        import time

        # Even a deadline that fires before the first model is a *partial*
        # family outcome (zero verdicts, everything undecided) — never the
        # decided=None shape, which is reserved for cutoffs outside
        # decide_family (batch deadline, crashes).
        outcome = solve_task(
            family_task("certain"), deadline_at=time.monotonic() - 1.0
        )
        assert outcome.status == "timeout"
        assert outcome.decided == frozenset()
        assert outcome.rejected == frozenset()
        assert outcome.undecided == frozenset({1, 2, 3, 4})

    def test_trace_span_nests_under_caller(self):
        tracer = Tracer()
        with tracer.span("query.solve"):
            outcome = solve_task(family_task("certain"), tracer=tracer)
        [root] = tracer.finished
        [task] = root.children
        assert task.name == "solve.task"
        assert task.tags["status"] == outcome.status == "ok"
        assert task.counters["family_models"] >= 1
        assert validate_span_tree(root) == []


class TestFamilyPartialDegradation:
    def test_partial_verdicts_become_a_partial_timeout(self, monkeypatch):
        partial = FamilyVerdicts(
            accepted=frozenset({3}),
            rejected=frozenset({1}),
            undecided=frozenset({2, 4}),
            stats={"core_skips": 1, "family_models": 2},
        )
        monkeypatch.setattr(
            executor_module, "decide_family", lambda *a, **k: partial
        )
        outcome = solve_task(family_task("certain"))
        assert outcome.status == "timeout"
        assert not outcome.ok
        assert outcome.decided == frozenset({3})
        assert outcome.rejected == frozenset({1})
        assert outcome.undecided == frozenset({2, 4})
        # The family's own stats ship as the outcome's solver_stats.
        assert outcome.solver_stats == partial.stats

    def test_sequential_executor_returns_partial_outcomes(self, monkeypatch):
        partial = FamilyVerdicts(
            accepted=frozenset(),
            rejected=frozenset(),
            undecided=frozenset({1, 2, 3, 4}),
        )
        monkeypatch.setattr(
            executor_module, "decide_family", lambda *a, **k: partial
        )
        outcomes = SequentialExecutor().run([family_task("certain")])
        assert outcomes[0].status == "timeout"
        assert outcomes[0].decided == frozenset()
        assert outcomes[0].undecided == frozenset({1, 2, 3, 4})


class TestFamilyDeadline:
    def test_batch_deadline_times_out_families(self):
        outcomes = SequentialExecutor().run(
            [family_task("certain")],
            deadline=Deadline(time.monotonic() - 1.0),
        )
        assert outcomes[0].status == "timeout"
        assert outcomes[0].decided is None


class TestFamilyModeMapping:
    @pytest.mark.parametrize(
        "task_mode, accepted",
        [("certain", frozenset({3, 4})), ("possible", frozenset({1, 2, 3, 4}))],
    )
    def test_task_mode_maps_to_family_quantifier(self, task_mode, accepted):
        outcome = solve_task(family_task(task_mode))
        assert outcome.decided == accepted
