"""Units for the resource-governance layer (repro.runtime.budget)."""

import pickle
import time

import pytest

from repro.asp.sat import SatSolver
from repro.asp.stable import StableModelEngine
from repro.asp.syntax import AtomTable, GroundProgram, GroundRule
from repro.cli import build_parser
from repro.relational import Fact
from repro.runtime.budget import (
    NO_BUDGET,
    Deadline,
    SolveBudget,
    SolveBudgetExceeded,
    backoff_delay,
)
from repro.runtime.executor import PackedProgram, SolveTask, solve_task


def tiny_program() -> GroundProgram:
    program = GroundProgram(AtomTable())
    program.atoms.intern(Fact("a", (1,)))
    program.atoms.intern(Fact("a", (2,)))
    program.add_rule(GroundRule(head=(1,)))
    program.add_rule(GroundRule(head=(2,), body_pos=(1,)))
    return program


class TestBackoffDelay:
    def test_doubles_per_attempt(self):
        assert backoff_delay(0, 0.05, 1.0) == pytest.approx(0.05)
        assert backoff_delay(1, 0.05, 1.0) == pytest.approx(0.10)
        assert backoff_delay(2, 0.05, 1.0) == pytest.approx(0.20)

    def test_capped(self):
        assert backoff_delay(30, 0.05, 1.0) == 1.0

    def test_zero_base_means_no_delay(self):
        assert backoff_delay(5, 0.0, 1.0) == 0.0

    def test_negative_attempt_clamped(self):
        assert backoff_delay(-3, 0.05, 1.0) == pytest.approx(0.05)


class TestDeadline:
    def test_unbounded_is_a_no_op(self):
        deadline = Deadline.after(None)
        assert deadline.deadline_at is None
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.check()  # must not raise

    def test_expiry_and_check(self):
        deadline = Deadline.after(1e-9)
        time.sleep(0.001)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(SolveBudgetExceeded):
            deadline.check()

    def test_future_deadline_not_expired(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert deadline.remaining() > 59.0
        deadline.check()

    def test_tightest_picks_the_earlier_cutoff(self):
        now = time.monotonic()
        assert Deadline.tightest() is None
        only_timeout = Deadline.tightest(timeout=60.0)
        assert only_timeout.deadline_at == pytest.approx(now + 60.0, abs=1.0)
        only_at = Deadline.tightest(at=now + 5.0)
        assert only_at.deadline_at == now + 5.0
        both = Deadline.tightest(timeout=60.0, at=now + 5.0)
        assert both.deadline_at == now + 5.0


class TestSolveBudget:
    def test_null_budget(self):
        assert NO_BUDGET.is_null
        assert NO_BUDGET.started() is None
        assert NO_BUDGET.single_solve_deadline() is None

    def test_any_knob_disarms_is_null(self):
        assert not SolveBudget(deadline=1.0).is_null
        assert not SolveBudget(task_timeout=1.0).is_null
        assert not SolveBudget(max_retries=1).is_null

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveBudget(deadline=0.0)
        with pytest.raises(ValueError):
            SolveBudget(task_timeout=-1.0)
        with pytest.raises(ValueError):
            SolveBudget(max_retries=-1)
        # A NaN or infinite deadline never fires, yet would still leave
        # the NO_BUDGET fast path.
        for knob in ("deadline", "task_timeout"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="finite"):
                    SolveBudget(**{knob: value})

    def test_started_counts_down_the_query_deadline(self):
        clock = SolveBudget(deadline=60.0).started()
        assert clock is not None
        assert 59.0 < clock.remaining() <= 60.0

    def test_single_solve_deadline_takes_the_tighter_bound(self):
        budget = SolveBudget(deadline=60.0, task_timeout=1.0)
        deadline = budget.single_solve_deadline()
        assert deadline.remaining() <= 1.0

    def test_retry_delay_uses_the_budget_backoff(self):
        budget = SolveBudget(max_retries=3, retry_backoff=0.02, backoff_cap=0.05)
        assert budget.retry_delay(0) == pytest.approx(0.02)
        assert budget.retry_delay(10) == 0.05

    def test_pickles_roundtrip(self):
        budget = SolveBudget(deadline=2.0, task_timeout=0.5, max_retries=1)
        assert pickle.loads(pickle.dumps(budget)) == budget
        assert pickle.loads(pickle.dumps(NO_BUDGET)) == NO_BUDGET


class TestCooperativeInterrupt:
    def test_sat_solver_interrupt_fires_during_search(self):
        # 300 free variables force > 64 decision-loop iterations, so an
        # already-expired deadline must abort the search mid-solve.
        solver = SatSolver(300)
        solver.interrupt_check = Deadline(time.monotonic() - 1.0).check
        with pytest.raises(SolveBudgetExceeded):
            solver.solve()

    def test_sat_solver_without_hook_solves(self):
        solver = SatSolver(300)
        assert solver.solve()

    def test_stable_engine_checks_deadline_between_models(self):
        engine = StableModelEngine(
            tiny_program(), deadline=Deadline(time.monotonic() - 1.0)
        )
        with pytest.raises(SolveBudgetExceeded):
            engine.next_stable_model()


class TestSolveTaskBudget:
    def test_expired_batch_deadline_times_out(self):
        task = SolveTask(PackedProgram.pack(tiny_program()), (1, 2))
        outcome = solve_task(task, deadline_at=time.monotonic() - 1.0)
        # The family contract: the cutoff is caught inside the solve, so
        # the outcome is partial — nothing decided, every atom undecided.
        assert outcome.status == "timeout"
        assert not outcome.ok
        assert outcome.decided == frozenset()
        assert outcome.undecided == frozenset({1, 2})

    def test_generous_task_timeout_solves_normally(self):
        task = SolveTask(
            PackedProgram.pack(tiny_program()),
            (1, 2),
            budget=SolveBudget(task_timeout=60.0),
        )
        outcome = solve_task(task)
        assert outcome.ok
        assert outcome.decided == frozenset({1, 2})


class TestCliBudgetFlags:
    def test_answer_accepts_budget_flags(self):
        arguments = build_parser().parse_args(
            [
                "answer", "-m", "m.txt", "-d", "d.txt", "-q", "q() :- T(x).",
                "--deadline", "5", "--task-timeout", "0.5", "--retries", "2",
            ]
        )
        assert arguments.deadline == 5.0
        assert arguments.task_timeout == 0.5
        assert arguments.retries == 2

    def test_budget_flags_default_to_no_budget(self):
        arguments = build_parser().parse_args(
            ["answer", "-m", "m.txt", "-d", "d.txt", "-q", "q() :- T(x)."]
        )
        assert arguments.deadline is None
        assert arguments.task_timeout is None
        assert arguments.retries == 0

    def test_fuzz_accepts_faults_flag(self):
        arguments = build_parser().parse_args(["fuzz", "--seeds", "5", "--faults"])
        assert arguments.faults is True
