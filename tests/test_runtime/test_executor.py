"""Tests for the in-process solve executor."""

import pickle
import time

from repro.asp.syntax import AtomTable, GroundProgram, GroundRule
from repro.relational import Fact, SkolemValue
from repro.runtime import (
    NO_BUDGET,
    Deadline,
    PackedProgram,
    SequentialExecutor,
    SolveBudget,
    SolveTask,
    solve_task,
)


def chain_program(length: int) -> GroundProgram:
    """a1. a2 :- a1. ... — every atom cautiously true."""
    program = GroundProgram(AtomTable())
    for index in range(length):
        program.atoms.intern(Fact("a", (index,)))
    program.add_rule(GroundRule(head=(1,)))
    for atom in range(2, length + 1):
        program.add_rule(GroundRule(head=(atom,), body_pos=(atom - 1,)))
    return program


def guess_program() -> GroundProgram:
    """a1 ∨ a2. — neither cautious, both brave."""
    program = GroundProgram(AtomTable())
    program.atoms.intern(Fact("a", (1,)))
    program.atoms.intern(Fact("a", (2,)))
    program.add_rule(GroundRule(head=(1, 2)))
    return program


def a_batch(budget: SolveBudget = NO_BUDGET) -> list[SolveTask]:
    tasks = [
        SolveTask(
            PackedProgram.pack(chain_program(n)), tuple(range(1, n + 1)),
            budget=budget,
        )
        for n in (2, 3, 4)
    ]
    tasks.append(
        SolveTask(PackedProgram.pack(guess_program()), (1, 2), "certain", budget)
    )
    tasks.append(
        SolveTask(PackedProgram.pack(guess_program()), (1, 2), "possible", budget)
    )
    return tasks


EXPECTED = [
    frozenset({1, 2}),
    frozenset({1, 2, 3}),
    frozenset({1, 2, 3, 4}),
    frozenset(),          # disjunctive guess: nothing cautious
    frozenset({1, 2}),    # ... but everything brave
]


class TestSolveTask:
    def test_outcome_fields(self):
        outcome = solve_task(a_batch()[0])
        assert outcome.decided == EXPECTED[0]
        assert outcome.seconds >= 0
        assert "conflicts" in outcome.solver_stats
        assert outcome.solver_stats["vars"] >= 2

    def test_packed_program_is_idempotent(self):
        packed = PackedProgram.pack(chain_program(2))
        assert PackedProgram.pack(packed) is packed

    def test_packed_program_pickles_without_atom_table(self):
        packed = PackedProgram.pack(chain_program(3))
        clone = pickle.loads(pickle.dumps(packed))
        assert clone.num_atoms == 3
        assert clone.rules == packed.rules


class TestSequentialExecutor:
    def test_order_preserving(self):
        outcomes = SequentialExecutor().run(a_batch())
        assert [o.decided for o in outcomes] == EXPECTED


class TestDeadlines:
    def test_sequential_expired_deadline_times_out_everything(self):
        outcomes = SequentialExecutor().run(
            a_batch(), deadline=Deadline(time.monotonic() - 1.0)
        )
        assert all(o.status == "timeout" for o in outcomes)

    def test_no_deadline_is_answer_identical(self):
        outcomes = SequentialExecutor().run(a_batch(), deadline=None)
        assert [o.decided for o in outcomes] == EXPECTED
        assert all(o.ok for o in outcomes)

    def test_generous_deadline_is_answer_identical(self):
        outcomes = SequentialExecutor().run(
            a_batch(SolveBudget(task_timeout=60.0)),
            deadline=Deadline.after(60.0),
        )
        assert [o.decided for o in outcomes] == EXPECTED
        assert all(o.ok for o in outcomes)


class TestSpawnSafePickling:
    """Values embed their hash; unpickling must recompute it, because str
    hashes are salted per interpreter (spawn-started fuzz campaign
    workers differ)."""

    def test_fact_roundtrip(self):
        fact = Fact("R", ("a", 1, SkolemValue("f", ("x",))))
        clone = pickle.loads(pickle.dumps(fact))
        assert clone == fact
        assert hash(clone) == hash(fact)
        assert clone in {fact}

    def test_skolem_roundtrip(self):
        value = SkolemValue("f", ("a", SkolemValue("g", (1,))))
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value
        assert clone in {value}

    def test_fact_hash_recomputed_not_copied(self):
        fact = Fact("R", ("a",))
        payload = fact.__reduce__()
        assert payload == (Fact, ("R", ("a",)))  # no baked-in _hash
