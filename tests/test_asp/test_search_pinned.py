"""Search statistics pinned on seeded inputs.

Which model a CDCL search finds, and how much work it does to get there,
follows from the order in which it visits watch lists, resolves
conflicts and picks decisions.  Rewrites of the solver's inner loops for
speed must keep that order, so these counts — recorded before the
propagation loop was inlined — must come out exactly:

- seeded random 3-CNFs near the satisfiability threshold, each solved
  once and then three times under random assumptions (failed cores too);
- the stable models of every family repair program the segmentary
  engine builds for the TPC-H SF 0.01 r0.2 seed 0 cell of the family
  program golden (``tests/corpus/family_programs.golden.json``), up to
  eight per program, enumerated on a fresh engine.

Re-record (only for an intended change of search order) with::

    PYTHONPATH=src python -m tests.test_asp.test_search_pinned
"""

from __future__ import annotations

import pprint
import random

from repro.asp.sat import SatSolver
from repro.asp.stable import StableModelEngine

COUNTERS = ("conflicts", "propagations", "decisions", "restarts")
CNF_SEEDS = range(12)

#: Per CNF seed: the four solve results, the three failed cores (None
#: after a satisfiable solve), then conflicts, propagations, decisions
#: and restarts.
CNF_EXPECTED = (
    (
        (True, True, False, False),
        (None, (86, -23, -79), (-73, 99, 111)),
        414, 10542, 583, 4,
    ),
    (
        (False, False, False, False),
        ((), (), ()),
        206, 3642, 246, 2,
    ),
    (
        (False, False, False, False),
        ((), (), ()),
        1058, 27897, 1285, 10,
    ),
    (
        (True, False, True, True),
        ((-13, 45, -1), None, None),
        91, 1917, 168, 0,
    ),
    (
        (True, False, False, False),
        ((-32, -42, -43), (-21, -24), (-43, 53, 1)),
        48, 890, 74, 0,
    ),
    (
        (True, True, True, False),
        (None, None, (94, -53, 76)),
        360, 8981, 543, 4,
    ),
    (
        (True, True, False, True),
        (None, (-32, 81, 70), None),
        352, 9874, 512, 3,
    ),
    (
        (True, True, True, True),
        (None, None, None),
        152, 3403, 252, 1,
    ),
    (
        (True, True, True, True),
        (None, None, None),
        131, 3051, 212, 0,
    ),
    (
        (True, False, False, True),
        ((64, 53, -66), (-13, 24, -88), None),
        105, 2332, 156, 0,
    ),
    (
        (True, False, False, False),
        ((-15, -32, 65), (-21, -57), (64, 74, 61)),
        330, 7423, 411, 2,
    ),
    (
        (False, False, False, False),
        ((), (), ()),
        424, 9635, 521, 5,
    ),
)
#: Per family program the models found, then the summed counters.
FAMILIES_EXPECTED = (
    (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3),
    249, 330553, 2106, 0,
)


def cnf_run(seed: int) -> tuple:
    """Solve one seeded 3-CNF, then three times under assumptions."""
    rng = random.Random(seed)
    num_vars = rng.randint(60, 120)
    solver = SatSolver(num_vars)
    for _ in range(int(num_vars * 4.1)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        solver.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    results = [solver.solve()]
    cores = []
    for _ in range(3):
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), 3)
        ]
        results.append(solver.solve(assumptions))
        cores.append(solver.failed_assumptions)
    stats = solver.statistics
    return (
        tuple(results),
        tuple(None if core is None else tuple(core) for core in cores),
        *(stats[key] for key in COUNTERS),
    )


def family_programs() -> list:
    """Every family repair program the golden's TPC-H cell and genomics
    S3 build, in build order (certain mode, no cache)."""
    import repro.xr.segmentary as segmentary
    from repro import SegmentaryEngine, parse_query
    from repro.genomics import build_instance, genome_mapping
    from repro.genomics.queries import all_queries
    from repro.scenarios.tpch import tpch_scenario
    from tests.test_xr.test_program_golden import TPCH_QUERIES

    built = []
    original = segmentary.build_family_program

    def spy(*args, **kwargs):
        xr_program = original(*args, **kwargs)
        built.append(xr_program.program)
        return xr_program

    tpch = tpch_scenario(0.01, 0.2, 0)
    genomics = build_instance("S3")
    runs = (
        (tpch.mapping, tpch.instance, map(parse_query, TPCH_QUERIES)),
        (genome_mapping(), genomics.instance, (q for _n, q in all_queries())),
    )
    segmentary.build_family_program = spy
    try:
        for mapping, instance, queries in runs:
            engine = SegmentaryEngine(mapping, instance, cache=False)
            for query in queries:
                engine.answer(query)
            engine.close()
    finally:
        segmentary.build_family_program = original
    return built


def families_run() -> tuple:
    """Models found per family, then the counters summed over them."""
    totals = dict.fromkeys(COUNTERS, 0)
    models = []
    for program in family_programs():
        engine = StableModelEngine(program)
        models.append(len(list(engine.stable_models(limit=8))))
        stats = engine.statistics
        for key in COUNTERS:
            totals[key] += stats[key]
    return (tuple(models), *totals.values())


def test_cnf_search_matches_recording():
    assert tuple(cnf_run(seed) for seed in CNF_SEEDS) == CNF_EXPECTED


def test_family_enumeration_matches_recording():
    assert families_run() == FAMILIES_EXPECTED


if __name__ == "__main__":
    pprint.pprint(tuple(cnf_run(seed) for seed in CNF_SEEDS))
    pprint.pprint(families_run())
