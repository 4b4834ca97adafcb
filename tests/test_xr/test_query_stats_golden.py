"""Query-phase stats pinned beyond the cold path.

``tests/corpus/query_stats.golden.json`` holds the deterministic
:class:`~repro.xr.segmentary.QueryPhaseStats` fields of six query paths
per scenario, over the checked-in corpus, a fixed set of generated fuzz
seeds and the TPC-H cell of ``test_program_golden`` under its four
queries:

- ``cold-certain`` / ``cold-possible`` — a fresh engine's first asks;
- ``warm-repeat`` — the certain query again (program-cache hits);
- ``renamed`` — a structurally equal query under another head name
  (the program keys differ, the decision-memo keys do not: memo hits);
- ``engine-reuse`` — ``cache.clear_answers()`` then the certain query
  (the answer layers are empty, the family engines are kept);
- ``cutoff`` — a fresh engine whose first family solve is cut off, with
  ``allow_partial=True``.

Timings and the solver's search counters (``core_skips``,
``carried_clauses``, ``solver_stats``) are left out, as
``GOLDEN_METRIC_PREFIXES`` leaves them out of the metric goldens; every
field kept reads the same under any ``PYTHONHASHSEED``.

Re-record deliberately, only when the expected work changes::

    PYTHONPATH=src python -m tests.test_xr.test_query_stats_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fuzz.corpus import load_corpus
from repro.fuzz.faults import CutoffInjectingExecutor, FaultPlan
from repro.fuzz.generator import FuzzConfig, random_scenario
from repro.fuzz.render import Scenario
from repro.parser import parse_query
from repro.reduction.reduce import reduce_mapping
from repro.relational.queries import (
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
)
from repro.scenarios.tpch import tpch_scenario
from repro.xr.segmentary import SegmentaryEngine
from tests.test_xr.test_program_golden import TPCH_QUERIES

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
GOLDEN_FILE = CORPUS_DIR / "query_stats.golden.json"

#: Generated scenarios pinned beside the corpus: fuzz seeds whose query
#: reaches a family solve (two of them with two families), plus two whose
#: candidates are all safe.
FUZZ_SEEDS = {
    "mixed": (0, 2, 15, 24, 34, 94, 113, 128, 143),
    "tpch": (27,),
}

FIELDS = (
    "candidates", "safe_candidates", "signatures", "programs_solved",
    "families_solved", "family_candidates", "largest_program_atoms",
    "total_rules", "cache_hits", "cache_misses", "memo_hits",
    "memo_misses", "engines_built", "engine_reuses", "timeouts",
    "degraded", "unknown_candidates",
)


def pinned_scenarios() -> dict:
    scenarios = {path.stem: s for path, s in load_corpus(CORPUS_DIR)}
    for profile, seeds in FUZZ_SEEDS.items():
        config = FuzzConfig(profile=profile)
        for seed in seeds:
            scenarios[f"{profile}-seed-{seed}"] = random_scenario(seed, config)
    tpch = tpch_scenario(0.01, 0.2, 0)
    for text in TPCH_QUERIES:
        query = parse_query(text)
        scenarios[f"tpch-sf0.01-r0.2-seed0-{query.name}"] = Scenario(
            tpch.mapping, tpch.instance, query
        )
    return scenarios


def renamed(query):
    """``query`` under another head name, structurally unchanged."""
    if isinstance(query, UnionOfConjunctiveQueries):
        return UnionOfConjunctiveQueries(
            [renamed(d) for d in query.disjuncts], name=f"{query.name}_r"
        )
    return ConjunctiveQuery(
        query.head_vars, query.body, query.inequalities, name=f"{query.name}_r"
    )


def pinned_fields(stats) -> dict:
    row = {name: getattr(stats, name) for name in FIELDS}
    row["unknown_candidates"] = sorted(map(repr, row["unknown_candidates"]))
    return row


def scenario_stats(scenario) -> dict[str, dict]:
    """The pinned fields of every query path over ``scenario``."""
    reduced = reduce_mapping(scenario.mapping)
    query = scenario.query
    paths: dict[str, dict] = {}
    with SegmentaryEngine(reduced, scenario.instance) as engine:
        for path, ask, mode in (
            ("cold-certain", query, "certain"),
            ("cold-possible", query, "possible"),
            ("warm-repeat", query, "certain"),
            ("renamed", renamed(query), "certain"),
        ):
            _answers, stats = engine.answer_with_stats(ask, mode=mode)
            paths[path] = pinned_fields(stats)
        engine.cache.clear_answers()
        _answers, stats = engine.answer_with_stats(query, mode="certain")
        paths["engine-reuse"] = pinned_fields(stats)
    with SegmentaryEngine(
        reduced,
        scenario.instance,
        executor=CutoffInjectingExecutor(FaultPlan(cut_on=frozenset({0}))),
    ) as engine:
        _answers, stats = engine.answer_with_stats(
            query, mode="certain", allow_partial=True
        )
        paths["cutoff"] = pinned_fields(stats)
    return paths


def record() -> Path:
    goldens = {
        name: scenario_stats(scenario)
        for name, scenario in sorted(pinned_scenarios().items())
    }
    GOLDEN_FILE.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return GOLDEN_FILE


SCENARIOS = pinned_scenarios()


def test_golden_file_covers_every_pinned_scenario_and_path():
    goldens = json.loads(GOLDEN_FILE.read_text())
    assert set(goldens) == set(SCENARIOS)
    paths = {frozenset(paths) for paths in goldens.values()}
    assert paths == {frozenset({
        "cold-certain", "cold-possible", "warm-repeat", "renamed",
        "engine-reuse", "cutoff",
    })}


def test_the_pin_exercises_every_path():
    """Each path does what its name says somewhere in the pin."""
    rows = json.loads(GOLDEN_FILE.read_text()).values()
    assert any(r["cold-certain"]["families_solved"] for r in rows)
    assert any(r["warm-repeat"]["cache_hits"] for r in rows)
    assert any(
        r["renamed"]["memo_hits"] and not r["renamed"]["cache_hits"]
        for r in rows
    )
    assert any(
        r["engine-reuse"]["engine_reuses"]
        and not r["engine-reuse"]["engines_built"]
        for r in rows
    )
    assert any(r["cutoff"]["degraded"] for r in rows)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_query_phase_stats_match_the_pin(name):
    goldens = json.loads(GOLDEN_FILE.read_text())
    assert scenario_stats(SCENARIOS[name]) == goldens[name]


if __name__ == "__main__":
    print(record())
