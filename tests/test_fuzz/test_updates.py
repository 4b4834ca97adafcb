"""The update-workload differential harness: generator, serialization,
shrinker, corpus replay, and the deep sweeps (opt-in via ``pytest -m
fuzz``) the ISSUE's acceptance gate runs — ≥100 seeds × ≥20-step streams,
incremental maintenance bit-identical to from-scratch re-exchange."""

import time
from pathlib import Path

import pytest

from repro.fuzz.generator import DEFAULT_CONFIG, random_scenario
from repro.fuzz.updates import (
    check_update_seed,
    check_update_stream,
    load_update_corpus,
    parse_update_scenario,
    random_update_stream,
    render_update_scenario,
    replay_update_corpus,
    run_update_fuzz,
    shrink_update_stream,
)
from repro.incremental import Delta, apply_delta
from repro.relational import Fact, Instance

UPDATES_CORPUS = Path(__file__).resolve().parents[1] / "corpus" / "updates"


class TestStreamGenerator:
    def test_deterministic_per_seed(self):
        scenario = random_scenario(5, DEFAULT_CONFIG)
        first = random_update_stream(5, scenario, 12, DEFAULT_CONFIG)
        second = random_update_stream(5, scenario, 12, DEFAULT_CONFIG)
        assert first == second

    def test_steps_are_effective(self):
        """Every generated step changes the running instance (no no-ops)."""
        scenario = random_scenario(9, DEFAULT_CONFIG)
        deltas = random_update_stream(9, scenario, 12, DEFAULT_CONFIG)
        current = scenario.instance.copy()
        for delta in deltas:
            assert not delta.normalized(current).is_noop()
            current = apply_delta(current, delta)

    def test_streams_only_touch_source_relations(self):
        scenario = random_scenario(2, DEFAULT_CONFIG)
        names = {relation.name for relation in scenario.mapping.source}
        for delta in random_update_stream(2, scenario, 12, DEFAULT_CONFIG):
            for fact in delta.support_facts():
                assert fact.relation in names


class TestSerialization:
    def test_update_scenario_round_trip(self):
        scenario = random_scenario(4, DEFAULT_CONFIG)
        deltas = random_update_stream(4, scenario, 6, DEFAULT_CONFIG)
        text = render_update_scenario(scenario, deltas)
        parsed_scenario, parsed_deltas = parse_update_scenario(text)
        assert parsed_deltas == deltas
        assert set(parsed_scenario.instance) == set(scenario.instance)

    def test_scenario_without_updates_section(self):
        scenario = random_scenario(4, DEFAULT_CONFIG)
        from repro.fuzz.render import render_scenario

        _, deltas = parse_update_scenario(render_scenario(scenario))
        assert deltas == []


class TestShrinker:
    def test_shrinks_to_the_responsible_step(self):
        """ddmin against a synthetic predicate: 'fails iff the stream still
        inserts the poison fact' must shrink to that single operation."""
        scenario = random_scenario(6, DEFAULT_CONFIG)
        relation = next(iter(scenario.mapping.source))
        poison = Fact(relation.name, ("poison",) * relation.arity)
        deltas = random_update_stream(6, scenario, 8, DEFAULT_CONFIG)
        deltas.insert(3, Delta(inserts=frozenset({poison})))

        def is_failing(candidate, stream):
            return any(poison in d.inserts for d in stream)

        shrunk_scenario, shrunk = shrink_update_stream(
            scenario, deltas, is_failing
        )
        assert len(shrunk) == 1
        assert shrunk[0].inserts == frozenset({poison})
        assert not shrunk[0].retracts
        assert len(shrunk_scenario.instance) <= len(scenario.instance)


class TestDifferentialSmoke:
    def test_small_campaign_is_clean(self):
        summary = run_update_fuzz(seeds=4, steps=5, config=DEFAULT_CONFIG)
        details = [
            f"seed {failure.seed}: " + "; ".join(failure.discrepancies)
            for failure in summary.failures
        ]
        assert summary.ok, "\n".join(details)

    def test_detects_a_planted_divergence(self, monkeypatch):
        """Sensitivity check: corrupt the reference replay (drop every
        insert) and the harness must report a mismatch at step 0 —
        otherwise a silent checker would make every sweep vacuously
        green."""
        import repro.fuzz.updates as updates_module

        scenario = random_scenario(1, DEFAULT_CONFIG)
        deltas = [None]
        for seed in range(1, 50):
            candidate = random_update_stream(
                seed, scenario, 4, DEFAULT_CONFIG
            )
            if any(d.normalized(scenario.instance).inserts for d in candidate):
                deltas = candidate
                break
        assert deltas[0] is not None, "no insert-bearing stream found"
        assert check_update_stream(scenario, deltas) == []

        def corrupted(instance, delta):
            return apply_delta(
                instance, Delta(retracts=delta.retracts)
            )

        monkeypatch.setattr(updates_module, "apply_delta", corrupted)
        problems = check_update_stream(scenario, deltas)
        assert problems, "harness failed to notice a corrupted reference"


    def test_detects_engines_kept_past_invalidation(self, monkeypatch):
        """Sensitivity check for the engine store: a cache whose
        ``invalidate_clusters`` forgets to drop the engines of retired
        clusters must fail the replay (``engine-store``); the real one
        passes it.  Retired ids never come back, so such an engine cannot
        answer again — the check catches the leak itself."""
        from repro.fuzz.render import Scenario
        from repro.parser import parse_mapping, parse_program
        from repro.runtime.cache import SignatureProgramCache

        scenario = Scenario(
            mapping=parse_mapping(
                """
                SOURCE R/2. TARGET P/2.
                R(x, y) -> P(x, y).
                P(x, y), P(x, z) -> y = z.
                """
            ),
            instance=Instance(
                [
                    Fact("R", ("a", "b")), Fact("R", ("a", "c")),
                    Fact("R", ("d", "e")), Fact("R", ("d", "g")),
                ]
            ),
            query=parse_program("q(x, y) :- P(x, y)."),
        )
        # Step 0 warms the store (the 'a' family's engine); step 1 retires
        # the 'a' cluster.
        deltas = [
            Delta(retracts=frozenset({Fact("R", ("d", "g"))})),
            Delta(retracts=frozenset({Fact("R", ("a", "c"))})),
        ]
        assert check_update_stream(scenario, deltas) == []

        monkeypatch.setattr(
            SignatureProgramCache, "_drop_engines", lambda self, keys: None
        )
        problems = check_update_stream(scenario, deltas)
        assert any(p.startswith("engine-store mismatch") for p in problems), (
            problems
        )


class TestSolverHardSeeds:
    def test_giant_cluster_seed_is_state_checked_quickly(self):
        """Seed 89 chases 7 source facts into a single giant cluster whose
        repair program is a solver blow-up (hours per answer mode per
        step).  The influence cap must keep the differential check to the
        PTIME state comparisons — completing in seconds, finding
        nothing — instead of wedging every sweep that includes the seed."""
        started = time.perf_counter()
        assert check_update_seed(89, DEFAULT_CONFIG, steps=6) == []
        assert time.perf_counter() - started < 60

    def test_cap_trips_on_seed_89(self):
        """The scenario actually exceeds the cap (guards against the cap
        silently rising above what the seed produces, which would turn
        the test above back into an hours-long solve)."""
        from repro.fuzz.updates import ANSWER_CHECK_INFLUENCE_CAP
        from repro.xr.segmentary import SegmentaryEngine

        scenario = random_scenario(89, DEFAULT_CONFIG)
        deltas = random_update_stream(89, scenario, 6, DEFAULT_CONFIG)
        engine = SegmentaryEngine(scenario.mapping, scenario.instance.copy())
        engine.exchange()
        session = engine.update_session()
        try:
            tripped = False
            for delta in deltas:
                session.apply(delta)
                tripped = tripped or any(
                    len(cluster.influence_ids) > ANSWER_CHECK_INFLUENCE_CAP
                    for cluster in engine.analysis.clusters
                )
            assert tripped
        finally:
            engine.close()


class TestCorpus:
    def test_corpus_exists(self):
        entries = load_update_corpus(UPDATES_CORPUS)
        names = {path.stem for path, _, _ in entries}
        assert "duplicate-head-rule" in names
        assert "update-seed-0018" in names  # found the grounding-key bug
        assert len(entries) >= 5

    def test_corpus_replays_clean(self):
        for path, problems in replay_update_corpus(UPDATES_CORPUS):
            assert not problems, f"{path.name}: " + "; ".join(problems)

    def test_corpus_replays_check_the_reference_exchange(self, monkeypatch):
        """Every replayed step is also compared with the nested-loop
        reference exchange of the updated instance: a reference that
        loses a grounding must be reported at the first step."""
        import repro.fuzz.updates as updates_module

        original = updates_module.reference_exchange_data

        def lossy(*args, **kwargs):
            data = original(*args, **kwargs)
            if data.groundings:
                data.groundings.pop()
            return data

        monkeypatch.setattr(updates_module, "reference_exchange_data", lossy)
        for path, problems in replay_update_corpus(UPDATES_CORPUS):
            assert problems and all(
                problem.startswith("reference-groundings mismatch at step 0")
                for problem in problems
            ), f"{path.name}: {problems}"

    def test_generated_entries_match_their_seeds(self):
        """Seed-named corpus files are regenerable byte-for-byte."""
        for path, _, _ in load_update_corpus(UPDATES_CORPUS):
            if not path.stem.startswith("update-seed-"):
                continue
            seed = int(path.stem.rsplit("-", 1)[1])
            scenario = random_scenario(seed, DEFAULT_CONFIG)
            deltas = random_update_stream(seed, scenario, 10, DEFAULT_CONFIG)
            assert path.read_text() == render_update_scenario(
                scenario, deltas
            ), path.name


@pytest.mark.fuzz
class TestDeepUpdateSweeps:
    def test_deep_update_sweep(self):
        summary = run_update_fuzz(seeds=100, steps=20, config=DEFAULT_CONFIG)
        details = [
            f"seed {failure.seed}: " + "; ".join(failure.discrepancies)
            for failure in summary.failures
        ]
        assert summary.ok, "\n".join(details)

    def test_deep_update_sweep_long_streams(self):
        summary = run_update_fuzz(
            seeds=25, start=500, steps=40, config=DEFAULT_CONFIG
        )
        assert summary.ok, [f.discrepancies for f in summary.failures]
