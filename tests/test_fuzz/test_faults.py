"""Injected-cutoff differential checks (repro.fuzz.faults).

Tier-1 covers plan determinism and a known-interesting seed whose query
phase dispatches solver tasks, so the planned cutoffs really fire.  The
25-seed sweep mirrors the CI degraded-answers smoke job and is excluded
from tier-1 via the ``faults`` marker.
"""

import pytest

from repro.fuzz.faults import (
    CutoffInjectingExecutor,
    fault_plan_for_seed,
    run_fault_check,
)
from repro.fuzz.generator import DEFAULT_CONFIG, random_scenario
from repro.xr.segmentary import SegmentaryEngine

# Under DEFAULT_CONFIG this seed produces a scenario whose query phase
# actually dispatches solver tasks (most random scenarios are decided
# trivially), so the injected cutoff really fires.
CUTOFF_SEED = 15


class TestFaultPlans:
    def test_deterministic_per_seed(self):
        for seed in (0, 1, 7, 15, 34, 1000):
            assert fault_plan_for_seed(seed) == fault_plan_for_seed(seed)

    def test_distinct_across_seeds(self):
        plans = {fault_plan_for_seed(seed) for seed in range(20)}
        assert len(plans) > 1

    def test_index_zero_always_faulted(self):
        # Segmentary batches are often a single task; a plan that never
        # touches index 0 would inject nothing on them.
        for seed in range(50):
            assert 0 in fault_plan_for_seed(seed).cut_on


class TestKnownSeeds:
    def test_cutoff_seed_invariants_hold(self):
        scenario = random_scenario(CUTOFF_SEED, DEFAULT_CONFIG)
        problems = run_fault_check(scenario, seed=CUTOFF_SEED)
        assert problems == []

    def test_cutoff_seed_really_degrades(self):
        scenario = random_scenario(CUTOFF_SEED, DEFAULT_CONFIG)
        executor = CutoffInjectingExecutor(fault_plan_for_seed(CUTOFF_SEED))
        with SegmentaryEngine(
            scenario.mapping, scenario.instance, executor=executor
        ) as engine:
            _, stats = engine.answer_with_stats(
                scenario.query, allow_partial=True
            )
        assert stats.degraded and stats.unknown_candidates


@pytest.mark.faults
class TestFaultSweep:
    def test_twenty_five_seeds(self):
        failures = []
        for seed in range(25):
            scenario = random_scenario(seed, DEFAULT_CONFIG)
            problems = run_fault_check(scenario, seed=seed)
            failures.extend(f"seed {seed}: {p}" for p in problems)
        assert failures == []
