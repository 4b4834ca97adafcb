"""Differential fuzzing: the correctness backstop for every engine knob.

The repo's strongest correctness asset is that three independent
implementations of XR-Certain — the Definition 1 oracle, the monolithic
Theorem 2 engine, and the segmentary §6 engine — must agree, across every
runtime configuration (caches, family groupings, encodings).  This package turns
that observation into infrastructure:

- :mod:`repro.fuzz.generator` — seeded random scenarios (freeform
  wa-glav/egd mappings and iBench-primitive compositions) with knobs for
  instance size, conflict rate, target-tgd depth, existentials,
  skolem-heavy chains, and boolean/UCQ queries;
- :mod:`repro.fuzz.differential` — the cross-engine runner and its
  invariant checks;
- :mod:`repro.fuzz.faults` — seeded in-solver cutoffs proving that
  budget-degraded answers bracket the exact ones and are never cached;
- :mod:`repro.fuzz.shrink` — delta-debugging minimization of failures;
- :mod:`repro.fuzz.corpus` — serialization and replay of minimal repros
  (``tests/corpus/`` is loaded by the tier-1 suite);
- :mod:`repro.fuzz.render` — scenarios ⇄ the parser's text syntax;
- :mod:`repro.fuzz.xval` — the original (frozen, seed-stable) small-scenario
  cross-validation generator, migrated from the test tree.

CLI: ``python -m repro fuzz --seeds N [--jobs N] [--shrink] [--corpus DIR]``.
"""

from repro.fuzz.corpus import (
    XVAL_REGRESSION_SEEDS,
    build_default_corpus,
    default_corpus_entries,
    load_corpus,
    load_repro,
    replay,
    replay_corpus,
    save_repro,
    scenario_digest,
)
from repro.fuzz.differential import (
    DifferentialReport,
    Discrepancy,
    FuzzFailure,
    FuzzSummary,
    check_seed,
    run_differential,
    run_fuzz,
)
from repro.fuzz.faults import (
    CutoffInjectingExecutor,
    FaultPlan,
    fault_plan_for_seed,
    run_fault_check,
)
from repro.fuzz.generator import (
    DEFAULT_CONFIG,
    PROFILES,
    FuzzConfig,
    random_freeform_scenario,
    random_ibench_fuzz_scenario,
    random_scenario,
)
from repro.fuzz.render import (
    RenderError,
    Scenario,
    mappings_equal,
    parse_scenario,
    queries_equal,
    render_dependency,
    render_instance,
    render_mapping,
    render_query,
    render_scenario,
    scenarios_equal,
)
from repro.fuzz.shrink import shrink_scenario
from repro.fuzz.updates import (
    check_update_seed,
    check_update_stream,
    load_update_corpus,
    parse_update_scenario,
    random_update_stream,
    render_update_scenario,
    replay_update_corpus,
    run_update_fuzz,
    save_update_repro,
    shrink_update_stream,
)

__all__ = [
    "CutoffInjectingExecutor",
    "DEFAULT_CONFIG",
    "DifferentialReport",
    "Discrepancy",
    "FaultPlan",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzSummary",
    "PROFILES",
    "RenderError",
    "Scenario",
    "XVAL_REGRESSION_SEEDS",
    "build_default_corpus",
    "check_seed",
    "default_corpus_entries",
    "fault_plan_for_seed",
    "load_corpus",
    "load_repro",
    "mappings_equal",
    "parse_scenario",
    "queries_equal",
    "random_freeform_scenario",
    "random_ibench_fuzz_scenario",
    "random_scenario",
    "render_dependency",
    "render_instance",
    "render_mapping",
    "render_query",
    "render_scenario",
    "check_update_seed",
    "check_update_stream",
    "load_update_corpus",
    "parse_update_scenario",
    "random_update_stream",
    "render_update_scenario",
    "replay",
    "replay_corpus",
    "replay_update_corpus",
    "run_differential",
    "run_fault_check",
    "run_fuzz",
    "run_update_fuzz",
    "save_repro",
    "save_update_repro",
    "scenario_digest",
    "scenarios_equal",
    "shrink_scenario",
    "shrink_update_stream",
]
