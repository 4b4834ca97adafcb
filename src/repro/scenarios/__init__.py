"""Synthetic schema-mapping scenarios in the style of iBench.

The paper's concluding remarks name iBench (Arocena, Glavic, Ciucanu,
Miller, PVLDB 2015) as the intended vehicle for broader evaluation of the
segmentary implementation.  This package provides the same kind of
building blocks: parameterized *mapping primitives* (copy, projection,
attribute addition, vertical partitioning, fusion, self-join closure) that
compose into ``glav+(wa-glav, egd)`` schema mappings, plus a seeded source
generator with a controllable conflict rate — so XR-Certain engines can be
exercised on arbitrarily shaped mappings, not just the Genome Browser one.
"""

from repro.scenarios.ibench import (
    PRIMITIVES,
    IBenchScenario,
    ScenarioBuilder,
    random_ibench_scenario,
)
from repro.scenarios.tpch import (
    TPCH_FUZZ_RATIOS,
    TPCH_FUZZ_SCALES,
    TPCHScenario,
    parse_tpch_name,
    tpch_mapping,
    tpch_scenario,
)

__all__ = [
    "PRIMITIVES",
    "IBenchScenario",
    "ScenarioBuilder",
    "random_ibench_scenario",
    "TPCH_FUZZ_RATIOS",
    "TPCH_FUZZ_SCALES",
    "TPCHScenario",
    "parse_tpch_name",
    "tpch_mapping",
    "tpch_scenario",
]
