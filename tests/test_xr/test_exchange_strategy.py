"""The batch-vs-reference differential battery.

``build_exchange_data`` (the batch hash joins) must be **bit-identical**
to the nested-loop ``reference_exchange_data`` — same chased instance,
same canonical grounding and violation lists, same interned id universe
and adjacency arrays, same cluster partition — across the fuzz corpus,
freeform/iBench fuzz seeds, and the TPC-H grid.  ``run_differential``
repeats the artifact check, plus the query-grounding check, on every
fuzz seed; its sensitivity is tested here too.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz.corpus import load_corpus
from repro.fuzz.differential import run_differential
from repro.fuzz.generator import DEFAULT_CONFIG, random_scenario
from repro.parser import parse_mapping, parse_query
from repro.reduction.reduce import reduce_mapping
from repro.relational import Fact, Instance
from repro.scenarios.tpch import tpch_scenario
from repro.xr.envelope import analyze_envelopes
from repro.chase.gav import (
    COMPARED_FIELDS,
    exchange_mismatches,
    reference_exchange_data,
)
from repro.xr.exchange import build_exchange_data
from repro.xr.monolithic import MonolithicEngine
from repro.xr.segmentary import SegmentaryEngine

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"

#: The exchange builders: production and the nested-loop reference.
BUILDERS = {"batch": build_exchange_data, "reference": reference_exchange_data}


def assert_identical_exchange(mapping, instance, label):
    gav = mapping if mapping.is_gav_gav_egd() else reduce_mapping(mapping).gav
    batch = build_exchange_data(gav, instance)
    reference = reference_exchange_data(gav, instance)
    # The Instance's iteration order is incidental (chase insertion
    # order); the canonical order lives in the interned universe
    # (``facts_by_id``), compared below.
    assert set(batch.chased) == set(reference.chased), f"{label}: chased"
    for name in COMPARED_FIELDS:
        assert getattr(batch, name) == getattr(reference, name), f"{label}: {name}"
    batch_clusters = {
        frozenset(map(repr, c.violations))
        for c in analyze_envelopes(batch).clusters
    }
    reference_clusters = {
        frozenset(map(repr, c.violations))
        for c in analyze_envelopes(reference).clusters
    }
    assert batch_clusters == reference_clusters, f"{label}: clusters"


class TestFuzzSeeds:
    @pytest.mark.parametrize("seed", range(25))
    def test_freeform_and_mixed_seeds(self, seed):
        scenario = random_scenario(seed, DEFAULT_CONFIG)
        assert_identical_exchange(
            scenario.mapping, scenario.instance, f"seed {seed}"
        )

    @pytest.mark.parametrize("seed", (0, 3, 11, 17, 29))
    def test_ibench_seeds(self, seed):
        config = replace(DEFAULT_CONFIG, profile="ibench")
        scenario = random_scenario(seed, config)
        assert_identical_exchange(
            scenario.mapping, scenario.instance, f"ibench seed {seed}"
        )


class TestCorpusAndTpch:
    def test_checked_in_corpus(self):
        entries = load_corpus(CORPUS_DIR)
        assert entries
        for path, scenario in entries:
            assert_identical_exchange(
                scenario.mapping, scenario.instance, path.name
            )

    @pytest.mark.parametrize(
        "scale,ratio,seed",
        [(0.002, 0.0, 0), (0.005, 0.2, 1), (0.005, 0.5, 2), (0.01, 0.2, 0)],
    )
    def test_tpch_grid(self, scale, ratio, seed):
        scenario = tpch_scenario(scale, ratio, seed)
        assert_identical_exchange(
            scenario.mapping, scenario.instance,
            f"tpch sf={scale} r={ratio} seed={seed}",
        )


class TestEngineCross:
    def test_run_differential_checks_reference_artifacts(self):
        """The differential harness compares the exchange data and the
        query grounding with the nested-loop reference on every seed; a
        clean report therefore certifies artifact-level agreement."""
        config = replace(
            DEFAULT_CONFIG, use_oracle=False, check_parallel=False
        )
        scenario = random_scenario(12, config)
        report = run_differential(scenario, config)
        assert {"reference-exchange", "reference-grounding"} <= set(
            report.engines
        )
        assert report.ok, "; ".join(str(d) for d in report.discrepancies)

    def test_run_differential_reports_planted_mismatches(self, monkeypatch):
        """Sensitivity: a reference that loses a grounding, or a query
        grounding that loses a support, must each be reported."""
        import repro.fuzz.differential as differential

        config = replace(
            DEFAULT_CONFIG, use_oracle=False, check_parallel=False,
            check_figure1=False, check_possible=False,
        )
        scenario = random_scenario(12, config)
        original_exchange = differential.reference_exchange_data

        def lossy_exchange(*args, **kwargs):
            data = original_exchange(*args, **kwargs)
            data.groundings.pop()
            return data

        monkeypatch.setattr(
            differential, "reference_exchange_data", lossy_exchange
        )
        kinds = {d.kind for d in run_differential(scenario, config).discrepancies}
        assert kinds == {"exchange-mismatch"}
        monkeypatch.undo()

        original_grounding = differential.ground_query
        monkeypatch.setattr(
            differential,
            "ground_query",
            lambda *args, **kwargs: original_grounding(*args, **kwargs)[1:],
        )
        kinds = {d.kind for d in run_differential(scenario, config).discrepancies}
        assert "grounding-mismatch" in kinds

    def test_exchange_mismatches_names_every_compared_field(self):
        scenario = tpch_scenario(0.002, 0.2, 0)
        gav = reduce_mapping(scenario.mapping).gav
        reference = reference_exchange_data(gav, scenario.instance)
        assert exchange_mismatches(
            build_exchange_data(gav, scenario.instance), reference
        ) == []
        broken = reference_exchange_data(gav, scenario.instance)
        for name in COMPARED_FIELDS:
            value = getattr(broken, name)
            value.pop() if isinstance(value, list) else value.popitem()
        broken.chased.discard(next(iter(broken.chased)))
        assert exchange_mismatches(broken, reference) == [
            "chased", *COMPARED_FIELDS
        ]


class TestSourceSchemaCheck:
    MAPPING_TEXT = """
        SOURCE S/2. TARGET T/2.
        S(x, y) -> T(x, y).
        T(x, y), T(x, z) -> y = z.
    """

    def gav(self):
        return parse_mapping(self.MAPPING_TEXT)

    def instance(self):
        return Instance([Fact("S", (1, 2)), Fact("S", (7,))])

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_wrong_arity_is_rejected_by_both_strategies(self, builder):
        with pytest.raises(ValueError, match=r"S\(7\).*arity 2"):
            BUILDERS[builder](self.gav(), self.instance())

    def test_every_engine_rejects_wrong_arity(self):
        query = parse_query("q(x) :- T(x, y).")
        for engine in (
            SegmentaryEngine(self.gav(), self.instance()),
            MonolithicEngine(self.gav(), self.instance()),
        ):
            with pytest.raises(ValueError, match="arity 2"):
                engine.answer(query)
