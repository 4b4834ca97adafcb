"""Integration tests: the full Genome Browser pipeline on small instances."""

import pytest

from repro.genomics.generator import GenomeDataGenerator, GeneratorConfig
from repro.genomics.queries import QUERY_SUITE, query_by_name
from repro.genomics.schema import genome_mapping
from repro.reduction import reduce_mapping
from repro.xr.monolithic import MonolithicEngine
from repro.xr.segmentary import SegmentaryEngine


@pytest.fixture(scope="module")
def reduced():
    return reduce_mapping(genome_mapping())


@pytest.fixture(scope="module")
def small_instance():
    return GenomeDataGenerator(
        GeneratorConfig(transcripts=12, suspect_fraction=0.25, seed=4)
    ).generate()


@pytest.fixture(scope="module")
def segmentary(reduced, small_instance):
    engine = SegmentaryEngine(reduced, small_instance.instance)
    engine.exchange()
    return engine


class TestQuerySuite:
    def test_all_queries_parse(self):
        for name in QUERY_SUITE:
            assert query_by_name(name) is not None

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            query_by_name("ep99")

    def test_xr2_excludes_conflicted_transcripts(self, segmentary, small_instance):
        answers = segmentary.answer(query_by_name("xr2"))
        answered = {row[0] for row in answers}
        # Exon conflicts knock their transcript's knownGene row out of the
        # certain answers; symbol conflicts do not touch knownGene.
        for transcript in small_instance.exon_conflicts:
            assert transcript not in answered
        clean = set(small_instance.transcripts) - set(
            small_instance.conflicted_transcripts
        )
        assert clean <= answered

    def test_boolean_queries_true_on_nonempty_data(self, segmentary):
        for name in ("xr1", "xr4", "ep1"):
            assert segmentary.answer(query_by_name(name)) == {()}

    def test_isoform_clustering_certain_pairs(self, segmentary, small_instance):
        answers = segmentary.answer(query_by_name("xr6"))
        # Transcripts of the same gene share an Entrez id: certainly
        # co-clustered, for at least the conflict-free genes.
        clean = set(small_instance.transcripts) - set(
            small_instance.conflicted_transcripts
        )
        by_gene: dict[int, list[str]] = {}
        for index, transcript in enumerate(small_instance.transcripts):
            by_gene.setdefault(index // 3, []).append(transcript)
        for gene_transcripts in by_gene.values():
            clean_pairs = [t for t in gene_transcripts if t in clean]
            for left in clean_pairs:
                for right in clean_pairs:
                    assert (left, right) in answers

    def test_ep15_symbol_join(self, segmentary, small_instance):
        answers = segmentary.answer(query_by_name("ep15"))
        assert answers  # symbols with refLink rows exist
        symbols = {row[0] for row in answers}
        assert all(s.startswith(("SYM", "ALT")) for s in symbols)


class TestEngineAgreement:
    @pytest.mark.slow
    def test_monolithic_equals_segmentary(self, reduced, small_instance, segmentary):
        monolithic = MonolithicEngine(reduced, small_instance.instance)
        for name in ("xr1", "xr2", "ep2", "xr5"):
            query = query_by_name(name)
            assert monolithic.answer(query) == segmentary.answer(query), name


class TestExchangePhase:
    def test_envelope_is_local(self, segmentary, small_instance):
        stats = segmentary.exchange_stats
        # Suspect facts stay proportional to conflicts, not instance size.
        assert stats.suspect_source_facts <= 12 * len(
            small_instance.conflicted_transcripts
        )
        assert stats.violations == len(small_instance.conflicted_transcripts)

    def test_cluster_count_matches_conflicts(self, segmentary, small_instance):
        # Conflicts are transcript-local by construction.
        assert segmentary.exchange_stats.clusters == len(
            small_instance.conflicted_transcripts
        )


class TestSuspectRateProfiles:
    """The S-size scenario cells scale their conflicts with the suspect rate."""

    @staticmethod
    def engine(reduced, name):
        from repro.genomics.instances import build_instance, parse_scenario_name

        instance = build_instance(parse_scenario_name(name)).instance
        engine = SegmentaryEngine(reduced, instance, cache=False)
        engine.exchange()
        return engine

    def test_suspect_free_profile_solves_nothing(self, reduced):
        engine = self.engine(reduced, "S0")
        assert engine.exchange_stats.source_facts > 0
        assert engine.exchange_stats.suspect_source_facts == 0
        for name in ("ep2", "xr2", "xr4"):
            _answers, stats = engine.answer_with_stats(query_by_name(name))
            assert stats.programs_solved == 0, name

    def test_suspect_rate_scales_counts(self, reduced):
        s9, s20 = (
            self.engine(reduced, name).exchange_stats for name in ("S9", "S20")
        )
        assert s20.suspect_source_facts > s9.suspect_source_facts > 0
        assert s20.violations > 0
