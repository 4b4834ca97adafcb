"""Tests for the paper-figure suite's shared harness (``benchmarks/harness.py``)."""

from benchmarks.harness import (
    BenchmarkContext,
    format_series,
    format_table,
    run_query_suite,
)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["alpha", 1], ["b", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("ep1", [(0, 1.0), (3, 2.5)])
        assert text == "ep1: 0=1.000s  3=2.500s"


class TestBenchmarkContext:
    def test_instances_cached(self):
        context = BenchmarkContext()
        assert context.instance("S3") is context.instance("S3")

    def test_reduced_mapping_cached(self):
        context = BenchmarkContext()
        assert context.reduced_mapping() is context.reduced_mapping()

    def test_segmentary_engine_warm(self):
        context = BenchmarkContext()
        engine = context.segmentary_engine("S3")
        assert engine.analysis is not None  # exchange already run
        assert context.segmentary_engine("S3") is engine

    def test_run_query_suite(self):
        context = BenchmarkContext()
        engine = context.segmentary_engine("S3")
        results = run_query_suite(engine, ["xr1", "xr2"])
        assert [r.query for r in results] == ["xr1", "xr2"]
        assert all(r.seconds >= 0 for r in results)
        assert results[0].answers == 1  # boolean query true

