"""The CI gates of ``benchmarks/gates.py``, each run small enough for tier-1."""

from __future__ import annotations

import math

import pytest

from benchmarks import gates
from repro.genomics.instances import build_instance, parse_scenario_name
from repro.genomics.schema import genome_mapping
from repro.reduction import reduce_mapping
from tests.test_serve.test_http import serving


def _report(ready_s: float, pipeline_s: float, update_ms: float = 30.0) -> dict:
    """The part of a perfbench report the ceilings read."""
    return {"metrics": {
        "ready_s": {"value": ready_s},
        "pipeline_s": {"value": pipeline_s},
        "update_p50_ms": {"value": update_ms},
    }}


@pytest.fixture
def reports() -> dict:
    """Reports at the accepted medians, with tpch-sf1's update at 0.2 ms."""
    built = {
        workload: _report(medians["ready_s"], medians["pipeline_s"])
        for workload, medians in gates.ACCEPTED_MEDIANS.items()
    }
    built["tpch-sf1"]["metrics"]["update_p50_ms"]["value"] = 0.2
    return built


def verdicts(reports: dict) -> list[bool]:
    return [ok for ok, _line in gates.check_ceilings(reports)]


class TestCeilings:
    def test_accepted_medians_pass(self, reports):
        assert verdicts(reports) == [True] * 5

    @pytest.mark.parametrize("workload", ["tpch-sf1", "serve-rw"])
    def test_tripled_ready_s_fails(self, reports, workload):
        metric = reports[workload]["metrics"]["ready_s"]
        metric["value"] = metric["value"] * 3 + 0.001
        assert verdicts(reports).count(False) == 1

    def test_update_as_slow_as_a_cold_start_fails(self, reports):
        metrics = reports["tpch-sf1"]["metrics"]
        metrics["update_p50_ms"]["value"] = metrics["ready_s"]["value"] * 1000
        assert verdicts(reports) == [True] * 4 + [False]

    @pytest.mark.parametrize("workload", ["tpch-sf1", "serve-rw"])
    def test_missing_report_fails(self, reports, workload):
        reports[workload] = None
        assert False in verdicts(reports)

    def test_missing_metric_fails(self, reports):
        del reports["serve-rw"]["metrics"]["pipeline_s"]
        assert verdicts(reports).count(False) == 1


class TestExchangeReference:
    def test_tpch_cell_is_bit_identical_with_a_finite_ratio(self):
        row = gates.reference_ratio("tpch-sf0.01-r0.2", repeats=1)
        assert row["mismatches"] == []
        assert row["batch_s"] > 0 and row["reference_s"] > 0
        assert math.isfinite(row["ratio"])
        assert 0 < row["scaled_s"] < math.inf
        assert 0 < row["update_s"] < math.inf

    @staticmethod
    def rows(slow: str, metric: str):
        """A ``reference_ratio`` stand-in: every cell just under its
        ceilings, except ``metric`` of cell ``slow``, just over."""
        medians = {"scaled_s": gates.STAGE_MEDIANS, "update_s": gates.UPDATE_MEDIANS}

        def row(name):
            return {
                "mismatches": [], "batch_s": 1.0, "reference_s": 3.0,
                "ratio": 3.0,
                **{
                    key: gates.STAGE_CEILING_FACTOR * recorded[name]
                    * (1.01 if (name, key) == (slow, metric) else 0.99)
                    for key, recorded in medians.items()
                },
            }

        return row

    def test_stage_ceiling_fails_exactly_the_slow_cell(self, monkeypatch):
        monkeypatch.setattr(gates, "reference_ratio", self.rows("M9", "scaled_s"))
        failed = [line for ok, line in gates.check_exchange_reference() if not ok]
        assert len(failed) == 1 and failed[0].startswith("M9: batch stages")

    def test_update_ceiling_fails_exactly_the_slow_cell(self, monkeypatch):
        monkeypatch.setattr(
            gates, "reference_ratio", self.rows("tpch-sf0.03-r0.2", "update_s")
        )
        failed = [line for ok, line in gates.check_exchange_reference() if not ok]
        assert len(failed) == 1
        assert failed[0].startswith("tpch-sf0.03-r0.2: update")


@pytest.fixture(scope="module")
def genomics_server():
    """A server over genomics S0, the schema the load's queries are over."""
    mapping = reduce_mapping(genome_mapping())
    instance = build_instance(parse_scenario_name("S0")).instance
    with serving(mapping, instance) as (host, port, _service):
        yield f"http://{host}:{port}"


class TestServeLoad:
    def test_counts_completed_requests_and_no_errors(self, genomics_server):
        counts = gates.serve_load(genomics_server, window_s=1.0, warmup_s=0.2)
        assert counts["errors"] == 0
        assert counts["completed"] > 0

    def test_wrong_path_counts_errors(self, genomics_server):
        counts = gates.serve_load(
            genomics_server + "/nowhere", window_s=0.5, warmup_s=0.0
        )
        assert counts["completed"] == 0
        assert counts["errors"] > 0

    def test_closed_loop_passes_on_a_healthy_server(self, genomics_server):
        latencies = gates.closed_loop_latencies(genomics_server)
        assert len(latencies) == gates.SERVE_CLOSED_LOOP_REQUESTS
        ok, line = gates.check_closed_loop(latencies)
        assert ok, line

    def test_closed_loop_fails_on_a_delayed_ack_stall(self):
        stalled = [44.0] * gates.SERVE_CLOSED_LOOP_REQUESTS
        assert gates.check_closed_loop(stalled)[0] is False

    def test_closed_loop_fails_on_a_failed_request(self, genomics_server):
        latencies = gates.closed_loop_latencies(
            genomics_server + "/nowhere", requests=2
        )
        assert latencies == [math.inf, math.inf]
        assert gates.check_closed_loop([0.3] * 9 + [math.inf])[0] is False


def test_usage_error_exits_2(capsys):
    assert gates.main(["serve-load"]) == 2
    assert "usage" in capsys.readouterr().err
