"""The output is strict JSON, self-describing, and matches its schema."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import spec
from perfbench.hostspeed import REFERENCE_S, factor
from perfbench.report import Report, dumps, loads, validate

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_is_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_every_metric_has_a_prediction_and_bounds_are_in_range():
    names = [m.name for m in spec.END_TO_END] + [m.name for m in spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert all(m.moves for m in spec.PER_LAYER)
    assert all(len(w.why) <= 200 for w in spec.WORKLOADS)


def test_zero_base_ratio_is_null_with_its_base():
    report = Report("tpch-sf1", 1)
    entry = report.ratio("cache.program_hit_ratio", [0], [0])
    assert entry["value"] is None and entry["base"] == 0 and entry["n"] == 0
    text = dumps(report.metrics)
    assert loads(text)["cache.program_hit_ratio"]["value"] is None


def test_non_finite_numbers_are_refused_both_ways():
    with pytest.raises(ValueError):
        dumps({"x": math.inf})
    with pytest.raises(ValueError):
        dumps({"x": math.nan})
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            loads('{"x": %s}' % token)


def test_summaries_carry_count_median_and_quartiles():
    report = Report("tpch-sf1", 7)
    entry = report.samples("pipeline_s", "s", [4.0, 1.0, 3.0, 2.0, 5.0])
    assert entry["n"] == 5 and entry["value"] == entry["median"] == 3.0
    assert entry["q1"] <= entry["median"] <= entry["q3"]
    assert (entry["workload"], entry["seed"], entry["unit"]) == ("tpch-sf1", 7, "s")
    tail = report.quantile("query_p95_ms", "ms", [float(i) for i in range(1, 201)], 0.95)
    assert tail["value"] == 190.0 and tail["median"] == 100.5


def test_host_speed_factor_is_reference_over_the_phase_median():
    samples = [(1.0, 0.025), (2.0, 0.025), (3.0, 0.1), (9.0, 0.05)]
    phase = factor(samples, 0.5, 3.5)
    assert phase["n"] == 3 and phase["kernel_median_s"] == 0.025
    assert phase["factor"] == pytest.approx(REFERENCE_S / 0.025)
    # A phase no sample fell in takes the median of all of them.
    empty = factor(samples, 4.0, 5.0)
    assert empty["n"] == 0 and empty["kernel_median_s"] == pytest.approx(0.0375)


def _run(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_prints_a_valid_strict_report(trace):
    done = _run(ROOT, "--workload", "tpch-sf1", "--seed", "1",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    wanted = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert set(line["metrics"]) == {m.name for m in wanted}
    for metric in wanted:
        reported = line["metrics"][metric.name]
        assert reported["unit"] == metric.unit
        assert isinstance(reported["value"], (int, float))
    path = ROOT / ".perfbench" / f"tpch-sf1-seed1-trace{trace}" / "report.json"
    document = loads(path.read_text())
    assert validate(document, spec.END_TO_END, spec.PER_LAYER) == []
    assert document["stamp"]["nproc"] >= 1 and document["stamp"]["seed"] == 1
    assert document["metrics"]["failed_ratio"]["base"] == line["attempted"]
    if trace == "1":
        assert document["accounting"]["ok"], document["accounting"]


def test_refuses_to_run_without_the_program():
    # A directory holding only BENCHMARK.json and perfbench/, kept inside
    # the checkout's own scratch directory.
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _run(bare, "--workload", "tpch-sf1", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
