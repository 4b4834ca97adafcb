"""Every benchmark artifact is strict JSON: no bare NaN or Infinity."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.bench.reporting import (
    format_speedup,
    read_benchmark_json,
    speedup,
    write_benchmark_json,
)

REPO = Path(__file__).resolve().parents[2]
ARTIFACTS = sorted(
    [*REPO.glob("BENCH*.json"), *(REPO / "benchmarks").glob("**/*.json")]
)


def _reject(constant: str):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_artifacts_found():
    names = {path.name for path in ARTIFACTS}
    assert {"BENCH_PR10.json", "BENCH_PR8.json"} <= names


@pytest.mark.parametrize(
    "path", ARTIFACTS, ids=[str(p.relative_to(REPO)) for p in ARTIFACTS]
)
def test_artifact_is_strict_json(path):
    json.loads(path.read_text(), parse_constant=_reject)


def test_zero_time_speedup_is_null():
    assert speedup(1.0, 0.0) is None
    assert speedup(3.0, 2.0) == 1.5
    assert format_speedup(None) == "-"
    assert format_speedup(1.5, ".1f") == "1.5x"


def test_writer_refuses_non_finite(tmp_path):
    with pytest.raises(ValueError):
        write_benchmark_json(tmp_path / "bad.json", {"speedup": math.inf})
    path = write_benchmark_json(tmp_path / "ok.json", {"speedup": None})
    assert read_benchmark_json(path)["speedup"] is None
