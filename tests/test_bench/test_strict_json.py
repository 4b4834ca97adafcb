"""Every benchmark artifact is strict JSON: no bare NaN or Infinity."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
HISTORICAL = REPO / "benchmarks" / "results" / "historical"
ARTIFACTS = sorted(
    [*REPO.glob("BENCH*.json"), *(REPO / "benchmarks").glob("**/*.json")]
)


def _artifact_id(path: Path) -> str:
    """Archived artifacts go by file name, the name they were recorded under."""
    if path.parent == HISTORICAL:
        return path.name
    return path.relative_to(REPO).as_posix()


def _reject(constant: str):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_artifacts_found():
    names = {path.relative_to(REPO).as_posix() for path in ARTIFACTS}
    assert {
        "BENCHMARK.json",
        "benchmarks/BENCH_PR8.json",
        "benchmarks/results/historical/BENCH_PR10.json",
        "benchmarks/results/historical/bench_pr3_before.json",
    } <= names


@pytest.mark.parametrize("path", ARTIFACTS, ids=[_artifact_id(p) for p in ARTIFACTS])
def test_artifact_is_strict_json(path):
    json.loads(path.read_text(), parse_constant=_reject)
