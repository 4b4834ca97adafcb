"""Summaries, the strict self-describing report and its schema.

Every value in a report carries its name, unit, workload, seed, sample
count, median and quartiles; every ratio carries its numerator and base.
Reports are written with ``allow_nan=False``: a ratio whose base is 0 is
``null``, never NaN or Infinity.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

SCHEMA = "perfbench-report/1"

_METRIC_KEYS = {"name", "unit", "workload", "seed", "n", "value", "median", "q1", "q3"}
_RATIO_KEYS = _METRIC_KEYS | {"numerator", "base"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Report:
    """Collects one run's metrics in the report schema."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.metrics: dict[str, dict] = {}
        self.accounting: dict | None = None

    def _entry(self, name: str, unit: str, n: int, q1, median, q3) -> dict:
        entry = {
            "name": name, "unit": unit, "workload": self.workload,
            "seed": self.seed, "n": n, "value": median, "median": median,
            "q1": q1, "q3": q3,
        }
        self.metrics[name] = entry
        return entry

    def samples(self, name: str, unit: str, values: list[float]) -> dict:
        """A metric summarised as the median of ``values``."""
        if not values:
            return self._entry(name, unit, 0, 0.0, 0.0, 0.0)
        q1, median, q3 = quartiles(values)
        return self._entry(name, unit, len(values), q1, median, q3)

    def quantile(self, name: str, unit: str, values: list[float], q: float) -> dict:
        """A metric whose value is the ``q`` nearest-rank percentile."""
        entry = self.samples(name, unit, values)
        if values:
            entry["value"] = percentile(values, q)
            entry["quantile"] = q
        return entry

    def ratio(self, name: str, numerators: list[float], bases: list[float]) -> dict:
        """Per-sample ratios; the value is total numerator over total base."""
        per_sample = [n / b for n, b in zip(numerators, bases) if b]
        entry = self.samples(name, "ratio", per_sample)
        numerator, base = sum(numerators), sum(bases)
        entry["numerator"], entry["base"] = numerator, base
        entry["value"] = numerator / base if base else None
        return entry

    def summary_line(self, correct: bool, attempted: int, failed: int, names) -> dict:
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {
                    "value": self.metrics[name]["value"],
                    "unit": self.metrics[name]["unit"],
                }
                for name in names
            },
        }


def src_digest(root: Path) -> str:
    """SHA-256 over ``src/`` file paths and contents, sorted by path."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(root: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=False,
        )
        commit = probe.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": src_digest(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def dumps(document) -> str:
    """Strict JSON: raises on NaN or Infinity instead of writing them."""
    return json.dumps(document, allow_nan=False, sort_keys=True)


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token!r}")


def loads(text: str):
    """Parse JSON, refusing ``NaN``, ``Infinity`` and ``-Infinity``."""
    return json.loads(text, parse_constant=_reject_constant)


def validate(document: dict, end_to_end, per_layer) -> list[str]:
    """Schema problems of a full report (empty when it conforms)."""
    problems = []
    for key in ("schema", "workload", "seed", "trace", "stamp", "host_speed",
                "correct", "attempted", "failed", "metrics", "summary"):
        if key not in document:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if document["schema"] != SCHEMA:
        problems.append(f"schema {document['schema']!r} != {SCHEMA!r}")
    for key in ("commit", "src_sha256", "python", "nproc", "seed"):
        if key not in document["stamp"]:
            problems.append(f"stamp lacks {key!r}")
    wanted = [m.name for m in (per_layer if document["trace"] else end_to_end)]
    for name in wanted:
        if name not in document["metrics"]:
            problems.append(f"metric {name!r} missing")
    for name, entry in document["metrics"].items():
        keys = _RATIO_KEYS if entry.get("unit") == "ratio" else _METRIC_KEYS
        missing = keys - set(entry)
        if missing:
            problems.append(f"{name}: missing {sorted(missing)}")
            continue
        if entry["name"] != name or entry["workload"] != document["workload"]:
            problems.append(f"{name}: mislabelled")
        if entry["unit"] == "ratio":
            if entry["value"] is None and entry["base"] != 0:
                problems.append(f"{name}: null ratio with base {entry['base']}")
        elif not isinstance(entry["value"], (int, float)):
            problems.append(f"{name}: value {entry['value']!r} is not a number")
    line = document["summary"]
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("summary line keys")
    elif set(line["metrics"]) != set(wanted):
        problems.append("summary line metrics")
    elif line["attempted"] < 1:
        problems.append("attempted < 1")
    return problems
