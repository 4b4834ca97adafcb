"""Plain-text table and series formatting, plus JSON benchmark artifacts.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep the output aligned and diff-friendly.
:func:`write_benchmark_json` writes machine-readable artifacts in the
style of ``pytest-benchmark``'s ``--benchmark-json`` (a ``machine_info``
header plus a payload), used by the micro-benchmarks to seed the perf
trajectory (``BENCH_PR3.json``).
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str,
    points: Sequence[tuple[object, float]],
    unit: str = "s",
) -> str:
    """Render one figure series as ``name: x=y`` pairs (one per point)."""
    body = "  ".join(f"{x}={y:.3f}{unit}" for x, y in points)
    return f"{name}: {body}"


def speedup(base_s: float, new_s: float, digits: int = 2) -> float | None:
    """``base_s / new_s`` rounded, or ``None`` when ``new_s`` is zero.

    A zero time has no finite ratio and JSON has no infinity, so the
    artifact records ``null``; callers keep both times beside the ratio.
    """
    return round(base_s / new_s, digits) if new_s > 0 else None


def format_speedup(value: float | None, spec: str = ".2f") -> str:
    """Render a :func:`speedup` for a table or log line (``-`` if none)."""
    return "-" if value is None else f"{value:{spec}}x"


def machine_info() -> dict[str, str]:
    """The machine/context header embedded in every JSON artifact.

    Mirrors pytest-benchmark's ``machine_info`` so downstream tooling can
    treat both artifact families uniformly.  Timings from different
    machines are not comparable — consumers should check this header.
    """
    return {
        "python_implementation": platform.python_implementation(),
        "python_version": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "processor": platform.processor(),
    }


def write_benchmark_json(
    path: str | Path, payload: dict[str, Any], *, indent: int = 2
) -> Path:
    """Write ``payload`` as a benchmark artifact with a machine header.

    The artifact is ``{"machine_info": ..., **payload}``, serialized with
    sorted keys so repeated runs produce byte-stable diffs (modulo the
    timing values themselves).  Strict JSON: a NaN or infinity in the
    payload raises instead of being written as a bare ``NaN``/``Infinity``.
    """
    path = Path(path)
    document = {"machine_info": machine_info(), **payload}
    path.write_text(
        json.dumps(document, indent=indent, sort_keys=True, allow_nan=False)
        + "\n"
    )
    return path


def read_benchmark_json(path: str | Path) -> dict[str, Any]:
    """Load an artifact previously written by :func:`write_benchmark_json`."""
    return json.loads(Path(path).read_text())


def print_flush(message: str) -> None:
    """A ``log`` callback that prints and flushes (for long-running runs)."""
    print(message, file=sys.stdout, flush=True)
