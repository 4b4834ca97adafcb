"""Shared state for the benchmark suite.

One :class:`~benchmarks.harness.BenchmarkContext` per session memoizes the
reduced genome mapping, the generated instances, and the warm segmentary
engines, so each table/figure benchmark pays only for what it measures.

Every benchmark also appends its paper-style rows to
``benchmarks/results/<name>.txt`` via the ``report`` fixture.
"""

from __future__ import annotations

import pathlib

import pytest

from benchmarks.harness import BenchmarkContext

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def ctx() -> BenchmarkContext:
    with BenchmarkContext() as context:
        yield context


_truncated_this_session: set[str] = set()


class Reporter:
    """Collects paper-style output lines and writes them per benchmark.

    The first write of a session truncates the module's result file, so
    re-runs do not accumulate stale rows.
    """

    def __init__(self, name: str):
        self.name = name
        self.lines: list[str] = []

    def emit(self, text: str) -> None:
        self.lines.append(text)
        print(text)

    def flush(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.name}.txt"
        mode = "a" if self.name in _truncated_this_session else "w"
        _truncated_this_session.add(self.name)
        with open(path, mode) as handle:
            handle.write("\n".join(self.lines) + "\n")
        self.lines.clear()


@pytest.fixture
def report(request) -> Reporter:
    reporter = Reporter(request.node.module.__name__.split(".")[-1])
    yield reporter
    reporter.flush()
