"""A small metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

- **deterministic output** — metrics are exported sorted by name, and
  histograms use *fixed* bucket boundaries supplied at creation (no
  dynamic rebucketing), so two runs that perform the same work export the
  same document modulo the measured values themselves;
- **thread-safe** — one registry may be shared by concurrent query
  phases; every mutation takes the registry's lock (instrumented runs
  only — the :data:`NOOP_METRICS` default never locks);
- **dependency-free** — stdlib only, like the rest of :mod:`repro.obs`.

Counters are integers and monotonically non-decreasing; gauges are floats
holding the last value set; histograms count observations into
``le``-style cumulative-exportable buckets plus a sum and a count
(the Prometheus histogram data model).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable

#: Default histogram boundaries, in seconds, chosen for solve times: the
#: segmentary engine's per-family programs cluster well under 1s.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)


class Counter:
    """A monotonically non-decreasing integer."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """The last value set (a float)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is higher (peak tracking)."""
        with self._lock:
            if value > self.value:
                self.value = float(value)


class Histogram:
    """Fixed-boundary histogram (Prometheus data model).

    ``boundaries`` are the inclusive upper edges of the finite buckets;
    one implicit ``+Inf`` bucket catches the rest.  ``counts[i]`` is the
    number of observations in bucket ``i`` (non-cumulative internally;
    exporters accumulate for ``le`` semantics).
    """

    __slots__ = ("name", "boundaries", "counts", "sum", "count", "_lock")

    def __init__(
        self, name: str, boundaries: Iterable[float], lock: threading.Lock
    ):
        edges = tuple(float(b) for b in boundaries)
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError(
                f"histogram {name}: boundaries must be strictly increasing "
                f"and non-empty, got {edges}"
            )
        self.name = name
        self.boundaries = edges
        self.counts = [0] * (len(edges) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


class Metrics:
    """A named registry of counters, gauges, and histograms.

    Instruments are created on first access and live for the registry's
    lifetime; re-requesting a name returns the same instrument (with a
    kind or boundary mismatch raising ``ValueError`` — silent aliasing
    would corrupt exports).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not kind and name in family:
                raise ValueError(f"metric {name!r} already exists with another kind")

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    self._check_unique(name, self._counters)
                    instrument = Counter(name, self._lock)
                    self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    self._check_unique(name, self._gauges)
                    instrument = Gauge(name, self._lock)
                    self._gauges[name] = instrument
        return instrument

    def histogram(
        self, name: str, boundaries: Iterable[float] = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    self._check_unique(name, self._histograms)
                    instrument = Histogram(name, boundaries, self._lock)
                    self._histograms[name] = instrument
        elif instrument.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(
                f"histogram {name!r} re-requested with different boundaries"
            )
        return instrument

    def inc(self, name: str, amount: int = 1) -> None:
        """Convenience: ``counter(name).inc(amount)``."""
        self.counter(name).inc(amount)

    # ---------------------------------------------------------- export

    def as_dict(self) -> dict[str, Any]:
        """Deterministic plain-data form: kinds, then names, sorted."""
        with self._lock:
            return {
                "counters": {
                    name: c.value
                    for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.value for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "boundaries": list(h.boundaries),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for name, h in sorted(self._histograms.items())
                },
            }

    def counter_values(self) -> dict[str, int]:
        """Just the counters (the deterministic core used by golden tests)."""
        with self._lock:
            return {
                name: c.value for name, c in sorted(self._counters.items())
            }

    def merge(self, other: "Metrics | dict[str, Any]") -> None:
        """Fold another registry (or its ``as_dict``) into this one.

        Counters and histogram cells add; gauges keep the maximum (the
        only order-independent combination).  Used to aggregate per-run
        registries into one report.
        """
        payload = other.as_dict() if isinstance(other, Metrics) else other
        for name, value in payload.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in payload.get("gauges", {}).items():
            self.gauge(name).max(value)
        for name, data in payload.get("histograms", {}).items():
            histogram = self.histogram(name, data["boundaries"])
            with self._lock:
                for index, count in enumerate(data["counts"]):
                    histogram.counts[index] += count
                histogram.sum += data["sum"]
                histogram.count += data["count"]


class _NoopInstrument:
    """One shared object standing in for every no-op instrument."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NOOP_INSTRUMENT = _NoopInstrument()


class NoopMetrics:
    """API-compatible registry that records nothing."""

    enabled = False

    def counter(self, name: str) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def gauge(self, name: str) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def histogram(self, name: str, boundaries: Any = None) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def as_dict(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def counter_values(self) -> dict[str, int]:
        return {}

    def merge(self, other: Any) -> None:
        pass


#: The shared default registry: safe to pass everywhere, never records.
NOOP_METRICS = NoopMetrics()
