"""The live telemetry plane: ring-buffer time series and fixed-bucket
latency histograms.

Everything the batch layer reports is a *final* rollup (``ServiceStats``
after the run); a long-lived service needs the operational view — what
the queue depth, per-shard load and shed counters looked like *over
time*, and what each endpoint's latency distribution is right now. The
two primitives here are deliberately boring and allocation-free on the
hot path:

* :class:`RingSeries` — a fixed-capacity ``(tick, value)`` ring. One
  sample is two appends; the window is bounded so a service that runs
  for a week costs the same memory as one that ran for a minute.
* :class:`LatencyHistogram` — fixed geometric buckets (factor 2 from
  1 microsecond up). Recording is one ``bit_length`` and one integer
  increment; percentiles (p50/p95/p99) are a cumulative walk over ~40
  ints, clamped to the exact observed maximum. No sample retention, no
  sorting, no numpy — the histogram's resolution (a factor-2 bound per
  bucket) is the honest price.

:class:`Telemetry` aggregates both behind one lock: named counters,
named series, per-endpoint histograms, and a JSON-safe :meth:`snapshot`
the admin API serves at ``/telemetry``.

A durable service (``--data-dir``) additionally reports through the
same registry: ``wal.appends`` / ``snapshot.count`` / ``snapshot.bytes``
/ ``recovery.replayed`` counters, and ``wal_append`` / ``snapshot`` /
``checkpoint`` latency histograms (the snapshot histogram is the ingest
stall window a barrier costs).
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass

__all__ = [
    "LatencyHistogram",
    "LatencySummary",
    "RingSeries",
    "Telemetry",
]

# Bucket 0 holds everything below _BASE_S; each subsequent bucket doubles
# the upper bound. 40 buckets reach ~1.1e6 seconds — nothing a request
# can take falls off the top (the last bucket is a catch-all anyway).
_BASE_S = 1e-6
_N_BUCKETS = 40


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """One endpoint's latency distribution, percentiles from buckets.

    Percentile values are the *upper bound* of the bucket the percentile
    falls in, clamped to ``max_s`` (a ≤2x overestimate by construction —
    the conservative side for an operator reading a dashboard — that
    never exceeds the slowest observation, so p50 ≤ p95 ≤ p99 ≤ max).
    ``n == 0`` reports zeros.
    """

    n: int
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    def as_dict(self) -> dict:
        """JSON-safe view (the admin API's serialisation)."""
        return {
            "n": self.n,
            "p50_us": self.p50_s * 1e6,
            "p95_us": self.p95_s * 1e6,
            "p99_us": self.p99_s * 1e6,
            "max_us": self.max_s * 1e6,
        }


class LatencyHistogram:
    """Fixed-bucket latency histogram (geometric, factor 2 from 1us).

    Not thread-safe on its own; :class:`Telemetry` serialises access.
    """

    __slots__ = ("_counts", "_n", "_max_s")

    def __init__(self) -> None:
        self._counts = [0] * _N_BUCKETS
        self._n = 0
        self._max_s = 0.0

    def record(self, seconds: float) -> None:
        """Count one observation of ``seconds`` (negatives clamp to 0)."""
        if seconds < 0.0:
            seconds = 0.0
        # bucket index = ceil(log2(seconds / base)), computed without a
        # float log: the integer ratio's bit_length is exactly that for
        # ratios >= 1 (bucket 0 catches everything under the base)
        ratio = int(seconds / _BASE_S)
        index = ratio.bit_length() if ratio > 0 else 0
        if index >= _N_BUCKETS:
            index = _N_BUCKETS - 1
        self._counts[index] += 1
        self._n += 1
        if seconds > self._max_s:
            self._max_s = seconds

    @property
    def n(self) -> int:
        """Observations recorded."""
        return self._n

    def percentile(self, q: float) -> float:
        """Upper bound (seconds) of the bucket percentile ``q`` ∈ (0, 1]
        falls in, clamped to the observed maximum; 0.0 with no
        observations."""
        if self._n == 0:
            return 0.0
        target = q * self._n
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= target:
                return min(_BASE_S * (1 << index), self._max_s)
        return self._max_s  # pragma: no cover

    def summary(self) -> LatencySummary:
        """The dashboard view: n, p50/p95/p99 and the exact max."""
        return LatencySummary(
            n=self._n,
            p50_s=self.percentile(0.50),
            p95_s=self.percentile(0.95),
            p99_s=self.percentile(0.99),
            max_s=self._max_s,
        )


class RingSeries:
    """A bounded ``(tick, value)`` time series (oldest samples evicted).

    ``tick`` is whatever monotone stamp the caller supplies (the online
    service uses its accepted-request count, so series align with the
    mining stream rather than wall clock). Not thread-safe on its own.
    """

    __slots__ = ("_ticks", "_values", "_capacity", "_start", "_len")

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("RingSeries capacity must be positive")
        self._capacity = capacity
        self._ticks: list[int] = [0] * capacity
        self._values: list[float] = [0.0] * capacity
        self._start = 0
        self._len = 0

    def append(self, tick: int, value: float) -> None:
        """Record one sample (evicting the oldest at capacity)."""
        if self._len < self._capacity:
            index = (self._start + self._len) % self._capacity
            self._len += 1
        else:
            index = self._start
            self._start = (self._start + 1) % self._capacity
        self._ticks[index] = tick
        self._values[index] = value

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple[int, float]]:
        for offset in range(self._len):
            index = (self._start + offset) % self._capacity
            yield self._ticks[index], self._values[index]

    def values(self) -> list[float]:
        """Sample values, oldest first."""
        return [value for _, value in self]

    def last(self) -> tuple[int, float] | None:
        """Most recent sample, or None when empty."""
        if self._len == 0:
            return None
        index = (self._start + self._len - 1) % self._capacity
        return self._ticks[index], self._values[index]

    def max(self) -> float:
        """Largest retained value (0.0 when empty)."""
        return max(self.values(), default=0.0)


class Telemetry:
    """The service's metric registry: counters, series, histograms.

    One lock serialises everything — samples are two-append cheap, so
    contention is negligible next to the mining work they describe.
    """

    def __init__(self, series_capacity: int = 512) -> None:
        self._lock = threading.Lock()
        self._series_capacity = series_capacity
        self._counters: dict[str, int] = {}
        self._series: dict[str, RingSeries] = {}
        self._endpoints: dict[str, LatencyHistogram] = {}

    # -- counters ------------------------------------------------------

    def incr(self, name: str, by: int = 1) -> None:
        """Add ``by`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- time series ---------------------------------------------------

    def sample(self, name: str, tick: int, value: float) -> None:
        """Append one sample to series ``name`` (created on first use)."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = RingSeries(self._series_capacity)
            series.append(tick, value)

    def series(self, name: str) -> RingSeries:
        """Series ``name`` (created empty on first access)."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = RingSeries(self._series_capacity)
            return series

    # -- endpoint latency ----------------------------------------------

    def observe_latency(self, endpoint: str, seconds: float) -> None:
        """Record one request latency under ``endpoint``."""
        with self._lock:
            hist = self._endpoints.get(endpoint)
            if hist is None:
                hist = self._endpoints[endpoint] = LatencyHistogram()
            hist.record(seconds)

    def endpoint_summaries(self) -> dict[str, LatencySummary]:
        """Per-endpoint latency summaries (snapshot under the lock)."""
        with self._lock:
            return {
                name: hist.summary()
                for name, hist in sorted(self._endpoints.items())
            }

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe dump of every counter, series and endpoint summary
        (what the admin API serves at ``/telemetry``)."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "series": {
                    name: [[tick, value] for tick, value in series]
                    for name, series in sorted(self._series.items())
                },
                "endpoints": {
                    name: hist.summary().as_dict()
                    for name, hist in sorted(self._endpoints.items())
                },
            }
