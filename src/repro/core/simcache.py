"""Versioned similarity cache for the CoMiner hot path.

Function 1 (``sim(x, y)``) is a pure function of the two files' semantic
vectors, and vectors only change when a file's attributes change — yet the
eager miner recomputes it for every graph successor on every request. The
cache stores each pair's similarity together with the *vector versions*
it was computed from (see :meth:`repro.core.vector_store.VectorStore.
version_of`); a lookup hits only when both endpoints' versions still
match, so a stale value is never served, without any explicit
invalidation traffic.

``sim`` is symmetric, so entries are keyed on the unordered pair.
Capacity is bounded with LRU eviction; :class:`SimCacheStats` exposes
hits/misses/stale/evictions so benchmarks can report the hit rate.
A capacity of 0 disables caching entirely (every lookup is a miss and
nothing is stored) — useful as the eager baseline in benchmarks.

One instance can serve every shard of a
:class:`~repro.service.ShardedFarmer` (``shared_sim_cache``). Version
keys make the sharing safe — the service keeps a single
namespace-global :class:`~repro.core.vector_store.VectorStore`, so a
``(pair, versions)`` entry stored by one shard is exact for every other
shard, and a shard whose endpoint moved on simply misses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["SimilarityCache", "SimCacheStats"]


@dataclass(frozen=True, slots=True)
class SimCacheStats:
    """Counters of one :class:`SimilarityCache` (since construction)."""

    hits: int
    misses: int
    stale: int
    evictions: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class SimilarityCache:
    """Bounded LRU cache of ``sim(x, y)`` keyed by vector versions.

    A miss is counted whenever the caller must recompute Function 1 —
    either the pair is absent, or it is present but one endpoint's vector
    version moved on (counted separately as ``stale``, and also a miss).
    """

    __slots__ = ("capacity", "_entries", "_hits", "_misses", "_stale", "_evictions")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 0:
            raise ConfigError("similarity cache capacity must be >= 0")
        self.capacity = capacity
        # (lo, hi) fid pair -> (lo_version, hi_version, sim value); a
        # plain insertion-ordered dict doubles as the LRU queue (refresh
        # = delete + reinsert), measurably cheaper than OrderedDict on
        # the store-heavy batch-flush path
        self._entries: dict[tuple[int, int], tuple[int, int, float]] = {}
        self._hits = 0
        self._misses = 0
        self._stale = 0
        self._evictions = 0

    def lookup(self, a: int, b: int, ver_a: int, ver_b: int) -> float | None:
        """Cached ``sim(a, b)`` if computed from exactly these versions."""
        if a > b:
            a, b = b, a
            ver_a, ver_b = ver_b, ver_a
        key = (a, b)
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        if entry[0] != ver_a or entry[1] != ver_b:
            self._misses += 1
            self._stale += 1
            return None
        self._hits += 1
        del self._entries[key]  # LRU refresh: move to the young end
        self._entries[key] = entry
        return entry[2]

    def store(self, a: int, b: int, ver_a: int, ver_b: int, value: float) -> None:
        """Record ``sim(a, b)`` as computed from the given versions."""
        if self.capacity == 0:
            return
        if a > b:
            a, b = b, a
            ver_a, ver_b = ver_b, ver_a
        key = (a, b)
        entries = self._entries
        if key in entries:
            del entries[key]  # reinsert at the young end
            entries[key] = (ver_a, ver_b, value)
            return
        entries[key] = (ver_a, ver_b, value)
        if len(entries) > self.capacity:
            entries.pop(next(iter(entries)))
            self._evictions += 1

    def stats(self) -> SimCacheStats:
        """Snapshot of the counters."""
        return SimCacheStats(
            hits=self._hits,
            misses=self._misses,
            stale=self._stale,
            evictions=self._evictions,
            size=len(self._entries),
            capacity=self.capacity,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    def approx_bytes(self) -> int:
        """Approximate resident size (key tuple + value tuple per entry)."""
        return 96 + 160 * len(self._entries)

