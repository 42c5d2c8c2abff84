"""Aggregated service stats: rollups, dedup'd memory accounting, and the
public Function-1 counter surface (``Farmer.stats().sim_cache``)."""

import pytest

from repro.core.cominer import SimStats
from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.service.sharded import ShardedFarmer
from repro.service.stats import ServiceStats
from repro.traces.synthetic import generate_trace
from tests.conftest import sequence_records


def mined_service(n_shards=4, n_events=2_000, **cfg) -> ShardedFarmer:
    service = ShardedFarmer(FarmerConfig(n_shards=n_shards, **cfg))
    for record in generate_trace("hp", n_events, seed=2):
        service.observe(record)
        service.predict(record.fid)
    return service


class TestServiceStats:
    def test_rollup_fields(self):
        service = mined_service()
        stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.n_shards == 4
        assert stats.n_observed == 2_000
        assert len(stats.shards) == 4
        # per-shard n_observed includes absorbed echoes
        assert sum(s.n_observed for s in stats.shards) == (
            stats.n_observed + stats.n_boundary_echoes
        )
        assert stats.n_files == sum(s.n_files for s in stats.shards)
        assert stats.n_edges == sum(s.n_edges for s in stats.shards)
        assert stats.memory_bytes == service.memory_bytes()
        assert stats.memory_megabytes == pytest.approx(stats.memory_bytes / 1e6)

    def test_shared_stores_counted_once(self):
        """Total memory must not scale the shared stores by n_shards."""
        service = mined_service()
        shard_bytes = sum(s.memory_bytes() for s in service.shards)
        expected = (
            service.vocabulary.approx_bytes()
            + service.vector_store.approx_bytes()
            + shard_bytes
        )
        assert service.memory_bytes() == expected
        # and no shard accounts the injected components itself
        for shard in service.shards:
            assert not shard.owns_vocabulary
            assert not shard.constructor.owns_vectors

    def test_function1_counters_summed_over_shards(self):
        """Each shard's miner keeps its own Function-1 counters; the
        service reports their sum."""
        service = mined_service()
        stats = service.stats()
        per_shard = [s.sim_cache_stats() for s in service.shards]
        assert stats.sim_cache == service.sim_cache_stats()
        assert stats.sim_cache.misses == sum(s.misses for s in per_shard)
        assert stats.sim_cache.hits == sum(s.hits for s in per_shard)
        assert stats.sim_cache.misses > 0


class TestEchoAccountingFields:
    """Per-destination echo-queue visibility through ``ServiceStats``
    (ISSUE 7 satellite): queue depths as the caller found them, drop
    counts by destination, and the online path's shed counter."""

    def boundary_service(self, **cfg) -> ShardedFarmer:
        base = dict(n_shards=2, max_strength=0.0, weight_p=0.0)
        base.update(cfg)
        service = ShardedFarmer(FarmerConfig(**base))
        for r in sequence_records([2, 3] * 4):
            service.observe(r)
        return service

    def test_depths_snapshot_precedes_the_rollup_drain(self):
        service = self.boundary_service(echo_flush_interval=100)
        stats = service.stats()
        assert len(stats.echo_queue_depths) == 2
        assert sum(stats.echo_queue_depths) == 7  # every transition queued
        # the rollup itself drained them; a second read reports zeros
        assert sum(service.stats().echo_queue_depths) == 0

    def test_drop_counts_attributed_to_the_failed_destination(self):
        service = self.boundary_service(replication=True)
        service.fail_shard(0)
        for r, allow in ((r, True) for r in sequence_records([2, 3] * 4)):
            service.ingest_stream([(r, allow)])
        stats = service.stats()
        assert stats.echo_drops_by_shard[0] > 0
        assert stats.echo_drops_by_shard[1] == 0
        assert sum(stats.echo_drops_by_shard) == stats.n_echoes_dropped

    def test_shed_counter_reaches_stats(self):
        service = self.boundary_service()
        service.ingest_stream(
            (r, False) for r in sequence_records([2, 3] * 3)
        )
        # 5 transitions inside the stream, plus the boundary against the
        # predecessor carried over from the pre-observed warmup trace
        assert service.stats().n_echoes_shed == 6

    def test_fields_default_clean_on_quiet_service(self):
        service = mined_service(n_shards=2)
        # JIT drains lazily, before the destination's next own event —
        # the trailing record's echo may still sit queued, so settle it
        service.flush_echoes()
        stats = service.stats()
        assert stats.echo_drops_by_shard == (0, 0)
        assert stats.n_echoes_shed == 0
        assert sum(stats.echo_queue_depths) == 0


class TestFarmerStatsSurface:
    def test_stats_exposes_sim_cache(self):
        """Benchmarks/experiments read the Function-1 counters off
        ``Farmer.stats()`` / ``Farmer.sim_cache_stats()`` rather than
        miner internals."""
        farmer = Farmer(FarmerConfig(max_strength=0.0))
        for record in generate_trace("hp", 500, seed=1):
            farmer.observe(record)
            farmer.predict(record.fid)
        stats = farmer.stats()
        assert isinstance(stats.sim_cache, SimStats)
        assert stats.sim_cache.lookups > 0
        assert farmer.sim_cache_stats() == farmer.miner.sim_cache_stats()
