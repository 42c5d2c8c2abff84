"""Snapshot faithfulness: a restore is the captured service, bit for
bit — shared-store identity, lazy-rank schedule, standbys and all."""

import pytest

from repro.core.config import FarmerConfig
from repro.durability.manager import DurabilityManager
from repro.durability.snapshot import (
    latest_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.errors import PersistenceError, SnapshotMismatchError
from repro.service.sharded import ShardedFarmer
from tests.conftest import cached_trace


def build_service(cfg, records):
    service = ShardedFarmer(cfg)
    service.ingest_stream((r, True) for r in records)
    return service


def assert_same_answers(left, right, records):
    for fid in sorted({r.fid for r in records}):
        assert left.predict(fid) == right.predict(fid)
        assert left.correlators(fid) == right.correlators(fid)
    assert left.snapshot() == right.snapshot()


@pytest.fixture(scope="module")
def records():
    return cached_trace("hp", 5_000, 13)


CFG = FarmerConfig(
    n_shards=4,
    shard_policy="consistent_hash",
    max_strength=0.3,
    replication=True,
    standby_sync_interval=512,
)


class TestRoundTrip:
    def test_restore_is_bit_identical_and_stays_identical(self, tmp_path, records):
        """The restored service matches the captured one not only on
        every query *now*, but after both keep mining — the capture is
        the full state (dirty marks, windows, cadence counters), not a
        frozen rank."""
        service = build_service(CFG, records[:3_500])
        write_snapshot(tmp_path, service, 3_500)
        restored = load_snapshot(latest_snapshot(tmp_path))
        assert_same_answers(service, restored, records[:3_500])
        service.ingest_stream((r, True) for r in records[3_500:])
        restored.ingest_stream((r, True) for r in records[3_500:])
        assert_same_answers(service, restored, records)

    def test_shared_stores_restore_by_identity(self, tmp_path, records):
        service = build_service(CFG, records[:2_000])
        write_snapshot(tmp_path, service, 2_000)
        restored = load_snapshot(latest_snapshot(tmp_path))
        for shard in restored.shards:
            assert shard.vocabulary is restored.vocabulary
            assert shard.constructor.vectors is restored.vector_store
        assert restored._replicator._service is restored
        for replica in restored._replicator.replicas:
            assert replica.farmer.vocabulary is restored.vocabulary

    def test_standbys_restore_armed(self, tmp_path, records):
        """Failover still works after a restore: the pickled standbys
        come back at their barrier and a post-restore promotion serves
        exactly what the captured service would."""
        service = build_service(CFG, records[:3_000])
        write_snapshot(tmp_path, service, 3_000)
        restored = load_snapshot(latest_snapshot(tmp_path))
        restored.sync_standbys()
        service.sync_standbys()
        restored.fail_shard(1)
        restored.promote_standby(1)
        assert_same_answers(service, restored, records[:3_000])

    def test_snapshot_at_existing_seq_is_unchanged(self, tmp_path, records):
        service = build_service(CFG, records[:1_000])
        first = write_snapshot(tmp_path, service, 1_000)
        again = write_snapshot(tmp_path, service, 1_000)
        assert not first.unchanged
        assert again.unchanged and again.bytes_total == 0


class TestDamage:
    def test_tmp_dir_from_mid_snapshot_crash_is_ignored(self, tmp_path, records):
        service = build_service(CFG, records[:1_500])
        write_snapshot(tmp_path, service, 1_500)
        partial = tmp_path / "snap-000000009999.tmp"
        partial.mkdir()
        (partial / "shard-0.pkl").write_bytes(b"half a pickle")
        chosen = latest_snapshot(tmp_path)
        assert chosen is not None and chosen.name == "snap-000000001500"

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path, records):
        service = build_service(CFG, records[:1_000])
        write_snapshot(tmp_path, service, 1_000)
        service.ingest_stream((r, True) for r in records[1_000:2_000])
        write_snapshot(tmp_path, service, 2_000)
        bad = tmp_path / "snap-000000002000" / "shard-2.pkl"
        data = bytearray(bad.read_bytes())
        data[50] ^= 0xFF
        bad.write_bytes(data)
        chosen = latest_snapshot(tmp_path)
        assert chosen is not None and chosen.name == "snap-000000001000"

    def test_load_of_damaged_snapshot_refuses(self, tmp_path, records):
        service = build_service(CFG, records[:800])
        report = write_snapshot(tmp_path, service, 800)
        (tmp_path / "snap-000000000800" / "service.pkl").unlink()
        with pytest.raises(PersistenceError, match="missing or corrupt"):
            load_snapshot(report.path)

    def test_snapshot_naming_a_removed_class_refuses(self, tmp_path, records):
        """A CRC-valid snapshot whose shared-store blob names a class
        this version no longer defines (the lock-wrapped vector store
        older snapshots pickled) refuses with a typed error naming the
        class, not a raw ``AttributeError`` from the unpickler."""
        import json
        import zlib

        removed = "ThreadSafe" + "VectorStore"
        service = build_service(CFG, records[:500])
        report = write_snapshot(tmp_path, service, 500)
        snap = tmp_path / "snap-000000000500"
        # a protocol-0 GLOBAL opcode: "load class <module>.<name>"
        blob = f"crepro.core.vector_store\n{removed}\n.".encode()
        (snap / "shared.pkl").write_bytes(blob)
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["files"]["shared.pkl"] = {
            "bytes": len(blob),
            "crc32": zlib.crc32(blob),
        }
        (snap / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            PersistenceError, match=f"repro.core.vector_store.{removed}"
        ):
            load_snapshot(report.path)

    def test_snapshot_naming_the_similarity_cache_refuses(
        self, tmp_path, records, monkeypatch
    ):
        """Snapshots written before the similarity cache was removed
        pickled a ``SimilarityCache`` in the shared-store blob; such a
        snapshot refuses with a typed error, not a half-restored
        service."""
        import json
        import pickle
        import sys
        import types
        import zlib

        service = build_service(CFG, records[:500])
        report = write_snapshot(tmp_path, service, 500)
        snap = tmp_path / "snap-000000000500"
        shared = pickle.loads((snap / "shared.pkl").read_bytes())
        # rebuild the old shared blob: the stores plus a "sim_cache"
        # entry, pickled while a stand-in of the removed module exists
        old_module = types.ModuleType("repro.core.simcache")

        class SimilarityCache:
            pass

        SimilarityCache.__module__ = old_module.__name__
        SimilarityCache.__qualname__ = "SimilarityCache"
        old_module.SimilarityCache = SimilarityCache
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, old_module.__name__, old_module)
            blob = pickle.dumps(
                {**shared, "sim_cache": SimilarityCache()},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        (snap / "shared.pkl").write_bytes(blob)
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["files"]["shared.pkl"] = {
            "bytes": len(blob),
            "crc32": zlib.crc32(blob),
        }
        (snap / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            PersistenceError, match="repro.core.simcache.SimilarityCache"
        ):
            load_snapshot(report.path)


class TestConfigMismatch:
    @pytest.mark.parametrize(
        "override, field",
        [
            (dict(n_shards=8), "n_shards"),
            (dict(shard_policy="hash"), "shard_policy"),
            (dict(replication=False), "replication"),
        ],
    )
    def test_recovery_refuses_and_names_the_field(
        self, tmp_path, records, override, field
    ):
        manager = DurabilityManager(tmp_path)
        service = build_service(CFG, records[:1_000])
        manager.checkpoint(service, 1_000)
        booting = DurabilityManager(tmp_path)
        with pytest.raises(SnapshotMismatchError, match=field):
            booting.recover(CFG.with_(**override))
