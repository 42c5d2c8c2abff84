"""The re-rank kernels under the full service stack, and delta
standby sync over the flat successor layout.

Two properties ride here:

* **service-level kernel equivalence** — a sharded service on the
  production bulk kernel, driven through rebalance *and* failover,
  serves exactly what the entrywise-oracle service serves (the kernel
  seam is below every migration/replication seam, so the whole schedule
  must agree), with and without rank stamps, including under random
  interleaved observe/query streams with vector churn;
* **delta sync engages** — steady-state standby barriers ship
  stats-only nodes as in-place array deltas (``n_delta_syncs``), and a
  standby built that way still promotes to a bit-identical shard.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FarmerConfig
from repro.service.sharded import ShardedFarmer
from repro.traces.synthetic import generate_trace
from tests.core.test_rerank_kernel import CHURN_OPS, KERNELS, churn_stream


def owned_fids(service: ShardedFarmer) -> set[int]:
    out: set[int] = set()
    for shard in service.shards:
        out.update(shard.constructor.graph.nodes())
    return out


def query_map(service: ShardedFarmer, fids) -> dict:
    return {
        fid: (service.correlators(fid), service.predict(fid))
        for fid in sorted(fids)
    }


class TestServiceEquivalence:
    def test_rebalance_and_failover_schedule(self):
        """Identical mine/rebalance/fail/promote schedule on both
        kernels ends in identical query state everywhere."""
        trace = generate_trace("hp", 12_000, seed=41)

        def run(kernel: str) -> ShardedFarmer:
            service = ShardedFarmer(
                FarmerConfig(
                    max_strength=0.3,
                    n_shards=4,
                    rerank_kernel=kernel,
                    replication=True,
                    standby_sync_interval=2_000,
                )
            )
            service.mine(trace[:6_000])
            service.rebalance(n_shards=6)
            service.mine(trace[6_000:10_000])
            service.sync_standbys()  # zero-lag barrier: lossless failover
            service.fail_shard(2)
            service.promote_standby(2)
            service.mine(trace[10_000:])
            return service

        bulk_svc = run("bulk")
        oracle_svc = run("entrywise")
        fids = owned_fids(oracle_svc)
        assert owned_fids(bulk_svc) == fids
        assert query_map(bulk_svc, fids) == query_map(oracle_svc, fids)


class TestInterleavedChurnProperty:
    @pytest.mark.parametrize("freeze", [0, 8])
    @settings(max_examples=25, deadline=None)
    @given(
        ops=CHURN_OPS,
        cut=st.integers(0, 120),
        n_after=st.sampled_from([2, 3, 6]),
    )
    def test_replicated_rebalance_stream(self, freeze, ops, cut, n_after):
        """A 4-shard replicated service rebalanced mid-stream serves
        identical lists on bulk with stamps, bulk without stamps and
        entrywise, at every query and for every file at the end."""
        services = {
            name: ShardedFarmer(
                FarmerConfig(
                    max_strength=0.2,
                    n_shards=4,
                    replication=True,
                    standby_sync_interval=16,
                    vector_freeze_threshold=freeze,
                    **kernel,
                )
            )
            for name, kernel in KERNELS.items()
        }
        ref = services["entrywise"]
        for i, (record, query) in enumerate(churn_stream(ops)):
            if i == cut:
                for service in services.values():
                    service.rebalance(n_shards=n_after)
            for service in services.values():
                service.observe(record)
            if query:
                expected = ref.correlators(record.fid)
                for name, service in services.items():
                    assert service.correlators(record.fid) == expected, (name, i)
        for fid in range(10):
            expected = ref.correlators(fid)
            for name, service in services.items():
                assert service.correlators(fid) == expected, (name, fid)


class TestDeltaSync:
    def test_delta_path_engages_and_promotes_identically(self):
        trace = generate_trace("hp", 8_000, seed=43)
        cfg = FarmerConfig(
            max_strength=0.3,
            n_shards=2,
            rerank_kernel="bulk",
            replication=True,
            standby_sync_interval=100_000,  # explicit barriers only
        )

        def run(fail: bool) -> ShardedFarmer:
            service = ShardedFarmer(cfg)
            service.mine(trace[:6_000])
            service.sync_standbys()
            # steady state: mostly re-touches of known files, so most
            # changed nodes keep their successor membership
            service.mine(trace[6_000:6_600])
            report = service.sync_standbys()
            assert report.n_delta_syncs > 0
            assert (
                report.n_delta_syncs + report.n_full_clones
                == report.n_nodes_shipped
            )
            if fail:
                service.fail_shard(0)
                service.promote_standby(0)
            return service

        promoted = run(fail=True)
        reference = run(fail=False)
        fids = owned_fids(reference)
        assert owned_fids(promoted) == fids
        # the promoted shard 0 was rebuilt from clones *and* in-place
        # array deltas at a zero-lag barrier: every query must match the
        # never-failed service bit for bit
        assert query_map(promoted, fids) == query_map(reference, fids)

