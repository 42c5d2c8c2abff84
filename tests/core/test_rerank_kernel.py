"""The one-pass re-rank kernel: bulk vs the entrywise oracle.

The acceptance property for the re-rank kernel: over a randomized
20k-record synthetic trace, a Farmer on the production bulk kernel
(incremental stamps on *and* off) returns bit-identical query results
to the paper-literal entry-by-entry oracle, under both the lazy and
the eager schedule — while doing measurably less work (no insorts
during re-ranks, fewer Function-1 computations). The bulk
kernel's own shortcuts (the whole-list epoch skip, per-entry stamp
reuse under vector churn, the heap partial-select list cut) are pinned
against the same oracle below, and a hypothesis property drives all
three configurations through random interleaved observe/query streams
with vector churn.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cominer import SimStats
from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.graph.correlator_list import CorrelatorList
from repro.traces.synthetic import generate_trace
from tests.conftest import make_record

KERNELS = {
    "bulk+stamps": dict(rerank_kernel="bulk", incremental_rerank=True),
    "bulk": dict(rerank_kernel="bulk", incremental_rerank=False),
    "entrywise": dict(rerank_kernel="entrywise"),
}


def farmers_for(**common):
    return {k: Farmer(FarmerConfig(**common, **kw)) for k, kw in KERNELS.items()}


#: one op per request: (fid, uid, pid, directory, query after observing).
#: Few fids and many attribute values keep vectors churning, and the
#: merge policy bumps versions until a file's buckets saturate.
CHURN_OPS = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.integers(0, 3),
        st.integers(0, 5),
        st.integers(0, 2),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


def churn_stream(ops):
    """``(record, query)`` pairs for a :data:`CHURN_OPS` draw."""
    return [
        (
            make_record(
                fid, ts=i, uid=uid, pid=pid, host=uid % 2, path=f"/d{d}/f{fid}"
            ),
            query,
        )
        for i, (fid, uid, pid, d, query) in enumerate(ops)
    ]


class TestKernelEquivalence:
    def test_20k_trace_equivalence_lazy(self, synthetic_trace):
        """Acceptance property (lazy schedule): bulk (stamps on and
        off) and entrywise agree at every query point of a 20k trace."""
        trace = synthetic_trace("hp", 20_000, seed=23)
        farmers = farmers_for(max_strength=0.3)
        ref = farmers["entrywise"]
        seen: set[int] = set()
        for i, record in enumerate(trace):
            for f in farmers.values():
                f.observe(record)
            seen.add(record.fid)
            expected = ref.correlators(record.fid)
            for name, f in farmers.items():
                if f is not ref:
                    assert f.correlators(record.fid) == expected, (name, i)
            if i % 4000 == 3999:
                for fid in seen:
                    expected = ref.correlators(fid)
                    for f in farmers.values():
                        assert f.correlators(fid) == expected
        snaps = {k: f.snapshot() for k, f in farmers.items()}
        assert snaps["bulk+stamps"] == snaps["entrywise"]
        assert snaps["bulk"] == snaps["entrywise"]

    def test_eager_schedule_equivalence(self):
        """Same property under the paper's literal per-request
        schedule (lazy_reevaluation=False)."""
        trace = generate_trace("hp", 6_000, seed=7)
        farmers = farmers_for(max_strength=0.3, lazy_reevaluation=False)
        ref = farmers["entrywise"]
        for record in trace:
            for f in farmers.values():
                f.observe(record)
            expected = ref.predict(record.fid)
            assert all(
                f.predict(record.fid) == expected for f in farmers.values()
            )

    def test_batch_mine_equivalence(self):
        """Chunked batch mining (the incremental service pattern, where
        the stamps actually skip work) stays bit-identical."""
        trace = generate_trace("hp", 8_000, seed=5)
        farmers = farmers_for(max_strength=0.3)
        for start in range(0, len(trace), 250):
            for f in farmers.values():
                f.mine(trace[start : start + 250])
        ref = farmers["entrywise"]
        fids = set(ref.constructor.graph.nodes())
        for f in farmers.values():
            assert set(f.constructor.graph.nodes()) == fids
        for fid in fids:
            expected = ref.correlators(fid)
            for f in farmers.values():
                assert f.correlators(fid) == expected
        # the stamps must have skipped at least some unchanged entries
        # (window-straddling predecessors across chunk boundaries)
        assert (
            farmers["bulk+stamps"].rerank_stats().entries_skipped_unchanged > 0
        )
        assert farmers["bulk"].rerank_stats().entries_skipped_unchanged == 0

    def test_small_capacity_overflow_equivalence(self):
        """The capacity cut is where ranking paths could diverge; pin
        equality under heavy list overflow (capacity 2, threshold 0)."""
        trace = generate_trace("hp", 4_000, seed=13)
        farmers = farmers_for(max_strength=0.0, correlator_capacity=2)
        ref = farmers["entrywise"]
        for record in trace:
            for f in farmers.values():
                f.observe(record)
            expected = ref.correlators(record.fid)
            assert all(
                f.correlators(record.fid) == expected for f in farmers.values()
            )


class TestInterleavedChurnProperty:
    @pytest.mark.parametrize("freeze", [0, 8])
    @settings(max_examples=60, deadline=None)
    @given(ops=CHURN_OPS, policy=st.sampled_from(["merge", "latest"]))
    def test_stamps_plain_and_entrywise_agree(self, freeze, ops, policy):
        """Bulk with stamps (edge stamps included), bulk without stamps
        and the entrywise oracle serve bit-identical lists at every
        query of an interleaved stream, and at the end for every file."""
        farmers = farmers_for(
            max_strength=0.2, vector_freeze_threshold=freeze, sv_policy=policy
        )
        ref = farmers["entrywise"]
        for i, (record, query) in enumerate(churn_stream(ops)):
            for f in farmers.values():
                f.observe(record)
            if query:
                expected = ref.correlators(record.fid)
                for name, f in farmers.items():
                    assert f.correlators(record.fid) == expected, (name, i)
        for fid in range(10):
            expected = ref.correlators(fid)
            for name, f in farmers.items():
                assert f.correlators(fid) == expected, (name, fid)


class TestOpCounts:
    def test_bulk_rerank_never_insorts(self):
        """Re-ranks on the bulk kernel cost zero binary insertions; the
        entrywise reference pays one per scanned entry."""
        trace = generate_trace("hp", 3_000, seed=3)
        farmers = farmers_for(max_strength=0.3)
        for record in trace:
            for f in farmers.values():
                f.observe(record)
                f.predict(record.fid)
        bulk = farmers["bulk+stamps"].rerank_stats()
        entry = farmers["entrywise"].rerank_stats()
        assert bulk.n_reevaluations == entry.n_reevaluations
        assert bulk.entries_scanned == entry.entries_scanned
        # bulk insorts come only from the eager single-edge refreshes
        assert bulk.insort_ops < entry.insort_ops / 2

    def test_stamps_cut_function1_requests(self):
        """With stable vectors, the rank stamps (edge stamps included)
        absorb most Function-1 computations."""
        trace = generate_trace("hp", 4_000, seed=9)

        def fpa(with_stamps: bool) -> Farmer:
            f = Farmer(
                FarmerConfig(
                    vector_freeze_threshold=8, incremental_rerank=with_stamps
                )
            )
            for record in trace:
                f.observe(record)
                f.predict(record.fid)
            return f

        stamped = fpa(True)
        plain = fpa(False)
        # identical outputs...
        fids = set(stamped.constructor.graph.nodes())
        for fid in fids:
            assert stamped.correlators(fid) == plain.correlators(fid)
        # ...with far fewer Function-1 computations, every similarity
        # served either way
        s_sim, p_sim = stamped.sim_cache_stats(), plain.sim_cache_stats()
        assert s_sim.misses < p_sim.misses / 2
        assert p_sim.hits == 0
        assert s_sim.lookups == p_sim.lookups

    def test_semantic_distances_batch_kernel(self):
        """The batch kernel answers a whole successor set in one pass,
        agreeing with the single-pair path."""
        trace = generate_trace("hp", 1_000, seed=4)
        farmer = Farmer()
        for record in trace:
            farmer.observe(record)
        src = trace[0].fid
        dsts = list(farmer.constructor.graph.successors(src)) + [999_999]
        batch = farmer.miner.semantic_distances(src, dsts)
        assert len(batch) == len(dsts)
        assert batch == [farmer.semantic_distance(src, d) for d in dsts]
        assert batch[-1] == 0.0  # unseen fid
        # unseen source: all zeros
        assert farmer.miner.semantic_distances(888_888, dsts) == [0.0] * len(dsts)

    def test_rerank_stats_exposed_via_farmer_stats(self):
        farmer = Farmer()
        farmer.mine(generate_trace("hp", 500, seed=2))
        stats = farmer.stats()
        assert stats.rerank == farmer.rerank_stats()
        assert stats.rerank.n_reevaluations > 0
        assert stats.rerank.entries_scanned > 0


class TestStampCorrectness:
    def test_stamp_never_serves_stale_degree(self):
        """A stamp only matches when every input matches, so a changed
        vector or frequency always recomputes — spot-check by forcing
        vector churn between queries."""
        cfg = FarmerConfig(max_strength=0.0, sv_policy="latest", weight_p=0.9)
        farmer = Farmer(cfg)
        for i in range(6):
            farmer.observe(make_record(1, uid=1, pid=1, host=1, ts=2 * i))
            farmer.observe(make_record(2, uid=1, pid=1, host=1, ts=2 * i + 1))
        before = {e.fid: e.degree for e in farmer.correlators(1)}
        farmer.observe(make_record(2, uid=9, pid=9, host=9, ts=100))
        farmer.observe(make_record(1, uid=1, pid=1, host=1, ts=101))
        after = {e.fid: e.degree for e in farmer.correlators(1)}
        assert after[2] == pytest.approx(farmer.correlation_degree(1, 2))
        assert after[2] != before[2]

    def test_config_validates_kernel_name(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            FarmerConfig(rerank_kernel="quantum")


def _stamped_and_oracle(**common) -> tuple[Farmer, Farmer]:
    """A stamped bulk Farmer and the entrywise oracle, same knobs."""
    return (
        Farmer(FarmerConfig(rerank_kernel="bulk", **common)),
        Farmer(FarmerConfig(rerank_kernel="entrywise", **common)),
    )


class TestEdgeStamps:
    def two_requests(self, **cfg) -> Farmer:
        farmer = Farmer(FarmerConfig(max_strength=0.0, **cfg))
        farmer.observe(make_record(1, uid=1, pid=1, host=1, path="/a/x"))
        # reinforces 1 -> 2: the edge refresh computes sim(1, 2)
        farmer.observe(make_record(2, uid=1, pid=1, host=1, path="/a/y", ts=1))
        return farmer

    def test_edge_stamp_feeds_the_next_rerank(self):
        """The similarity an edge refresh computed is stamped, and the
        next bulk re-rank of the source reuses it."""
        farmer = self.two_requests()
        assert farmer.sim_cache_stats() == SimStats(hits=0, misses=1)
        assert farmer.miner.is_dirty(1)
        entries = farmer.correlators(1)  # the deferred re-rank of 1
        assert [e.fid for e in entries] == [2]
        assert farmer.sim_cache_stats() == SimStats(hits=1, misses=1)

    @pytest.mark.parametrize(
        "cfg",
        [dict(incremental_rerank=False), dict(rerank_kernel="entrywise")],
        ids=["no-stamps", "entrywise"],
    )
    def test_unstamped_paths_recompute(self, cfg):
        """Without stamps every similarity is computed, and the lists
        are the stamped path's."""
        farmer = self.two_requests(**cfg)
        assert farmer.correlators(1) == self.two_requests().correlators(1)
        assert farmer.sim_cache_stats() == SimStats(hits=0, misses=2)

    def test_idle_counters(self):
        stats = Farmer().sim_cache_stats()
        assert stats == SimStats(hits=0, misses=0)
        assert stats.lookups == 0 and stats.hit_rate == 0.0


class TestWholeListSkip:
    def test_bulk_whole_list_epoch_skip(self):
        """mine → dirty+query (primes the skip state) → dirty+query
        again: with the node tick and the vector-store epoch both
        unchanged, the second rank skips the full candidate scan,
        advancing ``entries_skipped_unchanged`` by exactly the
        successor count while serving the identical list."""
        trace = generate_trace("hp", 2_000, seed=17)
        farmer = Farmer(
            FarmerConfig(rerank_kernel="bulk", incremental_rerank=True)
        )
        farmer.mine(trace)
        node_map = farmer.constructor.graph.node_map()
        fid = max(node_map, key=lambda g: len(node_map[g].succ_fids))
        d = len(node_map[fid].succ_fids)
        assert d > 0
        farmer.miner.mark_dirty(fid)
        first = farmer.correlators(fid)
        farmer.miner.mark_dirty(fid)
        before = farmer.rerank_stats()
        again = farmer.correlators(fid)
        after = farmer.rerank_stats()
        assert again == first
        assert after.n_reevaluations - before.n_reevaluations == 1
        assert after.entries_scanned - before.entries_scanned == d
        assert (
            after.entries_skipped_unchanged - before.entries_skipped_unchanged
            == d
        )

    def test_skip_invalidated_by_vector_churn(self):
        """A vector-store epoch move disarms the whole-list skip: the
        next rank rescans instead of serving the stale list."""
        farmer = Farmer(
            FarmerConfig(
                rerank_kernel="bulk", sv_policy="latest", max_strength=0.0
            )
        )
        for i in range(6):
            farmer.observe(make_record(1, uid=1, pid=1, host=1, ts=2 * i))
            farmer.observe(make_record(2, uid=1, pid=1, host=1, ts=2 * i + 1))
        farmer.miner.mark_dirty(1)
        farmer.correlators(1)  # skip state now primed
        # churn fid 2's vector (new uid/pid/host => new scalar ids)
        farmer.observe(make_record(2, uid=9, pid=9, host=9, ts=100))
        farmer.miner.mark_dirty(1)
        before = farmer.rerank_stats()
        after_list = {e.fid: e.degree for e in farmer.correlators(1)}
        stats = farmer.rerank_stats()
        assert stats.entries_skipped_unchanged == before.entries_skipped_unchanged
        assert after_list[2] == pytest.approx(farmer.correlation_degree(1, 2))


class TestStampReuseEquivalence:
    def test_vector_churn_interleaved_queries(self):
        """Stamp reuse under the churny "latest" policy stays
        bit-identical to the entrywise oracle at every query point."""
        trace = generate_trace("hp", 6_000, seed=29)
        fa, fb = _stamped_and_oracle(
            max_strength=0.0, sv_policy="latest", weight_p=0.9
        )
        for i, record in enumerate(trace):
            fa.observe(record)
            fb.observe(record)
            assert fa.correlators(record.fid) == fb.correlators(record.fid), i
        assert fa.snapshot() == fb.snapshot()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(path_method="dpa"),
            dict(path_mode="prefix"),
            dict(weight_p=1.0),
            dict(weight_p=0.0),
            dict(vector_freeze_threshold=4),
        ],
        ids=["dpa", "prefix", "p=1", "p=0", "freeze"],
    )
    def test_off_fast_path_configs(self, overrides):
        """Configs off the default IPA-bag path (dpa, prefix mode) or
        with a degenerate Function-2 blend still agree with the
        oracle."""
        trace = generate_trace("hp", 3_000, seed=31)
        fa, fb = _stamped_and_oracle(max_strength=0.0, **overrides)
        for i, record in enumerate(trace):
            fa.observe(record)
            fb.observe(record)
            assert fa.predict(record.fid) == fb.predict(record.fid), i
        fids = set(fb.constructor.graph.nodes())
        assert set(fa.constructor.graph.nodes()) == fids
        for fid in fids:
            assert fa.correlators(fid) == fb.correlators(fid)


class TestPartialSelect:
    @pytest.mark.parametrize("seed", range(6))
    def test_rebuild_matches_update_loop(self, seed):
        """``rebuild`` (a full sort below the partial-select cutoff, a
        heap top-k above it) equals offering every candidate through
        ``update``, with a tiny degree pool so the capacity boundary
        almost always lands on an exact-tie plateau (the fid-ordered
        tie fill is the delicate part)."""
        rng = random.Random(seed)
        n = rng.choice([3, 63, 64, 65, 200, 500])
        fids = rng.sample(range(100_000), n)
        pool = [round(rng.random(), 2) for _ in range(5)]
        degrees = [rng.choice(pool) for _ in fids]
        for capacity in (1, 4, 16, 64, 600):
            for threshold in (0.0, 0.5):
                a = CorrelatorList(threshold=threshold, capacity=capacity)
                a.rebuild(zip(fids, degrees))
                b = CorrelatorList(threshold=threshold, capacity=capacity)
                for fid, degree in zip(fids, degrees):
                    b.update(fid, degree)
                assert a.entries() == b.entries(), (capacity, threshold)
                assert a._degrees == b._degrees

    def test_rebuild_all_below_threshold(self):
        lst = CorrelatorList(threshold=0.9, capacity=4)
        lst.rebuild((fid, 0.5) for fid in range(100))
        assert lst.entries() == []
        assert len(lst) == 0

    def test_wide_nodes_end_to_end(self):
        """High successor capacity with a tight list capacity drives
        the heap partial-select cut inside the bulk kernel; output must
        still match the oracle."""
        trace = generate_trace("hp", 12_000, seed=37)
        fa, fb = _stamped_and_oracle(
            max_strength=0.0, successor_capacity=256, correlator_capacity=8
        )
        fa.mine(trace)
        fb.mine(trace)
        node_map = fa.constructor.graph.node_map()
        widest = max(len(n.succ_fids) for n in node_map.values())
        assert widest >= 64  # the partial-select path engaged
        for fid in fb.constructor.graph.nodes():
            assert fa.correlators(fid) == fb.correlators(fid)
