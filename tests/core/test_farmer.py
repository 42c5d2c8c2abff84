"""Tests for the FARMER pipeline (constructor, CoMiner, sorter, façade)."""

import pytest

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from tests.conftest import make_record, sequence_records


def run_pattern(farmer: Farmer, fids, **kwargs):
    for r in sequence_records(fids, **kwargs):
        farmer.observe(r)
    return farmer


class TestObserve:
    def test_builds_graph_and_lists(self):
        farmer = Farmer(FarmerConfig(max_strength=0.0))
        run_pattern(farmer, [1, 2, 3] * 10, path="/p/x")
        assert farmer.constructor.graph.n_nodes() == 3
        assert len(farmer.correlators(1)) > 0

    def test_correlators_sorted_descending(self):
        farmer = Farmer(FarmerConfig(max_strength=0.0))
        run_pattern(farmer, [1, 2, 1, 3, 1, 2, 1, 2] * 6)
        entries = farmer.correlators(1)
        degrees = [e.degree for e in entries]
        assert degrees == sorted(degrees, reverse=True)

    def test_predict_respects_k(self):
        farmer = Farmer(FarmerConfig(max_strength=0.0))
        run_pattern(farmer, [1, 2, 3, 4, 5] * 8)
        assert len(farmer.predict(1, k=2)) <= 2
        assert farmer.predict(99) == []

    def test_threshold_filters(self):
        """With an impossible threshold nothing is ever valid."""
        farmer = Farmer(FarmerConfig(max_strength=1.0))
        run_pattern(farmer, [1, 2] * 20, uid=1, pid=1, host=1, path="/a/b")
        assert farmer.correlators(1) == []

    def test_op_filter(self):
        farmer = Farmer(FarmerConfig(op_filter=("open",)))
        farmer.observe(make_record(1, op="stat"))
        farmer.observe(make_record(2, op="stat"))
        assert farmer.stats().n_observed == 0
        farmer.observe(make_record(3, op="open"))
        assert farmer.stats().n_observed == 1

    def test_mine_chains(self):
        farmer = Farmer()
        assert farmer.mine(sequence_records([1, 2, 3])) is farmer


class TestFunctionTwo:
    def test_blend(self):
        """R = sim*p + F*(1-p) holds for a mined pair."""
        cfg = FarmerConfig(weight_p=0.6, max_strength=0.0)
        farmer = Farmer(cfg)
        run_pattern(farmer, [1, 2] * 10, uid=3, pid=4, host=5, path="/d/f")
        sim = farmer.semantic_distance(1, 2)
        freq = farmer.access_frequency(1, 2)
        expected = sim * 0.6 + freq * 0.4
        assert farmer.correlation_degree(1, 2) == pytest.approx(expected)

    def test_p_zero_is_frequency_only(self):
        farmer = Farmer(FarmerConfig(weight_p=0.0, max_strength=0.0))
        run_pattern(farmer, [1, 2] * 10)
        assert farmer.correlation_degree(1, 2) == pytest.approx(
            farmer.access_frequency(1, 2)
        )

    def test_p_one_is_similarity_only(self):
        farmer = Farmer(FarmerConfig(weight_p=1.0, max_strength=0.0))
        run_pattern(farmer, [1, 2] * 10, path="/d/f")
        assert farmer.correlation_degree(1, 2) == pytest.approx(
            farmer.semantic_distance(1, 2)
        )

    def test_unseen_pair_zero(self):
        farmer = Farmer()
        assert farmer.correlation_degree(1, 2) == 0.0
        assert farmer.semantic_distance(1, 2) == 0.0
        assert farmer.access_frequency(1, 2) == 0.0


class TestNexusReduction:
    def test_p0_ranking_matches_nexus(self, hp_trace):
        """§7: FARMER with p=0 and no threshold ranks like Nexus."""
        from repro.baselines.nexus import Nexus

        farmer = Farmer(
            FarmerConfig(weight_p=0.0, max_strength=0.0, correlator_capacity=32)
        )
        nexus = Nexus(window=4, successor_capacity=32)
        subset = hp_trace[:600]
        for r in subset:
            farmer.observe(r)
            nexus.observe(r)
        agreements = 0
        checked = 0
        for r in subset[:200]:
            f_top = farmer.predict(r.fid, k=1)
            n_top = nexus.predict(r.fid, k=1)
            if f_top and n_top:
                checked += 1
                agreements += f_top[0] == n_top[0]
        assert checked > 50
        # ranking criteria differ only by the N_A normalisation's tie
        # handling, so agreement must be near-total
        assert agreements / checked > 0.9


class TestStatsAndMemory:
    def test_stats_counts(self, hp_trace):
        farmer = Farmer()
        farmer.mine(hp_trace[:500])
        stats = farmer.stats()
        assert stats.n_observed == 500
        assert stats.n_files > 0
        assert stats.n_edges > 0
        assert stats.vocabulary_size > 0
        assert stats.memory_bytes > 0
        assert stats.memory_megabytes == stats.memory_bytes / 1e6

    def test_memory_grows_with_mining(self, hp_trace):
        farmer = Farmer()
        farmer.mine(hp_trace[:100])
        early = farmer.memory_bytes()
        farmer.mine(hp_trace[100:600])
        assert farmer.memory_bytes() > early

    def test_threshold_bounds_memory(self, hp_trace):
        """§3.3: filtering keeps the footprint smaller."""
        tight = Farmer(FarmerConfig(max_strength=0.6))
        loose = Farmer(FarmerConfig(max_strength=0.0))
        tight.mine(hp_trace)
        loose.mine(hp_trace)
        assert tight.stats().n_entries < loose.stats().n_entries

    def test_snapshot(self, hp_trace):
        farmer = Farmer()
        farmer.mine(hp_trace[:400])
        snap = farmer.snapshot()
        assert snap.n_lists > 0
        assert snap.n_entries >= snap.n_lists  # lists are non-empty
        assert 0 < snap.mean_top_degree <= 1.0

    def test_pickle_round_trip_keeps_predictions(self, hp_trace):
        """A mined plain Farmer pickles, and the restored copy serves
        the same predictions and keeps mining in step with the
        original."""
        import pickle

        farmer = Farmer()
        farmer.mine(hp_trace[:600])
        clone = pickle.loads(pickle.dumps(farmer))
        fids = sorted({r.fid for r in hp_trace[:600]})
        assert [clone.predict(f) for f in fids] == [farmer.predict(f) for f in fids]
        for miner in (farmer, clone):
            miner.mine(hp_trace[600:900])
        assert [clone.predict(f) for f in fids] == [farmer.predict(f) for f in fids]


class TestSorter:
    def test_strongest_pairs(self, hp_trace):
        farmer = Farmer()
        farmer.mine(hp_trace[:500])
        pairs = farmer.sorter.strongest_pairs(5)
        assert len(pairs) <= 5
        degrees = [e.degree for _, e in pairs]
        assert degrees == sorted(degrees, reverse=True)

    def test_top_empty_for_unknown(self):
        farmer = Farmer()
        assert farmer.sorter.top(123, 3) == []
