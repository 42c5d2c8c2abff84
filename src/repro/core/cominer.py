"""Stage 3 — Mining & Evaluating: the CoMiner algorithm (paper §3.2).

For a file ``x`` and each graph successor ``y``:

* semantic distance ``sim(x, y)`` via the configured path algorithm
  (Function 1, IPA by default);
* access frequency ``F(x, y) = N_xy / N_x`` with LDA-weighted ``N_xy``;
* correlation degree ``R(x, y) = sim·p + F·(1 − p)`` (Function 2);

entries with ``R > max_strength`` go into (or re-rank within) the file's
Correlator List; weaker ones are filtered out. This mirrors the paper's
Algorithm 1 pseudo-code.

Incremental hot path (the dirty/lazy contract)
----------------------------------------------

The paper's "reasonable overhead" claim (§4, Table 4) needs per-request
mining to be O(small). Three mechanisms make it so:

* **Rank stamps** — ``sim(x, y)`` depends only on the two semantic
  vectors, and a vector-version pair identifies the exact vectors.
  Every ranked entry keeps a stamp of the inputs it was ranked from
  (see the kernel section below), so Function 1 reruns only when an
  endpoint's vector truly changed: a stamp whose version pair no longer
  matches is simply not reused. The single-edge refresh
  :meth:`reevaluate_edge` reads and writes the same stamps.

* **Dirty lists, lazy re-rank** — a request for ``x`` changes the
  denominator of every ``F(x, ·)``, so the whole list of ``x`` is stale;
  instead of re-running Algorithm 1 immediately, ``observe`` calls
  :meth:`mark_dirty` and the full re-rank + stale-edge sweep is deferred
  to the first *query* of the list (:meth:`query` / :meth:`flush_all`).
  Reinforced edges (``pred → x`` for predecessors in the window) only
  move one entry, so they are refreshed eagerly via
  :meth:`reevaluate_edge` — exactly the schedule the eager miner runs,
  which keeps lazy and eager query results identical when queries follow
  the triggering request.

* **Change ticks** — the graph stamps every node with a monotonic
  :meth:`~repro.graph.correlation_graph.CorrelationGraph.change_tick`;
  :meth:`reevaluate` records the tick it ranked at, and
  :meth:`flush_nodes` (the batch-``mine`` path) re-ranks exactly the
  touched nodes whose tick moved since they were last ranked.

One-pass re-rank kernel (``FarmerConfig.rerank_kernel``)
--------------------------------------------------------

``reevaluate`` is the hottest loop in the system, and the default
"bulk" kernel runs it as one measurable pass instead of d independent
``update``/``insort`` calls:

* the source's vector/version and access count are resolved **once**;
* per successor, an *entry stamp* ``(vector-version pair, N_xy, N_x)``
  is compared against the inputs of the last rank — an exact match
  reuses the stored degree outright (both Function 1 and Function 2
  skipped), a version-pair match alone reuses the stored similarity
  (Function 1 skipped, only the frequency blend recomputed). A
  *sim-only* stamp written by :meth:`reevaluate_edge` serves the
  second case;
* remaining successors compute Function 1 directly, exactly as the
  public batch kernel :meth:`semantic_distances` does (src vector
  resolved once), with the loop inlined into the re-rank
  (property-tested against the public method);
* the list is materialised by a single
  :meth:`~repro.graph.correlator_list.CorrelatorList.rebuild` (sort +
  threshold/capacity cut, O(d log d)) instead of d binary insertions.

``rerank_kernel="entrywise"`` keeps the per-entry reference path
(bit-for-bit identical output, property-tested);
``incremental_rerank=False`` disables the stamps. The op counters in
:class:`RerankStats` and the Function-1 counters in :class:`SimStats`
let benchmarks assert the work reduction instead of poking internals.

Ranking contract (both kernels): a re-ranked list is a pure function of
the file's *current* successor set — the top-capacity degrees above the
threshold. Stale entries and stale degrees never interact with the
capacity cut.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import FarmerConfig
from repro.core.constructor import GraphConstructor
from repro.graph.correlator_list import CorrelatorList
from repro.vsm.similarity import dpa_similarity, ipa_similarity

__all__ = ["CoMiner", "RerankStats", "SimStats"]


@dataclass(frozen=True, slots=True)
class RerankStats:
    """Operation counters of the re-rank hot path (since construction).

    Attributes:
        n_reevaluations: full Algorithm-1 re-ranks performed.
        entries_scanned: successor entries examined across all re-ranks.
        entries_skipped_unchanged: entries whose stamp matched every
            input — degree reused, Function 1 and Function 2 skipped.
        insort_ops: binary insertions into Correlator Lists (the bulk
            kernel performs none during a re-rank; the eager single-edge
            refresh path still insorts).
    """

    n_reevaluations: int
    entries_scanned: int
    entries_skipped_unchanged: int
    insort_ops: int


@dataclass(frozen=True, slots=True)
class SimStats:
    """Function-1 counters of one miner (since construction).

    Attributes:
        hits: successor similarities reused from the last rank (a rank
            stamp, or a whole-list skip) instead of computed.
        misses: Function-1 computations.
    """

    hits: int
    misses: int

    @property
    def lookups(self) -> int:
        """Similarities served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of similarities reused (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class CoMiner:
    """Evaluates correlation degrees and maintains Correlator Lists."""

    def __init__(self, config: FarmerConfig, constructor: GraphConstructor) -> None:
        self.config = config
        self.constructor = constructor
        self._lists: dict[int, CorrelatorList] = {}
        self._dirty: set[int] = set()
        self._ranked_tick: dict[int, int] = {}
        # src -> dst -> (ver_src, ver_dst, n_xy, n_x, sim, degree): the
        # inputs and outputs of the last rank, pruned to the current
        # successor set on every bulk re-rank. reevaluate_edge writes
        # sim-only stamps (n_xy, n_x and degree None) that the next
        # bulk re-rank reads for their similarity.
        self._stamps: dict[int, dict[int, tuple]] = {}
        self._bulk = config.rerank_kernel == "bulk"
        self._incremental = self._bulk and config.incremental_rerank
        # src -> vector-store epoch at its last bulk rank: with the
        # ranked tick, the whole-list skip proof
        self._ranked_epoch: dict[int, int] = {}
        self._n_reevaluations = 0
        self._entries_scanned = 0
        self._entries_skipped = 0
        self._sim_hits = 0
        self._sim_misses = 0

    # ------------------------------------------------------------------
    # degree evaluation
    # ------------------------------------------------------------------

    def _similarity(self, va, vb) -> float:
        """Function 1 on two semantic vectors (one computation)."""
        self._sim_misses += 1
        if self.config.path_method == "ipa":
            return ipa_similarity(va, vb, self.config.path_mode)
        return dpa_similarity(va, vb)

    def semantic_distance(self, src: int, dst: int) -> float:
        """``sim(src, dst)`` from the stored semantic vectors (0 if unknown)."""
        vectors = self.constructor.vectors.maps()[0]
        va = vectors.get(src)
        if va is None:
            return 0.0
        vb = vectors.get(dst)
        if vb is None:
            return 0.0
        return self._similarity(va, vb)

    def semantic_distances(self, src: int, dsts) -> list[float]:
        """Batch Function 1: ``sim(src, dst)`` for every dst, in order.

        ``src``'s vector is resolved once and the whole set is computed
        in one pass. :meth:`_reevaluate_bulk` inlines this same loop on
        the hot path; the equivalence tests pin the two against each
        other.
        """
        vectors = self.constructor.vectors.maps()[0]
        va = vectors.get(src)
        if va is None:
            return [0.0 for _ in dsts]
        out: list[float] = []
        for dst in dsts:
            vb = vectors.get(dst)
            out.append(0.0 if vb is None else self._similarity(va, vb))
        return out

    def correlation_degree(self, src: int, dst: int) -> float:
        """Function 2: ``R = sim·p + F·(1−p)``."""
        p = self.config.weight_p
        sim = self.semantic_distance(src, dst) if p > 0.0 else 0.0
        freq = self.constructor.graph.frequency(src, dst) if p < 1.0 else 0.0
        return sim * p + freq * (1.0 - p)

    def sim_cache_stats(self) -> SimStats:
        """Function-1 counters: similarities reused from the last rank
        (hits) and computed (misses)."""
        return SimStats(hits=self._sim_hits, misses=self._sim_misses)

    # ------------------------------------------------------------------
    # list maintenance
    # ------------------------------------------------------------------

    def _list_for(self, fid: int) -> CorrelatorList:
        lst = self._lists.get(fid)
        if lst is None:
            lst = CorrelatorList(
                threshold=self.config.max_strength,
                capacity=self.config.correlator_capacity,
            )
            self._lists[fid] = lst
        return lst

    def reevaluate(self, src: int) -> CorrelatorList:
        """Re-run Algorithm 1 for ``src``: evaluate every graph successor,
        filter by the validity threshold, keep the list sorted. Entries
        whose edge the graph has evicted are dropped (the stale-edge
        sweep falls out of ranking over the current successor set).
        Clears the dirty flag and records the graph tick ranked at."""
        if self._bulk:
            return self._reevaluate_bulk(src)
        return self._reevaluate_entrywise(src)

    def _reevaluate_bulk(self, src: int) -> CorrelatorList:
        """One-pass kernel: stamps skip unchanged successors, the
        remaining similarities are computed exactly as
        :meth:`semantic_distances` would (src vector resolved once —
        inlined to keep the loop flat), and the list is materialised by
        a single sort/cut rebuild.

        Stamps are recorded from a file's first *re*-rank on (or once
        :meth:`reevaluate_edge` has stamped one of its entries): a
        one-shot batch ranks every file exactly once, and allocating
        stamps it will never read is measurable at that scale.
        """
        constructor = self.constructor
        store = constructor.vectors
        node = constructor.graph.node_map().get(src)
        if node is not None:
            succ_fids = node.succ_fids
            succ_weights = node.succ_weights
            n_x = node.access_count
            tick = node.change_tick
        else:
            succ_fids = succ_weights = ()
            n_x = 0
            tick = 0
        d = len(succ_fids)
        if self._incremental:
            last_epoch = self._ranked_epoch.get(src)
            if (
                last_epoch is not None
                and last_epoch == store.epoch()
                and self._ranked_tick.get(src) == tick
                and src in self._lists
            ):
                # node tick and vector epoch both unchanged since the
                # last rank: every input of the list is provably the
                # same, skip the candidate scan outright (counters
                # advance as if scanned, preserving cross-kernel parity)
                self._n_reevaluations += 1
                self._entries_scanned += d
                self._entries_skipped += d
                self._sim_hits += d
                self._dirty.discard(src)
                return self._lists[src]
        lst = self._list_for(src)
        self._n_reevaluations += 1
        self._entries_scanned += d
        config = self.config
        p = config.weight_p
        q = 1.0 - p
        use_sim = p > 0.0
        use_freq = p < 1.0
        vectors, versions = store.maps()
        va = vectors.get(src)
        ver_a = versions[src] if va is not None else 0
        ipa = config.path_method == "ipa"
        mode = config.path_mode
        stamps = self._stamps.get(src) if self._incremental else None
        record_stamps = self._incremental and (
            stamps is not None or src in self._ranked_tick
        )
        new_stamps: dict[int, tuple] = {}
        candidates: list[tuple[int, float]] = []
        skipped = reused = computed = 0
        for dst, n_xy in zip(succ_fids, succ_weights):
            ver_b = versions.get(dst, 0)
            sim = None
            if stamps is not None:
                st = stamps.get(dst)
                if st is not None and st[0] == ver_a and st[1] == ver_b:
                    if st[2] == n_xy and st[3] == n_x:
                        # every input unchanged since the last rank:
                        # reuse the degree, skip Functions 1 and 2
                        skipped += 1
                        candidates.append((dst, st[5]))
                        new_stamps[dst] = st
                        continue
                    sim = st[4]  # vectors unchanged: Function 1 skipped
                    reused += 1
            if sim is None:
                if not use_sim or va is None:
                    sim = 0.0
                else:
                    vb = vectors.get(dst)
                    if vb is None:
                        sim = 0.0
                    else:
                        computed += 1
                        sim = (
                            ipa_similarity(va, vb, mode)
                            if ipa
                            else dpa_similarity(va, vb)
                        )
            if use_freq and n_x:
                freq = n_xy / n_x
                if freq > 1.0:
                    freq = 1.0
            else:
                freq = 0.0
            degree = sim * p + freq * q
            candidates.append((dst, degree))
            if record_stamps:
                new_stamps[dst] = (ver_a, ver_b, n_xy, n_x, sim, degree)
        lst.rebuild(candidates)
        if record_stamps and new_stamps:
            self._stamps[src] = new_stamps
        elif stamps is not None and not new_stamps:
            self._stamps.pop(src, None)
        self._entries_skipped += skipped
        self._sim_hits += skipped + reused
        self._sim_misses += computed
        self._dirty.discard(src)
        self._ranked_tick[src] = tick
        if self._incremental:
            self._ranked_epoch[src] = store.epoch()
        return lst

    def _reevaluate_entrywise(self, src: int) -> CorrelatorList:
        """Reference kernel: clear, then offer every successor through
        ``CorrelatorList.update`` (one binary insertion each). Output is
        bit-for-bit identical to the bulk kernel — both rank the current
        successor set from scratch — which the property tests pin."""
        successors = self.constructor.graph.successors(src)
        lst = self._list_for(src)
        self._n_reevaluations += 1
        self._entries_scanned += len(successors)
        for fid in [e.fid for e in lst.entries()]:
            lst.discard(fid)
        for dst in successors:
            lst.update(dst, self.correlation_degree(src, dst))
        self._dirty.discard(src)
        self._ranked_tick[src] = self.constructor.graph.change_tick(src)
        return lst

    def reevaluate_edge(self, src: int, dst: int) -> None:
        """Refresh a single (src → dst) entry after an edge reinforcement.

        On the incremental bulk path the similarity comes from ``src``'s
        stamp for ``dst`` when its version pair still matches; otherwise
        it is computed and written back as a sim-only stamp, which the
        next bulk re-rank of ``src`` reads instead of recomputing.
        """
        p = self.config.weight_p
        if self._incremental and p > 0.0:
            sim = self._stamped_similarity(src, dst)
        else:
            sim = self.semantic_distance(src, dst) if p > 0.0 else 0.0
        freq = self.constructor.graph.frequency(src, dst) if p < 1.0 else 0.0
        self._list_for(src).update(dst, sim * p + freq * (1.0 - p))

    def _stamped_similarity(self, src: int, dst: int) -> float:
        """``sim(src, dst)`` through ``src``'s rank stamps: reused when
        the stamp's version pair matches, else computed and stamped."""
        vectors, versions = self.constructor.vectors.maps()
        va = vectors.get(src)
        vb = vectors.get(dst)
        if va is None or vb is None:
            return 0.0
        ver_a = versions[src]
        ver_b = versions[dst]
        stamps = self._stamps.get(src)
        if stamps is None:
            stamps = self._stamps[src] = {}
        else:
            st = stamps.get(dst)
            if st is not None and st[0] == ver_a and st[1] == ver_b:
                self._sim_hits += 1
                return st[4]
        sim = self._similarity(va, vb)
        stamps[dst] = (ver_a, ver_b, None, None, sim, None)
        return sim

    # ------------------------------------------------------------------
    # dirty/lazy protocol
    # ------------------------------------------------------------------

    def mark_dirty(self, fid: int) -> None:
        """Note that ``fid``'s frequency denominators changed; the full
        re-rank is deferred to the first query of the list."""
        self._dirty.add(fid)

    def demote_rank(self, fid: int) -> None:
        """Forget that ``fid`` was ranked: mark it dirty and drop its
        rank stamps, so the next flush or query re-ranks it even though
        the graph tick has not moved.

        The replication barrier uses this to stay invisible: it ranks
        dirty lists mid-stream so the standby ships barrier-exact state,
        but the primary's own schedule must still re-rank them at query
        time — the tick-skip in :meth:`flush_nodes` would otherwise
        serve the barrier-time degrees after later vector updates.
        Per-edge stamps are kept (they validate against live versions,
        so unchanged edges still skip Functions 1 and 2 on the re-rank).
        """
        self._dirty.add(fid)
        self._ranked_tick.pop(fid, None)
        self._ranked_epoch.pop(fid, None)

    def is_dirty(self, fid: int) -> bool:
        """Whether ``fid``'s list awaits its deferred re-rank."""
        return fid in self._dirty

    def n_dirty(self) -> int:
        """Number of lists awaiting a deferred re-rank."""
        return len(self._dirty)

    def dirty_nodes(self) -> list[int]:
        """The fids awaiting a deferred re-rank (a snapshot copy)."""
        return list(self._dirty)

    def query(self, fid: int) -> CorrelatorList | None:
        """The Correlator List of ``fid``, re-ranked first if dirty.

        This is the entry point the Sorter (and therefore ``correlators``
        / ``predict``) uses; every result it returns reflects a full
        Algorithm-1 pass over the current graph and vector state.
        """
        if fid in self._dirty:
            return self.reevaluate(fid)
        return self._lists.get(fid)

    def flush_all(self) -> None:
        """Re-rank every dirty list (aggregate queries call this first)."""
        while self._dirty:
            self.reevaluate(next(iter(self._dirty)))

    def flush_nodes(self, fids) -> None:
        """Batch-mode flush: re-rank exactly the given nodes, skipping
        any whose graph change tick has not moved since it was last
        ranked (``Farmer.mine`` collects the fids its batch touched and
        defers all list maintenance to one such pass at the end, so
        chunked mining costs O(touched), not O(graph))."""
        nodes = self.constructor.graph.node_map()
        ranked = self._ranked_tick
        for fid in fids:
            node = nodes.get(fid)
            tick = node.change_tick if node is not None else 0
            if ranked.get(fid, 0) != tick:
                self.reevaluate(fid)
            else:
                self._dirty.discard(fid)

    def flush_graph_changes(self) -> None:
        """Full resync: re-rank every node in the graph whose change
        tick moved since it was last ranked. O(graph) — prefer
        :meth:`flush_nodes` when the touched set is known."""
        self.flush_nodes(self.constructor.graph.nodes())
        self._dirty.clear()

    # ------------------------------------------------------------------
    # migration (the shard-rebalancing and standby-sync seam)
    # ------------------------------------------------------------------

    def flush_nodes_report(self, fids) -> dict[int, CorrelatorList]:
        """:meth:`flush_nodes` that also returns the re-ranked lists —
        a rebalance migration and a standby sync barrier ship exactly
        the lists it rebuilt."""
        graph = self.constructor.graph
        ranked = self._ranked_tick
        out: dict[int, CorrelatorList] = {}
        for fid in fids:
            if ranked.get(fid, 0) != graph.change_tick(fid):
                out[fid] = self.reevaluate(fid)
            else:
                self._dirty.discard(fid)
        return out

    def extract_state(self, fid: int) -> CorrelatorList | None:
        """Detach everything this miner holds for ``fid`` and return its
        Correlator List (``None`` if the file never grew one).

        Used when a shard rebalance migrates the fid elsewhere: list,
        re-rank stamps, ranked tick and dirty flag all leave with it —
        call :meth:`flush_nodes` (or :meth:`flush_nodes_report`) first
        if the shipped list must be freshly ranked.
        """
        self._dirty.discard(fid)
        self._ranked_tick.pop(fid, None)
        self._stamps.pop(fid, None)
        self._ranked_epoch.pop(fid, None)
        return self._lists.pop(fid, None)

    def adopt_migrated(self, fid: int, lst: CorrelatorList, tick: int) -> None:
        """Install a list migrated from another shard as ``fid``'s
        authoritative state: any halo list/stamps/dirty flag this miner
        accumulated for the fid are discarded (the migrated list came
        from the owner), and the ranked tick is pinned to ``tick`` (the
        migrated graph node's change tick) so the next flush re-ranks
        only if the node actually changes again. Stamps are dropped
        rather than shipped — they are validated against live inputs, so
        losing them costs a recomputation, never correctness.
        """
        self._lists[fid] = lst
        self._ranked_tick[fid] = tick
        self._stamps.pop(fid, None)
        self._ranked_epoch.pop(fid, None)
        self._dirty.discard(fid)

    # ------------------------------------------------------------------
    # op accounting
    # ------------------------------------------------------------------

    def rerank_stats(self) -> RerankStats:
        """Re-rank op counters (what the perf benchmarks assert on)."""
        return RerankStats(
            n_reevaluations=self._n_reevaluations,
            entries_scanned=self._entries_scanned,
            entries_skipped_unchanged=self._entries_skipped,
            insort_ops=sum(lst.insort_ops for lst in self._lists.values()),
        )

    # ------------------------------------------------------------------
    # views & accounting
    # ------------------------------------------------------------------

    def list_of(self, fid: int) -> CorrelatorList | None:
        """The Correlator List of ``fid`` as-is (None if the file has none
        yet; may be awaiting its deferred re-rank — use :meth:`query` for
        the re-ranked view)."""
        return self._lists.get(fid)

    def n_lists(self) -> int:
        """Number of files owning a Correlator List."""
        return len(self._lists)

    def lists(self) -> dict[int, CorrelatorList]:
        """Live view of all lists (read-only use; call :meth:`flush_all`
        first if re-ranked results are required)."""
        return self._lists

    def approx_bytes(self) -> int:
        """Footprint of all Correlator Lists, the dirty/ranked-tick
        bookkeeping and the re-rank stamps."""
        return (
            64
            + sum(104 + lst.approx_bytes() for lst in self._lists.values())
            + 56 * len(self._ranked_tick)
            + 56 * len(self._ranked_epoch)
            + 32 * len(self._dirty)
            + sum(88 + 144 * len(d) for d in self._stamps.values())
        )
