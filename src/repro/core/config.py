"""FARMER configuration (every §3 knob in one validated object)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.traces.record import ATTRIBUTE_NAMES

__all__ = ["FarmerConfig", "DEFAULT_ATTRIBUTES", "PATHLESS_ATTRIBUTES"]

# The paper's HP-trace attribute set (Table 5 left) and the INS/RES set
# (Table 5 right: File ID + device stand in for the missing path).
DEFAULT_ATTRIBUTES: tuple[str, ...] = ("user", "process", "host", "path")
PATHLESS_ATTRIBUTES: tuple[str, ...] = ("user", "process", "host", "file", "dev")


@dataclass(frozen=True, slots=True)
class FarmerConfig:
    """All tunables of the FARMER model.

    Attributes:
        weight_p: the Function 2 blend — weight of semantic distance
            (paper default 0.7; p=0 reduces FARMER to Nexus).
        max_strength: validity threshold; correlations with degree at or
            below it are filtered out (paper operating point 0.4).
        window: look-ahead window for successor edges.
        lda_decrement: LDA weight decrement per unit distance (§3.2.2).
        weight_schedule: "lda" or "uniform" (ablation).
        attributes: semantic attributes fed into vectors (Table 5 rows).
        path_method: "ipa" (paper's choice) or "dpa".
        path_mode: directory-similarity mode, "bag" (paper's arithmetic)
            or "prefix".
        sv_policy: how a file's semantic vector tracks its requests —
            "merge" (default: accumulate up to ``merge_cap`` recent
            distinct values per attribute, the VSM document-vector
            reading), "latest" (most recent request only) or "first"
            (§3.2.3 notes attributes are rarely modified). "merge" is
            essential for files shared across users/processes: a shared
            library's vector must overlap with every program that links
            it, not only the last one.
        merge_cap: distinct recent values kept per attribute under the
            "merge" policy.
        successor_capacity: max retained successors per graph node.
        correlator_capacity: max entries per Correlator List.
        prefetch_k: how many correlates the FPA prefetcher requests.
        op_filter: if set, only these operations are mined.
        lazy_reevaluation: if True (default), ``observe()`` only marks
            the requested file's Correlator List dirty and refreshes the
            reinforced edges; the full Algorithm-1 re-rank runs on the
            first query of a dirty list. If False, every request re-runs
            Algorithm 1 immediately (the paper's literal per-request
            schedule; used as the equivalence reference in tests).
        rerank_kernel: how the full Algorithm-1 re-rank materialises a
            Correlator List — "bulk" (default: one-pass candidate
            evaluation + a single sort/threshold/capacity cut via
            ``CorrelatorList.rebuild``), "entrywise" (offer every
            successor through ``CorrelatorList.update``, a binary
            insertion each — the paper-literal oracle the equivalence
            tests compare against). Both produce bit-identical lists.
        incremental_rerank: if True (default), the re-rank keeps a
            ``(vector-version pair, N_xy, N_x)`` stamp per Correlator
            entry and skips both Function 1 and Function 2 for
            successors whose inputs are unchanged since the last rank —
            the incremental path that only touches the delta. False
            recomputes every degree on every re-rank (the reference
            schedule; results are bit-identical either way). With the
            "bulk" kernel the stamps also enable a whole-list skip:
            when a list's node tick and the vector-store epoch both
            match its last rank, the candidate scan is skipped outright
            (``RerankStats.entries_skipped_unchanged`` still advances).
            "entrywise" ignores it.
        vector_freeze_threshold: if > 0, a file's semantic vector is
            frozen (updates ignored, version stops bumping) once it has
            changed this many times — the vector-stability heuristic. A
            merged vector that survived N rewrites has saturated on the
            file's sharing set, and freezing it lets the rank stamps
            reuse most similarities instead of recomputing Function 1.
            0 (the default) disables freezing: every request can still
            reshape the vector, the paper's literal reading.
        n_shards: how many independent miner shards a
            :class:`~repro.service.ShardedFarmer` partitions the fid
            namespace across (1 = plain single-miner FARMER).
        shard_policy: namespace partitioning policy for the service
            router — "hash" (fid modulo, matches the HUSt cluster's MDS
            partitioning), "range" (contiguous fid blocks, preserves
            directory locality) or "consistent_hash" (a virtual-node
            hash ring: changing the shard count moves only ~1/n of the
            namespace, which is what makes ``ShardedFarmer.rebalance``
            a minority migration instead of a full re-mine).
        router_virtual_nodes: ring points per shard for the
            "consistent_hash" policy (more points = smoother load
            spread, larger routing table; ignored by other policies).
        router_seed: deterministic seed for consistent-hash ring
            placement. The ring hashes with a seeded SplitMix64 mix, so
            two processes (or a remote client) reconstructing the
            router from config route identically regardless of
            ``PYTHONHASHSEED``.
        echo_flush_interval: boundary-echo delivery schedule. Echoes
            are always accumulated in per-destination-shard queues
            rather than delivered synchronously with the triggering
            request. 0 (default) drains a shard's queue just in time —
            before the shard's next owned observation and before any
            query routed to it — which is bit-for-bit equivalent to
            the synchronous schedule (property-tested). A positive
            value drains every ``echo_flush_interval`` accepted
            requests instead (plus at every batch-``mine`` ingest
            barrier and before queries), trading echo-edge window
            fidelity for batching: an echo processed late attaches to
            the destination shard's *current* window, so echoed-edge
            LDA distances become approximate. Only meaningful under
            ``lazy_reevaluation``; the eager schedule always delivers
            echoes synchronously (it is the paper-literal reference).
        echo_idle_drain: live drain trigger for idle shards. A
            destination shard's echo queue normally waits for the
            shard's next owned request or query (just-in-time mode) or
            for the next interval expiry (batched mode) — an *idle*
            shard's queue can therefore sit undelivered indefinitely.
            With ``echo_idle_drain=G > 0``, a shard whose queue is
            non-empty and which has seen no activity (owned observation
            or drain) for G accepted requests elsewhere has its queue
            drained proactively. 0 (default) disables the trigger.
            Under ``echo_flush_interval=0`` the early drain is
            bit-identical to just-in-time delivery (nothing can have
            landed on the idle destination in between); under a
            positive interval it is one more drain point of the
            already-approximate batched schedule.
        replication: if True, a :class:`~repro.service.ShardedFarmer`
            keeps one warm standby per primary shard
            (:mod:`repro.service.replication`), synced through the
            shard-migration seam every ``standby_sync_interval``
            accepted requests. ``fail_shard(i)`` / ``promote_standby(i)``
            then make shard failover a first-class operation: the
            promoted standby serves exactly what the failed primary
            served at the last sync barrier. False (default) keeps the
            service unreplicated (no standby memory, no sync work).
        standby_sync_interval: accepted requests between standby sync
            barriers (only meaningful with ``replication=True``). At a
            barrier every primary's changed graph nodes and
            freshly-ranked Correlator Lists are copied to its standby;
            a smaller interval narrows the failover loss window at the
            cost of more sync work.
        cross_shard_edges: if True (default), a request whose immediate
            predecessor in the service-level stream lives on a different
            shard (a *boundary request*) is observed by both owner
            shards, so adjacent inter-shard correlations are mined
            instead of silently dropped. False gives strict partition
            isolation: each shard sees exactly its own substream.
    """

    weight_p: float = 0.7
    max_strength: float = 0.4
    window: int = 4
    lda_decrement: float = 0.1
    weight_schedule: str = "lda"
    attributes: tuple[str, ...] = DEFAULT_ATTRIBUTES
    path_method: str = "ipa"
    path_mode: str = "bag"
    sv_policy: str = "merge"
    merge_cap: int = 6
    successor_capacity: int = 32
    correlator_capacity: int = 16
    prefetch_k: int = 4
    op_filter: tuple[str, ...] | None = None
    lazy_reevaluation: bool = True
    rerank_kernel: str = "bulk"
    incremental_rerank: bool = True
    vector_freeze_threshold: int = 0
    n_shards: int = 1
    shard_policy: str = "hash"
    router_virtual_nodes: int = 64
    router_seed: int = 0
    echo_flush_interval: int = 0
    echo_idle_drain: int = 0
    replication: bool = False
    standby_sync_interval: int = 1024
    cross_shard_edges: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight_p <= 1.0:
            raise ConfigError("weight_p must be in [0, 1]")
        if not 0.0 <= self.max_strength <= 1.0:
            raise ConfigError("max_strength must be in [0, 1]")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if not 0.0 <= self.lda_decrement <= 1.0:
            raise ConfigError("lda_decrement must be in [0, 1]")
        if self.weight_schedule not in ("lda", "uniform"):
            raise ConfigError(f"unknown weight schedule {self.weight_schedule!r}")
        if not self.attributes:
            raise ConfigError("at least one semantic attribute is required")
        for attr in self.attributes:
            if attr not in ATTRIBUTE_NAMES:
                raise ConfigError(
                    f"unknown attribute {attr!r}; valid: {ATTRIBUTE_NAMES}"
                )
        if self.path_method not in ("ipa", "dpa"):
            raise ConfigError(f"unknown path method {self.path_method!r}")
        if self.path_mode not in ("bag", "prefix"):
            raise ConfigError(f"unknown path mode {self.path_mode!r}")
        if self.sv_policy not in ("merge", "latest", "first"):
            raise ConfigError(f"unknown sv policy {self.sv_policy!r}")
        if self.merge_cap < 1:
            raise ConfigError("merge_cap must be >= 1")
        if self.successor_capacity < 1:
            raise ConfigError("successor_capacity must be >= 1")
        if self.correlator_capacity < 1:
            raise ConfigError("correlator_capacity must be >= 1")
        if self.prefetch_k < 0:
            raise ConfigError("prefetch_k must be >= 0")
        if self.rerank_kernel not in ("bulk", "entrywise"):
            raise ConfigError(f"unknown rerank kernel {self.rerank_kernel!r}")
        if self.vector_freeze_threshold < 0:
            raise ConfigError("vector_freeze_threshold must be >= 0")
        if self.n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        if self.shard_policy not in ("hash", "range", "consistent_hash"):
            raise ConfigError(f"unknown shard policy {self.shard_policy!r}")
        if self.router_virtual_nodes < 1:
            raise ConfigError("router_virtual_nodes must be >= 1")
        if self.echo_flush_interval < 0:
            raise ConfigError("echo_flush_interval must be >= 0")
        if self.echo_idle_drain < 0:
            raise ConfigError("echo_idle_drain must be >= 0")
        if self.standby_sync_interval < 1:
            raise ConfigError("standby_sync_interval must be >= 1")

    def with_(self, **changes) -> "FarmerConfig":
        """Functional update (re-validates)."""
        return replace(self, **changes)

    def as_nexus(self) -> "FarmerConfig":
        """The paper's reduction: p=0 and no semantic filtering ≙ Nexus."""
        return self.with_(weight_p=0.0, max_strength=0.0)
