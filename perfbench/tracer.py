"""Span recorder and the per-layer wrappers of the traced benchmark run.

The wrappers are installed from the benchmark's own code around calls
into each layer's public functions; nothing in ``src/`` is edited. A
span is ``(name, start, end, parent)``: spans nest per thread, so a
span's self time is its duration minus the durations of its direct
children (children on one thread never overlap). Spans are kept in
memory as flat ``array('d')`` rows, one array per thread, and written
out when the traced process finishes.

Layer names follow the package layout (``vsm``, ``graph``, ``core``,
``service``, ``online``, ``api``, ``durability``, ``storage``).
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from array import array
from collections import deque

#: wrapper label -> (owning module, attribute path, span name). A label
#: names one patched callable; several labels may feed one span name.
SPAN_WRAPPERS = {
    "vsm.Vocabulary.scalar_token": ("repro.vsm.vocabulary", "Vocabulary.scalar_token", "vsm.extract"),
    "vsm.Vocabulary.path_components": ("repro.vsm.vocabulary", "Vocabulary.path_components", "vsm.extract"),
    "graph.CorrelationGraph.observe": ("repro.graph.correlation_graph", "CorrelationGraph.observe", "graph.observe"),
    "graph.CorrelationGraph.observe_batch": ("repro.graph.correlation_graph", "CorrelationGraph.observe_batch", "graph.observe"),
    "core.VectorStore.update": ("repro.core.vector_store", "VectorStore.update", "core.vector_update"),
    "core.VectorStore.update_batch": ("repro.core.vector_store", "VectorStore.update_batch", "core.vector_update"),
    "core.CoMiner.reevaluate": ("repro.core.cominer", "CoMiner.reevaluate", "core.rerank"),
    "core.CoMiner.reevaluate_edge": ("repro.core.cominer", "CoMiner.reevaluate_edge", "core.rerank"),
    "core.CoMiner.flush_nodes": ("repro.core.cominer", "CoMiner.flush_nodes", "core.rerank"),
    "service.ShardedFarmer.observe": ("repro.service.sharded", "ShardedFarmer.observe", "service.ingest"),
    "service.ShardedFarmer.ingest_stream": ("repro.service.sharded", "ShardedFarmer.ingest_stream", "service.ingest"),
    "service.ShardedFarmer.predict": ("repro.service.sharded", "ShardedFarmer.predict", "service.query"),
    "online.IngestPipeline.offer": ("repro.online.pipeline", "IngestPipeline.offer", "online.offer"),
    "online.OnlineService._consume_batch": ("repro.online.pipeline", "OnlineService._consume_batch", "online.consume"),
    "api.record_from_dict": ("repro.online.api", "record_from_dict", "api.decode"),
    "api.json.loads": ("repro.online.api", "json.loads", "api.decode"),
    "durability.DurabilityManager.log_accepted": ("repro.durability.manager", "DurabilityManager.log_accepted", "durability.wal_append"),
    "durability.DurabilityManager.checkpoint": ("repro.durability.manager", "DurabilityManager.checkpoint", "durability.checkpoint"),
    "storage.run_simulation": ("repro.storage.cluster", "run_simulation", "storage.sim"),
    "storage.MdsShardView.observe": ("repro.storage.prefetch", "MdsShardView.observe", "storage.fpa"),
    "storage.MdsShardView.partition_candidates": ("repro.storage.prefetch", "MdsShardView.partition_candidates", "storage.fpa"),
}

#: count-only wrappers (no span): label -> (module, attribute path)
COUNT_WRAPPERS = {
    "graph.NodeState.evict_weakest": ("repro.graph.correlation_graph", "NodeState.evict_weakest"),
}

#: span labels installed by dedicated probes rather than the table above
PROBE_LABELS = ("api.Handler.do_POST",)

#: where each layer must fire, and where it is predicted to be bypassed
#: (a label firing on a bypass workload, or not firing on a user
#: workload, fails the run)
LAYER_USERS = {
    "vsm": {"mine_hp", "fpa_sim", "serve_http"},
    "graph": {"mine_hp", "fpa_sim", "serve_http"},
    "core": {"mine_hp", "fpa_sim", "serve_http"},
    "service": {"fpa_sim", "serve_http"},
    "online": {"serve_http"},
    "api": {"serve_http"},
    "durability": {"serve_http"},
    "storage": {"fpa_sim"},
}

#: labels that fire only on some of their layer's workloads by design
#: (the single-record path vs the batch path of one layer)
LABEL_USERS = {
    "graph.CorrelationGraph.observe": {"fpa_sim"},
    "graph.CorrelationGraph.observe_batch": {"mine_hp", "serve_http"},
    "core.VectorStore.update": {"fpa_sim"},
    "core.VectorStore.update_batch": {"mine_hp", "serve_http"},
    "core.CoMiner.reevaluate_edge": {"fpa_sim"},
    "core.CoMiner.flush_nodes": {"mine_hp"},
    "service.ShardedFarmer.observe": {"fpa_sim"},
    "service.ShardedFarmer.ingest_stream": {"serve_http"},
}


def self_check(workload: str, counts: dict[str, int], optional=()) -> list[str]:
    """Failures of the trace self-check for one workload's call counts
    (labels in ``optional`` may stay at zero on a user workload)."""
    failures = []
    for label in (*SPAN_WRAPPERS, *COUNT_WRAPPERS, *PROBE_LABELS):
        layer = label.split(".", 1)[0]
        users = LABEL_USERS.get(label, LAYER_USERS[layer])
        n = counts.get(label, 0)
        if workload in users and n == 0 and label not in optional:
            failures.append(f"{label} never fired on {workload}")
        elif workload not in LAYER_USERS[layer] and n > 0:
            failures.append(
                f"{label} fired {n} times on {workload}, where {layer} "
                f"is predicted to be bypassed"
            )
    return failures


class Tracer:
    """In-memory span store: one flat ``array('d')`` per thread with
    rows ``(name index, start, end, parent row or -1)``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[array] = []
        self._lock = threading.Lock()
        #: offer -> pop_batch FIFO of admission times (queue wait)
        self.offer_times: deque[float] = deque()
        self.queue_wait_s = 0.0
        self.queue_waited = 0
        self.batches = 0
        self.batch_records = 0
        self.queue_depth_max = 0

    def _rows(self) -> tuple[array, list[int]]:
        local = self._local
        rows = getattr(local, "rows", None)
        if rows is None:
            rows = local.rows = array("d")
            local.stack = []
            with self._lock:
                self._threads.append(rows)
        return rows, local.stack

    def name_id(self, name: str) -> int:
        with self._lock:
            index = self._name_index.get(name)
            if index is None:
                index = self._name_index[name] = len(self.names)
                self.names.append(name)
            return index

    def span(self, label: str, name: str, fn):
        """Wrap ``fn`` so every call records one span named ``name``."""
        name_id = float(self.name_id(name))
        counts = self.counts
        counts.setdefault(label, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows, stack = self._rows()
            row = len(rows) // 4
            parent = stack[-1] if stack else -1
            rows.extend((name_id, clock(), 0.0, parent))
            stack.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                rows[4 * row + 2] = clock()
                stack.pop()
                counts[label] += 1

        return wrapper

    def counter(self, label: str, fn):
        """Wrap ``fn`` so every call bumps ``counts[label]``."""
        counts = self.counts
        counts.setdefault(label, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries -----------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, max duration."""
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
            for name in self.names
        }
        with self._lock:
            threads = list(self._threads)
        for rows in threads:
            n = len(rows) // 4
            child = [0.0] * n
            durations = [0.0] * n
            for i in range(n):
                start, end, parent = rows[4 * i + 1], rows[4 * i + 2], int(rows[4 * i + 3])
                if end == 0.0:
                    continue  # still open when the summary was taken
                d = durations[i] = end - start
                if parent >= 0:
                    child[parent] += d
            for i in range(n):
                if rows[4 * i + 2] == 0.0:
                    continue
                acc = out[self.names[int(rows[4 * i])]]
                acc["calls"] += 1
                acc["total_s"] += durations[i]
                acc["self_s"] += durations[i] - child[i]
                acc["max_s"] = max(acc["max_s"], durations[i])
        return out

    def dump(self, path: str) -> None:
        """Write every span out: a JSON index of names and per-thread
        row counts, followed by the raw rows of each thread."""
        with self._lock:
            threads = list(self._threads)
        # rows a live thread appends while this runs are left out
        counts = [len(rows) // 4 for rows in threads]
        header = {"names": self.names, "rows_per_thread": counts,
                  "row": ["name", "start", "end", "parent"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for rows, n in zip(threads, counts):
                rows[:4 * n].tofile(fh)


def _resolve(module_name: str, attr_path: str):
    import importlib

    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Patch every wrapper in place (classes and module attributes).

    ``json.loads`` inside the API module is reached through a private
    namespace standing in for the ``json`` module there, so only the
    request decoder is timed, not every JSON call in the process.
    """
    import json as json_module

    import repro.online.api as api

    api.json = types.SimpleNamespace(
        loads=json_module.loads,
        dumps=json_module.dumps,
        JSONDecodeError=json_module.JSONDecodeError,
    )
    for label, (module_name, attr_path, name) in SPAN_WRAPPERS.items():
        owner, attr = _resolve(module_name, attr_path)
        setattr(owner, attr, tracer.span(label, name, getattr(owner, attr)))
    for label, (module_name, attr_path) in COUNT_WRAPPERS.items():
        owner, attr = _resolve(module_name, attr_path)
        setattr(owner, attr, tracer.counter(label, getattr(owner, attr)))
    _install_queue_probe(tracer)
    _install_handler_probe(tracer)


def _install_handler_probe(tracer: Tracer) -> None:
    """Span ``api.handler`` around every POST the API serves (the
    handler class is built per server, so it is wrapped as it is made)."""
    from repro.online.api import AdminApiServer

    make_handler = AdminApiServer._make_handler

    @functools.wraps(make_handler)
    def traced_make_handler(self):
        handler = make_handler(self)
        handler.do_POST = tracer.span("api.Handler.do_POST", "api.handler", handler.do_POST)
        return handler

    AdminApiServer._make_handler = traced_make_handler


def _install_queue_probe(tracer: Tracer) -> None:
    """Time each accepted record from ``offer`` to the ``pop_batch``
    that hands it to the consumer.

    The admission time is queued from the write-ahead journal hook,
    which the pipeline calls for accepted records only, under its lock
    and before the record is enqueued; with one FIFO consumer the
    times therefore leave in the same order as the records.
    """
    from repro.durability.manager import DurabilityManager
    from repro.online.pipeline import IngestPipeline

    offer = IngestPipeline.offer
    pop_batch = IngestPipeline.pop_batch
    log_accepted = DurabilityManager.log_accepted
    clock = time.perf_counter
    times = tracer.offer_times
    local = threading.local()

    @functools.wraps(offer)
    def timed_offer(self, record):
        local.start = clock()
        return offer(self, record)

    @functools.wraps(log_accepted)
    def timed_log(self, record, allow_echo):
        times.append(local.start)
        return log_accepted(self, record, allow_echo)

    @functools.wraps(pop_batch)
    def timed_pop(self, timeout_s=None):
        batch = pop_batch(self, timeout_s)
        if batch:
            now = clock()
            depth = len(batch) + self.depth
            with tracer._lock:
                for _ in batch:
                    tracer.queue_wait_s += now - times.popleft()
                tracer.queue_waited += len(batch)
                tracer.batches += 1
                tracer.batch_records += len(batch)
                tracer.queue_depth_max = max(tracer.queue_depth_max, depth)
        return batch

    IngestPipeline.offer = timed_offer
    IngestPipeline.pop_batch = timed_pop
    DurabilityManager.log_accepted = timed_log


def program_counters(miner) -> dict[str, float]:
    """The program's own counters for a :class:`Farmer` or a
    :class:`ShardedFarmer` (read once, after the traced work)."""
    shards = getattr(miner, "shards", (miner,))
    reevaluations = scanned = 0
    for shard in shards:
        stats = shard.rerank_stats()
        reevaluations += stats.n_reevaluations
        scanned += stats.entries_scanned
    return {
        "n_observed": miner.n_observed,
        "shard_observes": sum(shard.n_observed for shard in shards),
        "boundary_echoes": getattr(miner, "n_boundary_echoes", 0),
        "reevaluations": reevaluations,
        "entries_scanned": scanned,
        "simcache_hit_rate": miner.sim_cache_stats().hit_rate,
        "state_bytes": miner.memory_bytes(),
    }


def trace_report(tracer: Tracer, records: int, miner, extra: dict | None = None) -> dict:
    """Everything the harness needs from a traced program process."""
    report = {
        "records": records,
        "layers": tracer.layer_times(),
        "counts": dict(tracer.counts),
        "queue": {
            "wait_s": tracer.queue_wait_s,
            "waited": tracer.queue_waited,
            "batches": tracer.batches,
            "batch_records": tracer.batch_records,
            "depth_max": tracer.queue_depth_max,
        },
        "program": program_counters(miner) if miner is not None else {},
    }
    report.update(extra or {})
    return report


def read_spans(path: str):
    """Yield ``(name, start, end, parent_row)`` for every span that
    :meth:`Tracer.dump` wrote (rows are per thread)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        names = header["names"]
        for n_rows in header["rows_per_thread"]:
            rows = array("d")
            rows.fromfile(fh, 4 * n_rows)
            for i in range(n_rows):
                yield names[int(rows[4 * i])], rows[4 * i + 1], rows[4 * i + 2], int(rows[4 * i + 3])
