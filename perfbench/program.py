"""Program process of the in-process workloads (``mine_hp``, ``fpa_sim``).

The harness (``run.py``) launches this file with the checkout's sources
on ``PYTHONPATH`` and the pinned ``PYTHONHASHSEED``. It never sees the
workload seed: it reads the generated records from a JSONL file through
the program's own trace reader.

Two modes::

    python3 perfbench/program.py probe <workload> <record-json>
    python3 perfbench/program.py run <workload> <records.jsonl> <seconds> <trace 0|1> <sim-seed> <spans-path>

``probe`` builds the workload's program objects, accepts one record and
prints ``accepted``; the harness times it from launch (``setup_s``).
``run`` measures for ``seconds`` and prints one JSON result line. With
``trace 1`` it measures untraced first, then installs the span wrappers
(``tracer.py``) and measures again, so the tracing overhead is the
difference of two runs in the same process.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import median, peak_rss_mb, summarize  # noqa: E402

#: jobs measured at least, whatever the duration
MIN_JOBS = 3
#: fpa_sim warm-up job length (records)
FPA_WARMUP = 2000


def farmer_config(workload: str):
    from repro.experiments.common import farmer_config_for

    if workload == "mine_hp":
        return farmer_config_for("hp")
    return farmer_config_for("hp", n_shards=4)


def sim_config(seed: int):
    from repro.experiments.common import sim_config_for

    return sim_config_for("hp", seed=seed, n_mds=4, routed_prefetch=True)


def probe(workload: str, record_json: str) -> None:
    from repro.traces.io import record_from_dict

    record = record_from_dict(json.loads(record_json))
    if workload == "mine_hp":
        from repro import Farmer

        Farmer(farmer_config(workload)).mine([record])
    else:
        from repro import ShardedFarmer
        from repro.storage import ShardedFarmerPrefetcher, run_simulation

        prefetcher = ShardedFarmerPrefetcher(ShardedFarmer(farmer_config(workload)))
        run_simulation([record], prefetcher, sim_config(0))
    print("accepted", flush=True)


def _timed(fn, samples: list[float]):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        samples.append(clock() - start)
        return result

    return wrapper


class MineHp:
    """Batch ``Farmer.mine`` of the whole trace, then ``predict`` for
    every fid; one job per fresh Farmer, repeated for the duration."""

    def __init__(self, records, seed: int) -> None:
        self.records = records
        self.fids = sorted({r.fid for r in records})
        self.config = farmer_config("mine_hp")
        self.predictions = None
        self.last = None

    def job(self, out: dict) -> None:
        from repro import Farmer

        clock = time.perf_counter
        farmer = Farmer(self.config)
        start = clock()
        farmer.mine(self.records)
        mined = clock()
        query = out["query_s"]
        predictions = []
        for fid in self.fids:
            t = clock()
            predictions.append(farmer.predict(fid))
            query.append(clock() - t)
        end = clock()
        out["rps"].append(len(self.records) / (end - start))
        # every record of a batch becomes queryable when mine() returns
        out["ack_s"].append(mined - start)
        out["attempted"] += len(self.records) + len(self.fids)
        if self.predictions is None:
            self.predictions = predictions
        elif predictions != self.predictions:
            out["errors"].append("bulk predictions differ between repeats of one trace")
        self.last = farmer

    def warmup(self) -> None:
        self.job(new_samples())

    def final_check(self, out: dict) -> None:
        """Kernel parity: the bulk lists equal the entrywise oracle's."""
        from repro import Farmer

        oracle = Farmer(self.config.with_(rerank_kernel="entrywise"))
        oracle.mine(self.records)
        expected = [oracle.predict(fid) for fid in self.fids]
        if expected != self.predictions:
            bad = sum(1 for a, b in zip(expected, self.predictions) if a != b)
            out["errors"].append(
                f"kernel parity: bulk predict differs from entrywise on {bad} of {len(self.fids)} fids"
            )
        out["checked"] = len(self.fids)



class FpaSim:
    """``run_simulation`` with 4 MDS, routed prefetch and the sharded
    FPA engine: observe then predict on every request."""

    def __init__(self, records, seed: int) -> None:
        self.records = records
        self.config = farmer_config("fpa_sim")
        self.sim_config = sim_config(seed)
        self.outcome = None
        self.last = None
        self.report = None

    def _simulate(self, records, out: dict | None):
        from repro import ShardedFarmer
        from repro.storage import ShardedFarmerPrefetcher, cluster

        service = ShardedFarmer(self.config)
        if out is not None:
            # the two calls FPA makes per request, timed as the
            # simulated metadata server sees them
            service.observe = _timed(service.observe, out["ack_s"])
            service.predict = _timed(service.predict, out["query_s"])
        report = cluster.run_simulation(records, ShardedFarmerPrefetcher(service), self.sim_config)
        return service, report

    def job(self, out: dict) -> None:
        start = time.perf_counter()
        service, report = self._simulate(self.records, out)
        elapsed = time.perf_counter() - start
        out["rps"].append(len(self.records) / elapsed)
        out["attempted"] += len(self.records)
        outcome = (report.mean_response_ns, report.hit_ratio)
        if self.outcome is None:
            self.outcome = outcome
        elif outcome != self.outcome:
            out["errors"].append(
                f"simulated outcome differs between repeats: {outcome} vs {self.outcome}"
            )
        self.last = service
        self.report = report

    def warmup(self) -> None:
        self._simulate(self.records[:FPA_WARMUP], None)

    def final_check(self, out: dict) -> None:
        """Repeats are compared job by job (see :meth:`job`)."""


WORKLOADS = {"mine_hp": MineHp, "fpa_sim": FpaSim}


def new_samples() -> dict:
    return {"rps": [], "ack_s": [], "query_s": [], "attempted": 0, "errors": []}


def measure(workload, seconds: float) -> dict:
    out = new_samples()
    deadline = time.perf_counter() + seconds
    while len(out["rps"]) < MIN_JOBS or time.perf_counter() < deadline:
        gc.collect()
        workload.job(out)
    return out


def e2e_result(out: dict) -> dict:
    return {
        "jobs": len(out["rps"]),
        "throughput_rps": median(out["rps"]),
        "ack_ms": summarize([s * 1e3 for s in out["ack_s"]]),
        "query_ms": summarize([s * 1e3 for s in out["query_s"]]),
        "attempted": out["attempted"],
        "errors": out["errors"],
    }


def sim_summary(report) -> dict:
    return {
        "sim_response_us": report.mean_response_ns / 1e3,
        "hit_ratio": report.hit_ratio,
        "prefetch_issued": report.prefetch_issued,
        "prefetch_accuracy": report.prefetch_accuracy,
    }


def run(name: str, path: str, seconds: float, trace: bool, seed: int, spans_path: str) -> dict:
    from repro.traces.io import read_jsonl

    records = list(read_jsonl(path))
    workload = WORKLOADS[name](records, seed)
    workload.warmup()
    out = measure(workload, seconds)
    rss = peak_rss_mb()
    result = e2e_result(out)
    if name == "mine_hp":
        # a mine_hp record is acknowledged when its whole batch is:
        # weight each job's sample by its record count
        ack = result["ack_ms"]
        for key in ("n", "p50_beyond", "p90_beyond", "p99_beyond"):
            ack[key] *= len(records)
    result["rss_mb"] = rss
    if name == "fpa_sim":
        result["sim"] = sim_summary(workload.report)
    if trace:
        import tracer as tracing

        tr = tracing.Tracer()
        tracing.install(tr)
        workload.last = None
        traced = measure(workload, seconds)
        result["traced"] = e2e_result(traced)
        extra = {"sim": sim_summary(workload.report)} if name == "fpa_sim" else {}
        n_jobs = len(traced["rps"])
        result["trace"] = tracing.trace_report(tr, n_jobs * len(records), workload.last, extra)
        # the program's counters cover the last job only
        result["trace"]["program_records"] = len(records)
        tr.dump(spans_path)
        result["errors"] += traced["errors"]
    workload.final_check(result)
    return result


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "probe":
        probe(workload, argv[2])
        return 0
    path, seconds, trace, seed, spans_path = argv[2], float(argv[3]), argv[4] == "1", int(argv[5]), argv[6]
    print(json.dumps(run(workload, path, seconds, trace, seed, spans_path)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
