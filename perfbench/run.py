"""The repository benchmark: ``mine_hp``, ``fpa_sim`` and ``serve_http``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mine_hp --seed 1 --seconds 30 --trace 0

The workload seed only reaches the input generator here; the program
processes receive the generated records. Every program process runs
with a pinned ``PYTHONHASHSEED`` (``--hash-seed``, default 0; this
process re-executes itself under it too). Check a claim on a second
hash seed with ``--hash-seed 1``.

Workloads (``BENCHMARK.json`` says why each exists):

* ``mine_hp`` -- batch ``Farmer.mine`` of a 100,000-record synthetic
  HP trace, then ``predict`` for every fid; repeated on fresh miners.
* ``fpa_sim`` -- ``run_simulation`` of a 12,000-request HP trace on 4
  metadata servers with routed prefetch and a 4-shard
  ``ShardedFarmerPrefetcher``; repeated on fresh services.
* ``serve_http`` -- ``repro serve --data-dir`` driven over HTTP: an
  open loop at 1,000 records/s, then a closed loop to saturation
  (``serve.py``).

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``setup_s`` -- launch of a program process until its first record is
  accepted; median of ``SETUP_PROBES`` launches.
* ``rss_mb`` -- peak RSS of the measured program process.
* ``throughput_rps`` -- records (requests) per second: mined and
  queried per job on mine_hp (``mine_rps``), simulated on fpa_sim
  (``fpa_rps``), mined in the closed loop on serve_http (``serve_rps``).

Every run also prints client-side latencies from raw samples, each
with its sample count: ``ack`` (submission until the program has taken
the record in: the whole ``mine()`` batch on mine_hp, the ``observe``
call on fpa_sim, due time until the ``/ingest`` reply on serve_http)
and ``query`` (``predict``; ``GET /predict`` from its due time on
serve_http), plus freshness on serve_http. They are per-layer metrics
(``client.*``, ``online.fresh_*``), not end-to-end ones: on a 2-vCPU
virtual machine their run-to-run spread exceeds any usable bound.

``--trace 1`` measures untraced and then traced (``tracer.py`` wraps
each layer's public calls), prints every per-layer metric, the
self-check result and the tracing overhead. A failed output check or
self-check prints ``"correct": false`` and exits 1. Without the
program's sources (``src/``) the benchmark exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serve  # noqa: E402
import tracer  # noqa: E402
from common import (  # noqa: E402
    DEFAULT_HASH_SEED,
    SRC_DIR,
    WORK_DIR,
    fingerprint,
    median,
    program_env,
)

WORKLOADS = ("mine_hp", "fpa_sim", "serve_http")
MINE_RECORDS = 100_000
FPA_RECORDS = 12_000
SETUP_PROBES = 5
PROGRAM_TIMEOUT_S = 170.0

E2E = {
    "setup_s": "s",
    "rss_mb": "MB",
    "throughput_rps": "1/s",
}

#: each workload's own name for its throughput metric
THROUGHPUT_NAME = {"mine_hp": "mine_rps", "fpa_sim": "fpa_rps", "serve_http": "serve_rps"}

PER_LAYER = {
    "vsm.extract_us": "us/rec",
    "graph.observe_us": "us/rec",
    "graph.evictions": "1/rec",
    "core.vector_update_us": "us/rec",
    "core.rerank_us": "us/rec",
    "core.reevaluations": "1/rec",
    "core.entries_scanned": "1/rec",
    "core.simcache_hit_ratio": "ratio",
    "core.state_mb": "MB",
    "service.ingest_us": "us/rec",
    "service.echo_ratio": "1/rec",
    "service.shard_work_ratio": "1/rec",
    "online.offer_us": "us/rec",
    "online.queue_wait_ms": "ms",
    "online.batch_records": "count",
    "online.consume_us": "us/rec",
    "online.queue_depth_max": "count",
    "online.fresh_p50_ms": "ms",
    "online.fresh_p99_ms": "ms",
    "online.query_divergence": "ratio",
    "online.drain_s": "s",
    "online.shutdown_s": "s",
    "api.decode_us": "us/rec",
    "api.handler_ms": "ms",
    "api.ack_gap_ms": "ms",
    "durability.wal_append_us": "us/rec",
    "durability.fsyncs_per_krec": "1/krec",
    "durability.wal_bytes_per_record": "B/rec",
    "durability.checkpoint_ms_max": "ms",
    "durability.checkpoints": "count",
    "storage.sim_self_us": "us/rec",
    "storage.prefetch_issued": "count",
    "storage.prefetch_accuracy": "ratio",
    "storage.sim_response_us": "us",
    "storage.hit_ratio": "ratio",
    "client.ack_p50_ms": "ms",
    "client.ack_p99_ms": "ms",
    "client.query_p50_ms": "ms",
    "client.query_p99_ms": "ms",
    "bench.gen_late_ms": "ms",
    "bench.poll_ms": "ms",
    "bench.degraded_frac": "ratio",
    "bench.trace_overhead_pct": "%",
    "bench.selfcheck_failures": "count",
}


def log(line: str) -> None:
    print(line, flush=True)


# ----------------------------------------------------------------------
# in-process workloads (mine_hp, fpa_sim): program.py does the work
# ----------------------------------------------------------------------


def probe_program(workload: str, first_record: str, env: dict) -> float:
    """Launch until ``program.py probe`` has accepted its first record."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "program.py"), "probe", workload, first_record],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=PROGRAM_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "accepted" or proc.returncode != 0:
        raise RuntimeError(f"{workload} setup probe failed (exit {proc.returncode})")
    return elapsed


def run_program(workload: str, args, env: dict, work: str) -> dict:
    from repro import generate_trace
    from repro.traces.io import record_to_dict, write_jsonl

    n = MINE_RECORDS if workload == "mine_hp" else FPA_RECORDS
    records = generate_trace("hp", n, seed=args.seed)
    path = os.path.join(work, "records.jsonl")
    write_jsonl(records, path)
    first = json.dumps(record_to_dict(records[0]))
    del records
    setup = [probe_program(workload, first, env) for _ in range(SETUP_PROBES)] if not args.trace else []
    spans = os.path.join(work, "spans.bin")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "program.py"), "run", workload, path,
         str(args.seconds), "1" if args.trace else "0", str(args.seed), spans],
        capture_output=True, text=True, env=env, timeout=PROGRAM_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} program failed:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = setup
    return out


# ----------------------------------------------------------------------
# serve_http
# ----------------------------------------------------------------------


def run_serve(args, env: dict, work: str) -> dict:
    from repro import generate_trace

    records = generate_trace("hp", serve.records_needed(args.seconds), seed=args.seed)
    if not args.trace:
        return serve.run(records, args.seconds, args.seed, False, env, work, SETUP_PROBES)
    untraced = serve.run(records, args.seconds, args.seed, False, env, work, 0)
    traced = serve.run(records, args.seconds, args.seed, True, env, work, 0)
    traced["untraced"] = untraced
    return traced


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def e2e_metrics(workload: str, out: dict) -> tuple[dict, dict]:
    """(metric -> value, metric -> sample count)."""
    if workload == "serve_http":
        values = {"throughput_rps": out["serve_rps"]}
        counts = {"throughput_rps": out["accepted"] - out["offered_a"]}
    else:
        values = {"throughput_rps": out["throughput_rps"]}
        counts = {"throughput_rps": out["jobs"]}
    values["rss_mb"] = out["rss_mb"]
    counts["rss_mb"] = 1
    if out.get("setup_s"):
        values["setup_s"] = median(out["setup_s"])
        counts["setup_s"] = len(out["setup_s"])
    return values, counts


def latencies(workload: str, out: dict) -> dict:
    """Client-side latency summaries: ``ack`` (submission until the
    program has taken the record in) and ``query`` (``predict``)."""
    if workload == "serve_http":
        return {"ack": out["phase_a"]["ack_ms"], "query": out["phase_a"]["query_ms"]}
    return {"ack": out["ack_ms"], "query": out["query_ms"]}


def per_layer_metrics(workload: str, out: dict, failures: list[str]) -> dict:
    tr = out["trace"]
    recs = max(1, tr["records"])
    layers = tr["layers"]
    prog = tr["program"]
    prog_recs = max(1, tr["program_records"])
    queue = tr["queue"]

    def self_us(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0) / recs * 1e6

    observed = max(1, prog.get("n_observed", 0))
    m = {
        "vsm.extract_us": self_us("vsm.extract"),
        "graph.observe_us": self_us("graph.observe"),
        "graph.evictions": tr["counts"].get("graph.NodeState.evict_weakest", 0) / recs,
        "core.vector_update_us": self_us("core.vector_update"),
        "core.rerank_us": self_us("core.rerank"),
        "core.reevaluations": prog["reevaluations"] / prog_recs,
        "core.entries_scanned": prog["entries_scanned"] / prog_recs,
        "core.simcache_hit_ratio": prog["simcache_hit_rate"],
        "core.state_mb": prog["state_bytes"] / 1e6,
        "service.ingest_us": self_us("service.ingest"),
        "service.echo_ratio": prog["boundary_echoes"] / observed,
        "service.shard_work_ratio": prog["shard_observes"] / observed,
        "online.offer_us": self_us("online.offer"),
        "online.queue_wait_ms": queue["wait_s"] / queue["waited"] * 1e3 if queue["waited"] else 0.0,
        "online.batch_records": queue["batch_records"] / queue["batches"] if queue["batches"] else 0.0,
        "online.consume_us": self_us("online.consume"),
        "online.queue_depth_max": queue["depth_max"],
        "api.decode_us": self_us("api.decode"),
        "durability.wal_append_us": self_us("durability.wal_append"),
        "durability.checkpoint_ms_max": layers.get("durability.checkpoint", {}).get("max_s", 0.0) * 1e3,
        "durability.checkpoints": layers.get("durability.checkpoint", {}).get("calls", 0),
        "storage.sim_self_us": self_us("storage.sim"),
    }
    m.update({name: 0.0 for name in PER_LAYER if name not in m})
    if workload == "fpa_sim":
        sim = tr["sim"]
        m["storage.prefetch_issued"] = sim["prefetch_issued"]
        m["storage.prefetch_accuracy"] = sim["prefetch_accuracy"]
        m["storage.sim_response_us"] = sim["sim_response_us"]
        m["storage.hit_ratio"] = sim["hit_ratio"]
    if workload == "serve_http":
        a = out["phase_a"]
        dur = tr["durability"]
        appends = max(1, dur["appends"])
        lo, hi = a["window"]
        handler = [end - start for name, start, end, _ in tracer.read_spans(out["spans_path"])
                   if name == "api.handler" and lo <= start <= hi and end > 0]
        m["api.handler_ms"] = sum(handler) / len(handler) * 1e3 if handler else 0.0
        m["api.ack_gap_ms"] = a["ack_service_ms_mean"] - m["api.handler_ms"]
        m["online.fresh_p50_ms"] = a["fresh_ms"]["p50"]
        m["online.fresh_p99_ms"] = a["fresh_ms"]["p99"]
        m["online.query_divergence"] = out.get("queried_divergent", 0.0)
        m["online.drain_s"] = out["drain_s"]
        m["online.shutdown_s"] = out["shutdown_s"]
        m["durability.fsyncs_per_krec"] = dur["fsyncs"] / appends * 1e3
        m["durability.wal_bytes_per_record"] = dur["wal_bytes"] / appends
        m["bench.gen_late_ms"] = a["gen_late_ms"]["mean"]
        m["bench.poll_ms"] = a["poll_ms"]["mean"]
        m["bench.degraded_frac"] = out["degraded"] / max(1, out["offered"])
        untraced = out["untraced"]
        base, traced = untraced["serve_rps"], out["serve_rps"]
    else:
        untraced = out
        base, traced = out["throughput_rps"], out["traced"]["throughput_rps"]
    # client latencies come from the untraced half of the invocation
    for kind, summary in latencies(workload, untraced).items():
        m[f"client.{kind}_p50_ms"] = summary["p50"]
        m[f"client.{kind}_p99_ms"] = summary["p99"]
    m["bench.trace_overhead_pct"] = (base - traced) / base * 100.0
    m["bench.selfcheck_failures"] = len(failures)
    return m


def report_lines(workload: str, out: dict, values: dict, counts: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric with unit and
    sample count, then the client-side latencies and output checks."""
    lines = [f"  {name:<16} {values[name]:>14.6g} {unit:<5} n={counts[name]}"
             for name, unit in E2E.items() if name in values]
    lines.append(f"  {THROUGHPUT_NAME[workload]} = throughput_rps")
    summaries = latencies(workload, out)
    if workload == "serve_http":
        a = out["phase_a"]
        summaries.update(fresh=a["fresh_ms"], gen_late=a["gen_late_ms"], poll=a["poll_ms"])
    for label, s in summaries.items():
        lines.append(f"  {label + '_ms':<16} p50={s['p50']:.4g} p90={s['p90']:.4g} p99={s['p99']:.4g} "
                     f"n={s['n']} beyond_p99={s['p99_beyond']}")
    if workload == "serve_http":
        lines.append(f"  degraded_frac    {out['degraded'] / max(1, out['offered']):.6f} "
                     f"(offered={out['offered']} outcomes={out['outcomes']} http_failed={out['http_failed']})")
        lines.append(f"  conservation     offered={out['offered']} accepted={out['accepted']} mined={out['mined']}")
        lines.append(f"  equivalence      {out['equivalence']}")
    elif workload == "fpa_sim":
        sim = out["sim"]
        lines.append(f"  sim_response_us  {sim['sim_response_us']:.6g}   hit_ratio {sim['hit_ratio']:.6g} "
                     f"(identical across {out['jobs']} repeats)")
    return lines


def check_spans_file(path: str) -> None:
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        raise RuntimeError(f"no spans written to {path}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hash-seed", type=int, default=DEFAULT_HASH_SEED)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != str(args.hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(args.hash_seed))
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"perfbench: no program sources at ./{SRC_DIR}/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC_DIR))
    env = program_env(args.hash_seed)
    work = os.path.abspath(os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}"))
    os.makedirs(work, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.workload == "serve_http":
            out = run_serve(args, env, work)
            out["spans_path"] = os.path.join(work, "serve_spans.bin")
        else:
            out = run_program(args.workload, args, env, work)
            out["spans_path"] = os.path.join(work, "spans.bin")
        errors = list(out["errors"])
        env_info = fingerprint(args.hash_seed)
        values, counts = e2e_metrics(args.workload, out)
        log(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env_info.items()))
        for line in report_lines(args.workload, out, values, counts):
            log(line)
        if args.trace:
            check_spans_file(out["spans_path"])
            optional = ()
            if args.workload == "serve_http" and out["accepted"] < serve.SNAPSHOT_INTERVAL:
                optional = ("durability.DurabilityManager.checkpoint",)  # too short a run to reach one
            failures = tracer.self_check(args.workload, out["trace"]["counts"], optional)
            layer = per_layer_metrics(args.workload, out, failures)
            for name, unit in PER_LAYER.items():
                log(f"  {name:<32} {layer[name]:>14.6g} {unit}")
            log(f"  self-check: {'ok' if not failures else '; '.join(failures)}")
            log(f"  tracing overhead: {layer['bench.trace_overhead_pct']:.1f}% of throughput_rps")
            if args.workload == "serve_http":
                log(f"  drain completed={out['drain_completed']} shutdown clean={out['shutdown_clean']}")
            errors += failures
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E.items()}
        for error in errors:
            log(f"  CHECK FAILED: {error}")
        attempted = out["attempted"]
        failed = 0
        if args.workload == "serve_http":
            failed = out["http_failed"] + out["outcomes"].get("deferred", 0) + out["outcomes"].get("shed", 0)
        result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
        os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                      env=env_info, wall_s=time.perf_counter() - started, errors=errors,
                      latencies_ms=latencies(args.workload, out))
        with open(os.path.join(WORK_DIR, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
