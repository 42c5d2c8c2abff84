"""The ``serve_http`` workload: ``repro serve --data-dir`` driven over HTTP.

The server runs as its own process with its defaults (4 shards, hash
router, WAL fsync ``interval``/64, a snapshot every 20,000 records) and
a data directory inside the checkout. The client is this process: at
most two threads, one connection each.

* warm-up: closed loop, ``WARMUP`` records, then wait until all mined;
* phase A: open loop at ``RATE_A`` records/s in ``BODY_A``-record JSONL
  bodies, each timed from when it was due; the second thread runs
  ``GET /predict`` as Poisson arrivals at ``PREDICT_RATE``/s and, in
  the gaps between queries, polls ``GET /telemetry`` for the mined
  count (freshness, interpolated between polls);
* phase B: closed loop, ``BODY_B``-record bodies back to back, then
  wait until every accepted record has been mined.

``/drain`` and ``/stats`` stay out of the timed phases: ``/stats`` takes
the service lock, and ``/drain`` can stall for seconds on a live server
with an empty queue (the consumer loop holds its serial lock across its
50 ms wait and takes it again at once). Traced runs time one ``/drain``
and the shutdown after the phases, each with a deadline.

Launcher mode (traced runs) installs the span wrappers in the server
process and then calls the CLI entry point::

    python3 perfbench/serve.py launch <report.json> <spans.bin> serve --port 0 ...

``SIGUSR1`` makes it write its trace report and spans.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import peak_rss_mb, summarize  # noqa: E402

#: records per ``/ingest`` body: small in the open loop (one sample per
#: body), large in the closed loop (so phase B is bound by ingest and
#: mining, not by connection setup)
BODY_A = 10
BODY_B = 100
RATE_A = 1000.0
PREDICT_RATE = 100.0
#: the freshness probe polls ``GET /telemetry`` at most every
#: POLL_PERIOD_S, in gaps of at least POLL_GAP_S between queries
POLL_PERIOD_S = 0.1
POLL_GAP_S = 0.02
WARMUP = 4000
#: share of the run's seconds spent in phase A (the rest is phase B).
#: At 30 s the open loop ends before the first checkpoint (every 20,000
#: records), so its latencies do not hinge on whether a snapshot lands
#: inside it; phase B always crosses checkpoints.
PHASE_A_SHARE = 0.5
#: records generated per second of phase B (above today's saturation)
B_RECORDS_PER_S = 12000
CHECK_FIDS = 40
#: fids queried during phase A whose final answers are compared to the
#: batch answer too; their divergence is reported, not failed (see
#: ``run``)
QUERIED_FIDS = 20
BOOT_TIMEOUT_S = 60.0
MINED_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
DRAIN_DEADLINE_S = 20.0
SHUTDOWN_DEADLINE_S = 20.0
ACCEPTED = ("accepted", "accepted_echo_shed")
#: ``repro serve`` checkpoints every this many consumed records
SNAPSHOT_INTERVAL = 20000


def chunk(lines: list[bytes], size: int) -> list[bytes]:
    return [b"\n".join(lines[i:i + size]) for i in range(0, len(lines) - size + 1, size)]


def records_needed(seconds: float) -> int:
    t_a = seconds * PHASE_A_SHARE
    return WARMUP + int(RATE_A * t_a) + int(B_RECORDS_PER_S * (seconds - t_a))


class Server:
    """One ``repro serve`` process with a fresh data directory."""

    def __init__(self, argv: list[str], env: dict, data_dir: str) -> None:
        shutil.rmtree(data_dir, ignore_errors=True)
        self.data_dir = data_dir
        self.proc = subprocess.Popen(
            argv + ["--port", "0", "--data-dir", data_dir],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.output: list[str] = []
        banner: list[str] = []
        ready = threading.Event()

        def read() -> None:
            for line in self.proc.stdout:
                self.output.append(line.rstrip())
                if line.startswith("serving on"):
                    banner.append(line)
                    ready.set()
            ready.set()

        self._reader = threading.Thread(target=read, daemon=True)
        self._reader.start()
        if not ready.wait(BOOT_TIMEOUT_S) or not banner:
            self.kill()
            raise RuntimeError("server did not come up: " + " | ".join(self.output[-5:]))
        host, port = banner[0].split()[-1][len("http://"):].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def request(self, method: str, path: str, body: bytes | None = None,
                timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request(method, path, body)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def mined(self) -> int:
        """Records the consumer has folded into the shards (the tick of
        the newest ``queue_depth`` sample, taken after every batch)."""
        status, tel = self.request("GET", "/telemetry")
        if status != 200:
            raise RuntimeError(f"/telemetry answered {status}")
        series = tel["series"].get("queue_depth")
        return int(series[-1][0]) if series else 0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=10.0)
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def shutdown(self, deadline: float) -> tuple[float, bool]:
        """``POST /shutdown`` and wait for exit; kill at the deadline.
        Returns (seconds, exited cleanly)."""
        start = time.perf_counter()
        try:
            self.request("POST", "/shutdown", b"{}", timeout=deadline)
            self.proc.wait(timeout=max(0.1, deadline - (time.perf_counter() - start)))
            clean = self.proc.returncode == 0
        except (OSError, subprocess.TimeoutExpired, http.client.HTTPException):
            clean = False
        elapsed = time.perf_counter() - start
        self.kill()
        return elapsed, clean


def probe_setup(argv: list[str], env: dict, data_dir: str, first_body: bytes) -> float:
    """Launch until the first record is accepted over ``/ingest``."""
    start = time.perf_counter()
    server = Server(argv, env, data_dir)
    try:
        status, reply = server.request("POST", "/ingest", first_body)
        if status != 200 or sum(reply["admission"].get(k, 0) for k in ACCEPTED) != 1:
            raise RuntimeError(f"setup probe: first record not accepted: {status} {reply}")
        return time.perf_counter() - start
    finally:
        server.kill()


class Tally:
    """Admission outcomes summed over ``/ingest`` replies."""

    def __init__(self) -> None:
        self.offered = 0
        self.outcomes: dict[str, int] = {}
        self.http_failed = 0

    def add(self, n_lines: int, status: int, reply: dict) -> int:
        """Fold one reply; returns the body's accepted count."""
        self.offered += n_lines
        if status != 200:
            self.http_failed += n_lines
            return 0
        for key, value in reply["admission"].items():
            self.outcomes[key] = self.outcomes.get(key, 0) + value
        if sum(reply["admission"].values()) != n_lines:
            raise RuntimeError(f"/ingest reply does not account for {n_lines} lines: {reply}")
        return sum(reply["admission"].get(k, 0) for k in ACCEPTED)

    @property
    def accepted(self) -> int:
        return sum(self.outcomes.get(k, 0) for k in ACCEPTED)

    @property
    def degraded(self) -> int:
        return (self.outcomes.get("accepted_echo_shed", 0) + self.outcomes.get("deferred", 0)
                + self.outcomes.get("shed", 0) + self.http_failed)


def wait_mined(server: Server, target: int, period: float = 0.005) -> float:
    """Poll until ``target`` records are mined; returns the time the
    count was first seen (poll midpoint)."""
    deadline = time.perf_counter() + MINED_TIMEOUT_S
    while True:
        send = time.perf_counter()
        mined = server.mined()
        recv = time.perf_counter()
        if mined >= target:
            return (send + recv) / 2
        if recv > deadline:
            raise RuntimeError(f"only {mined} of {target} accepted records mined after {MINED_TIMEOUT_S}s")
        time.sleep(period)


def crossing_time(polls: list, target: int, not_before: float) -> float:
    """When the mined count reached ``target``, interpolated linearly
    between the last poll below it and the first at or above it."""
    prev_t, prev_m = None, None
    for send, recv, mined in polls:
        t = (send + recv) / 2
        if mined >= target:
            if prev_t is None or mined == prev_m:
                return max(t, not_before)
            return max(prev_t + (t - prev_t) * (target - prev_m) / (mined - prev_m), not_before)
        prev_t, prev_m = t, mined
    raise RuntimeError(f"mined count never reached {target}")


def phase_a(server: Server, bodies: list[bytes], tally: Tally, base: int,
            seconds: float, query_fids: list[int], seed: int) -> dict:
    """Open loop: ingest thread on a fixed schedule, probe thread on
    ``/predict`` and ``/telemetry``."""
    period = BODY_A / RATE_A
    n_bodies = min(len(bodies), int(seconds / period))
    sent: list[tuple] = []  # (due, send, recv, accepted-after)
    predicts: list[tuple] = []  # (due, send, recv)
    polls: list[tuple] = []
    stop = threading.Event()
    errors: list[str] = []
    t0 = time.perf_counter() + 0.05

    def ingest() -> None:
        cumulative = base
        try:
            for i in range(n_bodies):
                due = t0 + i * period
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                send = time.perf_counter()
                status, reply = server.request("POST", "/ingest", bodies[i])
                recv = time.perf_counter()
                cumulative += tally.add(BODY_A, status, reply)
                sent.append((due, send, recv, cumulative))
        except Exception as exc:  # reported as a failed run, never swallowed
            errors.append(f"phase A ingest: {exc!r}")

    def probe() -> None:
        # Poisson arrivals: a fixed period would lock the queries to one
        # phase of the ingest schedule
        gaps = random.Random(seed)
        due = t0 + gaps.expovariate(PREDICT_RATE)
        last_poll = 0.0
        k = 0
        try:
            while not stop.is_set():
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                send = time.perf_counter()
                status, reply = server.request("GET", f"/predict?fid={query_fids[k % len(query_fids)]}")
                recv = time.perf_counter()
                if status != 200:
                    raise RuntimeError(f"/predict answered {status}: {reply}")
                predicts.append((due, send, recv))
                k += 1
                due += gaps.expovariate(PREDICT_RATE)
                # the freshness poll only fills gaps in the query
                # schedule, so it never makes a query late
                if recv - last_poll >= POLL_PERIOD_S and due - recv >= POLL_GAP_S:
                    send = time.perf_counter()
                    mined = server.mined()
                    last_poll = time.perf_counter()
                    polls.append((send, last_poll, mined))
        except Exception as exc:
            errors.append(f"phase A probe: {exc!r}")

    threads = [threading.Thread(target=ingest), threading.Thread(target=probe)]
    for thread in threads:
        thread.start()
    threads[0].join()
    try:
        if sent:
            wait_mined(server, sent[-1][3])
    finally:
        stop.set()
        threads[1].join()
    if errors:
        raise RuntimeError("; ".join(errors))
    fresh = []
    polls_all = polls + [(time.perf_counter(), time.perf_counter(), server.mined())]
    for due, send, recv, cumulative in sent:
        if cumulative <= base:
            continue
        fresh.append(crossing_time(polls_all, cumulative, send) - due)
    return {
        "bodies": len(sent),
        "ack_ms": summarize([(recv - due) * 1e3 for due, send, recv, _ in sent]),
        "ack_service_ms_mean": sum(recv - send for _, send, recv, _ in sent) / len(sent) * 1e3,
        "gen_late_ms": summarize([(send - due) * 1e3 for due, send, _, _ in sent]),
        "fresh_ms": summarize([f * 1e3 for f in fresh]),
        "query_ms": summarize([(recv - due) * 1e3 for due, send, recv in predicts]),
        "query_late_ms": summarize([(send - due) * 1e3 for due, send, _ in predicts]),
        "poll_ms": summarize([(recv - send) * 1e3 for send, recv, _ in polls]),
        "predicts": len(predicts),
        "queried": sorted(set(query_fids[:len(predicts)])),
        "window": [t0, sent[-1][2] if sent else t0],
    }


def closed_loop(server: Server, bodies: list[bytes], tally: Tally, seconds: float | None) -> int:
    """Post bodies back to back (for ``seconds``, or all of them);
    returns how many bodies were posted."""
    deadline = None if seconds is None else time.perf_counter() + seconds
    for i, body in enumerate(bodies):
        if deadline is not None and time.perf_counter() >= deadline:
            return i
        status, reply = server.request("POST", "/ingest", body)
        tally.add(body.count(b"\n") + 1, status, reply)
    return len(bodies)


def run(records: list, seconds: float, seed: int, trace: bool, env: dict, work: str,
        n_probes: int) -> dict:
    """One serve_http measurement (setup probes, warm-up, phases A
    and B, checks). With ``trace`` the server runs under the launcher."""
    from repro.traces.io import record_to_dict

    here = os.path.dirname(os.path.abspath(__file__))
    lines = [json.dumps(record_to_dict(r)).encode() for r in records]
    t_a = seconds * PHASE_A_SHARE
    a_end = WARMUP + int(RATE_A * t_a)
    warm_bodies = chunk(lines[:WARMUP], BODY_A)
    a_bodies = chunk(lines[WARMUP:a_end], BODY_A)
    b_bodies = chunk(lines[a_end:], BODY_B)
    serve_argv = [sys.executable, "-m", "repro", "serve"]
    result: dict = {"errors": []}

    if n_probes:
        result["setup_s"] = [
            probe_setup(serve_argv, env, os.path.join(work, f"probe{i}"), lines[0])
            for i in range(n_probes)
        ]

    report_path = os.path.join(work, "serve_trace.json")
    spans_path = os.path.join(work, "serve_spans.bin")
    argv = serve_argv
    if trace:
        if os.path.exists(report_path):
            os.remove(report_path)
        argv = [sys.executable, os.path.join(here, "serve.py"), "launch", report_path, spans_path, "serve"]
    server = Server(argv, env, os.path.join(work, "data"))
    try:
        tally = Tally()
        closed_loop(server, warm_bodies, tally, None)
        wait_mined(server, tally.accepted)
        warm_clean = tally.degraded == 0
        rng = random.Random(seed)
        warm_fids = sorted({r.fid for r in records[:WARMUP]})
        query_fids = [rng.choice(warm_fids) for _ in range(4096)]

        a = phase_a(server, a_bodies, tally, tally.accepted, t_a, query_fids, seed)
        a_records = WARMUP + a["bodies"] * BODY_A
        a_clean = warm_clean and tally.degraded == 0
        # equivalence sample: answers at the end of phase A, every
        # accepted record mined
        queried = set(a.pop("queried"))
        unqueried = sorted({r.fid for r in records[:a_records]} - queried)
        check_fids = rng.sample(unqueried, min(CHECK_FIDS, len(unqueried)))
        queried_fids = rng.sample(sorted(queried), min(QUERIED_FIDS, len(queried)))
        answers = {}
        for fid in check_fids + queried_fids:
            status, reply = server.request("GET", f"/predict?fid={fid}")
            answers[fid] = reply.get("predicted") if status == 200 else None
        offered_a = tally.offered

        b_start = time.perf_counter()
        mined_start = tally.accepted
        posted = closed_loop(server, b_bodies, tally, seconds - t_a)
        if posted >= len(b_bodies):
            result["errors"].append("phase B ran out of generated records")
        b_end = wait_mined(server, tally.accepted, period=0.002)
        mined_final = server.mined()
        result["rss_mb"] = peak_rss_mb(server.proc.pid)
        result.update(
            phase_a=a,
            serve_rps=(mined_final - mined_start) / (b_end - b_start),
            offered=tally.offered,
            outcomes=dict(tally.outcomes),
            http_failed=tally.http_failed,
            accepted=tally.accepted,
            mined=mined_final,
            degraded=tally.degraded,
            offered_a=offered_a,
            attempted=tally.offered + a["predicts"] + len(answers),
        )
        if mined_final != tally.accepted:
            result["errors"].append(f"conservation: mined {mined_final} != accepted {tally.accepted}")
        if trace:
            server.proc.send_signal(signal.SIGUSR1)
            deadline = time.perf_counter() + 60.0
            while not os.path.exists(report_path):
                if time.perf_counter() > deadline:
                    raise RuntimeError("traced server wrote no trace report")
                time.sleep(0.05)
            with open(report_path) as fh:
                result["trace"] = json.load(fh)
            start = time.perf_counter()
            try:
                server.request("POST", "/drain", b"{}", timeout=DRAIN_DEADLINE_S)
                drained = True
            except (OSError, http.client.HTTPException):
                drained = False
            result["drain_s"] = time.perf_counter() - start
            result["drain_completed"] = drained
            result["shutdown_s"], result["shutdown_clean"] = server.shutdown(SHUTDOWN_DEADLINE_S)
    finally:
        server.kill()

    # equivalence: the same records mined in one batch, in this process.
    # The online service promises batch answers for lists first ranked
    # after the stream is mined; a list a query ranked mid-stream keeps
    # that rank until its own graph state changes, so queried fids can
    # silently differ. That divergence is reported, not failed.
    if a_clean:
        from repro.experiments.common import farmer_config_for
        from repro.service import ShardedFarmer

        batch = ShardedFarmer(farmer_config_for("hp", n_shards=4)).mine(records[:a_records])
        bad = [fid for fid in check_fids if answers[fid] != batch.predict(fid)]
        drift = [fid for fid in queried_fids if answers[fid] != batch.predict(fid)]
        result["equivalence"] = (
            f"{len(check_fids) - len(bad)}/{len(check_fids)} unqueried fids equal batch; "
            f"{len(drift)}/{len(queried_fids)} fids queried mid-stream differ from batch"
        )
        result["queried_divergent"] = len(drift) / max(1, len(queried_fids))
        if bad:
            result["errors"].append(
                f"equivalence: /predict differs from batch ShardedFarmer.mine on fids {bad[:10]}"
            )
    else:
        result["equivalence"] = "skipped: warm-up or phase A was degraded"
    return result


def launch(report_path: str, spans_path: str, argv: list[str]) -> int:
    """Run the CLI with the span wrappers installed; write the trace
    report on ``SIGUSR1``."""
    import tracer as tracing
    from repro import cli
    from repro.online import pipeline

    tr = tracing.Tracer()
    tracing.install(tr)
    services = []
    init = pipeline.OnlineService.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        services.append(self)

    pipeline.OnlineService.__init__ = capture

    def dump(signum, frame):
        online = services[-1]
        wal = online.durability.wal.stats()
        extra = {"durability": {"fsyncs": wal.n_fsyncs, "wal_bytes": wal.bytes_written,
                                "appends": wal.n_appends}}
        accepted = online.pipeline.counters().n_accepted
        report = tracing.trace_report(tr, accepted, online.service, extra)
        report["program_records"] = accepted
        tr.dump(spans_path)
        tmp = report_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(report, fh)
        os.replace(tmp, report_path)

    signal.signal(signal.SIGUSR1, dump)
    return cli.main(argv)


if __name__ == "__main__":
    if sys.argv[1] != "launch":
        sys.exit("usage: serve.py launch <report.json> <spans.bin> serve [args...]")
    sys.exit(launch(sys.argv[2], sys.argv[3], sys.argv[4:]))
