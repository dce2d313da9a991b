"""The ``rest-run`` workload: ``repro serve`` on loopback under a closed
loop of run jobs.

The benchmark process is only the load generator: ``CLIENTS`` threads,
each submitting its next job after its last one settled (callers of the
service wait for replies).  A job is a seeded draw of (Juliet case,
tool) submitted as ``POST /jobs/run``, followed through
``GET /jobs/{id}/events`` until the stream closes, and read back with
``GET /jobs/{id}``.  The draw spans all 1,872 pairs, more than the
instrumentation memo holds, so the server's memo keeps turning over.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.analysis.detection import DETECTION_TOOLS
from repro.workloads.juliet import generate_juliet_suite

from accounting import juliet_failure
from common import (
    OUT_DIR,
    ROOT,
    SETUP_REPEATS,
    Meter,
    Report,
    SpeedProbe,
    Tracer,
    pid_alive,
    proc_children,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    run_passes,
    scrubbed_env,
)
from inproc import CHECK_COUNTERS
from metrics import MIN_PASSES, put_end_to_end, put_layers

CLIENTS = 2
#: Jobs per pass: at least 100, so p90 has 10 samples beyond it.
JOBS_PER_PASS = 200
HTTP_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(port: int, method: str, path: str,
             body: Optional[dict] = None) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=HTTP_TIMEOUT_S
    )
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """One ``python -m repro serve`` child, under the scrubbed env."""

    def __init__(self, log_name: str):
        self.port = _free_port()
        OUT_DIR.mkdir(exist_ok=True)
        self._log = open(OUT_DIR / log_name, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", str(self.port)],
            cwd=ROOT,
            env=scrubbed_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} at boot"
                )
            try:
                status, body = _request(self.port, "GET", "/healthz")
                if status == 200 and json.loads(body)["status"] == "ok":
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server did not become healthy")

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.pid) + sum(
            proc_cpu_seconds(child) for child in proc_children(self.pid)
        )

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.pid) + sum(
            proc_peak_rss_mb(child) for child in proc_children(self.pid)
        )

    def stop(self, report: Report) -> None:
        """Graceful SIGTERM, then make sure nothing of it survives."""
        children = []
        if self.process.poll() is None:
            children = proc_children(self.pid)
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=BOOT_TIMEOUT_S)
            report.check(code == 0, f"server exited with code {code}")
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            report.check(False, "server ignored SIGTERM and was killed")
        finally:
            self._log.close()
        for child in children:
            report.check(not pid_alive(child),
                         f"server child {child} outlived the server")


def run_job(port: int, case, tool: str) -> dict:
    """Submit, follow, and fetch one run job; timestamps included."""
    record = {"case": case, "tool": tool, "error": None, "requests": 0}
    record["t0"] = time.perf_counter()
    try:
        status, body = _request(port, "POST", "/jobs/run", {
            "program": {"corpus": f"juliet:{case.case_id}"},
            "config": {"tool": tool},
        })
        record["requests"] += 1
        record["t_submitted"] = time.perf_counter()
        if status != 202:
            record["error"] = f"POST /jobs/run answered {status}"
            return record
        job_id = json.loads(body)["id"]
        status, _ = _request(port, "GET", f"/jobs/{job_id}/events")
        record["requests"] += 1
        record["t_followed"] = time.perf_counter()
        if status != 200:
            record["error"] = f"GET events answered {status}"
            return record
        status, body = _request(port, "GET", f"/jobs/{job_id}")
        record["requests"] += 1
        record["t_settled"] = time.perf_counter()
        record["settled_wall"] = time.time()
        if status != 200:
            record["error"] = f"GET job answered {status}"
            return record
        record["detail"] = json.loads(body)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def run_pass(port: int, jobs: List[tuple], server: Server,
             probe: SpeedProbe) -> dict:
    """All ``jobs`` through ``CLIENTS`` closed-loop client threads.

    Pass time, server CPU and each job's latency are also given in
    reference seconds, scaled by the speed probed around the pass.
    """
    records: List[Optional[dict]] = [None] * len(jobs)
    cursor = iter(range(len(jobs)))
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            records[index] = run_job(port, *jobs[index])

    def clients():
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    meter = Meter(probe, cpu=server.cpu_seconds)
    loadgen_cpu = time.process_time()
    meter.unit(clients)
    loadgen_cpu = time.process_time() - loadgen_cpu
    for record in records:
        if not record["error"]:
            record["latency_ms"] = 1000 * (record["t_settled"] - record["t0"])
            record["ref_latency_ms"] = record["latency_ms"] * meter.last_scale
    return meter.record(loadgen_cpu_s=loadgen_cpu,
                        peak_rss_mb=server.peak_rss_mb(), records=records)


def account(report: Report, records: List[dict]) -> int:
    """Failure accounting for one pass; returns the jobs that completed
    (reached ``done``)."""
    completed = 0
    for record in records:
        report.attempted += 1
        if record["error"]:
            report.count_failure(record["error"])
            continue
        detail = record["detail"]
        if detail["status"] != "done":
            report.count_failure(f"job ended {detail['status']}")
            continue
        completed += 1
        case = record["case"]
        reason = juliet_failure(record["tool"], case.buggy, case.latent,
                                bool(detail["result"]["errors"]))
        if reason:
            report.count_failure(reason)
    return completed


def _timings_zeroed(value):
    """``value`` with every ``*_seconds`` field set to 0.

    The telemetry snapshot in a run result carries wall-clock phase
    timings whose printed length varies from run to run; zeroing them
    leaves a byte count that repeats exactly for the same job.
    """
    if isinstance(value, dict):
        return {
            key: 0 if key.endswith("_seconds") else _timings_zeroed(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_timings_zeroed(item) for item in value]
    return value


def layer_counts(records: List[dict]) -> Counter:
    counts: Counter = Counter()
    for record in records:
        counts["server.requests"] += record["requests"]
        detail = record.get("detail")
        if not detail or not detail.get("result"):
            continue
        result = detail["result"]
        counts["server.result_bytes"] += len(
            json.dumps(_timings_zeroed(result), sort_keys=True)
        )
        counts["runtime.instructions"] += result["instructions_executed"]
        for metric, name in CHECK_COUNTERS.items():
            counts[metric] += result["stats"][name]
        counts["runtime.reports"] += len(result["errors"])
    return counts


def job_spans(tracer: Tracer, records: List[dict]) -> Dict[str, List[float]]:
    """Client-side spans per job plus the server-side phases the job
    record exposes; returns per-job phase latencies in ms."""
    phases: Dict[str, List[float]] = {
        "server.submit_ms": [], "server.queue_ms": [],
        "server.service_ms": [], "server.notify_ms": [],
    }
    for record in records:
        if record["error"] or record["detail"]["status"] != "done":
            continue
        detail = record["detail"]
        tracer.run_id = f"{record['case'].case_id}:{record['tool']}"
        root = tracer.add("job", record["t0"], record["t_settled"])
        tracer.add("server.submit", record["t0"], record["t_submitted"], root)
        tracer.add("server.events", record["t_submitted"],
                   record["t_followed"], root)
        tracer.add("server.result", record["t_followed"],
                   record["t_settled"], root)
        phases["server.submit_ms"].append(
            1000 * (record["t_submitted"] - record["t0"]))
        phases["server.queue_ms"].append(
            1000 * (detail["started_at"] - detail["created_at"]))
        phases["server.service_ms"].append(
            1000 * (detail["finished_at"] - detail["started_at"]))
        phases["server.notify_ms"].append(
            1000 * (record["settled_wall"] - detail["finished_at"]))
    return phases


def memo_lookups(port: int) -> Tuple[int, int]:
    status, body = _request(port, "GET", "/stats")
    if status != 200:
        raise RuntimeError(f"GET /stats answered {status}")
    memo = json.loads(body)["instrumentation_cache"]
    return memo["hits"], memo["hits"] + memo["misses"]


def rest_run(report: Report, probe: SpeedProbe, seed: int, seconds: float,
             trace: bool) -> None:
    suite = generate_juliet_suite()
    pairs = [(case, tool) for case in suite for tool in DETECTION_TOOLS]
    rng = random.Random(seed)

    def draw() -> List[tuple]:
        return [rng.choice(pairs) for _ in range(JOBS_PER_PASS)]

    log_name = f"rest-run-seed{seed}-trace{int(trace)}-server.log"
    # the server's threads float over every CPU: probe the speed of each
    probe.cpus = sorted(os.sched_getaffinity(0))
    setups = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop(report)
            meter = Meter(probe)

            def boot():
                booted = Server(log_name)
                booted.wait_healthy()
                return booted, run_job(booted.port, *rng.choice(pairs))

            server, warm = meter.unit(boot)
            setups.append(meter.record())
            report.check(
                not warm["error"] and warm["detail"]["status"] == "done",
                f"warm-up job failed: {warm['error']}",
            )

        def one_pass():
            result = run_pass(server.port, draw(), server, probe)
            result["runs"] = account(report, result["records"])
            return result

        if not trace:
            passes = run_passes(one_pass, seconds, MIN_PASSES)
            put_end_to_end(report, passes, setups, tuple(
                [r[key] for p in passes for r in p["records"]
                 if not r["error"]]
                for key in ("ref_latency_ms", "latency_ms")
            ))
            put_loadgen_share(report, passes)
            return

        untraced = run_passes(one_pass, seconds / 2, min_passes=2)
        jobs = draw()
        traced = []
        for _ in range(2):
            hits, lookups = memo_lookups(server.port)
            result = run_pass(server.port, jobs, server, probe)
            result["runs"] = account(report, result["records"])
            new_hits, new_lookups = memo_lookups(server.port)
            tracer = Tracer()
            result["phases"] = job_spans(tracer, result["records"])
            result["counts"] = layer_counts(result["records"])
            result["counts"]["passes.calls"] = new_lookups - lookups
            result["counts"]["passes.memo_hits"] = new_hits - hits
            result["times"] = {}
            result["self_times"] = tracer.self_times()
            report.spans.extend(tracer.dump())
            traced.append(result)
        put_layers(report, traced, untraced)
        put_loadgen_share(report, untraced + traced)
    finally:
        probe.cpus = None
        if server is not None:
            server.stop(report)


def put_loadgen_share(report: Report, passes: List[dict]) -> None:
    """The load generator's CPU as a share of wall time: near 100% would
    mean the client, not the server, limits the rate."""
    share = statistics.median(p["loadgen_cpu_s"] / p["wall_s"] for p in passes)
    report.put("loadgen.cpu_share", 100 * share, "%", len(passes))
    report.info["loadgen_cpu_share_pct"] = round(100 * share, 1)
