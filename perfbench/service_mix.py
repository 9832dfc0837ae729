"""The ``service_mix`` workload: an open loop against ``python -m repro.service``.

The service runs with every setting at its default (1 worker, 5 ms
coalescing window, in-memory syntactic store) except an ephemeral port, the
``ABCD`` universe and an access log.  One client process sends the seeded
query stream (:func:`gen.query_stream`) over at most ``nproc`` keep-alive
connections, one request per query, on a schedule:

* the **nominal rung** -- a fixed offered rate, about a fifth of the knee
  on the reference machine, for ``latency_p50_ms``/``latency_tail_ms``.  It is
  offered in NOMINAL_SLICES equal slices -- one before the ladder, one
  after every second ladder rung, the rest after it -- which are the
  segments of the segmented tail (:func:`measure.segmented_tail`), so a
  slow phase of the shared machine moves a few segments, not their median;
* the **ladder** -- offered rates on a 5% geometric grid, climbed four grid
  steps at a time until a rung misses the limit, then bisected.  A rung
  passes when no request fails, the latency tail is at most
  ``LATENCY_LIMIT_MS`` and the generator kept up (no growing backlog).

Each request is timed from the instant it was due, so a stall counts
against every request it delayed; how late the generator sent is reported
too.  429s, 5xx and client timeouts count as failed.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import uuid
from typing import Callable, Dict, List, Optional, Tuple

import gen
import inproc
import measure

HERE = os.path.dirname(os.path.abspath(__file__))

#: Offered rate of the nominal rung (queries/s), about a fifth of the knee
#: (~270 q/s on the reference machine).  The shared machine has slow
#: phases of minutes; the closer the rung is to the knee, the more a slow
#: phase inflates its tail: on a 2-CPU container, with the server's Python
#: slowed by a profile hook to 1.8x the CPU time per request, the tail grew
#: 45% at 100 q/s and 12% at 50 q/s.
NOMINAL_QPS = 50.0
#: The nominal rung runs for this share of the measured seconds in all: the
#: tail needs a long nominal rung to rest on more than a handful of rare
#: slow requests.  At 40 seconds each of the seven slices holds 171
#: requests, so a slice's tail is its 94th percentile.
NOMINAL_SHARE = 0.6
NOMINAL_SLICES = 7
#: Each ladder rung runs for this share of the measured seconds.  A ladder
#: offers about a dozen rungs (climb, bisect, failed rungs offered twice),
#: so it takes about 0.6 of them.
RUNG_SHARE = 0.05
#: The ladder grid: LADDER_BASE * LADDER_STEP**i queries/s.
LADDER_BASE = 100.0
LADDER_STEP = 1.05
LADDER_CLIMB = 4
#: A rung passes only if its latency tail is at most this.
LATENCY_LIMIT_MS = 50.0
#: A client waits this long for one response before counting a timeout.
REQUEST_TIMEOUT_S = 10.0
#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Teardown: SIGTERM, then SIGKILL after this many seconds.
TERM_GRACE_S = 10.0
#: Traced runs: requests at the nominal rung, untraced and traced.  The
#: server's CPU is read in clock ticks (10 ms), so each pass needs about a
#: second of it for the overhead ratio to resolve a few percent.
TRACE_REQUESTS = 1200

OUT_DIR = ".perfbench"


@contextlib.contextmanager
def client_gc_paused():
    """No garbage collection in the client while it offers load.

    The client keeps every sample and answer of a run; a full collection
    of that heap stalls the event loop for milliseconds, which would count
    as the service's latency and lag.  The service's own collections are
    untouched.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def connections() -> int:
    """At most ``nproc`` keep-alive connections."""
    return max(1, min(2, os.cpu_count() or 1))


# -- the service process ------------------------------------------------------------


class Service:
    """One spawned service process and its access log."""

    def __init__(self, env: Dict[str, str], traced_out: Optional[str] = None) -> None:
        tmp = os.path.join(OUT_DIR, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.tag = uuid.uuid4().hex[:12]
        self.access_log = os.path.abspath(os.path.join(tmp, f"access-{self.tag}.jsonl"))
        self.stderr_path = os.path.join(tmp, f"service-{self.tag}.err")
        args = ["--port", "0", "--universe", gen.QUERY_UNIVERSE,
                "--access-log", self.access_log]
        if traced_out is None:
            command = [sys.executable, "-m", "repro.service", *args]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_service.py"),
                       traced_out, *args]
        self.spawned = time.perf_counter()
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._stderr, env=env, text=True)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {self._err_tail()}")
        host_port = line.strip().rsplit("http://", 1)[1]
        host, port = host_port.rsplit(":", 1)
        self.address = (host, int(port))

    def _err_tail(self) -> str:
        try:
            with open(self.stderr_path, encoding="utf-8") as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> bool:
        """SIGTERM, then SIGKILL after a bound; True if it drained in time."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TERM_GRACE_S)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        if leftover_services(self.tag):
            raise RuntimeError(f"a repro.service process survived teardown ({self.tag})")
        return clean

    def access_records(self) -> Dict[str, dict]:
        """Access-log records of this service, by request id."""
        records = {}
        with open(self.access_log, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "request_id" in record:
                    records[record["request_id"]] = record
        return records

    def cleanup(self) -> None:
        for path in (self.access_log, self.stderr_path):
            try:
                os.remove(path)
            except OSError:
                pass


def leftover_services(tag: str) -> List[int]:
    """Pids of live ``repro.service`` processes this run spawned (by tag)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().decode("utf-8", "replace")
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if tag in cmdline and state != "Z":
            found.append(int(entry))
    return found


# -- the HTTP client ------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(*self.address)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by the service")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload


def solve_body(query: gen.Query, request_id: str) -> bytes:
    return json.dumps({
        "schema": 1, "client": "bench", "id": request_id,
        "premises": list(query.premises), "conclusion": query.conclusion,
        "finite": query.finite,
    }).encode("utf-8")


class Sample:
    """One request as the client saw it."""

    __slots__ = ("rid", "key", "due", "sent", "done", "status", "outcome")

    def __init__(self, rid: str, key: str, due: float) -> None:
        self.rid, self.key, self.due = rid, key, due
        self.sent = self.done = 0.0
        self.status = 0
        self.outcome = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


class Client:
    """An open-loop load generator over a fixed pool of connections."""

    def __init__(self, address: Tuple[str, int], stream) -> None:
        self.address = address
        self.stream = stream
        self.conns = [Connection(address) for _ in range(connections())]

    async def _one(self, conn: Connection, free: asyncio.Queue, query: gen.Query,
                   sample: Sample) -> None:
        try:
            status, payload = await asyncio.wait_for(
                conn.request("POST", "/v1/solve", solve_body(query, sample.rid)),
                REQUEST_TIMEOUT_S)
            sample.status = status
            if status == 200:
                sample.outcome = json.loads(payload)["outcome"]
        except (asyncio.TimeoutError, ConnectionError, OSError, ValueError):
            sample.status = -1
            conn.close()  # a timed-out exchange leaves the stream unusable
        finally:
            sample.done = time.perf_counter()
            free.put_nowait(conn)

    async def rung(self, rate: float, count: int, label: str) -> List[Sample]:
        """Offer ``count`` requests at ``rate`` per second; timed from due."""
        free: asyncio.Queue = asyncio.Queue()
        for conn in self.conns:
            free.put_nowait(conn)
        tasks, samples = [], []
        start = time.perf_counter() + 0.01
        for i in range(count):
            query = next(self.stream)
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = await free.get()
            sample = Sample(f"{label}-{i}", query.key(), due)
            sample.sent = time.perf_counter()
            samples.append(sample)
            tasks.append(asyncio.ensure_future(self._one(conn, free, query, sample)))
        await asyncio.gather(*tasks)
        return samples

    async def warm_up(self) -> None:
        """Answer the fixed warm-up queries once each, untimed."""
        for i, query in enumerate(gen.WARMUP_QUERIES):
            status, _ = await self.conns[0].request(
                "POST", "/v1/solve", solve_body(query, f"warmup-{i}"))
            if status != 200:
                raise RuntimeError(f"warm-up query answered {status}")

    async def get_json(self, path: str) -> dict:
        conn = Connection(self.address)
        try:
            status, payload = await conn.request("GET", path)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(payload)

    def close(self) -> None:
        for conn in self.conns:
            conn.close()


def rung_passes(samples: List[Sample]) -> bool:
    """No failures, tail within the limit, and the generator kept up."""
    if not samples or any(not s.ok for s in samples):
        return False
    tail_ms, _, _ = measure.tail([s.latency_ms() for s in samples])
    last_lag = max(s.lag_ms() for s in samples[-max(1, len(samples) // 10):])
    return tail_ms <= LATENCY_LIMIT_MS and last_lag <= LATENCY_LIMIT_MS


def achieved_qps(samples: List[Sample]) -> float:
    """Answered requests over the time from the first due to the last answer."""
    answered = sum(s.ok for s in samples)
    span = max(s.done for s in samples) - min(s.due for s in samples)
    return answered / span if span > 0 else 0.0


async def _ladder(client: Client, rung_s: float, after_probe: Callable
                  ) -> Tuple[Optional[List[Sample]], List[List[Sample]]]:
    """Climb then bisect the grid; returns (best passing rung, every rung).

    ``after_probe()`` is awaited after each grid rate is decided.
    """
    rungs: List[List[Sample]] = []
    results: Dict[int, Optional[List[Sample]]] = {}

    async def probe(index: int) -> bool:
        # A failed rung is offered once more: one stall of the shared
        # machine should not decide where the knee is.
        rate = LADDER_BASE * LADDER_STEP ** index
        for attempt in range(2):
            samples = await client.rung(rate, max(1, int(rate * rung_s)),
                                        f"r{index}.{attempt}")
            rungs.append(samples)
            if rung_passes(samples):
                results[index] = samples
                await after_probe()
                return True
        results[index] = None
        await after_probe()
        return False

    index = 0
    if not await probe(index):
        return None, rungs
    while await probe(index + LADDER_CLIMB):
        index += LADDER_CLIMB
    low, high = index, index + LADDER_CLIMB
    while high - low > 1:
        mid = (low + high) // 2
        if await probe(mid):
            low = mid
        else:
            high = mid
    return results[low], rungs


# -- metrics --------------------------------------------------------------------------


def _setup_once(env) -> Tuple[float, Service]:
    """Spawn a service; seconds until its first 200 on /v1/solve."""
    service = Service(env)
    body = solve_body(gen.Query(("A ->> B",), "A ->> CD", False), "setup")

    async def first_answer() -> int:
        conn = Connection(service.address)
        try:
            status, _ = await conn.request("POST", "/v1/solve", body)
            return status
        finally:
            conn.close()

    status = asyncio.run(first_answer())
    elapsed = time.perf_counter() - service.spawned
    if status != 200:
        service.stop()
        raise RuntimeError(f"setup solve answered {status}")
    return elapsed, service


def _digests(samples: List[Sample]) -> Tuple[Dict[str, str], List[str]]:
    answers: Dict[str, str] = {}
    conflicts = []
    for sample in samples:
        if not sample.ok:
            continue
        digest = inproc.digest_payload(sample.outcome)
        if answers.setdefault(sample.key, digest) != digest:
            conflicts.append(sample.key)
    return answers, conflicts


def _check(samples: List[Sample], seed: int, count: int,
           run_oracle: Callable) -> List[str]:
    """Compare every answer with the in-process solver's, byte for byte.

    ``count`` is how many queries of the stream the samples cover.
    """
    answers, conflicts = _digests(samples)
    oracle = run_oracle("service_mix", seed, count)
    result = {"answers": answers, "conflicts": conflicts, "bad_counterexamples": []}
    return inproc.check_answers(result, oracle, "the in-process solver")


def _timed(seed: int, seconds: float, env, run_oracle) -> Tuple[dict, dict]:
    setup, services = [], []
    try:
        for _ in range(SETUP_REPEATS):
            elapsed, service = _setup_once(env)
            setup.append(elapsed)
            services.append(service)
            if len(services) > 1:
                old = services.pop(0)
                old.stop()
                old.cleanup()
        service = services[0]
        stream = gen.query_stream(seed)
        client = Client(service.address, stream)
        nominal: List[Sample] = []
        per_slice = max(1, int(NOMINAL_QPS * seconds * NOMINAL_SHARE / NOMINAL_SLICES))
        probes = 0

        async def nominal_slice():
            label = f"n{len(nominal) // per_slice}"
            nominal.extend(await client.rung(NOMINAL_QPS, per_slice, label))

        async def after_probe():
            # Keep the last slice for after the ladder.
            nonlocal probes
            probes += 1
            if probes % 2 == 0 and len(nominal) < per_slice * (NOMINAL_SLICES - 1):
                await nominal_slice()

        async def drive():
            # The server CPU counts from after the warm-up to before the
            # scrape: only the timed requests are in the denominator.
            try:
                await client.warm_up()
                cpu0 = measure.proc_cpu_seconds(service.pid)
                await nominal_slice()
                best, rungs = await _ladder(client, seconds * RUNG_SHARE, after_probe)
                while len(nominal) < per_slice * NOMINAL_SLICES:
                    await nominal_slice()
                cpu = measure.proc_cpu_seconds(service.pid) - cpu0
                return best, rungs, cpu, await client.get_json("/metrics")
            finally:
                client.close()

        with client_gc_paused():
            best, rungs, cpu, scrape = asyncio.run(drive())
        rss = measure.proc_peak_rss_mb(service.pid)
    finally:
        clean = all([s.stop() for s in services])
        for s in services:
            s.cleanup()
    every = nominal + [s for rung in rungs for s in rung]
    answered = sum(s.ok for s in every)
    failed = len(every) - answered
    lat = [s.latency_ms() for s in nominal if s.ok]
    tail_value, tail_pct, samples = measure.segmented_tail(lat, NOMINAL_SLICES)
    max_rate = achieved_qps(best) if best else 0.0
    decided = sum(1 for s in every if s.ok and s.outcome["verdict"] != "unknown")
    m = measure.metric
    metrics = {
        "setup_s": m(statistics.median(setup), "s"),
        # The sustainable throughput of an open loop is its highest passing rung.
        "throughput_qps": m(max_rate, "queries/s"),
        "max_rate_qps": m(max_rate, "queries/s"),
        "latency_p50_ms": m(measure.median(lat), "ms"),
        "latency_tail_ms": m(tail_value, "ms"),
        "cpu_ms_per_query": m(1000.0 * cpu / max(answered, 1), "ms"),
        "peak_rss_mb": m(rss or 0.0, "MB"),
        "decided_share": m(decided / max(answered, 1), "ratio"),
        "ok_share": m(answered / max(len(every), 1), "ratio"),
    }
    problems = _check(every, seed, len(every), run_oracle)
    details = {
        "latency_tail_percentile": tail_pct, "latency_samples": samples,
        "latency_tail_whole_run": measure.tail(lat),
        "latency_segment_tails_ms": measure.segment_tails(lat, NOMINAL_SLICES),
        "setup_samples_s": setup, "nominal_qps": NOMINAL_QPS,
        "rungs": [{"offered_qps": round(len(r) / (seconds * RUNG_SHARE), 3),
                   "passed": rung_passes(r),
                   "tail_ms": measure.tail([s.latency_ms() for s in r])[0]}
                  for r in rungs],
        "clean_drain": clean, "mismatches": problems[:20],
        "connections": connections(),
        **_resolved(scrape),
    }
    result = {"correct": not problems, "attempted": len(every), "failed": failed,
              "metrics": metrics}
    return result, details


def _nominal_pass(seed: int, env, traced: bool) -> dict:
    """TRACE_REQUESTS at the nominal rung on a fresh service."""
    out = os.path.join(OUT_DIR, "tmp", f"server-layers-{uuid.uuid4().hex[:8]}.json")
    service = Service(env, traced_out=os.path.abspath(out) if traced else None)
    try:
        client = Client(service.address, gen.query_stream(seed))

        async def drive():
            try:
                await client.warm_up()
                cpu0 = measure.proc_cpu_seconds(service.pid)
                samples = await client.rung(NOMINAL_QPS, TRACE_REQUESTS, "t")
                cpu = measure.proc_cpu_seconds(service.pid) - cpu0
                scrape = await client.get_json("/metrics")
                return samples, cpu, scrape
            finally:
                client.close()

        with client_gc_paused():
            samples, cpu, scrape = asyncio.run(drive())
    finally:
        clean = service.stop()
    records = service.access_records()
    service.cleanup()
    layers = {}
    if traced:
        with open(out, encoding="utf-8") as handle:
            layers = json.load(handle)
        os.remove(out)
    answered = sum(s.ok for s in samples)
    return {"samples": samples, "scrape": scrape, "records": records,
            "layers": layers, "clean": clean,
            "cpu_ms_per_request": 1000.0 * cpu / max(answered, 1)}


def _resolved(scrape: dict) -> dict:
    """The configuration the service resolved, from its /metrics payload."""
    service = scrape.get("service", {})
    return {"cache_mode": service.get("cache_mode"),
            "strategies": [service.get("strategy")],
            "kernels": [service.get("kernel")]}


def _traced(seed: int, env, run_oracle) -> Tuple[dict, dict]:
    # Untraced, traced, untraced: the overhead compares the traced pass
    # with the mean of the two untraced ones around it.
    before = _nominal_pass(seed, env, traced=False)
    traced = _nominal_pass(seed, env, traced=True)
    after = _nominal_pass(seed, env, traced=False)
    samples = traced["samples"]
    records = traced["records"]
    wire, queue, solve, server_self, joins, sizes = [], [], [], [], 0, {}
    for s in samples:
        record = records.get(s.rid)
        if record is None or not s.ok:
            continue
        logged_ms = record["latency_s"] * 1000.0
        wire.append((s.done - s.sent) * 1000.0 - logged_ms)
        if "queue_s" in record and "solve_s" in record:
            queue.append(record["queue_s"] * 1000.0)
            solve.append(record["solve_s"] * 1000.0)
            server_self.append(logged_ms - queue[-1] - solve[-1])
        if record.get("join") in ("window", "in_flight"):
            joins += 1
        if "batch_id" in record:
            sizes[record["batch_id"]] = record.get("batch_size", 1)
    # How late the generator sent, at its tail: a stall shows here first.
    lag_tail, _, _ = measure.tail([s.lag_ms() for s in samples])
    m = measure.metric
    metrics = {name: m(value, unit)
               for name, (value, unit) in traced["layers"]["metrics"].items()}
    scrape = traced["scrape"]
    store = scrape.get("store", {})
    solver_stats = scrape.get("solver", {})
    problems_seen = solver_stats.get("problems", 0)
    metrics.update({
        "service.wire_ms": m(measure.median(wire), "ms"),
        "service.generator_lag_ms": m(lag_tail, "ms"),
        "service.queue_ms": m(measure.median(queue), "ms"),
        "service.solve_ms": m(measure.median(solve), "ms"),
        "service.server.self_ms": m(measure.median(server_self), "ms"),
        "service.join_share": m(joins / max(len(samples), 1), "ratio"),
        "service.batch_size.mean": m(statistics.mean(sizes.values()) if sizes else 0.0,
                                     "count"),
        "service.pool_saturation.high_water": m(
            scrape.get("metrics", {}).get("pool_saturation", {}).get("high_water", 0.0),
            "ratio"),
        # The service's store is the solver's: its hit share is reported
        # once, here; api.store.hit_share reads 0 on this workload.
        "service.store.hit_share": m(store.get("hit_rate", 0.0), "ratio"),
        "api.store.evictions": m(store.get("evictions", 0), "count"),
        "api.batch.unique_share": m(
            solver_stats.get("unique_problems", 0) / problems_seen if problems_seen else 0.0,
            "ratio"),
        "api.batch.canonical_hits": m(solver_stats.get("canonical_hits", 0), "count"),
        "api.batch.syntactic_hits": m(solver_stats.get("syntactic_hits", 0), "count"),
        "chase.oracle.busy_ms": m(0.0, "ms"),
    })
    # Below the knee the latency sits on the coalescing window, so the
    # overhead is the server's CPU per answered request, traced/untraced.
    plain_cpu = (before["cpu_ms_per_request"] + after["cpu_ms_per_request"]) / 2
    traced_cpu = traced["cpu_ms_per_request"]
    metrics["trace.overhead_ratio"] = m(traced_cpu / plain_cpu if plain_cpu else 0.0,
                                        "ratio")
    every = before["samples"] + samples + after["samples"]
    problems = _check(every, seed, len(samples), run_oracle)
    failed = sum(not s.ok for s in every)
    details = {"untraced_cpu_ms_per_request": plain_cpu,
               "traced_cpu_ms_per_request": traced_cpu,
               "server_spans": traced["layers"].get("spans"),
               "clean_drain": before["clean"] and traced["clean"] and after["clean"],
               "mismatches": problems[:20],
               **_resolved(scrape)}
    result = {"correct": not problems, "attempted": len(every), "failed": failed,
              "metrics": metrics}
    return result, details


def run(seed: int, seconds: float, trace: bool, child_env: Callable,
        run_oracle: Callable) -> Tuple[dict, dict]:
    """Run service_mix; returns (result, details) like the in-process workloads."""
    env = child_env()
    if trace:
        return _traced(seed, env, run_oracle)
    return _timed(seed, seconds, env, run_oracle)
