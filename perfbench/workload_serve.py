"""Workload ``serve-mixed``: a ``python -m repro serve`` child under HTTP load.

A closed loop: one load generator (this process), two threads, each
with one keep-alive HTTP/1.1 connection, each sending its next request
only after the previous reply.  Traffic per thread repeats a 21-op
cycle: 16 ``GET /query?relation=Out`` : 4 ``GET /scan?relation=T`` :
1 ``POST /mutate``.  Read keys are Zipf-skewed over all nodes; each
thread's writes alternate inserting a fresh edge and deleting it again.

After the load the quiescent reads must equal a fresh reference solve
over the final EDB, and reopening the data directory (checkpoint plus
journal replay, no EDB) must give the same fixpoint.
"""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    GA_PROGRAM,
    IDBS,
    Child,
    LineReader,
    Tracer,
    demanded_digest,
    make_edges,
    median,
    n_nodes,
    reference_solve,
    root_self_ms,
    span_report,
    tail,
    trace_dir,
    work_dir,
    write_inputs,
)

#: Mutation batches between checkpoints (``--checkpoint-every``): a
#: 30 s run writes 20 batches, so it completes five checkpoint cycles.
CHECKPOINT_EVERY = 4
CLIENTS = 2
#: Positions of the 21-op cycle: 20 is the write, 4/9/14/19 are scans.
CYCLE = 21
ZIPF_S = 1.1
SCAN_LIMIT = 50
READ_TIMEOUT_S = 15.0
WRITE_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 30.0
#: Server start-ups timed for ``setup_s``: the load server and four
#: start-up-only servers.
SETUP_SAMPLES = 5


# ---------------------------------------------------------------------------
# The server and its clients
# ---------------------------------------------------------------------------


class Server:
    """A ``datalogo serve`` child on an ephemeral loopback port."""

    def __init__(self, work: str, tag: str, program_path: str, edb_path: str):
        self.data_dir = os.path.join(work, f"data-{tag}")
        self.err_path = os.path.join(work, f"server-{tag}.err")
        cmd = [sys.executable, "-m", "repro", "serve", program_path, "--pops", "trop",
               "--edb", edb_path, "--data-dir", self.data_dir, "--port", "0",
               "--checkpoint-every", str(CHECKPOINT_EVERY)]
        with open(self.err_path, "wb") as err:
            self.child = Child(cmd, stdout=subprocess.PIPE, stderr=err, unbuffered=True)
        self.port: Optional[int] = None
        self.setup_s: Optional[float] = None
        line = LineReader(self.child).next_line(SETUP_TIMEOUT_S)
        match = re.search(r":(\d+) ", line or "")
        if match is None:
            return
        self.port = int(match.group(1))
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while time.monotonic() < deadline and self.alive():
            status, _body, _dt = Client(self.port).call("GET", "/health", timeout=5.0)
            if status == 200:
                self.setup_s = time.perf_counter() - self.child.start
                return
            time.sleep(0.01)

    def alive(self) -> bool:
        return self.child.poll() is None

    def stop(self) -> None:
        self.child.stop()
        self.child.close_pipes()

    def stderr(self) -> str:
        with open(self.err_path, "rb") as f:
            return f.read().decode("utf-8", "replace")


class Client:
    """One keep-alive HTTP/1.1 connection; every call has a timeout."""

    def __init__(self, port: int):
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, body=None, timeout: float = READ_TIMEOUT_S):
        """``(status or None, decoded body or None, seconds)``; never raises."""
        start = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
            self.conn.timeout = timeout
            if self.conn.sock is not None:
                self.conn.sock.settimeout(timeout)
            headers = {}
            if body is not None:
                body = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            self.conn.request(method, path, body=body, headers=headers)
            reply = self.conn.getresponse()
            data = reply.read()
            status = reply.status
        except (OSError, http.client.HTTPException):
            self.close()
            return None, None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        try:
            return status, json.loads(data), elapsed
        except ValueError:
            return None, None, elapsed

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# ---------------------------------------------------------------------------
# The op stream
# ---------------------------------------------------------------------------


class Zipf:
    """Zipf(s) ranks over a seeded permutation of ``keys``."""

    def __init__(self, keys, rng: random.Random):
        self.keys = list(keys)
        rng.shuffle(self.keys)
        total = 0.0
        self.cum = []
        for rank in range(1, len(self.keys) + 1):
            total += rank ** -ZIPF_S
            self.cum.append(total)

    def draw(self, rng: random.Random):
        return self.keys[min(len(self.keys) - 1, bisect.bisect(self.cum, rng.random() * self.cum[-1]))]


class OpStream:
    """The seeded request sequence of one client thread.

    ``next()`` gives ``(kind, key, mutation)``.  Writes alternate an
    insert of an edge absent from the seed EDB with the delete of that
    same edge; the caller reports acknowledged writes through
    :meth:`acked`.
    """

    def __init__(self, seed: int, client: int, edges, n: int, reads: Zipf, scans: Zipf):
        self.rng = random.Random(f"serve/{seed}/{client}")
        self.edges = edges
        self.n = n
        self.reads, self.scans = reads, scans
        self.i = client * (CYCLE // 2)  # the threads' writes fall half a cycle apart
        #: The inserted edge and its value, until its delete is acknowledged.
        self.pending: Optional[Tuple[Tuple[int, int], float]] = None
        self.client = client

    def _fresh_edge(self) -> Tuple[int, int]:
        while True:
            a, b = sorted(self.rng.sample(range(self.n), 2))
            # Low to high keeps the graph acyclic; the source's residue
            # keeps the two clients' edges apart.
            if (a, b) not in self.edges and a % CLIENTS == self.client:
                return a, b

    def next(self):
        p = self.i % CYCLE
        self.i += 1
        if p == CYCLE - 1:
            if self.pending is None:
                edge = self._fresh_edge()
                value = round(self.rng.uniform(1.0, 10.0), 3)
                mutation = {"op": "insert", "relation": "E", "key": list(edge), "value": value}
                return "write", edge, mutation
            edge = self.pending[0]
            return "write", edge, {"op": "delete", "relation": "E", "key": list(edge)}
        if p % 5 == 4:
            return "scan", self.scans.draw(self.rng), None
        return "read", self.reads.draw(self.rng), None

    def acked(self, edge, mutation) -> None:
        self.pending = (edge, mutation["value"]) if mutation["op"] == "insert" else None


def http_request(kind: str, key, mutation):
    if kind == "read":
        return "GET", f"/query?relation=Out&key={key}", None
    if kind == "scan":
        return "GET", f"/scan?relation=T&pattern={key},_&limit={SCAN_LIMIT}", None
    return "POST", "/mutate", {"mutations": [mutation]}


class Load:
    """Closed-loop client threads running a fixed number of op cycles.

    The work is fixed by ``seconds`` (:func:`cycles_for`), so every run
    sends the same requests: the same writes, checkpoints and key draws.
    A thread that overruns ``3 * seconds + 30`` stops, and a call that gets
    no reply aborts every thread; the remaining ops, like every non-200
    reply, count as failed.
    """

    def __init__(self, streams: List[OpStream]):
        self.streams = streams
        self.latency: Dict[str, List[float]] = {"read": [], "scan": [], "write": []}
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.abort = threading.Event()
        self._lock = threading.Lock()

    def run(self, seconds: float, call_for) -> None:
        """``call_for(i)`` gives thread ``i``'s ``call(kind, key, mutation) -> ok``."""
        n_ops = cycles_for(seconds) * CYCLE
        start = time.perf_counter()
        limit = start + 3 * seconds + 30.0
        threads = [
            threading.Thread(target=self._loop, args=(stream, call_for(i), n_ops, limit), daemon=True)
            for i, stream in enumerate(self.streams)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(max(0.0, limit - time.perf_counter()) + WRITE_TIMEOUT_S)
        self.elapsed = time.perf_counter() - start
        if any(t.is_alive() for t in threads):
            self.abort.set()
        with self._lock:
            self.attempted = n_ops * len(threads)
            self.failed = self.attempted - self.ok_ops()

    def _loop(self, stream: OpStream, call, n_ops: int, limit: float) -> None:
        for _ in range(n_ops):
            if self.abort.is_set() or time.perf_counter() > limit:
                return
            kind, key, mutation = stream.next()
            start = time.perf_counter()
            ok = call(kind, key, mutation)
            elapsed = time.perf_counter() - start
            if ok:
                with self._lock:
                    self.latency[kind].append(elapsed * 1e3)
                if kind == "write":
                    stream.acked(key, mutation)

    def ok_ops(self) -> int:
        return sum(len(v) for v in self.latency.values())

    def all_latencies(self) -> List[float]:
        return [x for v in self.latency.values() for x in v]


def cycles_for(seconds: float) -> int:
    """Op cycles per thread: an even count, so every insert is deleted again.

    One insert/delete pair (two cycles per thread) takes about 5.5 s at
    full size on two cores.
    """
    return 2 * max(1, round(seconds / 5.5))


def make_streams(ctx, edges) -> List[OpStream]:
    n = n_nodes(ctx.tiny)
    rng = random.Random(f"keys/{ctx.seed}")
    reads = Zipf(range(n), rng)
    scans = Zipf(sorted({a for a, _b in edges}), rng)
    return [OpStream(ctx.seed, i, edges, n, reads, scans) for i in range(CLIENTS)]


def final_edges(edges, streams: List[OpStream]):
    final = dict(edges)
    for stream in streams:
        if stream.pending is not None:
            edge, value = stream.pending
            final[edge] = value
    return final


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def digest_instance(instance) -> Dict[str, str]:
    return {rel: demanded_digest(instance.support(rel).items()) for rel in IDBS}


def quiescent_reads(client: Client) -> Dict[str, Optional[str]]:
    """Digest of each derived relation as a full ``GET /scan`` returns it."""
    from repro.core.io import decode_value

    out: Dict[str, Optional[str]] = {}
    for rel in IDBS:
        status, body, _dt = client.call("GET", f"/scan?relation={rel}", timeout=WRITE_TIMEOUT_S)
        if status is None:
            break  # no reply: the server is gone or stalled
        if status != 200:
            continue
        out[rel] = demanded_digest(
            (tuple(key), decode_value(value)) for key, value in body["entries"]
        )
    return out


def reopen_digest(data_dir: str) -> Optional[Dict[str, str]]:
    """Reopen the data dir with no EDB: checkpoint plus journal replay."""
    from repro.core import parse_program
    from repro.core.journal import DurableInstance
    from repro.semirings import TROP

    try:
        with DurableInstance(data_dir, parse_program(GA_PROGRAM), TROP) as durable:
            return digest_instance(durable.instance)
    except Exception as exc:  # noqa: BLE001 — a failed recovery is a counted failure
        print(f"# reopen of {data_dir} failed: {exc!r}", file=sys.stderr)
        return None


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def http_load(ctx, server: Server, edges, seconds: float):
    """Drive ``server`` for ``seconds``; returns the load and the op streams."""
    streams = make_streams(ctx, edges)
    load = Load(streams)

    def call_for(i):
        client = Client(server.port)

        def call(kind, key, mutation):
            method, path, body = http_request(kind, key, mutation)
            timeout = WRITE_TIMEOUT_S if kind == "write" else READ_TIMEOUT_S
            status, _body, _dt = client.call(method, path, body, timeout=timeout)
            if status is None:
                load.abort.set()  # a dead or stalled server ends the run
            return status == 200

        return call

    load.run(seconds, call_for)
    return load, streams


def check_server(server: Server, expected: Dict[str, str], aborted: bool) -> Tuple[int, int]:
    """Quiescent reads, then stop the server and reopen its data dir.

    Returns ``(checks attempted, checks failed)``: one check per derived
    relation read over HTTP, plus the reopen.
    """
    got = quiescent_reads(Client(server.port)) if server.alive() and not aborted else {}
    server.stop()
    failed = sum(got.get(rel) != expected[rel] for rel in IDBS)
    failed += reopen_digest(server.data_dir) != expected
    return len(IDBS) + 1, failed


def stats_delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0) - before.get(name, 0)


def run(ctx):
    from run import Outcome

    work = work_dir(ctx.workload, ctx.seed)
    servers: List[Server] = []
    try:
        edges = make_edges(ctx.seed, ctx.tiny)
        program_path, edb_path = write_inputs(work, edges)

        def start(tag: str) -> Server:
            servers.append(Server(work, tag, program_path, edb_path))
            return servers[-1]

        # Start-up-only servers time setup_s (and the CPU a start-up
        # costs), half before the load and half after it.
        probes = 0 if ctx.trace else SETUP_SAMPLES - 1
        for k in range(probes // 2):
            start(f"probe{k}").stop()
        server = start("load")
        load, streams = Load([]), []
        stats_before = stats_after = {}
        if server.setup_s is not None:
            stats_before = Client(server.port).call("GET", "/stats")[1] or {}
            load, streams = http_load(ctx, server, edges, ctx.seconds / 2 if ctx.trace else ctx.seconds)
            stats_after = Client(server.port).call("GET", "/stats")[1] or {}
        expected = digest_instance(reference_solve(final_edges(edges, streams)).instance)
        checks, bad = check_server(server, expected, load.abort.is_set())
        for k in range(probes // 2, probes):
            start(f"probe{k}").stop()
        for s in servers:
            if s.stderr().strip():
                print(f"# server {s.data_dir} stderr:\n{s.stderr()}", file=sys.stderr)
        # A server that never answered /health is one failed op.
        dead = sum(s.setup_s is None for s in servers)
        attempted = load.attempted + checks + len(servers)
        failed = load.failed + bad + dead
        lat = load.latency
        report = [
            f"# serve-mixed: {load.attempted} requests in {load.elapsed:.2f} s over "
            f"{CLIENTS} keep-alive connections; checkpoint every {CHECKPOINT_EVERY} batches; "
            f"setup samples {[round(s.setup_s or 0, 3) for s in servers]}",
            f"#   read_p50_ms={median(lat['read']):.2f} read_p90_ms={tail(lat['read']) or 0:.2f} "
            f"scan_p50_ms={median(lat['scan']):.2f} write_p50_ms={median(lat['write']):.2f} "
            f"(n={len(lat['read'])}/{len(lat['scan'])}/{len(lat['write'])})",
            "#   checkpoint_writes=%d cache_hits=%d cache_misses=%d"
            % tuple(stats_delta(stats_before, stats_after, k)
                    for k in ("checkpoint_writes", "cache_hits", "cache_misses")),
        ]
        if not ctx.trace:
            probe_cpu = median([s.child.cpu_s for s in servers if s is not server])
            metrics = {
                "setup_s": median([s.setup_s for s in servers if s.setup_s is not None]),
                "p50_ms": median(load.all_latencies()),
                "ops_per_s": load.ok_ops() / load.elapsed if load.elapsed else 0.0,
                "cpu_ms_per_op": (server.child.cpu_s - probe_cpu) / max(1, load.ok_ops()) * 1e3,
                "peak_rss_mb": server.child.maxrss_mb,
            }
            return Outcome(failed == 0, attempted, failed, metrics, report)

        hits = stats_delta(stats_before, stats_after, "cache_hits")
        misses = stats_delta(stats_before, stats_after, "cache_misses")
        batches = max(1, stats_delta(stats_before, stats_after, "mutation_batches"))
        metrics = {
            "http.read_p50_ms": median(lat["read"]),
            "http.read_p90_ms": tail(lat["read"]) or 0.0,
            "http.scan_p50_ms": median(lat["scan"]),
            "http.write_p50_ms": median(lat["write"]),
            "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.query_timeouts": stats_delta(stats_before, stats_after, "query_timeouts"),
            "serve.request_errors": stats_delta(stats_before, stats_after, "request_errors"),
        }
        for name, counter in (
            ("incremental.warm_iterations", "warm_iterations"),
            ("incremental.dred_rounds", "dred_rounds"),
            ("incremental.dred_deletions", "dred_deletions"),
            ("incremental.fallbacks", "incremental_fallbacks"),
        ):
            metrics[name] = stats_delta(stats_before, stats_after, counter) / batches
        t_attempted, t_failed, t_metrics, t_report = traced_service(ctx, work, edges, edb_path)
        metrics.update(t_metrics)
        metrics["http.overhead_ms"] = metrics["http.read_p50_ms"] - metrics["serve.query_ms"]
        attempted += t_attempted
        failed += t_failed
        return Outcome(failed == 0, attempted, failed, metrics, report + t_report)
    finally:
        for s in servers:
            s.stop()
        shutil.rmtree(work, ignore_errors=True)


def traced_service(ctx, work: str, edges, edb_path: str):
    """The same op streams against an in-process ``DatalogService`` (no HTTP).

    The first half of the time runs untraced, the second half with
    spans around the service's public methods and the durable
    instance's journal, checkpoint and incremental-apply calls.
    """
    from repro import core
    from repro.core import parse_program
    from repro.core.serve import DatalogService
    from repro.semirings import TROP

    data_dir = os.path.join(work, "data-inproc")
    db = core.Database(pops=TROP, relations={"E": dict(edges)})
    service = DatalogService(
        parse_program(GA_PROGRAM), TROP, data_dir, database=db,
        checkpoint_every=CHECKPOINT_EVERY, pool_workers=CLIENTS,
    )
    tracer = Tracer()
    journal_bytes: List[int] = []
    try:
        streams = make_streams(ctx, edges)
        untraced = Load(streams)
        untraced.run(ctx.seconds / 4, lambda i: service_call(service, None, i))
        durable = service.durable
        tracer.wrap(service, "query", "serve.query")
        tracer.wrap(service, "scan", "serve.scan")
        tracer.wrap(service, "mutate", "serve.mutate")
        tracer.wrap(durable, "checkpoint", "journal.checkpoint")
        tracer.wrap(durable.inc, "apply", "incremental.apply")
        append = durable.journal.append

        def sized_append(*args, **kwargs):
            before = durable.journal.size()
            with tracer.span("journal.append"):
                out = append(*args, **kwargs)
            journal_bytes.append(durable.journal.size() - before)
            return out

        durable.journal.append = sized_append
        checkpoints_before = durable.stats["checkpoint_writes"]
        traced = Load(streams)
        traced.run(ctx.seconds / 4, lambda i: service_call(service, tracer, i))
        checkpoint_writes = durable.stats["checkpoint_writes"] - checkpoints_before
        got = digest_instance(durable.instance)
        disk = dir_bytes(data_dir)
    finally:
        service.close()
    expected = digest_instance(reference_solve(final_edges(edges, streams)).instance)
    bad = int(got != expected)
    spans = tracer.spans
    path = os.path.join(trace_dir(), f"serve-mixed-{ctx.seed}.json")
    tracer.dump(path)
    durations: Dict[str, List[float]] = {}
    for s in spans:
        durations.setdefault(s["name"], []).append((s["end"] - s["start"]) * 1e3)
    read_ops = [(s["end"] - s["start"]) * 1e3 for s in spans
                if s["parent"] is None and s["name"] == "op.read"]
    metrics = {
        "serve.query_ms": median(durations.get("serve.query", [])),
        "serve.scan_ms": median(durations.get("serve.scan", [])),
        "serve.mutate_ms": median(durations.get("serve.mutate", [])),
        "journal.append_ms": median(durations.get("journal.append", [])),
        "journal.checkpoint_ms": median(durations.get("journal.checkpoint", [])),
        "journal.checkpoint_writes": checkpoint_writes,
        "journal.bytes_per_batch": median(journal_bytes),
        "journal.disk_bytes_per_edb_byte": disk / os.path.getsize(edb_path),
        "incremental.apply_ms": median(durations.get("incremental.apply", [])),
        "trace.unattributed_ms": root_self_ms(spans),
        "trace.overhead_ms": median(read_ops) - median(untraced.latency["read"]),
    }
    report = [
        f"# in-process service: {untraced.attempted} untraced + {traced.attempted} traced ops; "
        f"spans in {path}"
    ] + span_report(spans)
    attempted = untraced.attempted + traced.attempted + 1
    failed = untraced.failed + traced.failed + bad
    return attempted, failed, metrics, report


def service_call(service, tracer: Optional[Tracer], i: int):
    """Thread ``i``'s call into the service: the HTTP handler's work minus HTTP."""
    from repro.core.serve import ServeError

    ops = itertools.count()

    def call(kind, key, mutation):
        try:
            if tracer is None:
                invoke(service, kind, key, mutation)
            else:
                with tracer.span(f"op.{kind}", op=i * 1_000_000 + next(ops)):
                    invoke(service, kind, key, mutation)
        except ServeError:
            return False
        return True

    return call


def invoke(service, kind: str, key, mutation) -> None:
    if kind == "read":
        service.query("Out", (key,))
    elif kind == "scan":
        service.scan("T", pattern=(key, None), limit=SCAN_LIMIT)
    else:
        service.mutate([mutation])
