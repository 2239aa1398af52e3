"""Shared pieces of the repo benchmark: inputs, spans, child processes.

Everything here is benchmark-side.  The program under test (``src/repro``)
is only ever driven through its public surfaces: ``python -m repro``
processes, the library functions a user would call, and HTTP.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Directory of the benchmark and the checkout root it runs from.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: The generated-input recipe (also documented in recipe.json).  The
#: graph's *shape* comes from a fixed seed so that every benchmark seed
#: does the same amount of fixpoint work; the benchmark seed draws the
#: edge weights and every operation stream.
FULL_SIZE = {"n": 16000, "m": 10000}
TINY_SIZE = {"n": 400, "m": 300}
ALPHA = 0.6
SHAPE_SEED = 1
WEIGHT_RANGE = (1.0, 10.0)

#: ``programs.graph_analytics()`` in the CLI's surface syntax.
GA_PROGRAM = """\
T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).
Rev(X, Y) :- E(Y, X) | Rev(X, Z) * E(Y, Z).
C(Y) :- E(X, Y) | C(X) * E(X, Y).
Out(X) :- E(X, Y) | E(X, Y) * Out(Y).
"""

#: Relations the program derives, in output order.
IDBS = ("C", "Out", "Rev", "T")


def make_edges(seed: int, tiny: bool = False) -> Dict[Tuple[int, int], float]:
    """The seeded EDB: a fixed power-law shape with seed-drawn weights."""
    from repro import workloads

    size = TINY_SIZE if tiny else FULL_SIZE
    shape = workloads.power_law_digraph(
        n=size["n"], m=size["m"], alpha=ALPHA, seed=SHAPE_SEED
    )
    rng = random.Random(f"weights/{seed}")
    lo, hi = WEIGHT_RANGE
    return {edge: round(rng.uniform(lo, hi), 3) for edge in sorted(shape)}


def n_nodes(tiny: bool) -> int:
    return (TINY_SIZE if tiny else FULL_SIZE)["n"]


def demanded_digest(items) -> str:
    """Byte-exact digest of ``(key, value)`` atoms: sorted ``repr`` pairs."""
    text = "|".join(f"{k}:{v}" for k, v in sorted((repr(k), repr(v)) for k, v in items))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_inputs(work: str, edges: Dict[Tuple[int, int], float]) -> Tuple[str, str]:
    """Write ``ga.dl`` and ``ga.json`` (the CLI's EDB format) into ``work``."""
    program_path = os.path.join(work, "ga.dl")
    edb_path = os.path.join(work, "ga.json")
    with open(program_path, "w") as f:
        f.write(GA_PROGRAM)
    with open(edb_path, "w") as f:
        json.dump({"relations": {"E": [[list(k), v] for k, v in edges.items()]}}, f)
    return program_path, edb_path


def reference_solve(edges: Dict[Tuple[int, int], float]):
    """The differential oracle: interpreted engine, monolithic schedule."""
    from repro import core
    from repro.core import parse_program
    from repro.semirings import TROP

    db = core.Database(pops=TROP, relations={"E": dict(edges)})
    return core.solve(
        parse_program(GA_PROGRAM),
        db,
        method="seminaive",
        engine="interpreted",
        schedule="monolithic",
    )


def work_dir(workload: str, seed: int) -> str:
    """A fresh scratch directory inside the checkout, removed by the caller."""
    base = os.path.join(ROOT, ".bench_build", "perfbench")
    path = os.path.join(base, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def trace_dir() -> str:
    path = os.path.join(ROOT, ".bench_build", "perfbench", "traces")
    os.makedirs(path, exist_ok=True)
    return path


def child_env(unbuffered: bool = False) -> Dict[str, str]:
    """The program's environment: ``src`` on the path; stdout buffering pinned."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float], q: float = 0.9) -> Optional[float]:
    """The ``q`` quantile, or ``None`` when fewer than ten samples lie beyond it."""
    if len(values) * (1 - q) < 10:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Child:
    """A program process whose wall, exit code and peak RSS are recorded.

    ``wait`` reaps the process with ``os.wait4`` so the RSS is that
    process's own; a watchdog kills it when ``timeout`` expires.
    """

    def __init__(self, cmd: Sequence[str], stdout=None, stderr=None, unbuffered=False):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            list(cmd), stdout=stdout, stderr=stderr, env=child_env(unbuffered), cwd=ROOT
        )
        self.wall: Optional[float] = None
        self.returncode: Optional[int] = None
        self.maxrss_mb = 0.0
        self.cpu_s = 0.0
        self.timed_out = False

    def wait(self, timeout: float) -> int:
        if self.returncode is not None:
            return self.returncode
        watchdog = threading.Timer(timeout, self._expire)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        self._reaped(status, usage)
        return self.returncode

    def poll(self) -> Optional[int]:
        """The exit code once the process has ended (reaping it), else ``None``."""
        if self.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._reaped(status, usage)
        return self.returncode

    def _reaped(self, status: int, usage) -> None:
        self.wall = time.perf_counter() - self.start
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime

    def _signal(self, sig: int) -> None:
        # os.kill, not Popen.send_signal: that polls, and a process reaped
        # there would lose its rusage to os.wait4.
        try:
            os.kill(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def _expire(self) -> None:
        self.timed_out = True
        self._signal(signal.SIGKILL)

    def stop(self, timeout: float = 20.0) -> int:
        """End the process with SIGTERM (SIGINT may be ignored when run in
        the background), then reap it; the watchdog kills it after ``timeout``."""
        if self.poll() is None:
            self._signal(signal.SIGTERM)
        return self.wait(timeout)

    def close_pipes(self) -> None:
        for stream in (self.proc.stdout, self.proc.stderr, self.proc.stdin):
            if stream is not None:
                stream.close()


class LineReader:
    """Lines from a child's stdout pipe, each awaited with a timeout."""

    def __init__(self, child: "Child"):
        self.fd = child.proc.stdout.fileno()
        self.buffer = b""

    def next(self, timeout: float) -> Optional[Dict[str, Any]]:
        """The next JSON record; ``None`` at end of stream or after ``timeout`` s of silence."""
        line = self.next_line(timeout)
        return None if line is None else json.loads(line)

    def next_line(self, timeout: float) -> Optional[str]:
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode("utf-8", "replace")


def run_child(cmd: Sequence[str], stdout_path: str, timeout: float) -> Child:
    with open(stdout_path, "wb") as out:
        child = Child(cmd, stdout=out)
        child.wait(timeout)
    return child


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent and op id per span.

    Spans nest per thread.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def record(self, name: str, start: float, end: float, op: int) -> int:
        """Add a finished root span measured elsewhere (a child's wall); returns its id."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append(
                {"id": span_id, "name": name, "parent": None, "op": op, "start": start, "end": end}
            )
        return span_id

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Replace ``obj.attr`` by a version that records a span per call."""
        inner = getattr(obj, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)

    def add(self, spans: Sequence[Dict[str, Any]], op: int, parent: Optional[int]) -> None:
        """Adopt spans recorded by another process (re-numbered, re-parented)."""
        with self._lock:
            ids = {}
            for s in spans:
                ids[s["id"]] = self._next_id
                self._next_id += 1
            for s in spans:
                self.spans.append(
                    dict(
                        s,
                        id=ids[s["id"]],
                        parent=ids.get(s["parent"], parent),
                        op=op,
                    )
                )

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover (s)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def span_summary(spans: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, median duration (ms), total and self time (ms)."""
    selfs = self_times(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    return {
        name: {
            "calls": len(group),
            "median_ms": median([(s["end"] - s["start"]) * 1e3 for s in group]),
            "total_ms": sum((s["end"] - s["start"]) * 1e3 for s in group),
            "self_ms": sum(selfs[s["id"]] * 1e3 for s in group),
        }
        for name, group in sorted(by_name.items())
    }


def span_report(spans: Sequence[Dict[str, Any]]) -> List[str]:
    """One report line per span name: calls, median duration, self time per call."""
    return [
        f"#   span {name}: calls={s['calls']} median={s['median_ms']:.3f} ms "
        f"self={s['self_ms'] / s['calls']:.3f} ms/call"
        for name, s in span_summary(spans).items()
    ]


def root_self_ms(spans: Sequence[Dict[str, Any]]) -> float:
    """Median over ops of the op root span's self time: the unattributed part."""
    selfs = self_times(spans)
    return median([selfs[s["id"]] * 1e3 for s in spans if s["parent"] is None])


def stats_counters(stats: Dict[str, Any], n_strata: int, derived: int) -> Dict[str, float]:
    """The per-layer counters a solve already returns (``result.stats``/``strata``)."""
    valuations = stats.get("valuations", 0)
    return {
        "fixpoint.iterations": stats.get("iterations", 0),
        "fixpoint.rule_applications": stats.get("rule_applications", 0),
        "fixpoint.rules_skipped": stats.get("rules_skipped", 0),
        "scheduler.strata": n_strata,
        "join.keys_examined": stats.get("keys_examined", 0),
        "join.valuations": valuations,
        "join.probes": stats.get("probes", 0),
        "join.scanned_keys": stats.get("scanned_keys", 0),
        "kernels.kernel_cache_hits": stats.get("kernel_cache_hits", 0),
        "indexes.index_builds": stats.get("index_builds", 0),
        "fixpoint.derived_tuples": derived,
        "join.valuations_per_tuple": valuations / derived if derived else 0.0,
    }
