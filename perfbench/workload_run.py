"""Workload ``run-analytics``: fresh ``python -m repro run`` processes.

Each operation is one CLI process over the seeded EDB, timed from spawn
to exit.  Its JSON output must carry the same fixpoint as the
reference (interpreted engine, monolithic schedule) solved once per run
outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    Child,
    Tracer,
    make_edges,
    median,
    reference_solve,
    run_child,
    self_times,
    span_report,
    stats_counters,
    trace_dir,
    work_dir,
    write_inputs,
)

#: A process that runs longer than this is killed, counted as failed,
#: and ends the loop.
OP_TIMEOUT_S = 60.0
#: Fresh-interpreter CLI start-ups timed for ``setup_s``.
SETUP_SAMPLES = 5


class OutputChecker:
    """Checks CLI JSON outputs against the reference fingerprint.

    Inside the timed loop an output is only hashed (``keep``); one file
    per distinct SHA-256 is kept and compared by fingerprint afterwards
    (``verdict``), so identical outputs are parsed once.
    """

    def __init__(self, work: str, expected_fingerprint: str):
        self.work = work
        self.expected = expected_fingerprint
        self._verdicts: Dict[str, bool] = {}

    def keep(self, path: str) -> str:
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        kept = os.path.join(self.work, f"out-{digest}.json")
        if not os.path.exists(kept):
            os.replace(path, kept)
        return digest

    def verdict(self, digest: str) -> bool:
        from repro.core.incremental import fingerprint
        from repro.core.io import instance_from_dict
        from repro.semirings import TROP

        if digest not in self._verdicts:
            try:
                with open(os.path.join(self.work, f"out-{digest}.json"), "rb") as f:
                    payload = json.loads(f.read())
                got = fingerprint(instance_from_dict(TROP, payload["instance"]))
            except (ValueError, KeyError, TypeError):
                got = None
            self._verdicts[digest] = got == self.expected
        return self._verdicts[digest]


class Loop:
    """Closed loop of one-at-a-time processes for a fixed wall."""

    def __init__(self) -> None:
        self.ops: List[Tuple[Child, Optional[str]]] = []
        self.elapsed = 0.0

    def run(self, seconds: float, launch) -> None:
        """``launch(i)`` runs op ``i``; returns ``(child, digest or None)``."""
        start = time.perf_counter()
        while True:
            child, digest = launch(len(self.ops))
            self.ops.append((child, digest))
            if child.timed_out or time.perf_counter() - start >= seconds:
                break
        self.elapsed = time.perf_counter() - start

    def check(self, checker: OutputChecker) -> List[Child]:
        """The ops that exited 0 with a correct output (after the loop)."""
        return [c for c, digest in self.ops if digest is not None and checker.verdict(digest)]


def run(ctx):
    from run import Outcome
    from repro.core.incremental import fingerprint

    work = work_dir(ctx.workload, ctx.seed)
    try:
        edges = make_edges(ctx.seed, ctx.tiny)
        program_path, edb_path = write_inputs(work, edges)
        checker = OutputChecker(work, fingerprint(reference_solve(edges).instance))
        cli = [sys.executable, "-m", "repro"]
        run_cmd = cli + ["run", program_path, "--pops", "trop", "--edb", edb_path,
                         "--method", "seminaive", "--output", "json"]

        setup: List[float] = []

        def startups(n: int) -> None:
            for _ in range(n):
                child = run_child(cli + ["pops-list"], os.path.join(work, "pops.txt"), OP_TIMEOUT_S)
                if child.returncode == 0:
                    setup.append(child.wall)

        def launch_cli(i):
            out = os.path.join(work, "out.json")
            child = run_child(run_cmd, out, OP_TIMEOUT_S)
            return child, checker.keep(out) if child.returncode == 0 else None

        # Start-ups are timed half before and half after the loop.
        startups(SETUP_SAMPLES // 2)
        plain = Loop()
        plain.run(ctx.seconds / 2 if ctx.trace else ctx.seconds, launch_cli)
        startups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        good = plain.check(checker)
        walls = [c.wall for c in good]
        report = [
            f"# run-analytics: {len(plain.ops)} CLI processes in {plain.elapsed:.2f} s, "
            f"EDB {len(edges)} edges, {len(setup)} start-up samples"
        ]
        attempted = len(plain.ops) + SETUP_SAMPLES
        failed = attempted - len(good) - len(setup)
        if not ctx.trace:
            metrics = {
                "setup_s": median(setup),
                "ops_per_s": len(good) / plain.elapsed,
                "p50_ms": median(walls) * 1e3,
                "cpu_ms_per_op": median([c.cpu_s for c in good]) * 1e3,
                "peak_rss_mb": max((c.maxrss_mb for c in good), default=0.0),
            }
            return Outcome(failed == 0, attempted, failed, metrics, report)

        spans_dir = os.path.join(work, "spans")
        os.makedirs(spans_dir)
        traced_cli = [sys.executable, os.path.join(os.path.dirname(__file__), "traced_cli.py")]

        def launch_traced(i):
            out = os.path.join(work, "out.json")
            spans = os.path.join(spans_dir, f"{i}.json")
            child = run_child(traced_cli + [program_path, edb_path, spans], out, OP_TIMEOUT_S)
            return child, checker.keep(out) if child.returncode == 0 else None

        traced = Loop()
        traced.run(ctx.seconds / 2, launch_traced)
        tracer = Tracer()
        records: List[dict] = []
        for i, (child, digest) in enumerate(traced.ops):
            if digest is None or not checker.verdict(digest):
                continue
            with open(os.path.join(spans_dir, f"{i}.json")) as f:
                rec = json.load(f)
            root = tracer.record("process", child.start, child.start + child.wall, op=i)
            tracer.add(rec["spans"], op=i, parent=root)
            records.append(rec)
        path = os.path.join(trace_dir(), f"run-analytics-{ctx.seed}.json")
        tracer.dump(path)
        metrics = layer_metrics(tracer.spans, records)
        metrics["trace.overhead_ms"] = (
            median([s["end"] - s["start"] for s in tracer.spans if s["name"] == "process"])
            - median(walls)
        ) * 1e3
        report.append(f"# traced: {len(traced.ops)} traced CLI processes; spans in {path}")
        report += span_report(tracer.spans)
        attempted += len(traced.ops)
        failed += len(traced.ops) - len(records)
        return Outcome(failed == 0, attempted, failed, metrics, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(spans: List[dict], records: List[dict]) -> Dict[str, float]:
    """Per-process medians of each layer's span and the solve's counters."""
    durations: Dict[str, List[float]] = {}
    for s in spans:
        durations.setdefault(s["name"], []).append((s["end"] - s["start"]) * 1e3)
    selfs = self_times(spans)
    metrics = {
        "cli.import_ms": median(durations.get("cli.import", [])),
        "parser.parse_ms": median(durations.get("parser.parse", [])),
        "io.load_edb_ms": median(durations.get("io.load_edb", [])),
        "engine.solve_ms": median(durations.get("engine.solve", [])),
        "io.encode_ms": median(durations.get("io.encode", [])),
        "cli.print_ms": median(durations.get("cli.print", [])),
        "trace.unattributed_ms": median(
            [selfs[s["id"]] * 1e3 for s in spans if s["name"] == "process"]
        ),
    }
    if records:
        last = records[-1]
        metrics.update(stats_counters(last["stats"], last["strata"], last["derived"]))
        metrics["cli.modules_imported"] = median([r["modules_imported"] for r in records])
        metrics["cli.numpy_loaded"] = int(any(r["numpy_loaded"] for r in records))
        metrics["io.output_bytes"] = last["output_bytes"]
    return metrics
