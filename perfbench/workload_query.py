"""Workload ``point-queries``: ``solve(..., query=("T", (s, None)))`` in a loop.

The loop runs in its own process (``query_worker.py``) so that its peak
RSS is the program's alone; the parent checks every answer against the
reference fixpoint's matching ``T`` rows and watches for stalls.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Optional

from common import (
    Child,
    LineReader,
    demanded_digest,
    make_edges,
    median,
    reference_solve,
    root_self_ms,
    span_report,
    stats_counters,
    tail,
    trace_dir,
    work_dir,
)

#: Longest wait for one query (or for import + set-up) before the
#: worker is declared stalled, killed and the op counted as failed.
OP_TIMEOUT_S = 30.0
SETUP_TIMEOUT_S = 60.0
#: Worker processes per untraced run; ``setup_s`` is their median.
STREAMS = 5
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "query_worker.py")


class Stream:
    """One worker process: its set-up time, op records and failures."""

    def __init__(self, ctx, stream: int, seconds: float, spans: Optional[str] = None):
        cmd = [sys.executable, WORKER, "--seed", str(ctx.seed), "--stream", str(stream),
               "--seconds", repr(seconds)]
        if spans:
            cmd += ["--spans", spans]
        if ctx.tiny:
            cmd.append("--tiny")
        self.ops: List[dict] = []
        self.done: Optional[dict] = None
        self.setup_s: Optional[float] = None
        child = Child(cmd, stdout=subprocess.PIPE)
        try:
            reader = LineReader(child)
            first = reader.next(SETUP_TIMEOUT_S)
            if first is not None:
                self.setup_s = first["setup_s"]
                while True:
                    rec = reader.next(OP_TIMEOUT_S)
                    if rec is None or rec.get("done"):
                        self.done = rec
                        break
                    self.ops.append(rec)
        finally:
            if self.done is None:
                child.stop()
            child.wait(OP_TIMEOUT_S)
            child.close_pipes()
        self.child = child
        #: A stall, a crash or a missing set-up counts as one failed op.
        self.broken = self.done is None or child.returncode != 0


class AnswerChecker:
    """Expected digest of ``T(s, ?)`` per source, from the reference fixpoint."""

    def __init__(self, edges):
        self.by_source: Dict[int, list] = {}
        for key, value in reference_solve(edges).instance.support("T").items():
            self.by_source.setdefault(key[0], []).append((key, value))
        self._digests: Dict[int, str] = {}

    def ok(self, rec: dict) -> bool:
        s = rec["s"]
        if s not in self._digests:
            self._digests[s] = demanded_digest(self.by_source.get(s, []))
        return rec["digest"] == self._digests[s] and rec["stats"].get("demand_fallbacks") == 0


def run(ctx):
    from run import Outcome

    work = work_dir(ctx.workload, ctx.seed)
    try:
        checker = AnswerChecker(make_edges(ctx.seed, ctx.tiny))
        if ctx.trace:
            spans_path = os.path.join(work, "spans.json")
            streams = [Stream(ctx, 0, ctx.seconds / 2), Stream(ctx, 0, ctx.seconds / 2, spans_path)]
        else:
            streams = []
            for k in range(STREAMS):
                streams.append(Stream(ctx, k, ctx.seconds / STREAMS))
                if streams[-1].broken:
                    break  # a stalled or crashed worker ends the run
        attempted = failed = 0
        good: List[List[dict]] = []
        for st in streams:
            ok = [rec for rec in st.ops if checker.ok(rec)]
            good.append(ok)
            attempted += len(st.ops) + int(st.broken)
            failed += len(st.ops) - len(ok) + int(st.broken)
        # Latencies come from untraced workers only (the first, when tracing).
        lat = [rec["ms"] for ops in (good[:1] if ctx.trace else good) for rec in ops]
        p90 = tail(lat)
        report = [
            f"# point-queries: {len(lat)} queries over {len(streams)} worker processes; "
            f"query_p50_ms={median(lat):.2f}"
            + (f" query_p90_ms={p90:.2f}" if p90 is not None else " (p90: <100 samples)")
        ]
        if not ctx.trace:
            done = [st.done for st in streams if st.done]
            n_ops = sum(len(ops) for ops in good)
            metrics = {
                "setup_s": median([st.setup_s for st in streams if st.setup_s is not None]),
                "p50_ms": median(lat),
                "ops_per_s": n_ops / sum(d["loop_s"] for d in done) if done else 0.0,
                "cpu_ms_per_op": sum(d["cpu_s"] for d in done) / max(1, n_ops) * 1e3,
                "peak_rss_mb": max(st.child.maxrss_mb for st in streams),
            }
            return Outcome(failed == 0, attempted, failed, metrics, report)

        traced = good[1]
        with open(spans_path) as f:
            spans = json.load(f)["spans"]
        path = os.path.join(trace_dir(), f"point-queries-{ctx.seed}.json")
        shutil.copyfile(spans_path, path)
        metrics = layer_metrics(spans, traced)
        metrics["demand.query_p90_ms"] = p90 or 0.0
        solve_ms = [(s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == "engine.solve"]
        metrics["trace.overhead_ms"] = median(solve_ms) - median(lat)
        report.append(f"# traced: {len(traced)} queries; spans in {path}")
        report += span_report(spans)
        return Outcome(failed == 0, attempted, failed, metrics, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(spans: List[dict], ops: List[dict]) -> Dict[str, float]:
    """Per-query medians of the layer spans, the demand stats and the join counters."""
    durations: Dict[str, List[float]] = {}
    for s in spans:
        durations.setdefault(s["name"], []).append((s["end"] - s["start"]) * 1e3)
    counters: Dict[str, List[float]] = {}
    for rec in ops:
        for name, value in stats_counters(rec["stats"], rec["strata"], rec["derived"]).items():
            counters.setdefault(name, []).append(value)
    metrics = {name: median(values) for name, values in counters.items()}
    metrics.update(
        {
            "guardrails.preflight_ms": median(durations.get("guardrails.preflight", [])),
            "demand.rewrite_ms": median(durations.get("demand.rewrite", [])),
            "engine.solve_ms": median(durations.get("engine.solve", [])),
            "demand.answers": median([rec["answers"] for rec in ops]),
            "demand.magic_tuples": median(
                [rec["stats"].get("demand_magic_tuples", 0) for rec in ops]
            ),
            "demand.fallbacks": sum(rec["stats"].get("demand_fallbacks", 0) for rec in ops),
            "demand.keys_examined_per_answer": median(
                [rec["stats"]["keys_examined"] / rec["answers"] for rec in ops if rec["answers"]]
            ),
            "trace.unattributed_ms": root_self_ms(spans),
        }
    )
    return metrics
