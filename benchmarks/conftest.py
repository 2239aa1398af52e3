"""Shared helpers for the experiment benchmarks.

Every benchmark module reproduces one table/figure of the paper
(experiment ids E1–E16, see DESIGN.md).  Benchmarks both *assert* the
reproduced rows (so `--benchmark-only` runs double as verification) and
print the table for EXPERIMENTS.md; run with ``-s`` to see the tables.

``--json PATH`` writes a machine-readable perf **trajectory**: the file
accumulates one run record per invocation (git SHA, timestamp, wall
times, :class:`~repro.core.indexes.JoinStats` snapshots) instead of
overwriting a single snapshot, so wall-time history survives across
PRs; the CI join-core regression gate diffs the *latest* run against
``benchmarks/baselines/``.  ``--schedule-json PATH`` does the same for
the stratum scheduler's counters (per-stratum iterations and rule
applications).  ``--json-sha`` / ``--json-timestamp`` pin the run
metadata (CI passes the commit SHA; the timestamp is passed in rather
than sampled so baseline artifacts are reproducible).

Benchmarks opt in through the ``joincore_log`` / ``schedule_log``
fixtures::

    def test_e12_…(benchmark, joincore_log, schedule_log):
        result = …
        joincore_log.record("e12/sssp-line/indexed", wall, result.stats)
        schedule_log.record("e12/layered/scc", wall, result)
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Sequence

import pytest


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help=(
            "run the benchmarks at tiny smoke sizes: the CI "
            "benchmark-smoke job uses this to catch perf/correctness "
            "regressions fast (combine with --benchmark-disable)"
        ),
    )
    try:
        parser.addoption(
            "--json",
            action="store",
            default=None,
            metavar="PATH",
            help=(
                "append one run record (sha, timestamp, wall times, "
                "JoinStats snapshots) to the perf trajectory at PATH "
                "(e.g. BENCH_joincore.json); the CI join-core "
                "regression step diffs the latest run against "
                "benchmarks/baselines/"
            ),
        )
    except ValueError:
        # A third-party plugin (e.g. pytest-json) already owns --json;
        # its value is reused via getoption, so the knob keeps working.
        pass
    parser.addoption(
        "--schedule-json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "append the stratum scheduler's per-stratum iteration and "
            "rule-application counters to the trajectory at PATH "
            "(e.g. BENCH_schedule.json)"
        ),
    )
    parser.addoption(
        "--sharded-json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "append the sharded engine's scaling walls and exchange "
            "counters to the trajectory at PATH "
            "(e.g. BENCH_sharded.json)"
        ),
    )
    parser.addoption(
        "--robust-json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "append the robustness scenarios' recovery walls and "
            "self-healing counters to the trajectory at PATH "
            "(e.g. BENCH_robust.json)"
        ),
    )
    parser.addoption(
        "--serve-json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "append the serve/incremental scenarios' sustained qps, "
            "latency and recovery counters to the trajectory at PATH "
            "(e.g. BENCH_serve.json)"
        ),
    )
    parser.addoption(
        "--magic-json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "append the demand path's demanded-vs-full work counters "
            "and reduction ratios to the trajectory at PATH "
            "(e.g. BENCH_magic.json)"
        ),
    )
    parser.addoption(
        "--json-sha",
        action="store",
        default=None,
        metavar="SHA",
        help="git SHA recorded on the run (defaults to `git rev-parse`)",
    )
    parser.addoption(
        "--json-timestamp",
        action="store",
        default=None,
        metavar="TS",
        help=(
            "timestamp recorded on the run (passed in, not sampled, so "
            "checked-in baselines are reproducible; defaults to now, "
            "UTC ISO-8601)"
        ),
    )


@pytest.fixture
def quick(request) -> bool:
    """Whether the run asked for tiny smoke sizes (``--quick``)."""
    return bool(request.config.getoption("--quick", default=False))


def sized(quick: bool, full, small):
    """Pick the smoke-size parameter when ``--quick`` is on."""
    return small if quick else full


class JoinCoreLog:
    """Collects per-benchmark join-core measurements for ``--json``.

    Records survive in ``config._joincore_records`` until session end;
    without ``--json`` the recorder still works (so benchmarks need no
    conditionals) but nothing is written.
    """

    #: The stats keys the regression gate tracks (must be a subset of
    #: ``JoinStats.snapshot()`` / ``EvalStats.snapshot()`` keys).
    #: ``iterations`` and ``rule_applications`` gate the fixpoint
    #: scheduler: regressions in total iteration or rule-application
    #: counts fail CI exactly like join-core regressions.
    #: ``rules_skipped`` / ``kernel_cache_hits`` / ``batch_joins`` gate
    #: the batched engine as *floors* (see
    #: ``check_joincore_regression.py``): a drop means delta-driven
    #: activation, kernel reuse or whole-batch execution silently
    #: stopped working.
    GATED = (
        "keys_examined",
        "fallback_candidates",
        "iterations",
        "rule_applications",
        "rules_skipped",
        "kernel_cache_hits",
        "batch_joins",
    )

    def __init__(self, records: List[Dict]):
        self._records = records

    def record(
        self, name: str, wall_s: float, stats: Optional[Dict[str, int]] = None
    ) -> None:
        """Add one measurement (idempotent per name: last write wins)."""
        entry = {
            "name": name,
            "wall_s": round(float(wall_s), 6),
            "stats": {
                k: int(v)
                for k, v in (stats or {}).items()
                if isinstance(v, (int, float))
            },
        }
        for i, existing in enumerate(self._records):
            if existing["name"] == name:
                self._records[i] = entry
                return
        self._records.append(entry)

    def timed(self, name: str, fn, stats_from=None, rounds: int = 1):
        """Run ``fn``, record its wall time and stats, return its result.

        ``stats_from`` maps the result to a stats dict; by default the
        result's ``stats`` attribute (an ``EvaluationResult``) or the
        result itself when it is a dict.  ``rounds > 1`` re-runs ``fn``
        and records the **best** wall time (single-shot walls on shared
        runners are noise; counters are deterministic, so the last
        round's stats stand for all of them).
        """
        result = None
        wall = float("inf")
        for _ in range(max(1, rounds)):
            start = time.perf_counter()
            result = fn()
            wall = min(wall, time.perf_counter() - start)
        if stats_from is not None:
            stats = stats_from(result)
        elif hasattr(result, "stats"):
            stats = result.stats
        elif isinstance(result, dict):
            stats = result
        else:
            stats = {}
        self.record(name, wall, stats)
        return result


class ScheduleLog(JoinCoreLog):
    """Collects the stratum scheduler's counters for ``--schedule-json``.

    Each record carries the gated totals (fixpoint ``iterations``,
    ``rule_applications``) in ``stats`` — so the same regression
    checker gates both artifacts — plus the per-stratum breakdown
    under ``strata``.
    """

    GATED = ("iterations", "rule_applications", "rules_skipped")

    def record_result(self, name: str, wall_s: float, result) -> None:
        """Record an SCC-scheduled ``EvaluationResult`` with strata."""
        self.record(name, wall_s, result.stats)
        for entry in self._records:
            if entry["name"] == name:
                entry["strata"] = [r.as_dict() for r in result.strata]
                return


class ShardedLog(JoinCoreLog):
    """Collects the sharded engine's measurements for ``--sharded-json``.

    ``exchange_tuples`` / ``exchange_rounds`` gate as *floors*: a drop
    to zero means the delta-shipping exchange silently stopped running
    (e.g. the pool fell back to single-process); ``valuations`` gates
    the usual way, catching work blow-ups.
    """

    GATED = (
        "iterations",
        "valuations",
        "exchange_rounds",
        "exchange_tuples",
    )


class RobustLog(JoinCoreLog):
    """Collects the robustness scenarios' counters for ``--robust-json``.

    The self-healing counters (``shard_restarts``, ``crc_retransmits``,
    ``shard_demotions``, ``shard_fallbacks``, ``shard_stall_fallbacks``)
    and the budget scenario's ``budget_trips`` / ``partial_tuples``
    gate as *floors*: each scenario injects a deterministic fault (or
    arms a budget) expressly to drive one recovery path, so a counter
    dropping to zero means that path silently stopped being exercised
    — the recovery machinery could rot without any test noticing.
    ``iterations`` gates the usual way (the happy-path fixpoint must
    not grow).
    """

    GATED = (
        "iterations",
        "shard_restarts",
        "crc_retransmits",
        "shard_demotions",
        "shard_fallbacks",
        "shard_stall_fallbacks",
        "budget_trips",
        "partial_tuples",
    )


class ServeLog(JoinCoreLog):
    """Collects the serve scenarios' counters for ``--serve-json``.

    ``qps`` is the mixed read/write workload's sustained throughput
    (gated as a floor with a loose tolerance — CI runners are noisy,
    but an order-of-magnitude collapse must fail).  The deterministic
    counters gate as exact floors: ``cache_hits`` (memoization),
    ``dred_deletions`` (the pure-DRed deletion path),
    ``incremental_fallbacks`` (the budgeted escape hatch, driven by
    the THREE scenario), ``journal_replays`` / ``checkpoint_writes``
    / ``recoveries`` (the crash-recovery path) — any of them dropping
    to zero means that serve subsystem silently stopped being
    exercised.  ``p99_us`` and recovery walls are recorded for the
    trajectory charts but not hard-gated (single-shot latency on
    shared runners is noise).
    """

    GATED = (
        "qps",
        "cache_hits",
        "dred_deletions",
        "incremental_fallbacks",
        "journal_replays",
        "checkpoint_writes",
        "recoveries",
    )


class MagicLog(JoinCoreLog):
    """Collects the demand path's measurements for ``--magic-json``.

    The ``…/reduction`` record carries the headline ratios —
    ``rule_app_reduction_x`` and ``keys_reduction_x``, full-fixpoint
    work over demanded work — gated as *floors*: the demand path
    exists to do proportionally less work than full evaluation, so a
    ratio collapsing means the magic rewrite or the SCC-roots pruning
    silently stopped restricting.  ``demanded_atoms`` is a floor too
    (the query must keep producing its answers).  The per-run counters
    (``iterations``, ``rule_applications``, ``keys_examined``,
    ``demand_fallbacks``) gate the usual lower-is-better way — a
    supported workload starting to fall back to full evaluation shows
    up as ``demand_fallbacks`` rising off its 0 baseline.
    """

    GATED = (
        "iterations",
        "rule_applications",
        "keys_examined",
        "demand_fallbacks",
        "rule_app_reduction_x",
        "keys_reduction_x",
        "demanded_atoms",
    )


@pytest.fixture
def magic_log(request) -> MagicLog:
    """Session-wide recorder behind the ``--magic-json`` knob."""
    records = getattr(request.config, "_magic_records", None)
    if records is None:
        records = []
        request.config._magic_records = records
    return MagicLog(records)


@pytest.fixture
def serve_log(request) -> ServeLog:
    """Session-wide recorder behind the ``--serve-json`` knob."""
    records = getattr(request.config, "_serve_records", None)
    if records is None:
        records = []
        request.config._serve_records = records
    return ServeLog(records)


@pytest.fixture
def robust_log(request) -> RobustLog:
    """Session-wide recorder behind the ``--robust-json`` knob."""
    records = getattr(request.config, "_robust_records", None)
    if records is None:
        records = []
        request.config._robust_records = records
    return RobustLog(records)


@pytest.fixture
def sharded_log(request) -> ShardedLog:
    """Session-wide recorder behind the ``--sharded-json`` knob."""
    records = getattr(request.config, "_sharded_records", None)
    if records is None:
        records = []
        request.config._sharded_records = records
    return ShardedLog(records)


@pytest.fixture
def joincore_log(request) -> JoinCoreLog:
    """Session-wide recorder behind the ``--json`` knob."""
    records = getattr(request.config, "_joincore_records", None)
    if records is None:
        records = []
        request.config._joincore_records = records
    return JoinCoreLog(records)


@pytest.fixture
def schedule_log(request) -> ScheduleLog:
    """Session-wide recorder behind the ``--schedule-json`` knob."""
    records = getattr(request.config, "_schedule_records", None)
    if records is None:
        records = []
        request.config._schedule_records = records
    return ScheduleLog(records)


def _run_meta(config) -> Dict[str, str]:
    sha = config.getoption("--json-sha", default=None)
    if not sha:
        try:
            sha = (
                subprocess.check_output(
                    ["git", "rev-parse", "--short", "HEAD"],
                    cwd=os.path.dirname(os.path.abspath(__file__)),
                    stderr=subprocess.DEVNULL,
                )
                .decode()
                .strip()
            )
        except Exception:
            sha = "unknown"
    timestamp = config.getoption("--json-timestamp", default=None)
    if not timestamp:
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return {"sha": sha, "timestamp": timestamp}


def _append_trajectory(
    path: str, family: str, run: Dict
) -> None:
    """Append one run to a trajectory file (creating or upgrading it).

    A ``<family>/1`` single-snapshot artifact (the pre-trajectory
    format) is upgraded in place: its benchmarks become the first run,
    with unknown metadata.
    """
    runs: List[Dict] = []
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
        schema = payload.get("schema", "")
        if schema == f"{family}/2":
            runs = payload.get("runs", [])
        elif schema == f"{family}/1":
            runs = [
                {
                    "sha": "unknown",
                    "timestamp": "unknown",
                    "quick": payload.get("quick", False),
                    "gated_stats": payload.get("gated_stats", []),
                    "benchmarks": payload.get("benchmarks", []),
                }
            ]
        else:
            raise SystemExit(
                f"{path}: refusing to append to non-{family} artifact "
                f"(schema {schema!r})"
            )
    runs.append(run)
    with open(path, "w") as handle:
        json.dump(
            {"schema": f"{family}/2", "runs": runs},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")


def pytest_sessionfinish(session, exitstatus) -> None:
    config = session.config
    meta = None
    for option, attr, family, gated in (
        ("--json", "_joincore_records", "joincore-bench", JoinCoreLog.GATED),
        (
            "--schedule-json",
            "_schedule_records",
            "schedule-bench",
            ScheduleLog.GATED,
        ),
        (
            "--sharded-json",
            "_sharded_records",
            "sharded-bench",
            ShardedLog.GATED,
        ),
        (
            "--robust-json",
            "_robust_records",
            "robust-bench",
            RobustLog.GATED,
        ),
        (
            "--serve-json",
            "_serve_records",
            "serve-bench",
            ServeLog.GATED,
        ),
        (
            "--magic-json",
            "_magic_records",
            "magic-bench",
            MagicLog.GATED,
        ),
    ):
        path = config.getoption(option, default=None)
        if not path:
            continue
        if meta is None:
            meta = _run_meta(config)
        records = getattr(config, attr, [])
        run = {
            "sha": meta["sha"],
            "timestamp": meta["timestamp"],
            "quick": bool(config.getoption("--quick", default=False)),
            "gated_stats": list(gated),
            "benchmarks": sorted(records, key=lambda r: r["name"]),
        }
        _append_trajectory(path, family, run)


def emit_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print an aligned table (visible with pytest -s)."""
    rows = [tuple(str(c) for c in row) for row in rows]
    headers = tuple(str(h) for h in headers)
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    print(f"\n── {title} " + "─" * max(0, 60 - len(title)))
    print("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
