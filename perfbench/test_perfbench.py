"""The benchmark's own tests, at tiny input sizes.

Run from the checkout root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import common  # noqa: E402
import run as bench  # noqa: E402
import workload_run  # noqa: E402
import workload_serve  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
with open(os.path.join(BENCH_DIR, "recipe.json")) as _f:
    RECIPE = json.load(_f)


def _bench(workload: str, trace: int, seconds: float = 1.0, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    out = _bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        printed = [line for line in lines if line.startswith(f"# {m['name']} = ")]
        assert len(printed) == 1 and f" {m['unit']}" in printed[0], m["name"]
        bypassed = printed[0].endswith("(layer bypassed)")
        assert bypassed == (trace and m["name"] not in RECIPE["workloads"][workload]["layers"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_cli_answer_is_counted(monkeypatch):
    real = workload_run.run_child

    def corrupting(cmd, stdout_path, timeout):
        child = real(cmd, stdout_path, timeout)
        if "run" in cmd and corrupting.calls == 1:
            with open(stdout_path) as f:
                payload = json.load(f)
            payload["instance"]["T"][0][1] += 1.0  # one changed value
            with open(stdout_path, "w") as f:
                json.dump(payload, f, indent=2)
        corrupting.calls += "run" in cmd
        return child

    corrupting.calls = 0
    monkeypatch.setattr(workload_run, "run_child", corrupting)
    ctx = bench.Context("run-analytics", seed=3, seconds=1.0, trace=False, tiny=True)
    outcome = workload_run.run(ctx)
    assert corrupting.calls >= 2  # at least one good and one corrupted process
    assert outcome.failed == 1 and not outcome.correct
    assert outcome.attempted == corrupting.calls + workload_run.SETUP_SAMPLES


def test_dead_server_ends_the_run(tmp_path, monkeypatch):
    ctx = bench.Context("serve-mixed", seed=3, seconds=1.0, trace=False, tiny=True)
    edges = common.make_edges(3, tiny=True)
    program_path, edb_path = common.write_inputs(str(tmp_path), edges)
    server = workload_serve.Server(str(tmp_path), "t", program_path, edb_path)
    real = workload_serve.http_request
    calls = itertools.count()

    def killing(kind, key, mutation):
        if next(calls) == 10:
            os.kill(server.child.proc.pid, signal.SIGKILL)
        return real(kind, key, mutation)

    monkeypatch.setattr(workload_serve, "http_request", killing)
    try:
        assert server.setup_s is not None
        load, _streams = workload_serve.http_load(ctx, server, edges, ctx.seconds)
    finally:
        server.stop()
    planned = workload_serve.CLIENTS * workload_serve.cycles_for(ctx.seconds) * workload_serve.CYCLE
    assert load.abort.is_set()
    assert load.attempted == planned
    assert load.ok_ops() <= 11 and load.failed == planned - load.ok_ops()
    assert load.elapsed < 10


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_spans_nest(workload):
    out = _bench(workload, trace=1)
    assert out.returncode == 0, out.stderr
    with open(os.path.join(common.trace_dir(), f"{workload}-3.json")) as f:
        spans = json.load(f)["spans"]
    assert spans
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], s["name"]
            assert parent["op"] == s["op"]
    assert all(t >= 0 for t in common.self_times(spans).values())


def test_self_time_subtracts_covered_children():
    spans = [
        {"id": 0, "name": "op", "parent": None, "op": 0, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "op": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "op": 0, "start": 3.0, "end": 6.0},
    ]
    assert common.self_times(spans) == {0: 5.0, 1: 3.0, 2: 3.0}


def test_program_text_is_graph_analytics():
    from repro import programs
    from repro.core import parse_program

    assert str(parse_program(common.GA_PROGRAM)) == str(programs.graph_analytics())


def test_same_seed_same_inputs():
    assert common.make_edges(5, tiny=True) == common.make_edges(5, tiny=True)
    assert common.make_edges(5, tiny=True) != common.make_edges(6, tiny=True)


def test_recipe_maps_every_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    mapped = {name for w in RECIPE["workloads"].values() for name in w["layers"]}
    assert mapped <= names
    assert set(RECIPE["layer_map"]) == names
    assert set(RECIPE["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert {"n", "m", "alpha", "shape_seed"} <= set(RECIPE["inputs"])
    assert RECIPE["inputs"]["n"] == common.FULL_SIZE["n"]
    assert RECIPE["inputs"]["m"] == common.FULL_SIZE["m"]
    assert RECIPE["inputs"]["alpha"] == common.ALPHA
    assert RECIPE["inputs"]["shape_seed"] == common.SHAPE_SEED


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("run-analytics", trace=0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert "correct" not in out.stdout
