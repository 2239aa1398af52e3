"""Repo benchmark: cold ``datalogo run``, demand point queries, HTTP ``serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload run-analytics --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records
spans around each layer's public functions and reports the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  Metric names and units come from
``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ("run-analytics", "point-queries", "serve-mixed")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool = False


@dataclass
class Outcome:
    """What a workload run returns: op counts, metric values, report lines."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: List[str] = field(default_factory=list)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def render(outcome: Outcome, spec: dict, trace: bool) -> dict:
    """The result object: exactly the declared metrics, each with its unit.

    Every end-to-end metric must be measured.  A per-layer metric a
    workload does not measure belongs to a layer it bypasses: it reads 0.
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing and not trace:
        raise RuntimeError(f"workload did not measure {missing}")
    return {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m["name"]: {"value": outcome.metrics.get(m["name"], 0), "unit": m["unit"]}
            for m in declared
        },
    }


def run_workload(ctx: Context) -> Outcome:
    if ctx.workload == "run-analytics":
        import workload_run as module
    elif ctx.workload == "point-queries":
        import workload_query as module
    else:
        import workload_serve as module
    return module.run(ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes (the benchmark's own tests)"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    spec = load_spec()
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    outcome = run_workload(ctx)
    result = render(outcome, spec, ctx.trace)
    for line in outcome.report:
        print(line)
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"# failed_frac = {frac:.6f} ratio ({outcome.failed}/{outcome.attempted})")
    for name, metric in result["metrics"].items():
        note = "" if name in outcome.metrics else "  (layer bypassed)"
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
