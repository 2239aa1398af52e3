"""Traced stand-in for one ``python -m repro run ... --output json`` process.

Usage (stdout receives the same JSON document the CLI prints)::

    python perfbench/traced_cli.py PROGRAM.dl EDB.json SPANS.json > out.json

It calls the public functions ``repro.cli.cmd_run`` calls, in the same
order and with the same arguments, and records a span around each call.
Spans, the solve's counters and the import footprint go to SPANS.json
when the run ends.
"""

import sys
import time

_spans = []


def _span(name, start, end, parent=None):
    _spans.append(
        {"id": len(_spans), "name": name, "parent": parent, "op": None, "start": start, "end": end}
    )
    return len(_spans) - 1


def main(program_path: str, edb_path: str, spans_path: str) -> int:
    before = set(sys.modules)
    t0 = time.perf_counter()
    import repro.cli as cli

    t1 = time.perf_counter()
    _span("cli.import", t0, t1)
    modules_imported = len(set(sys.modules) - before)
    numpy_loaded = "numpy" in sys.modules
    import json

    args = cli.build_parser().parse_args(
        ["run", program_path, "--pops", "trop", "--edb", edb_path,
         "--method", "seminaive", "--output", "json"]
    )
    pops = cli.resolve_pops(args.pops)
    t2 = time.perf_counter()
    _span("cli.args", t1, t2)
    with open(args.program) as f:
        program = cli.parse_program(f.read())
    t3 = time.perf_counter()
    _span("parser.parse", t2, t3)
    database = cli.load_database(args.edb, pops)
    t4 = time.perf_counter()
    _span("io.load_edb", t3, t4)
    result = cli.solve(
        program,
        database,
        method=args.method,
        max_iterations=args.max_iterations,
        plan=args.plan,
        schedule=args.schedule,
        engine=args.engine,
        engine_workers=args.workers,
        max_wall_s=args.budget_wall_s,
        max_tuples=args.budget_tuples,
        preflight=args.preflight,
        query=args.query,
    )
    t5 = time.perf_counter()
    _span("engine.solve", t4, t5)
    from repro.core.io import instance_to_dict

    instance = instance_to_dict(result.instance)
    t6 = time.perf_counter()
    payload = {"steps": result.steps, "pops": pops.name, "instance": instance}
    if result.verdict is not None:
        payload["verdict"] = result.verdict.as_dict()
    text = json.dumps(payload, indent=2, ensure_ascii=False)
    t7 = time.perf_counter()
    encode = _span("io.encode", t5, t7)
    _span("io.instance_to_dict", t5, t6, parent=encode)
    _span("io.json_dumps", t6, t7, parent=encode)
    print(text)
    sys.stdout.flush()
    t8 = time.perf_counter()
    _span("cli.print", t7, t8)
    derived = sum(len(result.instance.support(rel)) for rel in result.instance.relations())
    with open(spans_path, "w") as f:
        json.dump(
            {
                "spans": _spans,
                "stats": {k: v for k, v in result.stats.items() if isinstance(v, (int, float))},
                "strata": len(result.strata or ()),
                "derived": derived,
                "modules_imported": modules_imported,
                "numpy_loaded": numpy_loaded,
                "output_bytes": len(text.encode("utf-8")) + 1,
            },
            f,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
