"""The process that runs the point-queries loop (one closed-loop caller).

Usage::

    python perfbench/query_worker.py --seed S --stream K --seconds T [--spans PATH] [--tiny]

It builds the ``Database`` from the seeded edges, runs one untimed query
(``setup_s``), then calls ``solve(prog, db, method="seminaive",
query=("T", (s, None)))`` for ``T`` seconds, with sources ``s`` drawn
uniformly from nodes with out-edges, stratified by reach.  Each op is
one JSON line on stdout; the parent checks the answers' digests.  With ``--spans``
every op also calls ``preflight`` and ``demand_rewrite`` first, as
child spans, and the spans are written to PATH at the end.
"""

import argparse
import json
import random
import sys
import time

from common import Tracer, demanded_digest, make_edges

#: Reach-size classes the query sources are drawn from in turn.
CLASSES = 10


def reach_classes(edges, sources):
    """``sources`` split into equal-size classes by how many nodes each reaches.

    Drawing from the classes in turn keeps the marginal uniform over
    sources while giving every run the same mix of small and hub cones.
    """
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    reach = {}
    for s in sources:
        seen, stack = {s}, [s]
        while stack:
            for nxt in succ.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[s] = len(seen)
    ordered = sorted(sources, key=lambda s: (reach[s], s))
    n = len(ordered)
    return [ordered[i * n // CLASSES:(i + 1) * n // CLASSES] for i in range(CLASSES)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    from repro import core
    from repro.core import parse_program
    from repro.core.demand import demand_rewrite
    from repro.core.guardrails import preflight
    from repro.semirings import TROP

    from common import GA_PROGRAM

    edges = make_edges(args.seed, args.tiny)
    program = parse_program(GA_PROGRAM)
    classes = reach_classes(edges, sorted({a for a, _b in edges}))
    rng = random.Random(f"queries/{args.seed}/{args.stream}")
    tracer = Tracer() if args.spans else None

    def emit(record) -> None:
        sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()

    t0 = time.perf_counter()
    db = core.Database(pops=TROP, relations={"E": dict(edges)})
    core.solve(program, db, method="seminaive", query=("T", (rng.choice(classes[0]), None)))
    emit({"setup_s": time.perf_counter() - t0})

    i = 0
    cpu0 = time.process_time()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        s = rng.choice(classes[i % CLASSES])
        query = ("T", (s, None))
        if tracer is None:
            t = time.perf_counter()
            result = core.solve(program, db, method="seminaive", query=query)
            ms = (time.perf_counter() - t) * 1e3
        else:
            with tracer.span("op", op=i) as op:
                with tracer.span("guardrails.preflight"):
                    preflight(program, db)
                with tracer.span("demand.rewrite"):
                    demand_rewrite(program, query, db)
                with tracer.span("engine.solve"):
                    result = core.solve(program, db, method="seminaive", query=query)
            ms = (op["end"] - op["start"]) * 1e3
        support = result.instance.support("T")
        answers = [(k, v) for k, v in support.items() if k[0] == s]
        stats = {k: v for k, v in result.stats.items() if isinstance(v, (int, float))}
        emit(
            {
                "i": i,
                "s": s,
                "ms": ms,
                "digest": demanded_digest(answers),
                "answers": len(answers),
                "strata": len(result.strata or ()),
                "derived": sum(len(result.instance.support(r)) for r in result.instance.relations()),
                "stats": stats,
            }
        )
        i += 1
    emit({"done": True, "loop_s": time.perf_counter() - start, "cpu_s": time.process_time() - cpu0})
    if tracer is not None:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
