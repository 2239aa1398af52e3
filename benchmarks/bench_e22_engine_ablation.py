"""E22 (ablation) — the engine's sparse-evaluation design choices.

DESIGN.md calls out two engine decisions worth ablating:

1. **Head totalization** — over naturally ordered semirings the engine
   skips materializing every ground head atom (absent ⇔ 0); forcing
   ``total_heads=True`` recovers the formal semantics verbatim at a
   measurable cost, with identical results.
2. **Guard-driven enumeration vs grounding-first** — the rule-at-a-time
   sparse engine against the definitional grounded-system iteration
   (which materializes all provenance polynomials up front).

3. **The execution pipelines** — the interpreted (re-planned
   generator) pipeline, kept as the differential oracle, vs the
   batched columnar executor (``engine="batched"``, the default), same
   fixpoints by construction; the per-engine wall times are recorded
   side by side into the joincore trajectory so the batched speedup is
   gated longitudinally.

All halves assert result equality, so this doubles as a semantics
check of the optimizations.
"""

from __future__ import annotations

import time

from conftest import emit_table, sized

from repro import core, programs, workloads
from repro.core import NaiveEvaluator, ground_program
from repro.semirings import TROP


def _db(n=14, p=0.18, seed=3):
    edges = workloads.random_weighted_digraph(n, p, seed=seed)
    return core.Database(pops=TROP, relations={"E": dict(edges)})


def test_e22_head_totalization_ablation(benchmark):
    db = _db()
    prog = programs.apsp()

    def run_both():
        sparse = NaiveEvaluator(prog, db, total_heads=False)
        sparse_result = sparse.run()
        total = NaiveEvaluator(prog, db, total_heads=True)
        total_result = total.run()
        assert total_result.instance.equals(sparse_result.instance)
        return (
            sparse.stats.products,
            total.stats.products,
            sparse_result.instance.size(),
        )

    sparse_products, total_products, atoms = benchmark(run_both)
    emit_table(
        "E22a: head totalization ablation (APSP, 14 nodes, Trop+)",
        ("variant", "product evals", "derived atoms"),
        [
            ("sparse heads (default)", sparse_products, atoms),
            ("total heads (formal semantics)", total_products, atoms),
        ],
    )
    # Totalization costs nothing extra in products (it only seeds
    # zeros), but the equality check confirms the semantics agree;
    # the real cost is in the accumulator size, asserted implicitly.
    assert sparse_products == total_products


def test_e22_sparse_vs_grounded_pipeline(benchmark):
    db = _db()
    prog = programs.apsp()

    def run_both():
        t0 = time.perf_counter()
        engine = core.solve(prog, db, method="naive")
        t_engine = time.perf_counter() - t0
        t0 = time.perf_counter()
        system = ground_program(prog, db)
        grounded = system.kleene()
        t_grounded = time.perf_counter() - t0
        inst = core.assignment_to_instance(system, grounded.value)
        assert inst.equals(engine.instance)
        return t_engine, t_grounded, system.size()

    t_engine, t_grounded, monomials = benchmark.pedantic(
        run_both, rounds=3, iterations=1
    )
    emit_table(
        "E22b: sparse engine vs grounding-first (APSP, 14 nodes)",
        ("pipeline", "seconds", "materialized monomials"),
        [
            ("rule-at-a-time engine", f"{t_engine:.3f}", "—"),
            ("ground + Kleene", f"{t_grounded:.3f}", monomials),
        ],
    )
    assert monomials > 0


_ENGINES = ("interpreted", "batched")


def test_e22_engine_pipeline_ablation(benchmark, quick, joincore_log):
    """Interpreted oracle vs batched columnar kernels.

    One APSP workload, two execution pipelines, identical fixpoints.
    Each (method, engine) wall time is recorded under
    ``e22/apsp(n)-{method}/{engine}`` so the trajectory plots render the
    per-engine series side by side and the regression gate watches the
    batched records' ``batch_joins`` floor.  At full size the batched
    kernels must beat the interpreted pipeline's wall time on both
    fixpoint engines (the acceptance gate); at smoke sizes the ratios
    are noise (per-solve setup amortizes over real work), so only
    result equality is asserted.
    """
    n = sized(quick, 20, 10)
    p = sized(quick, 0.22, 0.3)
    edges = workloads.random_weighted_digraph(n, p, seed=3)
    db = core.Database(pops=TROP, relations={"E": dict(edges)})
    prog = programs.apsp()

    def run_all():
        rows = []
        for method in ("naive", "seminaive"):
            walls = {}
            results = {}
            for engine in _ENGINES:
                # Best of 3: single-shot walls are noise at these
                # sizes; the counters are deterministic either way.
                walls[engine] = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    result = core.solve(prog, db, method=method, engine=engine)
                    walls[engine] = min(
                        walls[engine], time.perf_counter() - start
                    )
                results[engine] = result
                joincore_log.record(
                    f"e22/apsp({n})-{method}/{engine}",
                    walls[engine],
                    result.stats,
                )
            assert results["batched"].instance.equals(
                results["interpreted"].instance
            )
            assert results["batched"].stats["batch_joins"] > 0
            assert results["batched"].stats["batch_rows"] > 0
            rows.append(
                (
                    method,
                    f"{walls['interpreted'] * 1000:.2f}",
                    f"{walls['batched'] * 1000:.2f}",
                    round(walls["interpreted"] / walls["batched"], 2),
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=3, iterations=1)
    emit_table(
        f"E22c: engine pipelines (APSP, {n} nodes, Trop+) — wall ms",
        ("method", "interpreted", "batched", "batched speedup"),
        rows,
    )
    if not quick:
        # The acceptance gate: the batched kernels beat the interpreted
        # oracle on both fixpoint engines.
        for row in rows:
            assert row[3] >= 1.0, rows
