"""SCC-stratified fixpoint scheduling (the stratum scheduler).

The paper defines the ICO fixpoint over the *whole* program, and the
monolithic engines run it literally: every iteration re-applies every
rule and refreshes indexes for every relation, even when most
predicates are not mutually recursive.  This module evaluates the
program one **stratum** at a time instead:

1. **Condense** the predicate dependency graph into its SCC DAG
   (:func:`repro.analysis.graphs.condensation`) and order the
   components topologically.
2. **Evaluate per component.**  Every component sees the relations of
   earlier components as **frozen**: their fixpoint values are
   published into a working :class:`~repro.core.instance.Database` as
   ordinary POPS EDB relations, so their (value-carrying) indexes are
   built once and then probed read-only across *every* iteration of
   every later stratum — one shared
   :class:`~repro.core.indexes.IndexManager` carries them across
   strata.  Non-recursive components (singleton SCCs without a
   self-loop) skip the fixpoint loop entirely: one ICO application
   from ``⊥`` *is* their least fixpoint, so their rules apply exactly
   once per run instead of once per global iteration.  Recursive
   components run the ordinary naïve or semi-naïve fixpoint of their
   sub-program.
3. **Merge** the per-stratum instances into the final least fixpoint.

Soundness: the condensation makes the grounded system block-triangular
— component ``k``'s ICO reads only components ``≤ k`` — so Kleene
iteration may be performed block-by-block, each block iterated to its
least fixpoint with the earlier blocks held at theirs.  This is the
same argument the paper applies to stratified multi-space programs
(Section 4.5) and :mod:`repro.negation.stratified` applies to
negation; here it is applied *inside* a single program purely for
performance.  Every stratum evaluator is pinned to the **whole
program's** domain (active domain plus all constants), so head
totalization over ``GA(τ, D₀)`` and fallback enumeration behave
byte-for-byte like the monolithic run; ``schedule="monolithic"``
(:func:`repro.core.engine.solve`) keeps the seed whole-program
fixpoint as the differential baseline.

A pleasant corollary: under SCC scheduling the semi-naïve engine
accepts programs whose *lower strata* appear under interpreted
functions or repeated occurrences — frozen relations are constants to
the differential rule, so affinity is only required of a body in its
own component's relations.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..semirings.base import FunctionRegistry
from .guardrails import Budget, BudgetExceeded, PartialResult
from .indexes import IndexManager
from .instance import Database, Instance
from .naive import EvalStats, EvaluationResult, NaiveEvaluator
from .rules import Program, Rule
from .seminaive import SemiNaiveEvaluator
from .valuations import is_indexed_plan

#: The one source of truth for ``schedule=`` choices — consumed by
#: ``solve()`` validation, the CLI's argparse choices, and the CI
#: engine-matrix docs (``VALID_ENGINES`` lives in :mod:`.kernels`).
VALID_SCHEDULES: Tuple[str, ...] = ("auto", "scc", "parallel", "monolithic")


@dataclass
class StratumReport:
    """Work accounting for one scheduled component.

    ``rule_applications`` is the scheduler's headline number: for a
    non-recursive stratum it equals the stratum's body count (every
    rule applies exactly once); for a recursive stratum it grows with
    the component's own fixpoint depth instead of the global one.
    """

    relations: Tuple[str, ...]
    recursive: bool
    steps: int
    iterations: int
    rule_applications: int
    valuations: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "relations": list(self.relations),
            "recursive": self.recursive,
            "steps": self.steps,
            "iterations": self.iterations,
            "rule_applications": self.rule_applications,
            "valuations": self.valuations,
        }


def _sub_program(program: Program, component: Tuple[str, ...]) -> Program:
    """Restrict a program to one component's rules.

    Only the component's relations stay IDBs; relations of earlier
    components referenced by the bodies are auto-registered as POPS
    EDBs by :class:`~repro.core.rules.Program` validation — exactly the
    frozen reading, since the scheduler publishes their fixpoints into
    the working database before this sub-program runs.  Rule-less IDBs
    (declared but never defined) keep their declaration so head
    totalization covers them.
    """
    rules: List[Rule] = [
        rule for rule in program.rules if rule.head_relation in component
    ]
    return Program(
        rules=rules,
        edbs=dict(program.edbs),
        bool_edbs=dict(program.bool_edbs),
        idbs={rel: program.idbs[rel] for rel in component},
    )


def _evaluate_component(
    sub: Program,
    working: Database,
    recursive: bool,
    method: str,
    functions: Optional[FunctionRegistry],
    max_iterations: int,
    plan: str,
    total_heads: Optional[bool],
    domain: List[Any],
    stats: EvalStats,
    indexes: Optional[IndexManager],
    engine: str,
    workers: int = 1,
    budget: Optional[Budget] = None,
) -> Tuple[Instance, int]:
    """Run one component to its least fixpoint against frozen inputs."""
    pops = working.pops
    if not recursive:
        # One ICO application from ⊥ is the least fixpoint: the
        # component's bodies read only frozen/EDB stores, so the
        # operator is constant — no loop, no convergence check.
        evaluator = NaiveEvaluator(
            sub,
            working,
            functions=functions,
            max_iterations=max_iterations,
            total_heads=total_heads,
            plan=plan,
            domain=domain,
            stats=stats,
            indexes=indexes,
            engine=engine,
            budget=budget,
        )
        stats.iterations += 1
        instance = evaluator.ico(Instance(pops))
        if budget is not None:
            budget.charge_size(instance.size())
        return instance, (0 if instance.size() == 0 else 1)
    if method == "seminaive":
        if workers > 1:
            # Only recursive semi-naïve strata have a per-iteration
            # delta to shard; everything else stays single-process.
            from .sharded import ShardedSemiNaiveEvaluator

            result = ShardedSemiNaiveEvaluator(
                sub,
                working,
                functions=functions,
                max_iterations=max_iterations,
                plan=plan,
                domain=domain,
                stats=stats,
                indexes=indexes,
                engine=engine,
                workers=workers,
                budget=budget,
            ).run()
            return result.instance, result.steps
        result = SemiNaiveEvaluator(
            sub,
            working,
            functions=functions,
            max_iterations=max_iterations,
            plan=plan,
            domain=domain,
            stats=stats,
            indexes=indexes,
            engine=engine,
            budget=budget,
        ).run()
    else:
        result = NaiveEvaluator(
            sub,
            working,
            functions=functions,
            max_iterations=max_iterations,
            total_heads=total_heads,
            plan=plan,
            domain=domain,
            stats=stats,
            indexes=indexes,
            engine=engine,
            budget=budget,
        ).run()
    return result.instance, result.steps


def _restrict_to_roots(components: Any, roots: Tuple[str, ...]) -> Any:
    """Prune a condensation to the components reachable *from* roots.

    "Reachable" runs against the dependency direction: keep every
    component containing a root relation plus, transitively, every
    component it reads (``dependencies``).  Indices are remapped so the
    filtered :class:`~repro.analysis.graphs.Condensation` stays valid
    for both the sequential loop and the parallel readiness DAG.
    """
    from ..analysis.graphs import Condensation  # local: avoids a cycle

    rootset = set(roots)
    needed: set = set()
    stack = [
        i
        for i, comp in enumerate(components.components)
        if rootset.intersection(comp)
    ]
    while stack:
        i = stack.pop()
        if i in needed:
            continue
        needed.add(i)
        stack.extend(components.dependencies[i])
    keep = sorted(needed)
    remap = {old: new for new, old in enumerate(keep)}
    return Condensation(
        components=[components.components[i] for i in keep],
        recursive=[components.recursive[i] for i in keep],
        dependencies=[
            frozenset(remap[j] for j in components.dependencies[i])
            for i in keep
        ],
    )


def scheduled_fixpoint(
    program: Program,
    database: Database,
    method: str = "naive",
    functions: Optional[FunctionRegistry] = None,
    max_iterations: int = 100_000,
    plan: str = "indexed",
    total_heads: Optional[bool] = None,
    engine: str = "auto",
    parallel: bool = False,
    max_workers: Optional[int] = None,
    workers: int = 1,
    budget: Optional[Budget] = None,
    roots: Optional[Tuple[str, ...]] = None,
) -> EvaluationResult:
    """Evaluate a program stratum-by-stratum over its SCC condensation.

    Args:
        program: The datalog° program.
        database: The EDB instance (never mutated; frozen strata
            accumulate in a working copy).
        method: Fixpoint engine for recursive components — ``"naive"``
            or ``"seminaive"``.  Non-recursive components always
            evaluate with a single ICO application.
        functions: Interpreted value-space functions.
        max_iterations: Per-component divergence guard.
        plan: Join strategy, as in the monolithic engines.
        total_heads: Forwarded to the per-stratum evaluators (``None``
            keeps the per-POPS default).
        engine: Join/evaluation pipeline for the per-stratum evaluators
            (``"auto"`` → batched kernels on indexed plans).
        parallel: Evaluate **independent** components of the
            condensation concurrently (see :func:`_parallel_schedule`);
            results and reports keep the deterministic schedule order.
        max_workers: Thread-pool width for ``parallel`` (defaults to
            the CPU count).
        workers: Shard count for recursive semi-naïve strata — ``> 1``
            runs each such stratum's fixpoint on the sharded
            multi-process engine (:mod:`repro.core.sharded`) with its
            delta hash-partitioned across persistent workers.
            Orthogonal to ``parallel`` (which overlaps *independent*
            strata; sharding splits the work *inside* one stratum).
        budget: Optional solve-time :class:`~repro.core.guardrails.Budget`.
            Each stratum evaluator charges its in-flight instance size
            against it; completed strata are committed so the tuple
            budget tracks the union, not the per-stratum maximum.  On
            :class:`~repro.core.guardrails.BudgetExceeded` the partial
            result is enriched with every already-frozen stratum plus
            the interrupted stratum's own partial prefix.
        roots: Optional goal relations.  When given, the condensation
            is pruned to the components those relations live in plus
            their transitive dependencies — strata the goals cannot
            read are never evaluated (the demand path's adornment
            reachability: :mod:`repro.core.demand` passes its query
            relation here).  Relations outside every surviving
            component simply stay empty.

    Returns:
        An :class:`~repro.core.naive.EvaluationResult` whose ``steps``
        is the deepest component's step count, whose ``stats`` carry
        the run's total counters plus ``strata`` /
        ``recursive_strata``, and whose ``strata`` attribute holds one
        :class:`StratumReport` per component in schedule order.
    """
    from ..analysis.graphs import condensation  # local: avoids a cycle

    if method not in ("naive", "seminaive"):
        raise ValueError(
            f"scheduled evaluation supports 'naive'/'seminaive', "
            f"not {method!r}"
        )
    if workers > 1 and method != "seminaive":
        raise ValueError(
            "engine_workers > 1 shards the semi-naïve delta; "
            f"method={method!r} has none — use method='seminaive'"
        )
    pops = database.pops
    components = condensation(program)
    if roots is not None:
        components = _restrict_to_roots(components, roots)
    # The monolithic engines enumerate over the whole program's domain;
    # pinning it here keeps totalized heads and fallback enumeration
    # identical stratum-by-stratum.
    domain: List[Any] = sorted(
        database.active_domain() | program.constants(), key=repr
    )
    if parallel and len(components) > 1:
        return _parallel_schedule(
            program,
            database,
            components,
            domain,
            method=method,
            functions=functions,
            max_iterations=max_iterations,
            plan=plan,
            total_heads=total_heads,
            engine=engine,
            max_workers=max_workers,
            workers=workers,
            budget=budget,
        )
    stats = EvalStats()
    indexes = IndexManager(stats=stats.join) if is_indexed_plan(plan) else None
    # Database.__post_init__ re-copies (freezing keys, dropping ⊥), so
    # the stores can be handed over directly without pre-copying.
    working = Database(
        pops=pops,
        relations=database.relations,
        bool_relations=database.bool_relations,
    )
    combined = Instance(pops)
    reports: List[StratumReport] = []

    for component, recursive in components:
        sub = _sub_program(program, component)
        before = (
            stats.iterations,
            stats.rule_applications,
            stats.valuations,
        )
        try:
            instance, steps = _evaluate_component(
                sub,
                working,
                recursive,
                method,
                functions,
                max_iterations,
                plan,
                total_heads,
                domain,
                stats,
                indexes,
                engine,
                workers,
                budget,
            )
        except BudgetExceeded as exc:
            # Enrich the partial: every frozen stratum is a consistent
            # fixpoint prefix, and the interrupted stratum's own
            # partial (if any) is an under-approximation of its
            # fixpoint — their union is ⊑ the true least fixpoint.
            inner = exc.partial
            inner_steps = 0
            if inner is not None:
                inner_steps = inner.steps
                for rel in component:
                    for key, value in inner.instance.support(rel).items():
                        combined.set(rel, key, value)
            reports.append(
                StratumReport(
                    relations=component,
                    recursive=recursive,
                    steps=inner_steps,
                    iterations=stats.iterations - before[0],
                    rule_applications=stats.rule_applications - before[1],
                    valuations=stats.valuations - before[2],
                )
            )
            snapshot = stats.snapshot()
            snapshot["strata"] = len(reports)
            snapshot["recursive_strata"] = sum(
                1 for r in reports if r.recursive
            )
            exc.partial = PartialResult(
                instance=combined,
                steps=max((r.steps for r in reports), default=0),
                stats=snapshot,
                strata=[r.as_dict() for r in reports],
                delta=inner.delta if inner is not None else None,
                trace=inner.trace if inner is not None else [],
            )
            raise
        reports.append(
            StratumReport(
                relations=component,
                recursive=recursive,
                steps=steps,
                iterations=stats.iterations - before[0],
                rule_applications=stats.rule_applications - before[1],
                valuations=stats.valuations - before[2],
            )
        )
        # Freeze the component: publish its fixpoint as POPS EDB
        # relations for every later stratum (their indexes are built
        # once in the shared manager and reused read-only).
        for rel in component:
            support = dict(instance.support(rel))
            working.relations[rel] = support
            for key, value in support.items():
                combined.set(rel, key, value)
        if budget is not None:
            # Completed strata count permanently toward the tuple
            # budget; the next stratum's in-flight charge rides on top.
            budget.commit_tuples(instance.size())

    snapshot = stats.snapshot()
    snapshot["strata"] = len(reports)
    snapshot["recursive_strata"] = sum(1 for r in reports if r.recursive)
    if workers > 1:
        snapshot["shard_workers"] = workers
    return EvaluationResult(
        instance=combined,
        steps=max((r.steps for r in reports), default=0),
        trace=[],
        stats=snapshot,
        strata=reports,
    )


def _component_inputs(program: Program, component: Tuple[str, ...]) -> frozenset:
    """Every relation name a component's rule bodies may read.

    POPS atoms (including those under interpreted functions), Boolean
    condition atoms and indicator-bracket atoms all count; presence
    filtering against the actual database happens at snapshot time.
    """
    from .ast import And, BoolAtom, Not, Or
    from .rules import FuncFactor, Indicator

    names: set = set()

    def walk_condition(cond) -> None:
        if isinstance(cond, BoolAtom):
            names.add(cond.relation)
        elif isinstance(cond, Not):
            walk_condition(cond.inner)
        elif isinstance(cond, (And, Or)):
            for part in cond.parts:
                walk_condition(part)

    def walk_factor(factor) -> None:
        if isinstance(factor, Indicator):
            walk_condition(factor.condition)
        elif isinstance(factor, FuncFactor):
            for sub in factor.args:
                walk_factor(sub)

    members = set(component)
    for rule in program.rules:
        if rule.head_relation not in members:
            continue
        for body in rule.bodies:
            for atom, _ in body.atoms():
                names.add(atom.relation)
            walk_condition(body.condition)
            for factor in body.factors:
                walk_factor(factor)
    return frozenset(names)


def _parallel_schedule(
    program: Program,
    database: Database,
    components,
    domain: List[Any],
    method: str,
    functions: Optional[FunctionRegistry],
    max_iterations: int,
    plan: str,
    total_heads: Optional[bool],
    engine: str,
    max_workers: Optional[int],
    workers: int = 1,
    budget: Optional[Budget] = None,
) -> EvaluationResult:
    """Evaluate independent condensation branches concurrently.

    The coordinator walks the condensation DAG: a component is
    *ready* once every component it reads from has published its
    fixpoint, and all ready components run simultaneously on a thread
    pool.  Isolation keeps this safe without locks in the hot path:

    * every worker gets its **own** :class:`~repro.core.instance.Database`
      snapshot (built by the coordinator from the already-published
      frozen stores — nobody mutates shared state mid-flight), its own
      :class:`~repro.core.naive.EvalStats` and its own
      :class:`~repro.core.indexes.IndexManager`;
    * publication (and the next snapshot) happens only on the
      coordinator thread, after a worker finishes.

    Results, per-stratum reports and the merged counters are assembled
    in the condensation's deterministic schedule order, so the computed
    fixpoint is identical to the sequential ``schedule="scc"`` run —
    the per-worker index caches trade some cross-stratum index reuse
    (and the adaptive-estimate sharing that rides it) for wall-clock
    overlap on wide condensations.  On GIL builds of CPython the
    overlap is bounded by the interpreter lock; the isolation structure
    is what free-threaded builds need to scale with cores.
    """
    pops = database.pops
    n = len(components.components)
    frozen: Dict[str, Dict] = {}
    results: List[Optional[Tuple[Instance, int, EvalStats]]] = [None] * n
    waiting = {i: set(deps) for i, deps in enumerate(components.dependencies)}
    inputs = [
        _component_inputs(program, comp) for comp in components.components
    ]

    def snapshot_database(i: int) -> Database:
        # Only the relations component ``i``'s bodies actually read:
        # Database construction re-freezes every entry it is handed, so
        # snapshotting the whole store per submission would pay
        # O(database) per component even on chain-shaped condensations.
        needed = inputs[i]
        relations = {
            rel: frozen.get(rel, database.relations.get(rel))
            for rel in needed
            if rel in frozen or rel in database.relations
        }
        bool_relations = {
            rel: database.bool_relations[rel]
            for rel in needed
            if rel in database.bool_relations
        }
        return Database(
            pops=pops,
            relations=relations,
            bool_relations=bool_relations,
        )

    def run_component(i: int, working: Database) -> Tuple[int, Instance, int, EvalStats]:
        sub = _sub_program(program, components.components[i])
        stats = EvalStats()
        indexes = (
            IndexManager(stats=stats.join) if is_indexed_plan(plan) else None
        )
        instance, steps = _evaluate_component(
            sub,
            working,
            components.recursive[i],
            method,
            functions,
            max_iterations,
            plan,
            total_heads,
            domain,
            stats,
            indexes,
            engine,
            workers,
            budget,
        )
        return i, instance, steps, stats

    pool_width = max_workers or os.cpu_count() or 1
    submitted: set = set()
    with concurrent.futures.ThreadPoolExecutor(max_workers=pool_width) as pool:
        futures: Dict[concurrent.futures.Future, int] = {}

        def submit_ready() -> None:
            for i in range(n):
                if i in submitted or waiting[i]:
                    continue
                submitted.add(i)
                futures[pool.submit(run_component, i, snapshot_database(i))] = i

        submit_ready()
        while futures:
            done, _ = concurrent.futures.wait(
                futures, return_when=concurrent.futures.FIRST_COMPLETED
            )
            for future in done:
                i = futures.pop(future)
                try:
                    _i, instance, steps, stats = future.result()
                except BudgetExceeded as exc:
                    for pending in futures:
                        pending.cancel()
                    partial = Instance(pops)
                    for rel, support in frozen.items():
                        for key, value in support.items():
                            partial.set(rel, key, value)
                    inner = exc.partial
                    if inner is not None:
                        for rel in components.components[i]:
                            sup = inner.instance.support(rel)
                            for key, value in sup.items():
                                partial.set(rel, key, value)
                    exc.partial = PartialResult(
                        instance=partial,
                        steps=inner.steps if inner is not None else 0,
                        stats={"parallel_workers": pool_width},
                        strata=[],
                        delta=inner.delta if inner is not None else None,
                        trace=inner.trace if inner is not None else [],
                    )
                    raise
                results[i] = (instance, steps, stats)
                for rel in components.components[i]:
                    frozen[rel] = dict(instance.support(rel))
                if budget is not None:
                    budget.commit_tuples(instance.size())
                for deps in waiting.values():
                    deps.discard(i)
            submit_ready()

    combined = Instance(pops)
    totals = EvalStats()
    reports: List[StratumReport] = []
    for i in range(n):
        instance, steps, stats = results[i]
        totals.merge(stats)
        reports.append(
            StratumReport(
                relations=components.components[i],
                recursive=components.recursive[i],
                steps=steps,
                iterations=stats.iterations,
                rule_applications=stats.rule_applications,
                valuations=stats.valuations,
            )
        )
        for rel in components.components[i]:
            for key, value in instance.support(rel).items():
                combined.set(rel, key, value)

    snapshot = totals.snapshot()
    snapshot["strata"] = len(reports)
    snapshot["recursive_strata"] = sum(1 for r in reports if r.recursive)
    snapshot["parallel_workers"] = pool_width
    if workers > 1:
        snapshot["shard_workers"] = workers
    return EvaluationResult(
        instance=combined,
        steps=max((r.steps for r in reports), default=0),
        trace=[],
        stats=snapshot,
        strata=reports,
    )
