"""Engine facade: one entry point over every evaluation strategy.

``solve(program, database, method=…)`` dispatches to:

* ``"naive"`` — Algorithm 1, rule-at-a-time (the default);
* ``"seminaive"`` — Algorithm 3 with the differential rule (complete
  distributive dioids only);
* ``"grounded"`` — ground to the provenance-polynomial system
  (Section 4.3) and Kleene-iterate it (the definitional semantics);
* ``"linear"`` — ground, then LinearLFP (Algorithm 2; linear programs
  over a uniformly ``p``-stable POPS).

All strategies return an :class:`~repro.core.naive.EvaluationResult`
over the same :class:`~repro.core.instance.Instance` type, so callers
(and the differential tests) can compare them directly.

The iterative methods additionally take a ``schedule``: by default the
program is evaluated stratum-by-stratum over its SCC condensation
(:mod:`repro.core.scheduler`) — non-recursive predicates leave the
fixpoint loop entirely and lower strata are frozen behind read-only
indexes — while ``schedule="monolithic"`` keeps the seed's
whole-program iteration (required for global trace capture, and the
differential baseline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..semirings.base import FunctionRegistry
from .grounding import assignment_to_instance, ground_program
from .guardrails import Budget, preflight as run_preflight
from .indexes import JoinStats
from .instance import Database
from .kernels import canonical_engine
from .linear import linear_lfp
from .naive import EvaluationResult, naive_fixpoint
from .rules import Program
from .scheduler import VALID_SCHEDULES, scheduled_fixpoint
from .seminaive import seminaive_fixpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .demand import QueryLike


def solve(
    program: Program,
    database: Database,
    method: str = "naive",
    functions: Optional[FunctionRegistry] = None,
    max_iterations: int = 100_000,
    capture_trace: bool = False,
    stability_p: Optional[int] = None,
    plan: str = "indexed",
    schedule: str = "auto",
    engine: str = "auto",
    engine_workers: int = 1,
    max_wall_s: Optional[float] = None,
    max_tuples: Optional[int] = None,
    preflight: str = "auto",
    query: Optional["QueryLike"] = None,
    _demand_roots: Optional[Tuple[str, ...]] = None,
) -> EvaluationResult:
    """Evaluate a datalog° program to its least fixpoint.

    Args:
        program: The datalog° program.
        database: The EDB instance over some POPS.
        method: One of ``naive``, ``seminaive``, ``grounded``,
            ``linear``.
        functions: Interpreted value-space functions (Section 4.5 / 7).
        max_iterations: Divergence guard for the iterative methods.
        capture_trace: Record per-iteration snapshots.
        stability_p: Uniform stability index of the value space,
            required by ``method="linear"``.
        plan: Join strategy for the enumeration core — ``"indexed"``
            (hash-index probes, cost-based join ordering — the
            default), ``"indexed-greedy"`` (the same probe pipeline
            under the one-step greedy ordering, kept for plan-quality
            differentials) or ``"naive"`` (the seed's scan join, the
            differential-testing baseline).  All plans compute the
            same fixpoint; they differ only in join-core work (see
            the ``keys_examined`` statistic).
        schedule: Fixpoint scheduling for ``naive``/``seminaive`` —
            ``"scc"`` condenses the predicate dependency graph and
            runs one fixpoint per SCC with lower strata frozen (see
            :mod:`repro.core.scheduler`); ``"parallel"`` does the same
            but evaluates **independent** components of the
            condensation concurrently on a thread pool (deterministic
            merge order — wide condensations overlap their strata);
            ``"monolithic"`` keeps the seed's whole-program iteration;
            ``"auto"`` (the default) picks ``"scc"`` except when
            ``capture_trace`` asks for the global iteration chain,
            which only the monolithic run produces.  Ignored by
            ``grounded``/``linear`` (grounding is one-shot).  All
            schedules compute the same fixpoint; scheduled runs report
            ``steps`` as the deepest stratum's step count and carry
            per-stratum reports on ``result.strata``.
        engine: Evaluation pipeline for the join core.
            ``"batched"`` executes each (rule, body) plan over whole
            delta batches at once as columnar hash-joins with
            vectorized filter masks and a grouped ⊕-reduction
            (:mod:`repro.core.batched` — stdlib columns with an
            automatic numpy fast path for numeric semirings); each
            kernel is built once per stratum, cached across fixpoint
            iterations, and enables delta-driven rule activation
            (``stats["rules_skipped"]``).  It rejects ``plan="naive"``.
            ``"interpreted"`` keeps the per-application re-planned
            generator pipeline as the byte-for-byte differential
            oracle.  ``"auto"`` (the default) picks ``"batched"`` on
            indexed plans and ``"interpreted"`` on ``plan="naive"``.
            The retired names ``"compiled"`` and ``"codegen"`` are
            deprecated aliases of ``"batched"``: they still run, with
            one :class:`DeprecationWarning` per call.  Both engines
            compute the same fixpoint.
        engine_workers: Shard count for semi-naïve evaluation.  ``> 1``
            hash-partitions every recursive delta across that many
            persistent worker processes (threads on free-threaded
            builds) and runs each iteration as partition-local joins
            plus a delta-shipping repartition exchange
            (:mod:`repro.core.sharded`); the coordinator's
            deterministic merge keeps the fixpoint byte-identical to
            the single-process engines.  Requires
            ``method="seminaive"`` (only semi-naïve has a per-iteration
            delta to shard) and is incompatible with ``capture_trace``.
            Composes with ``engine`` (each worker runs that pipeline)
            and ``schedule`` (each recursive stratum's fixpoint is
            sharded).  Worker faults self-heal through a degradation
            ladder — restart + replay (``stats["shard_restarts"]``),
            pool demotion (``stats["shard_demotions"]``), and only then
            single-process fallback with a warning
            (``stats["shard_fallbacks"]``; stall-origin fallbacks also
            count in ``stats["shard_stall_fallbacks"]``).
        max_wall_s: Wall-clock budget in seconds for the iterative
            methods.  Checked once per iteration and polled inside
            kernel applications; exceeding it raises
            :class:`~repro.core.guardrails.BudgetExceeded` carrying the
            last consistent fixpoint prefix
            (:class:`~repro.core.guardrails.PartialResult`).
        max_tuples: Budget on the total derived-tuple count, enforced
            like ``max_wall_s``.  Both budgets require an iterative
            method (``naive``/``seminaive``); ``grounded``/``linear``
            reject them.
        preflight: ``"auto"`` (default) runs the stability/convergence
            pre-flight (:func:`~repro.core.guardrails.preflight`)
            before evaluating and attaches its
            :class:`~repro.core.guardrails.PreflightVerdict` to the
            result (``result.verdict``) and to any ``BudgetExceeded``;
            ``"off"`` skips it.  Advisory only — a ``may-diverge``
            verdict never blocks evaluation.
        query: A demand pattern — ``("T", ("a", None))``, the string
            form ``"T(a,?)"``, or a
            :class:`~repro.core.demand.DemandQuery`.  When the
            fragment verdict supports it (naturally ordered semiring,
            no zero divisors, EDB-only sideways prefixes) the program
            is magic-set-specialized to the query's bound pattern and
            only the demanded part of the fixpoint is evaluated
            (:mod:`repro.core.demand`); otherwise the full fixpoint
            runs with ``stats["demand_fallbacks"]`` counted.  Demanded
            atoms are byte-identical to the full fixpoint either way.
        _demand_roots: Internal — the demand path re-enters ``solve``
            with the rewritten program and the query relation here, so
            the SCC scheduler prunes the condensation to the strata the
            query's adornment reaches.

    Returns:
        The least-fixpoint instance plus step counts and statistics.
    """
    engine = canonical_engine(engine)
    if query is not None:
        from .demand import demand_solve

        return demand_solve(
            program,
            database,
            query,
            method=method,
            functions=functions,
            max_iterations=max_iterations,
            capture_trace=capture_trace,
            stability_p=stability_p,
            plan=plan,
            schedule=schedule,
            engine=engine,
            engine_workers=engine_workers,
            max_wall_s=max_wall_s,
            max_tuples=max_tuples,
            preflight=preflight,
        )
    if schedule not in VALID_SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; valid choices: "
            + ", ".join(VALID_SCHEDULES)
        )
    if engine_workers < 1:
        raise ValueError(f"engine_workers must be ≥ 1, got {engine_workers}")
    if engine_workers > 1:
        if method != "seminaive":
            raise ValueError(
                "engine_workers > 1 shards the semi-naïve delta; "
                f"method={method!r} has none — use method='seminaive'"
            )
        if capture_trace:
            raise ValueError(
                "sharded evaluation keeps no global iteration chain; "
                "use engine_workers=1 with capture_trace"
            )
    if preflight not in ("auto", "off"):
        raise ValueError(
            f"unknown preflight mode {preflight!r}; use 'auto' or 'off'"
        )
    if method in ("grounded", "linear") and (
        max_wall_s is not None or max_tuples is not None
    ):
        raise ValueError(
            "max_wall_s/max_tuples budgets interrupt the iterative "
            f"methods; method={method!r} grounds one-shot — use "
            "method='naive' or 'seminaive'"
        )
    verdict = run_preflight(program, database) if preflight == "auto" else None
    budget: Optional[Budget] = None
    if max_wall_s is not None or max_tuples is not None or verdict is not None:
        budget = Budget(
            max_iterations=max_iterations,
            max_wall_s=max_wall_s,
            max_tuples=max_tuples,
            verdict=verdict,
        )
    if method in ("naive", "seminaive"):
        resolved = schedule
        if schedule == "auto":
            resolved = "monolithic" if capture_trace else "scc"
        if resolved in ("scc", "parallel"):
            if capture_trace:
                raise ValueError(
                    f"schedule={resolved!r} has no global iteration chain "
                    "to trace; use schedule='monolithic' with capture_trace"
                )
            result = scheduled_fixpoint(
                program,
                database,
                method=method,
                functions=functions,
                max_iterations=max_iterations,
                plan=plan,
                engine=engine,
                parallel=resolved == "parallel",
                workers=engine_workers,
                budget=budget,
                roots=_demand_roots,
            )
            result.verdict = verdict
            return result
    if method == "naive":
        result = naive_fixpoint(
            program,
            database,
            functions=functions,
            max_iterations=max_iterations,
            capture_trace=capture_trace,
            plan=plan,
            engine=engine,
            budget=budget,
        )
        result.verdict = verdict
        return result
    if method == "seminaive":
        if engine_workers > 1:
            from .sharded import ShardedSemiNaiveEvaluator

            result = ShardedSemiNaiveEvaluator(
                program,
                database,
                functions=functions,
                max_iterations=max_iterations,
                plan=plan,
                engine=engine,
                workers=engine_workers,
                budget=budget,
            ).run()
        else:
            result = seminaive_fixpoint(
                program,
                database,
                functions=functions,
                max_iterations=max_iterations,
                capture_trace=capture_trace,
                plan=plan,
                engine=engine,
                budget=budget,
            )
        result.verdict = verdict
        return result
    if method == "grounded":
        join_stats = JoinStats()
        system = ground_program(
            program, database, functions=functions, plan=plan,
            stats=join_stats, engine=engine,
        )
        result = system.kleene(
            max_steps=max_iterations, capture_trace=capture_trace
        )
        instance = assignment_to_instance(system, result.value)
        trace = [
            assignment_to_instance(system, snapshot)
            for snapshot in result.trace
        ]
        return EvaluationResult(
            instance=instance,
            steps=result.steps,
            trace=trace,
            stats=join_stats.snapshot(),
            verdict=verdict,
        )
    if method == "linear":
        if stability_p is None:
            raise ValueError("method='linear' requires stability_p")
        join_stats = JoinStats()
        system = ground_program(
            program, database, functions=functions, plan=plan,
            stats=join_stats, engine=engine,
        )
        assignment = linear_lfp(system, stability_p)
        return EvaluationResult(
            instance=assignment_to_instance(system, assignment),
            steps=0,
            trace=[],
            stats=join_stats.snapshot(),
            verdict=verdict,
        )
    raise ValueError(f"unknown method {method!r}")
