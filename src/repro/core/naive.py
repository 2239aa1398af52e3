"""Naïve evaluation of datalog° (Algorithm 1, Section 4.1).

Start every IDB at ``⊥``, repeatedly apply the immediate consequence
operator (ICO) ``F`` and stop as soon as ``J⁽ᵗ⁺¹⁾ = J⁽ᵗ⁾``; the result
is the least fixpoint (when the iteration converges — over unstable
value spaces it may not, and a step budget raises
:class:`~repro.fixpoint.iteration.DivergenceError`).

The ICO here is evaluated *rule-at-a-time* over sparse finite-support
instances, with guard-driven join enumeration where the value space's
flags make skipping sound (see :mod:`repro.core.valuations`).  Over
POPS that distinguish "absent" (``⊥``) from ``0`` (e.g. ``R⊥``,
``THREE``), head atoms are totalized over ``GA(τ, D₀)`` so that empty
sums yield ``0`` exactly as the formal semantics prescribes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..semirings.base import FunctionRegistry, Value
from .ast import And, BoolAtom, Condition, Not, Or, eval_term
from .batched import build_batched_rule_kernel
from .guardrails import Budget, BudgetExceeded, PartialResult, attach_partial
from .indexes import IndexManager, JoinStats
from .instance import Database, Instance, Key
from .kernels import KernelCache, resolve_engine_mode
from .plan_ir import build_body_plan
from .rules import (
    FuncFactor,
    Indicator,
    Program,
    RelAtom,
    Rule,
    SumProduct,
)
from .valuations import (
    FactorEvaluator,
    body_guards,
    enumerate_matches,
    is_indexed_plan,
    plan_ordering,
    pushable_indicator_conditions,
    refresh_guard_indexes,
)


@dataclass
class EvalStats:
    """Work counters for engine comparisons (experiments E12, E21, E22).

    ``join`` holds the join-core probe/scan counters (see
    :class:`~repro.core.indexes.JoinStats`); its fields are flattened
    into :meth:`snapshot` so benchmarks can read e.g.
    ``stats["keys_examined"]`` — the number of candidate keys the join
    core touched, the metric on which indexed planning must beat the
    seed's scan-per-candidate enumeration.

    ``rule_applications`` counts every evaluation of one rule body (a
    differential variant counts once per occurrence-variant): the
    scheduler's headline metric — SCC scheduling drops it from
    ``#bodies × global-fixpoint depth`` to ``Σ #bodies × per-SCC
    depth``, with non-recursive strata applying exactly once.

    ``rules_skipped`` counts the rule applications the batched engine
    avoided outright via delta-driven activation: a body none of whose
    input relations (IDB atoms *and* Boolean condition stores) were
    touched by the last delta re-uses its cached contribution instead
    of re-joining; a semi-naïve differential variant whose
    delta-occurrence relation received no delta facts is dropped
    before its guards are even built.
    """

    iterations: int = 0
    valuations: int = 0
    products: int = 0
    rule_applications: int = 0
    rules_skipped: int = 0
    join: JoinStats = field(default_factory=JoinStats)

    def merge(self, other: "EvalStats") -> None:
        """Fold another counter set into this one (parallel strata)."""
        self.iterations += other.iterations
        self.valuations += other.valuations
        self.products += other.products
        self.rule_applications += other.rule_applications
        self.rules_skipped += other.rules_skipped
        self.join.merge(other.join)

    def snapshot(self) -> Dict[str, int]:
        out = {
            "iterations": self.iterations,
            "valuations": self.valuations,
            "products": self.products,
            "rule_applications": self.rule_applications,
            "rules_skipped": self.rules_skipped,
        }
        out.update(self.join.snapshot())
        return out


@dataclass
class EvaluationResult:
    """Result of running an evaluation strategy to fixpoint.

    Attributes:
        instance: The least-fixpoint IDB instance.
        steps: Convergence step count ``t`` with ``J⁽ᵗ⁾ = J⁽ᵗ⁺¹⁾``.
            For SCC-scheduled runs this is the *deepest stratum's*
            step count (strata converge independently; there is no
            single global chain).
        trace: Per-iteration snapshots ``[J⁽⁰⁾, J⁽¹⁾, …]`` when captured.
        stats: Work counters.
        strata: Per-stratum
            :class:`~repro.core.scheduler.StratumReport` records when
            the run was SCC-scheduled (empty for monolithic runs).
        verdict: The pre-flight
            :class:`~repro.core.guardrails.PreflightVerdict` when
            ``solve()`` ran its convergence check (``None`` when
            pre-flight was off or the result came from a bare
            evaluator).
    """

    instance: Instance
    steps: int
    trace: List[Instance] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    strata: List = field(default_factory=list)
    verdict: Optional[object] = None


def _relation_equal(pops, current, previous) -> bool:
    """Pointwise equality of two relation supports (stored entries only).

    Instances store only non-``⊥`` values, so equal relations have the
    same key set; a size or key mismatch is an immediate change.
    """
    if len(current) != len(previous):
        return False
    for key, value in current.items():
        old = previous.get(key, _ABSENT)
        if old is _ABSENT or not pops.eq(value, old):
            return False
    return True


_ABSENT = object()


def _condition_bool_relations(cond: Condition, out: set) -> None:
    if isinstance(cond, BoolAtom):
        out.add(cond.relation)
    elif isinstance(cond, Not):
        _condition_bool_relations(cond.inner, out)
    elif isinstance(cond, (And, Or)):
        for part in cond.parts:
            _condition_bool_relations(part, out)


def body_bool_relations(body: SumProduct, database: Database) -> frozenset:
    """Boolean stores a body reads: condition atoms, indicator brackets
    and Boolean relations used as factors.  These are mutable mid-run
    only under the hybrid evaluator (threshold facts), but delta-driven
    activation must treat them as inputs everywhere it skips."""
    out: set = set()
    _condition_bool_relations(body.condition, out)

    def walk(factor) -> None:
        if isinstance(factor, Indicator):
            _condition_bool_relations(factor.condition, out)
        elif isinstance(factor, FuncFactor):
            for sub in factor.args:
                walk(sub)
        elif isinstance(factor, RelAtom):
            if factor.relation in database.bool_relations:
                out.add(factor.relation)

    for factor in body.factors:
        walk(factor)
    return frozenset(out)


class NaiveEvaluator:
    """Rule-at-a-time naïve evaluation (Algorithm 1)."""

    def __init__(
        self,
        program: Program,
        database: Database,
        functions: Optional[FunctionRegistry] = None,
        max_iterations: int = 100_000,
        total_heads: Optional[bool] = None,
        extra_domain: Sequence[Any] = (),
        plan: str = "indexed",
        domain: Optional[Sequence[Any]] = None,
        stats: Optional[EvalStats] = None,
        indexes: Optional[IndexManager] = None,
        engine: str = "auto",
        budget: Optional[Budget] = None,
    ):
        """``domain``, ``stats`` and ``indexes`` exist for the stratum
        scheduler: per-stratum evaluators must enumerate over the
        *whole program's* domain (not the sub-program's, which may be
        smaller) and share one counter set plus one index cache so
        frozen-layer indexes are built once and reused across strata.

        ``engine`` selects the join/evaluation pipeline (see
        :func:`~repro.core.kernels.resolve_engine_mode`): ``"batched"``
        — the ``"auto"`` choice on indexed plans — lowers each (rule,
        body) plan once into a columnar whole-batch kernel
        (:mod:`repro.core.batched`), cached across iterations, and
        enables delta-driven rule activation; ``"interpreted"`` keeps
        the per-application re-planned generator pipeline
        byte-for-byte (the differential oracle).
        """
        self.program = program
        self.database = database
        self.pops = database.pops
        self.functions = functions or FunctionRegistry()
        self.max_iterations = max_iterations
        self.budget = budget
        #: Wall-clock poll for the hot loops; ``None`` when no wall
        #: budget is armed, so the happy path pays one load per plan.
        self._poll = budget.wall_hook() if budget is not None else None
        self.plan = plan
        self.batched = resolve_engine_mode(engine, plan) == "batched"
        #: The resolved engine, passed on to nested evaluators.
        self.engine = "batched" if self.batched else "interpreted"
        self.idb_names = program.idb_names()
        self.stats = stats if stats is not None else EvalStats()
        self.evaluator = FactorEvaluator(
            self.pops, database, self.functions, stats=self.stats.join
        )
        if domain is not None:
            self.domain: List[Any] = list(domain)
        else:
            self.domain = sorted(
                database.active_domain()
                | program.constants()
                | set(extra_domain),
                key=repr,
            )
        if total_heads is None:
            total_heads = not (
                self.pops.is_semiring and self.pops.is_naturally_ordered
            )
        self.total_heads = total_heads
        self.indexes = (
            indexes if indexes is not None else IndexManager(stats=self.stats.join)
        )
        self._epoch = 0
        self._current: Instance = Instance(self.pops)
        self._last_seen: Optional[Instance] = None
        self._rel_versions: Dict[str, int] = {}
        self._bool_versions: Dict[str, int] = {}
        self._bool_sizes: Dict[str, int] = {}
        self._plans = self._build_plans()
        # Batched-engine state: one kernel cache for the evaluator's
        # lifetime (= one stratum under the SCC scheduler), the static
        # input-relation sets per plan, and the last contribution of
        # each plan for delta-driven reuse.
        self._kernels = KernelCache(stats=self.stats.join)
        self._plan_deps = [
            (
                tuple(
                    sorted(
                        {
                            atom.relation
                            for atom, _ in body.atoms()
                            if atom.relation in self.idb_names
                        }
                    )
                ),
                tuple(sorted(body_bool_relations(body, self.database))),
            )
            for _rule, body, _guards, _vars, _extra in self._plans
        ]
        #: Per plan: (dep-version vector at computation time, contribution).
        self._contributions: List[
            Optional[Tuple[Tuple, Dict[Tuple[str, Key], Value]]]
        ] = [None] * len(self._plans)

    # ------------------------------------------------------------------
    def _build_plans(self) -> List[Tuple[Rule, SumProduct, list, List[str], tuple]]:
        plans = []
        for rule in self.program.rules:
            for body in rule.bodies:
                guards = body_guards(
                    body,
                    self.pops,
                    self.database,
                    self.idb_names,
                    self._idb_supplier,
                    indexes=self.indexes if is_indexed_plan(self.plan) else None,
                )
                extra = pushable_indicator_conditions(
                    body, self.pops, self.total_heads
                )
                plans.append(
                    (rule, body, guards, body.enumeration_order(), extra)
                )
        return plans

    def _idb_supplier(self, name: str):
        # The mapping (not just its keys) feeds the guard index, so
        # probed factor values ride along with the probed keys.
        return lambda: self._current.support(name)

    # ------------------------------------------------------------------
    def _bump_changed_relations(self, instance: Instance) -> None:
        """Advance per-relation index versions for changed stores only.

        IDB guard indexes are versioned by these counters (not by the
        global epoch), so a relation the last delta did not touch keeps
        its index — and its accumulated probe observations — across the
        iteration instead of being rebuilt; ``rebuild_skips`` counts the
        relations whose refresh was skipped this iteration.  The
        comparison is pointwise over the stored supports, which is what
        makes skipping sound for value-carrying entries: "untouched"
        means every carried value is still exactly what the store
        holds, not merely that the key set is unchanged.

        Boolean stores (which only grow — the hybrid evaluator adds
        threshold facts between iterations) are versioned by size under
        the same counters, so condition-atom guard indexes stop being
        re-validated per iteration too.

        The version counters advanced here are what delta-driven
        activation keys its contribution cache on: a rule body whose
        dependency versions are unchanged since its last evaluation
        produces exactly its previous contribution.
        """
        previous = self._last_seen
        for rel in self.program.idbs:
            if previous is not None and _relation_equal(
                self.pops, instance.support(rel), previous.support(rel)
            ):
                # Only count a skip when an index exists to skip —
                # head-only relations never drive a guard.
                if self.indexes.peek(("idb", f"idb:{rel}")) is not None:
                    self.stats.join.rebuild_skips += 1
            else:
                self._rel_versions[rel] = self._rel_versions.get(rel, 0) + 1
        self._last_seen = instance
        for rel, store in self.database.bool_relations.items():
            size = len(store)
            if self._bool_sizes.get(rel) != size:
                self._bool_sizes[rel] = size
                self._bool_versions[rel] = self._bool_versions.get(rel, 0) + 1

    def _dep_versions(self, idx: int) -> Tuple:
        """The current version vector of one plan's input relations."""
        idb_deps, bool_deps = self._plan_deps[idx]
        return (
            tuple(self._rel_versions.get(rel, 0) for rel in idb_deps),
            tuple(self._bool_versions.get(rel, 0) for rel in bool_deps),
        )

    def _batched_rule(self, idx: int):
        """The cached :class:`~repro.core.batched.BatchedKernel` of one
        plan: it joins, evaluates and ⊕-accumulates in one pass, and
        ``kernel_cache_hits`` counts its reuse across iterations."""

        def build():
            rule, body, guards, variables, extra = self._plans[idx]
            carried = frozenset(
                g.slot for g in guards if g.carries_value and g.slot is not None
            )
            ir, _indexes = build_body_plan(
                guards,
                variables=variables,
                condition=body.condition,
                extra_conjuncts=extra,
                order=plan_ordering(self.plan),
                stats=self.stats.join,
                n_slots=len(body.factors),
            )
            kernel = build_batched_rule_kernel(
                ir,
                body,
                rule.head_args,
                self.pops,
                self.database,
                self.functions,
                self.idb_names,
                self.database.bool_holds,
                carried,
                self.domain,
                stats=self.stats.join,
                label=f"{rule.head_relation}.{idx}",
            )
            kernel.install_poll(self._poll)
            return kernel

        return self._kernels.get(idx, build)

    def _apply_batched(
        self, idx: int, instance: Instance
    ) -> Dict[Key, Value]:
        """One batched rule application; returns its contribution map.

        The map is keyed by head key alone (the rule's head relation is
        fixed), so the per-match accumulation pays no ``(rel, key)``
        tuple allocation.
        """
        guards = self._plans[idx][2]
        contrib: Dict[Key, Value] = {}
        matched = self._batched_rule(idx).run(guards, instance, contrib)
        self.stats.valuations += matched
        self.stats.products += matched
        return contrib

    def ico(self, instance: Instance) -> Instance:
        """One application of the immediate consequence operator."""
        self._current = instance
        self._epoch += 1
        indexed = is_indexed_plan(self.plan)
        if indexed:
            self._bump_changed_relations(instance)
        # Per-relation accumulation buckets: every rule's head relation
        # is fixed, so matches accumulate under their head key alone.
        acc: Dict[str, Dict[Key, Value]] = {}
        if self.total_heads:
            zero = self.pops.zero
            for rel, arity in self.program.idbs.items():
                bucket = acc.setdefault(rel, {})
                for key in itertools.product(self.domain, repeat=arity):
                    bucket[key] = zero
        add = self.pops.add
        poll = self._poll
        for idx, (rule, body, guards, variables, extra_conjuncts) in enumerate(
            self._plans
        ):
            if poll is not None:
                poll()
            bucket = acc.setdefault(rule.head_relation, {})
            if self.batched:
                # Delta-driven activation: a body whose input relations
                # (IDB atoms and Boolean condition stores) were all
                # untouched since its last evaluation — their version
                # counters match the ones stamped on the cached
                # contribution — evaluates to exactly that previous
                # contribution; reuse it instead of joining.
                versions_now = self._dep_versions(idx)
                cached = self._contributions[idx]
                if cached is not None and cached[0] == versions_now:
                    self.stats.rules_skipped += 1
                    contrib = cached[1]
                else:
                    self.stats.rule_applications += 1
                    refresh_guard_indexes(
                        guards, self.indexes, self._epoch,
                        versions=self._rel_versions,
                        bool_versions=self._bool_versions,
                        stats=self.stats.join,
                    )
                    contrib = self._apply_batched(idx, instance)
                    self._contributions[idx] = (versions_now, contrib)
                if bucket:
                    for key, value in contrib.items():
                        if key in bucket:
                            bucket[key] = add(bucket[key], value)
                        else:
                            bucket[key] = value
                else:
                    bucket.update(contrib)
                continue
            self.stats.rule_applications += 1
            if indexed:
                refresh_guard_indexes(
                    guards, self.indexes, self._epoch,
                    versions=self._rel_versions,
                )
            for valuation, slot_values in enumerate_matches(
                variables,
                guards,
                self.domain,
                body.condition,
                self.database.bool_holds,
                plan=self.plan,
                stats=self.stats.join,
                extra_conjuncts=extra_conjuncts,
            ):
                self.stats.valuations += 1
                value = self.evaluator.product_value(
                    body, valuation, instance, self.idb_names,
                    slot_values=slot_values,
                )
                self.stats.products += 1
                head_key = tuple(eval_term(t, valuation) for t in rule.head_args)
                if head_key in bucket:
                    bucket[head_key] = add(bucket[head_key], value)
                else:
                    bucket[head_key] = value
        out = Instance(self.pops)
        out_set = out.set
        for rel, entries in acc.items():
            for key, value in entries.items():
                out_set(rel, key, value)
        return out

    def _partial(
        self, instance: Instance, steps: int, trace: List[Instance]
    ) -> PartialResult:
        return PartialResult(
            instance=instance,
            steps=steps,
            stats=self.stats.snapshot(),
            trace=trace,
        )

    def run(self, capture_trace: bool = False) -> EvaluationResult:
        """Iterate the ICO from ``⊥`` until convergence (Algorithm 1).

        A tripped budget (wall poll inside :meth:`ico`, or the
        per-iteration size/wall charge) raises
        :class:`~repro.core.guardrails.BudgetExceeded` carrying the
        last *completed* iterate as its partial result; exhausting
        ``max_iterations`` raises the same structured error (it
        subclasses the old ``DivergenceError``), with the final iterate
        attached.
        """
        budget = self.budget
        current = Instance(self.pops)
        trace: List[Instance] = [current.copy()] if capture_trace else []
        for step in range(self.max_iterations):
            self.stats.iterations += 1
            try:
                nxt = self.ico(current)
            except BudgetExceeded as exc:
                attach_partial(exc, self._partial(current, step, trace))
                raise
            if capture_trace:
                trace.append(nxt.copy())
            if nxt.equals(current):
                return EvaluationResult(
                    instance=current,
                    steps=step,
                    trace=trace,
                    stats=self.stats.snapshot(),
                )
            if budget is not None:
                try:
                    budget.charge_size(nxt.size())
                except BudgetExceeded as exc:
                    attach_partial(exc, self._partial(nxt, step + 1, trace))
                    raise
            current = nxt
        raise BudgetExceeded(
            f"naïve evaluation did not converge within "
            f"{self.max_iterations} iterations",
            resource="iterations",
            limit=self.max_iterations,
            spent=self.max_iterations,
            partial=self._partial(current, self.max_iterations, trace),
            verdict=budget.verdict if budget is not None else None,
            trace=trace,
        )


def naive_fixpoint(
    program: Program,
    database: Database,
    functions: Optional[FunctionRegistry] = None,
    max_iterations: int = 100_000,
    capture_trace: bool = False,
    total_heads: Optional[bool] = None,
    plan: str = "indexed",
    engine: str = "auto",
    budget: Optional[Budget] = None,
) -> EvaluationResult:
    """Convenience wrapper: build a :class:`NaiveEvaluator` and run it."""
    evaluator = NaiveEvaluator(
        program,
        database,
        functions=functions,
        max_iterations=max_iterations,
        total_heads=total_heads,
        plan=plan,
        engine=engine,
        budget=budget,
    )
    return evaluator.run(capture_trace=capture_trace)
