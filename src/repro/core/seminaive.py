"""Semi-naïve evaluation for datalog° (Section 6, Algorithm 3).

Requires the value space to be a **complete distributive dioid**
(Definition 6.2) so that the difference ``b ⊖ a = ⋀{c | a ⊕ c ⊒ b}``
(Eq. 58) exists.  The algorithm keeps, instead of re-deriving the whole
instance, the per-iteration *delta*::

    δ⁽ᵗ⁾ = F(J⁽ᵗ⁾) ⊖ J⁽ᵗ⁾        J⁽ᵗ⁺¹⁾ = J⁽ᵗ⁾ ⊕ δ⁽ᵗ⁾

and computes ``δ⁽ᵗ⁾`` incrementally with the **differential rule** of
Theorem 6.5 (Eq. 64/65): each sum-product is affine in every IDB-atom
*occurrence* (occurrences are renamed apart, footnote 9 / Example 6.6),
so it suffices to evaluate, for each occurrence ``j``, the body with

* occurrences ``< j`` read from the *new* instance ``J⁽ᵗ⁾``,
* occurrence ``j`` read from the (small) delta ``δ⁽ᵗ⁻¹⁾``,
* occurrences ``> j`` read from the *old* instance ``J⁽ᵗ⁻¹⁾``,

EDB-only bodies dropping out entirely (Eq. 65).  Enumeration is driven
by the delta's support, which is what makes the method cheaper than
naïve evaluation; both engines share work counters so the benchmark
(E12) can report the saving.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..semirings.base import FunctionRegistry, Value
from .ast import Constant, Variable, eval_term
from .batched import build_batched_rule_kernel
from .guardrails import Budget, BudgetExceeded, PartialResult, attach_partial
from .indexes import IndexManager, KeyIndex
from .instance import Database, Instance, Key
from .kernels import KernelCache, resolve_engine_mode
from .naive import EvalStats, EvaluationResult, NaiveEvaluator
from .plan_ir import build_body_plan
from .rules import FuncFactor, Program, RelAtom, Rule, SumProduct, factor_atoms
from .valuations import (
    FactorEvaluator,
    Guard,
    enumerate_matches,
    is_indexed_plan,
    plan_ordering,
    pushable_indicator_conditions,
)
from .ast import positive_bool_atoms


class SemiNaiveError(ValueError):
    """Raised when a program/value space cannot run semi-naïve."""


class SemiNaiveEvaluator:
    """Semi-naïve evaluation with the differential rule (Theorem 6.5)."""

    def __init__(
        self,
        program: Program,
        database: Database,
        functions: Optional[FunctionRegistry] = None,
        max_iterations: int = 100_000,
        plan: str = "indexed",
        domain: Optional[Sequence[Any]] = None,
        stats: Optional[EvalStats] = None,
        indexes: Optional[IndexManager] = None,
        engine: str = "auto",
        budget: Optional[Budget] = None,
    ):
        """``domain``, ``stats`` and ``indexes`` serve the stratum
        scheduler exactly as in
        :class:`~repro.core.naive.NaiveEvaluator`: pinned whole-program
        domain, shared counters, shared index cache (so frozen-layer
        indexes survive across strata).  ``engine`` selects batched
        kernels vs the interpreted pipeline, as there.
        """
        self.program = program
        self.database = database
        self.pops = database.pops
        if not getattr(self.pops, "supports_minus", False):
            raise SemiNaiveError(
                f"{self.pops.name} is not a complete distributive dioid; "
                "semi-naïve evaluation needs the ⊖ operator (Definition 6.2)"
            )
        self.functions = functions or FunctionRegistry()
        self.max_iterations = max_iterations
        self.budget = budget
        self._poll = budget.wall_hook() if budget is not None else None
        self.plan = plan
        self.batched = resolve_engine_mode(engine, plan) == "batched"
        #: The resolved engine, passed on to the bootstrap evaluator.
        self.engine = "batched" if self.batched else "interpreted"
        self.idb_names = program.idb_names()
        self.stats = stats if stats is not None else EvalStats()
        self.evaluator = FactorEvaluator(
            self.pops, database, self.functions, stats=self.stats.join
        )
        if domain is not None:
            self.domain: List = list(domain)
        else:
            self.domain = sorted(
                database.active_domain() | program.constants(), key=repr
            )
        self.indexes = (
            indexes if indexes is not None else IndexManager(stats=self.stats.join)
        )
        self._step = 0
        self._validate()
        self._plans = self._build_plans()
        #: Linear programs (≤ 1 IDB occurrence per body, §4) never read
        #: the ``old`` store — Eq. 64 only consults it for occurrence
        #: ranks after the delta — so the per-iteration ``new.copy()``
        #: that preserves it can be skipped and ``new`` merged in place.
        self._linear = program.is_linear()
        self._kernels = KernelCache(stats=self.stats.join)
        #: Batched-engine guard cache: (plan, j) -> (guards, delta
        #: guards).  Guard lists are structurally iteration-invariant;
        #: only the delta occurrence's index changes per iteration, so
        #: the batched path re-points exactly that index instead of
        #: rebuilding every Guard (and re-validating every static
        #: index) per variant per iteration.
        self._variant_guard_cache: Dict[
            Tuple[int, int], Tuple[List[Guard], List[Guard]]
        ] = {}
        #: Batched path: relation -> (step, delta KeyIndex) — one
        #: direct build per relation per iteration, shared by every
        #: variant whose delta occurrence reads that relation.
        self._delta_indexes: Dict[str, Tuple[int, KeyIndex]] = {}

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        """Reject IDB atoms under interpreted functions (not affine)."""
        for rule in self.program.rules:
            for body in rule.bodies:
                for factor in body.factors:
                    if isinstance(factor, FuncFactor):
                        for atom, _ in factor_atoms(factor):
                            if atom.relation in self.idb_names:
                                raise SemiNaiveError(
                                    "IDB atom under interpreted function "
                                    f"breaks affinity: {factor}"
                                )

    def _build_plans(self) -> List[Tuple[Rule, SumProduct, List[int], Tuple]]:
        """Per body: IDB-atom factor positions plus the pushable
        indicator conjuncts (both deterministic per body — computed
        once here instead of on every fixpoint iteration)."""
        plans = []
        for rule in self.program.rules:
            for body in rule.bodies:
                idb_positions = [
                    i
                    for i, f in enumerate(body.factors)
                    if isinstance(f, RelAtom) and f.relation in self.idb_names
                ]
                extra_conjuncts = pushable_indicator_conditions(
                    body, self.pops, total_heads=False
                )
                plans.append((rule, body, idb_positions, extra_conjuncts))
        return plans

    # ------------------------------------------------------------------
    def _variant_guards(
        self,
        body: SumProduct,
        idb_positions: List[int],
        j: int,
        delta: Instance,
        new: Instance,
        old: Instance,
    ) -> List[Guard]:
        """Guards for the variant where occurrence ``j`` reads the delta.

        Under ``plan="indexed"`` each guard carries a persistent index:
        EDB/Boolean supports are cached for the whole run; the delta's
        index is rebuilt once per iteration (versioned by the step
        counter); and both ``new``- and ``old``-store occurrences probe
        the *new* index, which is maintained incrementally as deltas
        are applied.  Probing ``new``'s keys for an ``old`` occurrence
        over-approximates ``old``'s support by exactly the last delta —
        sound, because the extra candidates read ``⊥ = 0`` from ``old``
        and their whole product is absorbed.

        Guards whose index covers the *same* store the variant reads
        (delta at ``j``, ``new`` before it, EDB relations) carry the
        stored values into the probe (``carries_value``), so
        :meth:`_variant_value` skips the second hash lookup; ``old``
        occurrences probe ``new``'s index and therefore stay key-only.
        """
        indexed = is_indexed_plan(self.plan)
        guards: List[Guard] = []
        for atom in positive_bool_atoms(body.condition):
            rel = self.database.bool_relations.get(atom.relation, set())
            index = (
                self.indexes.get(("bool", atom.relation), rel, version=len(rel))
                if indexed
                else None
            )
            guards.append(
                Guard(
                    args=atom.args,
                    keys=lambda r=rel: r,
                    name=f"bool:{atom.relation}",
                    index=index,
                )
            )
        sparse = self.pops.is_semiring and self.pops.is_naturally_ordered
        for i, factor in enumerate(body.factors):
            if not isinstance(factor, RelAtom):
                continue
            rel_name = factor.relation
            if i in idb_positions:
                store = self._store_for(i, idb_positions, j, delta, new, old)
                index = None
                if indexed:
                    if store is delta:
                        index = self.indexes.get(
                            ("sn-delta", rel_name),
                            lambda d=delta, r=rel_name: d.support(r),
                            version=self._step,
                        )
                    else:
                        index = self._new_index(rel_name, new)
                guards.append(
                    Guard(
                        args=factor.args,
                        keys=lambda s=store, r=rel_name: s.support(r),
                        name=f"idb:{rel_name}",
                        index=index,
                        slot=i,
                        # ``old`` occurrences probe ``new``'s index:
                        # the carried values belong to the wrong store.
                        carries_value=store is not old,
                    )
                )
            elif rel_name in self.database.bool_relations:
                if self.pops.is_semiring:
                    rel = self.database.bool_relations[rel_name]
                    index = (
                        self.indexes.get(
                            ("bool", rel_name), rel, version=len(rel)
                        )
                        if indexed
                        else None
                    )
                    guards.append(
                        Guard(
                            args=factor.args,
                            keys=lambda r=rel: r,
                            name=f"bool:{rel_name}",
                            index=index,
                        )
                    )
            elif sparse:
                support = self.database.support(rel_name)
                index = (
                    self.indexes.get(
                        ("edb", rel_name), support, version=len(support)
                    )
                    if indexed
                    else None
                )
                guards.append(
                    Guard(
                        args=factor.args,
                        keys=lambda s=support: s,
                        name=f"edb:{rel_name}",
                        index=index,
                        slot=i,
                        carries_value=True,
                    )
                )
        return guards

    def _batched_variant_guards(
        self,
        p_idx: int,
        j: int,
        body: SumProduct,
        idb_positions: List[int],
        delta: Instance,
        new: Instance,
        old: Instance,
    ) -> List[Guard]:
        """Cached guards for one variant, delta index re-pointed.

        The static guards (EDB supports, Boolean stores, the live
        ``new`` index that :meth:`run` maintains incrementally) keep
        their index bindings for the whole run; only the guard reading
        the delta occurrence needs a fresh index per iteration — the
        kernel resolves ``guard.index`` in its prologue, so re-pointing
        it here is all the per-iteration work that remains.
        """
        cached = self._variant_guard_cache.get((p_idx, j))
        if cached is None:
            guards = self._variant_guards(
                body, idb_positions, j, delta, new, old
            )
            delta_pos = idb_positions[j]
            delta_guards = [
                g
                for g in guards
                if g.name.startswith("idb:") and g.slot == delta_pos
            ]
            self._variant_guard_cache[(p_idx, j)] = (guards, delta_guards)
            return guards
        guards, delta_guards = cached
        for guard in delta_guards:
            relation = guard.name[4:]
            # Kernels freeze their join order at compile time, so the
            # delta index needs no adaptive-observation inheritance —
            # build it directly instead of paying the IndexManager's
            # version dance per iteration (deltas are usually tiny).
            index = self._delta_indexes.get(relation)
            if index is None or index[0] != self._step:
                built = KeyIndex(delta.support(relation), stats=self.stats.join)
                self._delta_indexes[relation] = (self._step, built)
                guard.index = built
            else:
                guard.index = index[1]
        return guards

    def _new_index(self, relation: str, new: Instance) -> KeyIndex:
        """The incrementally-maintained index over ``new``'s support.

        Built from the support *mapping* so probed values ride along;
        :meth:`run` keeps the carried values fresh by re-``add``-ing
        each applied delta key with its ⊕-merged value.
        """
        name = ("sn-new", relation)
        index = self.indexes.peek(name)
        if index is None:
            index = self.indexes.get(
                name, lambda: new.support(relation), version="live"
            )
        return index

    @staticmethod
    def _store_for(
        position: int,
        idb_positions: List[int],
        j: int,
        delta: Instance,
        new: Instance,
        old: Instance,
    ) -> Instance:
        """Pick the store per Eq. 64: new before ``j``, delta at, old after."""
        rank = idb_positions.index(position)
        if rank < j:
            return new
        if rank == j:
            return delta
        return old

    def _variant_value(
        self,
        body: SumProduct,
        idb_positions: List[int],
        j: int,
        valuation: Dict,
        delta: Instance,
        new: Instance,
        old: Instance,
        slot_values: Optional[Dict[int, Value]] = None,
    ) -> Value:
        """Evaluate one differential variant under a valuation.

        ``slot_values`` holds the values that rode the index probes
        (only from guards whose index covers the variant's own store —
        see :meth:`_variant_guards`), saving the per-factor hash
        lookup.
        """
        empty = Instance(self.pops)
        acc = self.pops.one
        for i, factor in enumerate(body.factors):
            if slot_values and i in slot_values:
                value = slot_values[i]
                self.stats.join.value_probe_hits += 1
            elif isinstance(factor, RelAtom) and i in idb_positions:
                store = self._store_for(i, idb_positions, j, delta, new, old)
                key = tuple(eval_term(a, valuation) for a in factor.args)
                value = store.get(factor.relation, key)
                self.stats.join.factor_lookups += 1
            else:
                value = self.evaluator.factor_value(
                    factor, valuation, empty, frozenset()
                )
            acc = self.pops.mul(acc, value)
        self.stats.products += 1
        return acc

    def _batched_variant(
        self,
        p_idx: int,
        j: int,
        guards: List[Guard],
        rule: Rule,
        body: SumProduct,
        idb_positions: List[int],
        extra_conjuncts,
    ):
        """The cached batched kernel of one differential variant.

        Built from the first iteration's guards; later iterations pass
        structurally identical guard lists (same construction) so only
        the index bindings differ — resolved per invocation.  The Eq. 64
        store routing is compiled into the kernel's factor columns.
        """

        def build():
            carried = frozenset(
                g.slot for g in guards if g.carries_value and g.slot is not None
            )
            ir, _indexes = build_body_plan(
                guards,
                variables=body.enumeration_order(),
                condition=body.condition,
                extra_conjuncts=extra_conjuncts,
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
                variant=(tuple(idb_positions), j),
                label=f"{rule.head_relation}.{p_idx}.d{j}",
            )
            kernel.install_poll(self._poll)
            return kernel

        return self._kernels.get((p_idx, j), build)

    # ------------------------------------------------------------------
    def _iteration_contributions(
        self, delta: Instance, new: Instance, old: Instance, step: int
    ) -> Dict[str, Dict[Key, Value]]:
        """One differential iteration's head contributions (Eq. 64/65).

        Returns per-head-relation buckets of ⊕-accumulated match
        values.  Factored out of :meth:`run` so the sharded runtime
        (:mod:`repro.core.sharded`) can drive the *same* code with a
        partition of the delta: every full-iteration match contains
        exactly one delta tuple at its variant's occurrence ``j``, so
        restricting the delta store to one shard yields exactly that
        shard's slice of the match set — disjoint across shards, and
        bucket accumulation order within a shard matches the
        single-process enumeration order.
        """
        self._step = step
        contributions: Dict[str, Dict[Key, Value]] = {}
        add = self.pops.add
        poll = self._poll
        for p_idx, (
            rule, body, idb_positions, extra_conjuncts
        ) in enumerate(self._plans):
            if not idb_positions:
                continue  # Eq. 65: EDB-only bodies drop out for t ≥ 1.
            for j in range(len(idb_positions)):
                if poll is not None:
                    poll()
                if self.batched:
                    atom = body.factors[idb_positions[j]]
                    if not delta.support(atom.relation) and all(
                        isinstance(a, (Variable, Constant))
                        for a in atom.args
                    ):
                        # Delta-driven activation: the occurrence
                        # reading the delta drives the enumeration
                        # (its guard is always usable for simple
                        # args), so an empty delta store means the
                        # variant cannot match — drop it before
                        # guards are even built.
                        self.stats.rules_skipped += 1
                        continue
                self.stats.rule_applications += 1
                bucket = contributions.setdefault(rule.head_relation, {})
                if self.batched:
                    guards = self._batched_variant_guards(
                        p_idx, j, body, idb_positions, delta, new, old
                    )
                    kernel = self._batched_variant(
                        p_idx, j, guards, rule, body,
                        idb_positions, extra_conjuncts,
                    )
                    matched = kernel.run(guards, (new, delta, old), bucket)
                    self.stats.valuations += matched
                    self.stats.products += matched
                    continue
                guards = self._variant_guards(
                    body, idb_positions, j, delta, new, old
                )
                for valuation, slot_values in enumerate_matches(
                    body.enumeration_order(),
                    guards,
                    self.domain,
                    body.condition,
                    self.database.bool_holds,
                    plan=self.plan,
                    stats=self.stats.join,
                    extra_conjuncts=extra_conjuncts,
                ):
                    self.stats.valuations += 1
                    value = self._variant_value(
                        body, idb_positions, j, valuation, delta, new, old,
                        slot_values=slot_values,
                    )
                    head_key = tuple(
                        eval_term(t, valuation) for t in rule.head_args
                    )
                    if head_key in bucket:
                        bucket[head_key] = add(bucket[head_key], value)
                    else:
                        bucket[head_key] = value
        return contributions

    def _next_delta(
        self, contributions: Dict[str, Dict[Key, Value]], new: Instance
    ) -> Instance:
        """``δ = contributions ⊖ new`` with ⊥/0 entries dropped."""
        next_delta = Instance(self.pops)
        zero = self.pops.zero
        minus = self.pops.minus
        eq = self.pops.eq
        new_get = new.get
        next_set = next_delta.set
        for rel, entries in contributions.items():
            for key, value in entries.items():
                diff = minus(value, new_get(rel, key))
                if not eq(diff, zero):
                    next_set(rel, key, diff)
        return next_delta

    def _apply_delta(self, new: Instance, next_delta: Instance) -> None:
        """⊕-merge an applied delta into ``new``, refreshing indexes.

        The live ``("sn-new", rel)`` indexes are maintained
        incrementally: the only keys that can appear (or whose value
        can change) are the delta's, and their fresh ⊕-merged values
        must replace the carried ones so probes keep reading exactly
        what ``new`` stores.
        """
        merge = new.merge
        for rel in list(next_delta.relations()):
            for key, d in next_delta.support(rel).items():
                merge(rel, key, d)
        if is_indexed_plan(self.plan):
            for rel in next_delta.relations():
                index = self.indexes.peek(("sn-new", rel))
                if index is None:
                    self.indexes.get(
                        ("sn-new", rel),
                        lambda n=new, r=rel: n.support(r),
                        version="live",
                    )
                else:
                    for key in next_delta.support_keys(rel):
                        index.add(key, new.get(rel, key))

    def bootstrap(self) -> Instance:
        """``J⁽¹⁾ = F(0̄)``: the shared first naïve application.

        The bootstrap shares this evaluator's counters, domain and
        index cache, so its EDB indexes are the ones the differential
        loop keeps probing (built once for the whole run).
        """
        bootstrap = NaiveEvaluator(
            self.program,
            self.database,
            functions=self.functions,
            max_iterations=1,
            plan=self.plan,
            domain=self.domain,
            stats=self.stats,
            indexes=self.indexes,
            engine=self.engine,
            budget=self.budget,
        )
        new = bootstrap.ico(Instance(self.pops))
        self.stats.iterations += 1
        return new

    def _partial(
        self,
        instance: Instance,
        steps: int,
        delta: Optional[Instance],
        trace: List[Instance],
    ) -> PartialResult:
        return PartialResult(
            instance=instance,
            steps=steps,
            stats=self.stats.snapshot(),
            delta=delta,
            trace=trace,
        )

    # ------------------------------------------------------------------
    def run(self, capture_trace: bool = False) -> EvaluationResult:
        """Run Algorithm 3 to fixpoint.

        A tripped budget raises
        :class:`~repro.core.guardrails.BudgetExceeded` carrying the
        last fully applied iterate ``J⁽ᵗ⁾`` and the delta that was
        still growing — a mid-iteration wall trip never exposes a
        half-merged state, because deltas are applied atomically after
        the iteration's contributions are complete.
        """
        budget = self.budget
        # J⁽¹⁾ = F(0̄) and δ⁽⁰⁾ = J⁽¹⁾ ⊖ 0̄ = J⁽¹⁾ (b ⊖ 0 = b).
        empty = Instance(self.pops)
        try:
            new = self.bootstrap()
        except BudgetExceeded as exc:
            attach_partial(exc, self._partial(empty, 0, None, []))
            raise
        delta = new.copy()
        old = empty
        trace: List[Instance] = []
        if capture_trace:
            trace = [empty.copy(), new.copy()]
        if delta.size() == 0:
            return EvaluationResult(
                instance=new, steps=1, trace=trace, stats=self.stats.snapshot()
            )

        for step in range(1, self.max_iterations):
            self.stats.iterations += 1
            # Per-relation buckets: the head relation is fixed per rule,
            # so matches accumulate under their head key alone (no
            # (rel, key) tuple allocation per match).
            try:
                contributions = self._iteration_contributions(
                    delta, new, old, step
                )
            except BudgetExceeded as exc:
                attach_partial(exc, self._partial(new, step, delta, trace))
                raise
            next_delta = self._next_delta(contributions, new)
            if next_delta.size() == 0:
                return EvaluationResult(
                    instance=new,
                    steps=step,
                    trace=trace,
                    stats=self.stats.snapshot(),
                )
            old = new
            if not self._linear:
                new = new.copy()
            self._apply_delta(new, next_delta)
            if capture_trace:
                trace.append(new.copy())
            delta = next_delta
            if budget is not None:
                try:
                    budget.charge_size(new.size())
                except BudgetExceeded as exc:
                    attach_partial(
                        exc, self._partial(new, step + 1, delta, trace)
                    )
                    raise
        raise BudgetExceeded(
            f"semi-naïve evaluation did not converge within "
            f"{self.max_iterations} iterations",
            resource="iterations",
            limit=self.max_iterations,
            spent=self.max_iterations,
            partial=self._partial(new, self.max_iterations, delta, trace),
            verdict=budget.verdict if budget is not None else None,
        )


def seminaive_fixpoint(
    program: Program,
    database: Database,
    functions: Optional[FunctionRegistry] = None,
    max_iterations: int = 100_000,
    capture_trace: bool = False,
    plan: str = "indexed",
    engine: str = "auto",
    budget: Optional[Budget] = None,
) -> EvaluationResult:
    """Convenience wrapper: build a :class:`SemiNaiveEvaluator`, run it."""
    return SemiNaiveEvaluator(
        program,
        database,
        functions=functions,
        max_iterations=max_iterations,
        plan=plan,
        engine=engine,
        budget=budget,
    ).run(capture_trace=capture_trace)
