"""Extensions of Section 4.5: multiple value spaces in one program.

Example 4.3 (company control) interleaves two value spaces: ``CV`` and
``T`` are ``R+``-relations while ``C`` is Boolean, with the indicator
``[C(x, z)] ∈ R+`` mapping one space into the other and the threshold
``[T(x, y) > 0.5]`` mapping back.  Both mappings are monotone w.r.t. the
natural orders of ``R+`` and ``B``, so the joint least fixpoint exists
(the paper notes the grounded program is no longer polynomial, so the
Section-5 bounds do not apply syntactically — only Knaster–Tarski /
Kleene does).

:class:`HybridEvaluator` runs the joint naïve iteration: POPS rules are
ordinary datalog° rules whose conditions may mention *Boolean IDBs*
(resolved against the growing Boolean store), and Boolean IDBs are
defined by :class:`ThresholdRule`: a sum-product over the POPS plus a
monotone predicate on its value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..fixpoint.iteration import DivergenceError
from ..semirings.base import FunctionRegistry, Value
from .ast import Term, eval_term
from .batched import build_batched_rule_kernel
from .instance import Database, Instance, Key
from .kernels import KernelCache
from .naive import EvaluationResult, NaiveEvaluator
from .plan_ir import build_body_plan
from .rules import Program, SumProduct
from .valuations import (
    body_guards,
    enumerate_matches,
    is_indexed_plan,
    plan_ordering,
    refresh_guard_indexes,
)


@dataclass(frozen=True)
class ThresholdRule:
    """A Boolean IDB defined by thresholding a POPS sum-product.

    ``head(t̄)`` becomes true when ``predicate(Σ body)`` holds, e.g.
    Example 4.3's ``C(x, y) :- [T(x, y) > 0.5]`` with
    ``predicate = lambda v: v > 0.5``.  The predicate must be monotone
    w.r.t. the POPS order for the least-fixpoint semantics to apply.
    """

    head_relation: str
    head_args: Tuple[Term, ...]
    body: SumProduct
    predicate: Callable[[Value], bool]


class HybridEvaluator:
    """Joint fixpoint of POPS rules and Boolean threshold rules."""

    def __init__(
        self,
        program: Program,
        threshold_rules: Sequence[ThresholdRule],
        database: Database,
        functions: Optional[FunctionRegistry] = None,
        max_iterations: int = 10_000,
        plan: str = "indexed",
        engine: str = "auto",
    ):
        self.program = program
        self.threshold_rules = list(threshold_rules)
        self.database = database
        self.pops = database.pops
        self.max_iterations = max_iterations
        self.plan = plan
        self.bool_idb_names = {r.head_relation for r in self.threshold_rules}
        # Boolean IDB facts are injected into the database's Boolean
        # store so that conditions and indicators see them transparently.
        # (The naïve evaluator's Boolean guard indexes are versioned by
        # store size, so facts added between iterations are picked up.)
        for name in self.bool_idb_names:
            database.bool_relations.setdefault(name, set())
        self._base = NaiveEvaluator(
            program,
            database,
            functions=functions,
            max_iterations=max_iterations,
            plan=plan,
            engine=engine,
        )
        self.batched = self._base.batched
        # Batched-engine state: cached per-threshold-rule guards and
        # kernels (guards are late-bound through the base evaluator's
        # current instance, so caching them is sound; their indexes are
        # refreshed per iteration against the base's change counters
        # instead of being rebuilt from scratch).
        self._threshold_kernels = KernelCache(stats=self._base.stats.join)
        self._threshold_guards: Dict[int, list] = {}

    # ------------------------------------------------------------------
    def _rule_guards(self, idx: int, rule: ThresholdRule) -> list:
        """Build (or reuse) the guard list of one threshold body.

        Guards read the base evaluator's *current* instance through the
        late-bound supplier, so the list itself is iteration-invariant;
        the batched path caches it and merely refreshes the indexes —
        previously every iteration rebuilt guards *and* ephemeral
        indexes for relations that had not changed at all.
        """
        if self.batched:
            guards = self._threshold_guards.get(idx)
            if guards is not None:
                return guards
        guards = body_guards(
            rule.body,
            self.pops,
            self.database,
            self.program.idb_names(),
            self._base._idb_supplier,
            indexes=(
                self._base.indexes if is_indexed_plan(self.plan) else None
            ),
        )
        if self.batched:
            self._threshold_guards[idx] = guards
        return guards

    def _batched_threshold(self, idx: int, rule: ThresholdRule, guards: list):
        def build():
            carried = frozenset(
                g.slot for g in guards if g.carries_value and g.slot is not None
            )
            ir, _indexes = build_body_plan(
                guards,
                variables=rule.body.enumeration_order(),
                condition=rule.body.condition,
                order=plan_ordering(self.plan),
                stats=self._base.stats.join,
                n_slots=len(rule.body.factors),
            )
            return build_batched_rule_kernel(
                ir,
                rule.body,
                rule.head_args,
                self.pops,
                self.database,
                self._base.functions,
                self.program.idb_names(),
                self.database.bool_holds,
                carried,
                self._base.domain,
                stats=self._base.stats.join,
                label=f"threshold.{rule.head_relation}.{idx}",
            )

        return self._threshold_kernels.get(idx, build)

    def _threshold_step(self, idb: Instance) -> Set[Tuple[str, Key]]:
        """Evaluate every threshold rule, returning new Boolean facts."""
        new_facts: Set[Tuple[str, Key]] = set()
        if self.batched:
            # Threshold bodies read the *freshly derived* instance, one
            # step ahead of the base ICO's input: advance the change
            # counters so the shared IDB guard indexes refresh to it
            # (and so the base's next ICO sees these stores as already
            # seen, keeping its contribution cache exact).
            self._base._bump_changed_relations(idb)
        for idx, rule in enumerate(self.threshold_rules):
            guards = self._rule_guards(idx, rule)
            acc: Dict[Key, Value] = {}
            self._base._current = idb
            if self.batched:
                refresh_guard_indexes(
                    guards,
                    self._base.indexes,
                    self._base._epoch,
                    versions=self._base._rel_versions,
                    bool_versions=self._base._bool_versions,
                    stats=self._base.stats.join,
                )
                # The kernel accumulates straight into ``acc``; its
                # match count is dropped for counter parity with the
                # interpreted threshold loop.
                self._batched_threshold(idx, rule, guards).run(
                    guards, idb, acc
                )
            else:
                for valuation, slot_values in enumerate_matches(
                    rule.body.enumeration_order(),
                    guards,
                    self._base.domain,
                    rule.body.condition,
                    self.database.bool_holds,
                    plan=self.plan,
                    stats=self._base.stats.join,
                ):
                    value = self._base.evaluator.product_value(
                        rule.body, valuation, idb, self.program.idb_names(),
                        slot_values=slot_values,
                    )
                    head_key = tuple(
                        eval_term(t, valuation) for t in rule.head_args
                    )
                    if head_key in acc:
                        acc[head_key] = self.pops.add(acc[head_key], value)
                    else:
                        acc[head_key] = value
            store = self.database.bool_relations[rule.head_relation]
            for key, value in acc.items():
                if key not in store and rule.predicate(value):
                    new_facts.add((rule.head_relation, key))
        return new_facts

    def run(self, capture_trace: bool = False) -> EvaluationResult:
        """Iterate the joint ICO until both stores are stationary."""
        current = Instance(self.pops)
        trace: List[Instance] = [current.copy()] if capture_trace else []
        for step in range(self.max_iterations):
            nxt = self._base.ico(current)
            new_facts = self._threshold_step(nxt)
            for rel, key in new_facts:
                self.database.bool_relations[rel].add(key)
            if not new_facts and nxt.equals(current):
                return EvaluationResult(
                    instance=current,
                    steps=step,
                    trace=trace,
                    stats=self._base.stats.snapshot(),
                )
            if capture_trace:
                trace.append(nxt.copy())
            current = nxt
        raise DivergenceError(
            f"hybrid evaluation did not converge within "
            f"{self.max_iterations} iterations"
        )

    def bool_facts(self, relation: str) -> Set[Key]:
        """Return the derived Boolean facts of one threshold IDB."""
        return set(self.database.bool_relations.get(relation, set()))
