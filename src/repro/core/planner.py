"""Selectivity-ordered join planning over guard indexes.

This is the optimizer half of the indexed join subsystem (the storage
half is :mod:`repro.core.indexes`; the condition half is
:mod:`repro.core.pushdown`).  Given a body's guards, the variables
already bound (constants, base bindings) and the body's condition
``Φ``, the planner

1. materializes a :class:`~repro.core.indexes.KeyIndex` per guard —
   reusing a persistent index when the guard carries one (EDB
   relations, semi-naïve IDB stores), else building an ephemeral one
   for the duration of the enumeration;
2. orders the guards by a **cost-based search** over the adaptive
   selectivity estimates (built mask tables expose true distinct
   counts and probes feed back observed hit rates — see
   ``KeyIndex.estimate``).  Bodies with at most
   ``_EXACT_DP_LIMIT`` (= 6) guards get an exact dynamic program over
   guard subsets: the cost of a partial order depends only on the
   *set* of guards joined so far (its bound-variable set determines
   every later probe mask), so memoizing per subset finds the order
   minimizing the estimated total keys examined
   (``Σ rows(prefix) × est(next)``) in ``O(2ⁿ·n)``.  Larger bodies
   use a 2-step-lookahead greedy: each pick minimizes
   ``est(g) · (1 + min_{g'} est(g' | g))`` instead of ``est(g)``
   alone.  Ties always break toward the original guard order, keeping
   plans deterministic.  ``order="greedy"`` (reached via
   ``plan="indexed-greedy"``) keeps the one-step greedy of PR 1/2 for
   plan-quality differentials;
3. compiles each chosen guard into a :class:`PlanStep` holding the
   mask, the probe terms, the pushed-down filters that become
   decidable at that step, and — for guards over value-carrying
   sources — the body-factor slot whose value rides the probe;
4. compiles the condition's residue into a
   :class:`~repro.core.pushdown.PushdownSchedule`: per-step filters,
   direct equality bindings, and an incremental per-variable fallback
   loop replacing the seed's monolithic ``itertools.product`` leaf.

Soundness is unchanged from the seed enumeration: the planner only
*reorders* guards (join commutativity), *narrows* each guard's
candidate list to keys that agree with the partial valuation on the
masked positions, and *hoists* pure conjuncts of ``Φ`` to the earliest
point their variables are bound — keys and candidates the seed's
``_unify``-plus-leaf-check would have rejected anyway.  Guard
*eligibility* (which atoms may drive enumeration at all, per the value
space's ``is_semiring`` / ``is_naturally_ordered`` flags) stays the
business of :func:`repro.core.valuations.body_guards`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .ast import Condition, Constant, Valuation, Variable, condition_holds
from .indexes import NO_VALUE, JoinStats, Key, KeyIndex, Mask
from .pushdown import (
    PushdownSchedule,
    apply_initial_bindings,
    compile_schedule,
    run_fallback,
)
from .valuations import Guard, SlotValues, _NO_SLOTS


@dataclass
class PlanStep:
    """One compiled guard: where to probe and with which bound terms.

    Attributes:
        guard: The source guard (args drive unification).
        index: The key index probed/scanned at this step.
        mask: Positions of ``guard.args`` bound when the step runs.
        probe_args: The terms at the masked positions (constants or
            variables guaranteed bound by earlier steps/base bindings).
        filters: Pushed-down conjuncts of ``Φ`` decidable right after
            this step's variables bind.
        slot: Body-factor position whose value the guard's entries
            carry (None for Boolean/condition guards).
    """

    guard: Guard
    index: KeyIndex
    mask: Mask
    probe_args: Tuple
    filters: Tuple[Condition, ...] = ()
    slot: Optional[int] = None

    def probe_values(self, valuation: Valuation) -> Tuple:
        """Evaluate the probe terms under the current partial valuation."""
        return tuple(
            arg.value if isinstance(arg, Constant) else valuation[arg.name]
            for arg in self.probe_args
        )


@dataclass
class JoinPlan:
    """An ordered probe-join over a body's guards, plus the pushdown
    schedule compiled for the condition it was built against (``None``
    when the plan was built without one — execution then falls back to
    the seed's single leaf check)."""

    steps: Tuple[PlanStep, ...]
    schedule: Optional[PushdownSchedule] = None
    bound_after_steps: frozenset = field(default_factory=frozenset)


def _guard_mask(guard: Guard, bound: Set[str]) -> Mask:
    """Positions of the guard's args that are bound given ``bound`` vars.

    Constants are always bound; variables are bound when an earlier
    step (or the base valuation) fixed them.  Guards only ever carry
    simple args (``Guard.simple_args`` gates eligibility upstream).
    """
    mask: List[int] = []
    for i, arg in enumerate(guard.args):
        if isinstance(arg, Constant) or (
            isinstance(arg, Variable) and arg.name in bound
        ):
            mask.append(i)
    return tuple(mask)


def _guard_index(guard: Guard, stats: Optional[JoinStats]) -> KeyIndex:
    """The guard's persistent index, or an ephemeral one over its keys."""
    if guard.index is not None:
        return guard.index
    return KeyIndex(guard.keys(), stats=stats)


#: Largest guard count ordered by the exact subset DP; beyond it the
#: 2-step lookahead takes over (2ⁿ subsets stop being free around here).
_EXACT_DP_LIMIT = 6

#: Relative modeled-cost improvement a cost-based order must predict
#: before it replaces the greedy order.  Estimates carry noise (static
#: guesses, decayed observations); deviating only on a clear win keeps
#: the search's upside (e.g. cartesian-product avoidance, where the
#: model is robustly right) while guaranteeing plans never drift from
#: the greedy baseline on estimate jitter.
_DP_MARGIN = 0.10


def _guard_vars(guard: Guard) -> frozenset:
    """Names of the variables a guard binds once joined."""
    return frozenset(
        arg.name for arg in guard.args if isinstance(arg, Variable)
    )


def _estimate(
    guard: Guard, index: KeyIndex, bound: Set[str]
) -> float:
    """Estimated candidates per probe of ``guard`` given bound vars."""
    return index.estimate(_guard_mask(guard, bound))


def _order_greedy(
    guards: Sequence[Guard], indexes: Sequence[KeyIndex], bound: Set[str]
) -> List[int]:
    """One-step greedy: cheapest next guard, ties by original order."""
    remaining = list(range(len(guards)))
    bound_now = set(bound)
    order: List[int] = []
    while remaining:
        best = min(
            remaining,
            key=lambda pos: (_estimate(guards[pos], indexes[pos], bound_now), pos),
        )
        remaining.remove(best)
        order.append(best)
        bound_now |= _guard_vars(guards[best])
    return order


def _order_exact(
    guards: Sequence[Guard], indexes: Sequence[KeyIndex], bound: Set[str]
) -> Tuple[float, List[int]]:
    """Exact DP over guard subsets minimizing estimated keys examined.

    The probe mask of every remaining guard depends only on the *set*
    of guards already joined (whose variables are all bound), so the
    optimal completion cost is a function of that subset — memoizing
    ``best[subset] = (cost, rows, order)`` makes the search exact in
    ``O(2ⁿ·n)``.  ``rows`` chains multiplicatively
    (``rows·est(next)``), and ``cost`` accumulates the per-step
    expected candidate count, i.e. the planner's model of
    ``keys_examined``.  Ties break lexicographically toward the
    original guard order, matching the greedy tie-break.  Returns
    ``(modeled cost, order)``.
    """
    n = len(guards)
    var_sets = [_guard_vars(g) for g in guards]
    base = frozenset(bound)
    bound_of: List[Optional[frozenset]] = [None] * (1 << n)
    bound_of[0] = base
    # best[subset] = (cost, rows, reversed-choice order tuple)
    best: List[Optional[Tuple[float, float, Tuple[int, ...]]]] = [
        None
    ] * (1 << n)
    best[0] = (0.0, 1.0, ())
    for subset in range(1, 1 << n):
        low = subset & -subset
        prev_of_low = subset ^ low
        bound_of[subset] = bound_of[prev_of_low] | var_sets[low.bit_length() - 1]
        choice: Optional[Tuple[float, float, Tuple[int, ...]]] = None
        for pos in range(n):
            bit = 1 << pos
            if not subset & bit:
                continue
            prev = subset ^ bit
            pcost, prows, porder = best[prev]
            step_keys = prows * _estimate(
                guards[pos], indexes[pos], bound_of[prev]
            )
            # Rows after the step = rows so far × candidates per probe,
            # which is exactly the expected keys examined at this step.
            candidate = (pcost + step_keys, step_keys, porder + (pos,))
            if choice is None or candidate < choice:
                choice = candidate
        best[subset] = choice
    final = best[(1 << n) - 1]
    return final[0], list(final[2])


def _order_cost(
    order: Sequence[int],
    guards: Sequence[Guard],
    indexes: Sequence[KeyIndex],
    bound: Set[str],
) -> float:
    """Modeled keys-examined of one concrete order (for comparisons)."""
    bound_now = set(bound)
    cost = 0.0
    rows = 1.0
    for pos in order:
        rows *= _estimate(guards[pos], indexes[pos], bound_now)
        cost += rows
        bound_now |= _guard_vars(guards[pos])
    return cost


def _order_lookahead(
    guards: Sequence[Guard], indexes: Sequence[KeyIndex], bound: Set[str]
) -> List[int]:
    """2-step lookahead greedy for bodies beyond the exact-DP limit.

    Each pick minimizes ``est(g)·(1 + min_{g'≠g} est(g' | g))`` — the
    estimated keys examined over this step plus the best possible next
    step — instead of the purely myopic ``est(g)``.
    """
    remaining = list(range(len(guards)))
    bound_now = set(bound)
    order: List[int] = []
    while remaining:
        best_pos = None
        best_score: Tuple[float, int] = (float("inf"), 0)
        for pos in remaining:
            est1 = _estimate(guards[pos], indexes[pos], bound_now)
            if len(remaining) == 1:
                score = (est1, pos)
            else:
                after = bound_now | _guard_vars(guards[pos])
                est2 = min(
                    _estimate(guards[q], indexes[q], after)
                    for q in remaining
                    if q != pos
                )
                score = (est1 * (1.0 + est2), pos)
            if best_pos is None or score < best_score:
                best_pos, best_score = pos, score
        remaining.remove(best_pos)
        order.append(best_pos)
        bound_now |= _guard_vars(guards[best_pos])
    return order


def order_guards(
    guards: Sequence[Guard],
    indexes: Sequence[KeyIndex],
    bound: Set[str],
    order: str = "cost",
) -> List[int]:
    """Choose a join order (a permutation of guard positions).

    ``"cost"`` — exact subset DP up to ``_EXACT_DP_LIMIT`` guards,
    2-step lookahead beyond; ``"greedy"`` — the one-step greedy kept
    as the plan-quality baseline.  A cost-based order replaces the
    greedy one only when its modeled cost is at least ``_DP_MARGIN``
    better — so plans never drift from the baseline on estimate noise,
    and deviate exactly where the model predicts a clear win (e.g.
    avoiding a cartesian prefix the greedy tie-break walks into).
    """
    if order == "greedy":
        return _order_greedy(guards, indexes, bound)
    if order != "cost":
        raise ValueError(f"unknown join ordering {order!r}")
    greedy = _order_greedy(guards, indexes, bound)
    if len(guards) <= _EXACT_DP_LIMIT:
        cost, searched = _order_exact(guards, indexes, bound)
    else:
        searched = _order_lookahead(guards, indexes, bound)
        cost = _order_cost(searched, guards, indexes, bound)
    if cost < _order_cost(greedy, guards, indexes, bound) * (1.0 - _DP_MARGIN):
        return searched
    return greedy


def build_plan(
    guards: Sequence[Guard],
    bound: Set[str] = frozenset(),
    stats: Optional[JoinStats] = None,
    condition: Optional[Condition] = None,
    variables: Sequence[str] = (),
    extra_conjuncts: Sequence[Condition] = (),
    order: str = "cost",
) -> JoinPlan:
    """Compile guards into a cost-ordered :class:`JoinPlan`.

    When ``condition`` is given, its conjuncts (plus
    ``extra_conjuncts``) are pushed down into the plan (step filters,
    equality bindings, incremental fallback — see
    :mod:`repro.core.pushdown`); execution then needs no separate leaf
    condition.  Without it the plan carries no schedule and
    :func:`execute_plan` applies its ``condition`` argument at the
    leaf, seed-style.  ``order`` picks the join-order search (see
    :func:`order_guards`).
    """
    indexes = [_guard_index(g, stats) for g in guards]
    bound_now: Set[str] = set(bound)

    schedule: Optional[PushdownSchedule] = None
    if condition is not None:
        # Equality bindings decidable from the base belong to the bound
        # set *before* ordering, so probe masks can exploit them.  The
        # schedule is recompiled against the final order below.
        pre = compile_schedule(condition, extra_conjuncts, bound_now, (), variables)
        for var, _term, _check in pre.initial_bindings:
            bound_now.add(var)

    steps: List[PlanStep] = []
    for pos in order_guards(guards, indexes, bound_now, order=order):
        guard = guards[pos]
        mask = _guard_mask(guard, bound_now)
        steps.append(
            PlanStep(
                guard=guard,
                index=indexes[pos],
                mask=mask,
                probe_args=tuple(guard.args[i] for i in mask),
                slot=guard.slot if guard.carries_value else None,
            )
        )
        for arg in guard.args:
            if isinstance(arg, Variable):
                bound_now.add(arg.name)

    if condition is not None:
        schedule = compile_schedule(
            condition,
            extra_conjuncts,
            set(bound),
            tuple(step.guard for step in steps),
            variables,
        )
        steps = [
            PlanStep(
                guard=step.guard,
                index=step.index,
                mask=step.mask,
                probe_args=step.probe_args,
                filters=schedule.step_filters[i],
                slot=step.slot,
            )
            for i, step in enumerate(steps)
        ]

    return JoinPlan(
        steps=tuple(steps),
        schedule=schedule,
        bound_after_steps=frozenset(bound_now),
    )


# ---------------------------------------------------------------------------
# Sharding analysis (the planner half of the multi-process engine —
# the runtime half is :mod:`repro.core.sharded`)
# ---------------------------------------------------------------------------
#
# The sharded engine partitions each semi-naïve iteration by hashing
# the *driving delta*: worker ``i`` runs the identical differential
# iteration with the delta store restricted to the tuples it owns.
# Every full-iteration match contains exactly one delta tuple (at its
# variant's occurrence ``j``), so the owner partition of the delta
# induces a disjoint partition of the match set — correctness never
# depends on the analysis below.  What the analysis decides is the
# *exchange volume*: a recursive relation is **routed** (each worker
# receives only its owned slice of the relation's delta) exactly when
# every occurrence of it, in every body the differential loop re-runs,
# provably agrees with every possible delta driver on the sharding
# key — otherwise it **broadcasts** (the full delta ships to every
# worker, which still drives only its owned subset).


def shard_of(value: Any, workers: int) -> int:
    """Deterministic shard owner of a key component.

    ``hash()`` is salted per interpreter (and therefore differs across
    ``spawn``-mode workers), so ownership uses a ``repr``-based CRC —
    stable across processes, runs and platforms for the repr-faithful
    key types the engine stores (ints, strings, floats, tuples).
    """
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace")) % workers


def _aligned(a: Any, b: Any) -> bool:
    """True when two occurrence args provably carry the same key value
    in every match: the same variable, or equal constants."""
    if isinstance(a, Variable) and isinstance(b, Variable):
        return a.name == b.name
    if isinstance(a, Constant) and isinstance(b, Constant):
        return a.value == b.value
    return False


def _shardable_occurrence(atom, column: int) -> bool:
    """An occurrence the alignment model covers: simple args and the
    shard column in range."""
    return 0 <= column < len(atom.args) and all(
        isinstance(arg, (Constant, Variable)) for arg in atom.args
    )


def _recursive_bodies(program, recursive: FrozenSet[str]):
    """Bodies with ≥ 1 direct recursive occurrence — the only bodies
    the differential loop re-runs after bootstrap (Eq. 65) — paired
    with those occurrences (the potential delta drivers)."""
    from .rules import RelAtom

    out = []
    for rule in program.rules:
        for body in rule.bodies:
            occs = [
                f
                for f in body.factors
                if isinstance(f, RelAtom) and f.relation in recursive
            ]
            if occs:
                out.append((rule, body, occs))
    return out


def _alignment_score(
    columns: Mapping[str, int], bodies: Sequence[Tuple]
) -> int:
    """Number of co-occurring recursive-atom pairs whose args agree at
    the current shard columns — the quantity column selection maximizes
    (each aligned pair is one occurrence that can stay routed)."""
    score = 0
    for _rule, _body, occs in bodies:
        for i, a in enumerate(occs):
            ca = columns.get(a.relation, -1)
            if not _shardable_occurrence(a, ca):
                continue
            for b in occs[i + 1 :]:
                cb = columns.get(b.relation, -1)
                if not _shardable_occurrence(b, cb):
                    continue
                if _aligned(a.args[ca], b.args[cb]):
                    score += 1
    return score


def select_shard_columns(
    program, recursive: Optional[FrozenSet[str]] = None
) -> Dict[str, int]:
    """Pick each recursive relation's shard column.

    Greedy coordinate ascent on :func:`_alignment_score`: starting from
    column 0 everywhere, repeatedly re-pick one relation's column to
    maximize the number of aligned co-occurrence pairs given the
    others' current columns, until a full pass changes nothing.  Ties
    always break toward the smaller column and relations are visited in
    sorted order, so the result is deterministic.  E.g. for the mutual
    recursion ``T ⊕= A(X,Z) ⊗ B(Z,Y)`` this lands on ``A→1, B→0``
    (both sharded on ``Z``), letting both deltas route.
    """
    if recursive is None:
        recursive = program.idb_names()
    bodies = _recursive_bodies(program, recursive)
    arity: Dict[str, int] = {}
    for rule in program.rules:
        if rule.head_relation in recursive:
            n = len(rule.head_args)
            arity[rule.head_relation] = min(
                arity.get(rule.head_relation, n), n
            )
    for _rule, _body, occs in bodies:
        for atom in occs:
            n = len(atom.args)
            arity[atom.relation] = min(arity.get(atom.relation, n), n)
    columns = {name: 0 for name in sorted(recursive)}
    for _ in range(len(columns) + 1):
        changed = False
        for name in sorted(columns):
            best = (-_alignment_score(columns, bodies), columns[name])
            for c in range(arity.get(name, 1)):
                if c == columns[name]:
                    continue
                trial = dict(columns)
                trial[name] = c
                cand = (-_alignment_score(trial, bodies), c)
                if cand < best:
                    best = cand
            if best[1] != columns[name]:
                columns[name] = best[1]
                changed = True
        if not changed:
            break
    return columns


def broadcast_relations(
    program,
    columns: Mapping[str, int],
    recursive: Optional[FrozenSet[str]] = None,
) -> FrozenSet[str]:
    """Recursive relations whose deltas must ship to *every* shard.

    ``R`` may route (each worker receives only its owned slice, so its
    local ``new``/``old``/``delta`` stores for ``R`` are partial) only
    when every match a worker can drive touches exclusively on-shard
    ``R`` tuples.  Since worker ``i`` drives only delta tuples it owns,
    that holds when, in every body the differential loop re-runs, every
    occurrence ``O`` of ``R`` carries the same variable at
    ``columns[R]`` as every potential driver occurrence ``D`` carries
    at ``columns[D.relation]`` — then ``O``'s key hashes to the
    driver's shard in every match, independent of join order.
    Anything the model cannot certify — non-simple args, atoms under
    interpreted functions, arity/column mismatches (including head
    arities, which mint the delta keys) — broadcasts conservatively.
    """
    from .rules import RelAtom, factor_atoms

    if recursive is None:
        recursive = program.idb_names()
    broadcast: Set[str] = set()
    for rule in program.rules:
        head = rule.head_relation
        if head in recursive and not (
            0 <= columns.get(head, -1) < len(rule.head_args)
        ):
            broadcast.add(head)
        for body in rule.bodies:
            for factor in body.factors:
                if isinstance(factor, RelAtom):
                    continue
                for atom, _ in factor_atoms(factor):
                    if atom.relation in recursive:
                        broadcast.add(atom.relation)
    for _rule, _body, occs in _recursive_bodies(program, recursive):
        for oi, occ in enumerate(occs):
            if occ.relation in broadcast:
                continue
            co = columns.get(occ.relation, -1)
            if not _shardable_occurrence(occ, co):
                broadcast.add(occ.relation)
                continue
            for di, drv in enumerate(occs):
                if di == oi:
                    continue  # the driver tuple itself is owned
                cd = columns.get(drv.relation, -1)
                if not _shardable_occurrence(drv, cd) or not _aligned(
                    occ.args[co], drv.args[cd]
                ):
                    broadcast.add(occ.relation)
                    break
    return frozenset(broadcast)


@dataclass(frozen=True)
class ShardingPlan:
    """How the sharded engine partitions one (sub-)program's deltas.

    Picklable by construction — it ships to every worker once at pool
    start.  ``columns`` maps each recursive relation to the key
    position whose hash owns its tuples; ``broadcast`` names the
    relations whose deltas ship whole (see
    :func:`broadcast_relations`); ``workers`` is the shard count.
    """

    workers: int
    columns: Mapping[str, int]
    broadcast: FrozenSet[str]

    def owner(self, relation: str, key: Tuple) -> int:
        """The shard that drives this delta tuple."""
        if self.workers <= 1:
            return 0
        column = self.columns.get(relation)
        if column is None or not (0 <= column < len(key)):
            return shard_of(key, self.workers)
        return shard_of(key[column], self.workers)

    def routed(self, relation: str) -> bool:
        """True when only the owner shard needs this relation's delta."""
        return (
            relation in self.columns and relation not in self.broadcast
        )


def build_sharding_plan(
    program, workers: int, recursive: Optional[FrozenSet[str]] = None
) -> ShardingPlan:
    """Column selection + cross-shard analysis, packaged for shipping."""
    columns = select_shard_columns(program, recursive)
    broadcast = broadcast_relations(program, columns, recursive)
    return ShardingPlan(
        workers=workers, columns=columns, broadcast=broadcast
    )


def execute_ir(
    ir,
    guards: Sequence[Guard],
    indexes: Optional[Sequence[Optional[KeyIndex]]],
    fallback_domain: Sequence[Any],
    bool_lookup: Callable[[str, Key], bool],
    base: Optional[Valuation] = None,
    stats: Optional[JoinStats] = None,
) -> Iterator[Tuple[Valuation, SlotValues]]:
    """Interpret a :class:`~repro.core.plan_ir.BodyPlanIR`.

    The interpreted backend of the Plan IR: walks the IR's probe steps
    with generator semantics, yielding ``(valuation, slot_values)``
    pairs exactly like the pre-IR pipeline — per-candidate dict copies,
    the same probe/scan/pushdown counters, the shared fallback loop.
    ``indexes`` (aligned with ``guards``) supplies each step's index;
    entries of ``None`` — and a ``None`` sequence — fall back to the
    step guard's own ``index`` attribute, or an ephemeral index over
    its keys (the same resolution the batched executor performs per
    invocation).
    """
    steps = ir.steps
    counters = stats if stats is not None else JoinStats()
    base_valuation = dict(base) if base else {}

    domain_set = frozenset(fallback_domain) if ir.needs_domain_set else None

    # Bindings first: prefix filters may mention variables they define.
    if ir.initial_bindings:
        extended = apply_initial_bindings(
            ir, base_valuation, domain_set, counters
        )
        if extended is None:
            return
        base_valuation = extended
    for cond in ir.prefix_filters:
        if not condition_holds(cond, base_valuation, bool_lookup):
            counters.pushdown_prunes += 1
            return

    fallback_steps = ir.fallback
    residual = ir.residual

    step_indexes: List[KeyIndex] = []
    for step in steps:
        index = indexes[step.guard_pos] if indexes is not None else None
        if index is None:
            guard = guards[step.guard_pos]
            index = guard.index
            if index is None:
                index = KeyIndex(guard.keys(), stats=stats)
        step_indexes.append(index)

    def finish(valuation: Valuation, carried: Tuple) -> Iterator[Tuple[Valuation, SlotValues]]:
        slot_values: SlotValues = dict(carried) if carried else _NO_SLOTS
        for candidate in run_fallback(
            valuation,
            fallback_steps,
            residual,
            fallback_domain,
            domain_set,
            bool_lookup,
            counters,
        ):
            yield candidate, slot_values

    def recurse(
        i: int, valuation: Valuation, carried: Tuple
    ) -> Iterator[Tuple[Valuation, SlotValues]]:
        if i == len(steps):
            yield from finish(valuation, carried)
            return
        step = steps[i]
        if step.mask:
            probe = tuple(
                arg.value if isinstance(arg, Constant) else valuation[arg.name]
                for arg in step.probe_args
            )
            candidates = step_indexes[i].probe_entries(step.mask, probe)
            counters.probes += 1
            counters.probed_keys += len(candidates)
        else:
            candidates = step_indexes[i].entries()
            counters.scans += 1
            counters.scanned_keys += len(candidates)
        arity = step.arity
        binds = step.binds
        dups = step.dups
        checks = step.checks
        filters = step.filters
        slot = step.slot
        for entry in candidates:
            key = entry[0]
            if len(key) != arity:
                counters.arity_skips += 1
                continue
            if dups:
                bad = False
                for pos, first in dups:
                    if key[pos] != key[first]:
                        bad = True
                        break
                if bad:
                    continue
            if checks:
                # Legacy plans only: the runtime base bound a variable
                # the plan-time mask does not cover — the key must
                # agree with it (the old ``_unify`` clash rejection).
                bad = False
                for pos, name in checks:
                    if key[pos] != valuation[name]:
                        bad = True
                        break
                if bad:
                    continue
            if binds:
                extended = dict(valuation)
                for pos, name in binds:
                    extended[name] = key[pos]
            else:
                extended = valuation
            if filters:
                pruned = False
                for cond in filters:
                    if not condition_holds(cond, extended, bool_lookup):
                        counters.pushdown_prunes += 1
                        pruned = True
                        break
                if pruned:
                    continue
            value = entry[1]
            if slot is not None and value is not NO_VALUE:
                yield from recurse(i + 1, extended, carried + ((slot, value),))
            else:
                yield from recurse(i + 1, extended, carried)

    yield from recurse(0, base_valuation, ())


def execute_plan(
    plan: JoinPlan,
    variables: Sequence[str],
    fallback_domain: Sequence[Any],
    condition: Condition,
    bool_lookup: Callable[[str, Key], bool],
    base: Optional[Valuation] = None,
    stats: Optional[JoinStats] = None,
) -> Iterator[Tuple[Valuation, SlotValues]]:
    """Run a join plan, yielding ``(valuation, slot_values)`` pairs.

    Every satisfying valuation is yielded exactly once, with the POPS
    values that rode the probes keyed by body-factor slot (empty when
    no guard carries values).  Semantically the valuation stream is
    identical to the seed's guard-nested-loop enumeration (see
    :func:`repro.core.valuations.enumerate_valuations`): variables not
    covered by any guard range over ``fallback_domain`` and every
    candidate passes ``condition`` — just checked piecewise at the
    earliest sound position when the plan carries a pushdown schedule.

    Compatibility shim over the Plan IR: the ``JoinPlan`` is lowered
    via :func:`repro.core.plan_ir.lower_join_plan` (plans built without
    a condition get the seed-style leaf-check schedule) and executed by
    :func:`execute_ir` — one interpreted executor, whatever the caller
    holds.
    """
    from .plan_ir import lower_join_plan

    base_bound = set(base) if base else set()
    ir, indexes = lower_join_plan(
        plan, variables, condition, base_bound=base_bound
    )
    yield from execute_ir(
        ir,
        [step.guard for step in plan.steps],
        indexes,
        fallback_domain,
        bool_lookup,
        base=base,
        stats=stats,
    )
