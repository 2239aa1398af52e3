"""Valuation enumeration and factor evaluation (the engine's join core).

Grounding (Section 4.3) and direct ICO evaluation both need to iterate
over the valuations ``θ : V → D₀`` of a sum-product body that satisfy
the conditional ``Φ`` (Eq. 13).  Doing this naïvely as ``D₀^|V|`` is the
formal definition; this module additionally supports *guard-driven*
enumeration — joining over the supports of relations whose absent
tuples provably contribute the ⊕-neutral ``0`` — which is the
optimization every real datalog engine performs, and which is sound
exactly when the flags of the value space say so:

* Boolean-EDB atoms used as factors: absent ⇒ factor ``0``; skipping
  needs ``0`` to absorb, i.e. ``is_semiring``.
* POPS-relation atoms: absent ⇒ factor ``⊥``; skipping additionally
  needs ``⊥ = 0``, i.e. ``is_naturally_ordered``.
* Atoms under an interpreted function are never skipped (``f(0)`` or
  ``f(⊥)`` may be anything, e.g. ``not(0) = 1`` over THREE).

Positive conjunctive atoms of ``Φ`` itself are always usable as guards:
a valuation violating them fails ``Φ`` outright.

On top of guard-driven enumeration the indexed plan adds **condition
pushdown** (conjuncts of ``Φ`` applied at the earliest step where their
variables are bound, equality conjuncts turned into direct bindings —
see :mod:`repro.core.pushdown`) and **value-carrying probes** (guards
over POPS supports yield ``(key, value)`` entries so
:class:`FactorEvaluator` evaluates the matching factor without a second
hash lookup).  ``plan="naive"`` keeps the seed behavior untouched as
the differential-testing baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..semirings.base import FunctionRegistry, POPS, Value
from .ast import (
    Condition,
    Constant,
    Valuation,
    Variable,
    condition_holds,
    eval_term,
    positive_bool_atoms,
)
from .indexes import IndexManager, JoinStats, KeyIndex
from .instance import Database, Instance, Key
from .pushdown import naive_schedule, run_fallback
from .rules import (
    Factor,
    FuncFactor,
    Indicator,
    KeyAsValue,
    RelAtom,
    SumProduct,
    ValueConst,
    factor_atoms,
)

#: Body-factor position -> the POPS value that rode the probe.
SlotValues = Dict[int, Value]

_NO_SLOTS: SlotValues = {}


def is_indexed_plan(plan: str) -> bool:
    """Whether a plan name selects the hash-index probe pipeline.

    ``"indexed"`` (cost-based join ordering, the default) and
    ``"indexed-greedy"`` (the PR-1/PR-2 greedy ordering, kept for
    plan-quality differentials) share the whole probe/pushdown
    machinery; only the guard-ordering strategy differs.
    """
    return plan in ("indexed", "indexed-greedy")


def plan_ordering(plan: str) -> str:
    """The :func:`repro.core.planner.build_plan` ordering for a plan."""
    return "greedy" if plan == "indexed-greedy" else "cost"


@dataclass
class Guard:
    """A generator of candidate bindings: atom args + key supplier.

    ``index`` optionally carries a persistent
    :class:`~repro.core.indexes.KeyIndex` over the same key set (shared
    across enumerations by an :class:`~repro.core.indexes.IndexManager`);
    when absent, the planner builds an ephemeral index from ``keys()``.
    ``name`` identifies the key source for diagnostics and for
    evaluators that refresh indexes between iterations.

    ``slot`` is the body-factor position the guard's atom occupies;
    when ``carries_value`` is set the guard's key source is the *same
    store* factor evaluation would read, so the value stored in the
    index entry may be used directly for that factor (no second hash
    lookup).  Boolean and condition guards stay key-only.
    """

    args: Tuple
    keys: Callable[[], Iterable[Key]]
    name: str = ""
    index: Optional[KeyIndex] = None
    slot: Optional[int] = None
    carries_value: bool = False

    def simple_args(self) -> bool:
        """Whether every argument is a plain variable or constant."""
        return all(isinstance(a, (Variable, Constant)) for a in self.args)


def _unify(args: Tuple, key: Key, valuation: Valuation) -> Optional[Valuation]:
    """Extend ``valuation`` so that ``args`` match ``key``; None on clash."""
    out = valuation
    copied = False
    for arg, val in zip(args, key):
        if isinstance(arg, Constant):
            if arg.value != val:
                return None
        else:  # Variable (guards guarantee simple args)
            bound = out.get(arg.name, _UNSET)
            if bound is _UNSET:
                if not copied:
                    out = dict(out)
                    copied = True
                out[arg.name] = val
            elif bound != val:
                return None
    return out


_UNSET = object()


def enumerate_matches(
    variables: Sequence[str],
    guards: Sequence[Guard],
    fallback_domain: Sequence[Any],
    condition: Condition,
    bool_lookup: Callable[[str, Key], bool],
    base: Optional[Valuation] = None,
    plan: str = "indexed",
    stats: Optional[JoinStats] = None,
    extra_conjuncts: Sequence[Condition] = (),
) -> Iterator[Tuple[Valuation, SlotValues]]:
    """Yield ``(valuation, slot_values)`` for every satisfying valuation.

    ``slot_values`` maps body-factor positions to the POPS values that
    rode the index probes (always empty under ``plan="naive"``).

    Args:
        plan: ``"indexed"`` (default) orders guards by estimated
            selectivity, turns each guard after the first into a
            hash-index probe on its bound columns, pushes the conjuncts
            of ``condition`` (plus ``extra_conjuncts``) down to their
            earliest decidable position, and replaces the fallback
            product with an incremental pruning loop (see
            :mod:`repro.core.planner` / :mod:`repro.core.pushdown`);
            ``"naive"`` keeps the seed behavior — guards in the given
            order, each one a full support scan per candidate binding,
            ``condition`` checked once at the leaf — as the
            differential baseline.  Both produce the same set of
            valuations.
        stats: Optional :class:`~repro.core.indexes.JoinStats` receiving
            probe/scan/pushdown counters.
        extra_conjuncts: Additional engine-proven pushable filters
            (e.g. indicator brackets whose false branch is the
            absorbing ``0``).  Applied only by the indexed plan; the
            naive baseline ignores them and relies on the ``0``
            contributions being ⊕-neutral.
    """
    usable = [g for g in guards if g.simple_args()]
    base_valuation = dict(base) if base else {}

    if is_indexed_plan(plan):
        # Plan once into the backend-neutral IR, then interpret it —
        # the same IR the batched executor runs (see
        # :mod:`repro.core.plan_ir`).
        from .plan_ir import build_body_plan
        from .planner import execute_ir

        ir, indexes = build_body_plan(
            usable,
            variables=variables,
            condition=condition,
            bound=set(base_valuation),
            extra_conjuncts=extra_conjuncts,
            order=plan_ordering(plan),
            stats=stats,
        )
        yield from execute_ir(
            ir,
            usable,
            indexes,
            fallback_domain,
            bool_lookup,
            base=base_valuation,
            stats=stats,
        )
        return
    if plan != "naive":
        raise ValueError(f"unknown join plan {plan!r}")

    counters = stats if stats is not None else JoinStats()
    # Loop-invariant: every usable guard binds all its variables, so
    # the fallback variable list is the same at every leaf.
    guard_bound = {
        arg.name
        for guard in usable
        for arg in guard.args
        if isinstance(arg, Variable)
    }
    remaining = [
        v
        for v in variables
        if v not in base_valuation and v not in guard_bound
    ]
    schedule = naive_schedule(condition, remaining)

    def recurse(i: int, valuation: Valuation) -> Iterator[Tuple[Valuation, SlotValues]]:
        if i == len(usable):
            for candidate in run_fallback(
                valuation,
                schedule.fallback,
                schedule.residual,
                fallback_domain,
                None,
                bool_lookup,
                counters,
            ):
                yield candidate, _NO_SLOTS
            return
        guard = usable[i]
        counters.scans += 1
        for key in guard.keys():
            counters.scanned_keys += 1
            if len(key) != len(guard.args):
                counters.arity_skips += 1
                continue
            extended = _unify(guard.args, key, valuation)
            if extended is not None:
                yield from recurse(i + 1, extended)

    yield from recurse(0, base_valuation)


def enumerate_valuations(
    variables: Sequence[str],
    guards: Sequence[Guard],
    fallback_domain: Sequence[Any],
    condition: Condition,
    bool_lookup: Callable[[str, Key], bool],
    base: Optional[Valuation] = None,
    plan: str = "indexed",
    stats: Optional[JoinStats] = None,
) -> Iterator[Valuation]:
    """Yield every valuation of ``variables`` satisfying ``condition``.

    Bindings are produced by joining the guards; variables not covered
    by any guard range over ``fallback_domain``.  Each valuation is
    yielded exactly once (distinct valuations correspond to distinct
    guard-key/fallback combinations).  This is the valuation-only view
    of :func:`enumerate_matches`.
    """
    for valuation, _slots in enumerate_matches(
        variables,
        guards,
        fallback_domain,
        condition,
        bool_lookup,
        base=base,
        plan=plan,
        stats=stats,
    ):
        yield valuation


def pushable_indicator_conditions(
    body: SumProduct, pops: POPS, total_heads: bool
) -> Tuple[Condition, ...]:
    """Indicator brackets usable as extra pushdown filters.

    A top-level :class:`Indicator` factor whose false branch is the
    semiring ``0`` zeroes the whole ⊗-product whenever its condition
    fails (``0`` absorbs), and a ``0`` summand is ⊕-neutral — so
    valuations falsifying the condition may be *skipped* instead of
    evaluated, provided skipping is unobservable: either every head
    slot is pre-totalized to ``0`` (``total_heads``) or absent and
    ``0`` coincide (``is_naturally_ordered``, where ``⊥ = 0``).  The
    classic win is SSSP's ``[x = source]`` source bracket: the
    equality binds ``x`` directly instead of enumerating the domain.
    """
    if not pops.is_semiring:
        return ()
    if not (total_heads or pops.is_naturally_ordered):
        return ()
    out: List[Condition] = []
    for factor in body.factors:
        if isinstance(factor, Indicator):
            false_value = factor.false_value
            if false_value is None or pops.eq(false_value, pops.zero):
                out.append(factor.condition)
    return tuple(out)


class FactorEvaluator:
    """Evaluates body factors under a valuation (Section 2.4 semantics).

    Lookups default to the POPS bottom for ``σ``/``τ`` relations and to
    ``0``/``1`` for Boolean relations used as factors (the standard
    embedding ``B ↪ P`` via ``{0, 1}``).  When the enumeration supplies
    ``slot_values`` (values that rode the index probes), the matching
    factors are served from them — zero secondary hash lookups on
    probed paths; ``stats`` counts both paths.
    """

    def __init__(
        self,
        pops: POPS,
        database: Database,
        functions: Optional[FunctionRegistry] = None,
        stats: Optional[JoinStats] = None,
    ):
        self.pops = pops
        self.database = database
        self.functions = functions or FunctionRegistry()
        self.stats = stats

    def atom_value(self, atom: RelAtom, valuation: Valuation, idb: Instance, idb_names: frozenset) -> Value:
        """Return the value of a relation atom under a valuation."""
        if self.stats is not None:
            self.stats.factor_lookups += 1
        key = tuple(eval_term(a, valuation) for a in atom.args)
        if atom.relation in idb_names:
            return idb.get(atom.relation, key)
        if atom.relation in self.database.relations:
            # A POPS relation wins over a same-named Boolean one (the
            # stratified evaluator publishes both views of an IDB).
            return self.database.value(atom.relation, key)
        if atom.relation in self.database.bool_relations:
            if self.database.bool_holds(atom.relation, key):
                return self.pops.one
            return self.pops.zero
        return self.database.value(atom.relation, key)

    def factor_value(
        self,
        factor: Factor,
        valuation: Valuation,
        idb: Instance,
        idb_names: frozenset,
    ) -> Value:
        """Evaluate one factor under a valuation."""
        if isinstance(factor, RelAtom):
            return self.atom_value(factor, valuation, idb, idb_names)
        if isinstance(factor, ValueConst):
            return factor.value
        if isinstance(factor, Indicator):
            holds = condition_holds(
                factor.condition, valuation, self.database.bool_holds
            )
            if holds:
                return (
                    factor.true_value
                    if factor.true_value is not None
                    else self.pops.one
                )
            return (
                factor.false_value
                if factor.false_value is not None
                else self.pops.zero
            )
        if isinstance(factor, FuncFactor):
            fn = self.functions.resolve(factor.name)
            args = [
                self.factor_value(sub, valuation, idb, idb_names)
                for sub in factor.args
            ]
            return fn(*args)
        if isinstance(factor, KeyAsValue):
            key = eval_term(factor.term, valuation)
            if factor.convert is None:
                return key
            return self.functions.resolve(factor.convert)(key)
        raise TypeError(f"unknown factor {factor!r}")

    def product_value(
        self,
        body: SumProduct,
        valuation: Valuation,
        idb: Instance,
        idb_names: frozenset,
        slot_values: Optional[SlotValues] = None,
    ) -> Value:
        """Evaluate the ⊗-product of a sum-product body (unit for empty).

        ``slot_values`` (factor position -> probed value) short-circuits
        the store lookup for factors whose value rode an index probe.
        """
        if not slot_values:
            return self.pops.mul_many(
                self.factor_value(f, valuation, idb, idb_names)
                for f in body.factors
            )
        stats = self.stats

        def values() -> Iterator[Value]:
            for i, factor in enumerate(body.factors):
                probed = slot_values.get(i, _UNSET)
                if probed is not _UNSET:
                    if stats is not None:
                        stats.value_probe_hits += 1
                    yield probed
                else:
                    yield self.factor_value(factor, valuation, idb, idb_names)

        return self.pops.mul_many(values())


def body_guards(
    body: SumProduct,
    pops: POPS,
    database: Database,
    idb_names: frozenset,
    idb_supplier: Callable[[str], Callable[[], Iterable[Key]]],
    allow_idb_guards: bool = True,
    indexes: Optional[IndexManager] = None,
) -> List[Guard]:
    """Build the guard list for a body under the soundness rules above.

    Args:
        body: The sum-product to plan.
        pops: The value space (its flags decide eligibility).
        database: EDB store (supports drive EDB guards).
        idb_names: IDB relation names.
        idb_supplier: Maps an IDB name to a key supplier reading the
            *current* instance at enumeration time (late binding — the
            instance changes between iterations).  Suppliers returning
            a ``Mapping`` make the guard value-carrying.
        allow_idb_guards: Disable to force fallback enumeration for IDB
            atoms (used by grounding, where IDBs stay symbolic).
        indexes: Optional :class:`~repro.core.indexes.IndexManager`;
            when given, guards over POPS EDB relations carry a
            persistent index shared across rule bodies and fixpoint
            iterations (those supports are immutable for an evaluator's
            lifetime).  Boolean-store and IDB guards stay late-bound —
            their stores can grow mid-run (hybrid evaluator, fixpoint
            iteration), so evaluators refresh their indexes per
            iteration via :func:`refresh_guard_indexes`.
    """

    def _edb_guard(args: Tuple, relation: str, slot: Optional[int]) -> Guard:
        support = database.support(relation)
        index = None
        if indexes is not None:
            index = indexes.get(
                ("edb", relation), support, version=len(support)
            )
        return Guard(
            args=args,
            keys=lambda s=support: s,
            name=f"edb:{relation}",
            index=index,
            slot=slot,
            carries_value=True,
        )

    def _bool_guard(args: Tuple, relation: str) -> Guard:
        rel = database.bool_relations.get(relation, set())
        return Guard(
            args=args, keys=lambda r=rel: r, name=f"bool:{relation}"
        )

    guards: List[Guard] = []
    for atom in positive_bool_atoms(body.condition):
        guards.append(_bool_guard(atom.args, atom.relation))
    sparse_pops = pops.is_semiring and pops.is_naturally_ordered
    for slot, factor in enumerate(body.factors):
        for atom, under_fn in factor_atoms(factor):
            if under_fn:
                continue
            if atom.relation in idb_names:
                if sparse_pops and allow_idb_guards:
                    guards.append(
                        Guard(
                            args=atom.args,
                            keys=idb_supplier(atom.relation),
                            name=f"idb:{atom.relation}",
                            slot=slot,
                            carries_value=True,
                        )
                    )
            elif atom.relation in database.relations:
                if sparse_pops:
                    guards.append(_edb_guard(atom.args, atom.relation, slot))
            elif atom.relation in database.bool_relations:
                if pops.is_semiring:
                    guards.append(_bool_guard(atom.args, atom.relation))
            else:
                if sparse_pops:
                    guards.append(_edb_guard(atom.args, atom.relation, slot))
    return guards


def refresh_guard_indexes(
    guards: Iterable[Guard],
    indexes: IndexManager,
    epoch: Hashable,
    versions: Optional[Dict[str, Hashable]] = None,
    bool_versions: Optional[Dict[str, Hashable]] = None,
    stats: Optional[JoinStats] = None,
) -> None:
    """Point dynamic guards at up-to-date indexes before an iteration.

    IDB guards read the evaluator's *current* instance, which changes
    between iterations: their index entry is versioned by the caller's
    ``epoch`` so the support is materialized at most once per iteration
    per relation, shared by every body mentioning it (rebuilt indexes
    inherit decayed probe observations, keeping selectivity estimates
    adaptive).  When ``versions`` maps a relation name to a
    *per-relation* change counter, that counter is used instead of the
    global epoch: a relation the last delta did not touch keeps its
    existing index (and its accumulated probe observations) instead of
    being rebuilt — the caller counts those skips in
    ``JoinStats.rebuild_skips``.  Boolean-store guards are versioned by
    store size (the sets only ever grow — the hybrid evaluator adds
    threshold facts mid-run) so they rebuild exactly when a fact
    appeared.  When ``bool_versions`` maps the relation to a change
    counter (maintained by the evaluator's per-iteration store-size
    check), an unchanged condition-atom store keeps its index without
    even re-materializing the store — previously these guards were
    re-validated every iteration whether or not a fact had appeared —
    and the skip is counted in ``stats.rebuild_skips``.  EDB guards
    already carry a persistent index.
    """
    for guard in guards:
        if guard.name.startswith("idb:"):
            relation = guard.name[4:]
            version = epoch if versions is None else versions.get(relation, epoch)
            guard.index = indexes.get(
                ("idb", guard.name), guard.keys, version=version
            )
        elif guard.name.startswith("bool:"):
            relation = guard.name[5:]
            if bool_versions is not None and relation in bool_versions:
                # The evaluator's change counter stands in for the
                # store size: an unchanged store returns the cached
                # index without touching the store at all (guard.keys
                # is a callable, so IndexManager only materializes it
                # on a version change).
                cached = indexes.peek(("bool", guard.name))
                index = indexes.get(
                    ("bool", guard.name),
                    guard.keys,
                    version=bool_versions[relation],
                )
                if stats is not None and index is cached:
                    stats.rebuild_skips += 1
                guard.index = index
            else:
                store = guard.keys()
                guard.index = indexes.get(
                    ("bool", guard.name), store, version=len(store)
                )
