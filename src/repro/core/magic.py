"""Magic-set rewriting for datalog° (the §1 optimization, generalized).

The paper names *semi-naïve evaluation* and *magic set rewriting* as the
two classic datalog optimizations (its companion paper derives magic
sets from the FGH rule).  This module implements the textbook
transformation, lifted to value-annotated programs:

Given a query pattern — an IDB with some argument positions **bound**
to constants — the rewritten program derives only the part of the
fixpoint *relevant* to the query:

* every reachable ``(relation, adornment)`` pair gets a **magic
  predicate** ``m_R_badornment(bound args)`` collecting the demanded
  bindings, seeded with the query constants;
* sideways information passing (left-to-right over each sum-product)
  emits magic rules from the originals;
* each original rule is guarded by ``supp(m_R_α(bound head args))``,
  where ``supp`` maps ``0 ↦ 0`` and everything else to ``1`` — a
  monotone function on every naturally ordered semiring.

Correctness over a value space requires (and the implementation
checks): a naturally ordered semiring — probed with
:func:`repro.semirings.stability.natural_preorder_holds` on top of the
declared flags — with an idempotent ``⊕``; then the *support* of a
magic predicate equals the classic Boolean magic set, so demanded atoms
keep exactly their full-evaluation values (verified differentially by
the tests over ``B``, ``Trop+``, bottleneck and Viterbi).

**This is the legacy reference implementation.**  Its ``supp`` guard is
an interpreted :class:`~repro.core.rules.FuncFactor` over an IDB atom,
so the rewritten program only runs under ``method="naive"`` (semi-naïve
evaluation rejects the guard for lack of differential affinity) and
pays a per-tuple Python call.  The modern engine's demand path —
``solve(..., query=...)`` / ``datalogo run --query`` — lives in
:mod:`repro.core.demand`: the same sideways-information-passing
rewrite, but with magic guards as plain value-``1`` atoms and support
views in the pushdown-filter slot, running unchanged through the
batched executor, SCC scheduling and sharding
(experiment E21 measures it).  This module remains the differential
baseline for the transformation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..semirings.base import FunctionRegistry, POPS, Value
from ..semirings.stability import natural_preorder_holds
from .ast import Constant, Term, Variable, term_variables
from .rules import (
    Factor,
    FuncFactor,
    Program,
    RelAtom,
    Rule,
    SumProduct,
    ValueConst,
)

Adornment = str  # e.g. "bf": first argument bound, second free.


class MagicError(ValueError):
    """Raised when a program/query is outside the supported fragment.

    Messages name the offending piece — the adorned predicate
    (``R^bf``), the query pattern, or the value-space law that failed —
    so callers can report *which* fragment boundary was crossed, not
    just that one was.
    """


def support_function(pops: POPS):
    """The monotone ``supp``: ``0 ↦ 0``, anything else ``↦ 1``."""

    def supp(value: Value) -> Value:
        if pops.eq(value, pops.zero):
            return pops.zero
        return pops.one

    return supp


def magic_registry(pops: POPS, base: Optional[FunctionRegistry] = None) -> FunctionRegistry:
    """A function registry with ``supp`` installed for the value space."""
    registry = base or FunctionRegistry()
    registry.register("supp", support_function(pops))
    return registry


def _magic_name(relation: str, adornment: Adornment) -> str:
    return f"m_{relation}_{adornment}"


def _atom_adornment(
    atom: RelAtom, bound_vars: Set[str], context: str = ""
) -> Adornment:
    letters = []
    for arg in atom.args:
        if isinstance(arg, Constant):
            letters.append("b")
        elif isinstance(arg, Variable):
            letters.append("b" if arg.name in bound_vars else "f")
        else:
            where = f" (while adorning {context})" if context else ""
            raise MagicError(
                f"occurrence of {atom.relation} carries the interpreted "
                f"key function {arg}{where}: the magic transformation "
                "adorns constant/variable arguments only"
            )
    return "".join(letters)


def _bound_args(args: Sequence[Term], adornment: Adornment) -> Tuple[Term, ...]:
    return tuple(a for a, c in zip(args, adornment) if c == "b")


@dataclass(frozen=True)
class MagicQuery:
    """A query pattern: relation, adornment and the bound constants.

    ``bindings`` supplies one constant per ``b`` position, e.g.
    ``MagicQuery("T", "bf", ("a",))`` asks for ``T(a, Y)``.
    """

    relation: str
    adornment: Adornment
    bindings: Tuple = ()

    def __post_init__(self) -> None:
        if self.adornment.count("b") != len(self.bindings):
            raise MagicError(
                f"query {self.relation}^{self.adornment} needs "
                f"{self.adornment.count('b')} bindings, got "
                f"{len(self.bindings)}"
            )
        if not set(self.adornment) <= {"b", "f"}:
            raise MagicError(f"bad adornment {self.adornment!r}")


def _check_value_space(pops: POPS, query: MagicQuery) -> None:
    # Natural order: on top of the declared flags, probe 0 ⪯ v with
    # the stability analysis' witnessed preorder check (shared with
    # repro.core.demand) instead of trusting the flags alone.
    witnesses = tuple(pops.sample_values()) + (pops.zero, pops.one)
    naturally_ordered = (
        pops.is_semiring
        and pops.is_naturally_ordered
        and all(
            natural_preorder_holds(pops, pops.zero, v, witnesses)
            for v in witnesses
        )
    )
    if not naturally_ordered:
        raise MagicError(
            f"rewriting {query.relation}^{query.adornment} requires a "
            f"naturally ordered semiring; {pops.name} is not (the "
            "natural-preorder probe 0 ⪯ v failed, so supp is not "
            "monotone there)"
        )
    # When a relation is demanded under several adornments its answer
    # rules coexist; a non-idempotent ⊕ would then double-count
    # derivations demanded by more than one pattern.
    for v in witnesses:
        if not pops.eq(pops.add(v, v), v):
            raise MagicError(
                f"rewriting {query.relation}^{query.adornment} requires "
                f"an idempotent ⊕; {pops.name} is not (v ⊕ v ≠ v for "
                f"{v!r}: a derivation demanded under two adornments "
                "would be counted twice)"
            )


def magic_rewrite(program: Program, query: MagicQuery, pops: POPS) -> Program:
    """Return the magic-rewritten program for a query pattern.

    The result contains, for every reachable adorned IDB ``R^α``:

    * ``m_R_α(b̄) :- seed | sideways-passing bodies``;
    * ``R(x̄) :- supp(m_R_α(bound x̄)) ⊗ original body`` — note the
      original relation names are kept for answer atoms, so demanded
      answers can be read out directly.

    Only one adornment per IDB may be *used* in rule bodies of this
    implementation (rules are adorned per reachable pattern; patterns
    are tracked through a worklist).
    """
    _check_value_space(pops, query)
    if query.relation not in program.idbs:
        raise MagicError(
            f"query relation {query.relation!r} is not an IDB of the "
            f"program (IDBs: {sorted(program.idbs)})"
        )
    if len(query.adornment) != program.idbs[query.relation]:
        raise MagicError(
            f"adornment {query.adornment!r} has {len(query.adornment)} "
            f"positions; {query.relation} has arity "
            f"{program.idbs[query.relation]}"
        )

    rules_by_head: Dict[str, List[Rule]] = {}
    for r in program.rules:
        rules_by_head.setdefault(r.head_relation, []).append(r)
    idbs = set(program.idbs)

    new_rules: List[Rule] = []
    seen: Set[Tuple[str, Adornment]] = set()
    worklist: List[Tuple[str, Adornment]] = [(query.relation, query.adornment)]

    # Seed rule: m_Q_α(c̄) :- 1.
    seed_head = _magic_name(query.relation, query.adornment)
    seed_args = tuple(Constant(c) for c in query.bindings)
    new_rules.append(
        Rule(seed_head, seed_args, (SumProduct((ValueConst(pops.one),)),))
    )

    while worklist:
        relation, adornment = worklist.pop()
        if (relation, adornment) in seen:
            continue
        seen.add((relation, adornment))
        for rule in rules_by_head.get(relation, ()):
            magic_rel = _magic_name(relation, adornment)
            head_bound = _bound_args(rule.head_args, adornment)
            head_bound_vars = {
                v.name for t in head_bound for v in term_variables(t)
            }

            for body in rule.bodies:
                guard = FuncFactor("supp", (RelAtom(magic_rel, head_bound),))
                guarded_factors: List[Factor] = [guard]
                bound_vars = set(head_bound_vars)
                prefix: List[Factor] = [guard]
                for factor in body.factors:
                    if isinstance(factor, RelAtom) and factor.relation in idbs:
                        occ_adornment = _atom_adornment(
                            factor, bound_vars, f"{relation}^{adornment}"
                        )
                        m_rel = _magic_name(factor.relation, occ_adornment)
                        m_args = _bound_args(factor.args, occ_adornment)
                        # Magic rule (0-ary for fully-free occurrences:
                        # the demand is "everything", carried by the
                        # nullary magic atom being derivable at all).
                        new_rules.append(
                            Rule(
                                m_rel,
                                m_args,
                                (SumProduct(tuple(prefix), body.condition),),
                            )
                        )
                        worklist.append((factor.relation, occ_adornment))
                    # Every factor extends the sideways prefix and
                    # binds its variables for later occurrences.
                    prefix.append(factor)
                    if isinstance(factor, RelAtom):
                        for arg in factor.args:
                            for v in term_variables(arg):
                                bound_vars.add(v.name)
                    guarded_factors.append(factor)
                new_rules.append(
                    Rule(
                        relation,
                        rule.head_args,
                        (SumProduct(tuple(guarded_factors), body.condition),),
                    )
                )

    rewritten = Program(
        rules=new_rules,
        edbs=dict(program.edbs),
        bool_edbs=dict(program.bool_edbs),
    )
    return rewritten


def demanded_keys(query: MagicQuery, keys: Sequence[Tuple]) -> List[Tuple]:
    """Filter full-evaluation keys down to those matching the query."""
    out = []
    for key in keys:
        ok = True
        bound_iter = iter(query.bindings)
        for value, c in zip(key, query.adornment):
            if c == "b" and value != next(bound_iter):
                ok = False
                break
        if ok:
            out.append(key)
    return out
