"""Grounding a datalog° program into a polynomial system (Section 4.3).

Fix an EDB instance ``(I, I_B)`` and let ``D₀`` be its active domain
plus the program's constants.  Every ground IDB atom ``T(ā)`` over
``D₀`` receives a **provenance polynomial** (Eq. 13): the sum over all
valuations ``θ`` that map the head variables to ``ā`` and satisfy
``Φ``, of the monomial obtained from the body — EDB atoms evaluated to
their (known) values, IDB atoms kept symbolic.

The resulting :class:`~repro.core.polynomial.PolynomialSystem` is the
paper's definitional semantics; its Kleene iteration must agree with the
direct rule-at-a-time engine, which the test-suite checks on every
example program (differential testing).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..semirings.base import FunctionRegistry, POPS, Value
from .ast import Valuation, eval_term
from .batched import build_batched_join_kernel
from .indexes import NO_VALUE, IndexManager, JoinStats
from .instance import Database, Instance
from .polynomial import Monomial, Polynomial, PolynomialSystem, VarId
from .plan_ir import build_body_plan
from .rules import (
    FuncFactor,
    Program,
    RelAtom,
    SumProduct,
    factor_atoms,
)
from .kernels import resolve_engine_mode
from .valuations import (
    FactorEvaluator,
    body_guards,
    enumerate_matches,
    is_indexed_plan,
    plan_ordering,
    refresh_guard_indexes,
)


class GroundingError(ValueError):
    """Raised for programs outside the polynomial fragment.

    Interpreted value-space functions applied to IDB atoms (e.g.
    ``not(W(y))`` over THREE, or the threshold of Example 4.3) make the
    grounded ICO a non-polynomial monotone map; the convergence theory
    of Section 5 no longer applies syntactically (the paper makes the
    same caveat after Example 4.3), so grounding refuses.
    """


def _monomial_for_valuation(
    body: SumProduct,
    valuation: Valuation,
    pops: POPS,
    evaluator: FactorEvaluator,
    idb_names: frozenset,
    empty_idb: Instance,
    slot_values: Optional[Dict[int, Value]] = None,
) -> Monomial:
    """Build the monomial of one valuation (Eq. 12, EDBs substituted).

    ``slot_values`` carries EDB values that rode the enumeration's
    index probes, so the coefficient is assembled without re-hashing
    the probed keys.
    """
    coeff: Value = pops.one
    powers: List[Tuple[VarId, int]] = []
    for i, factor in enumerate(body.factors):
        if isinstance(factor, RelAtom) and factor.relation in idb_names:
            key = tuple(eval_term(a, valuation) for a in factor.args)
            powers.append(((factor.relation, key), 1))
        elif isinstance(factor, FuncFactor):
            if any(atom.relation in idb_names for atom, _ in factor_atoms(factor)):
                raise GroundingError(
                    "interpreted function over IDB atoms is not polynomial: "
                    f"{factor}"
                )
            coeff = pops.mul(
                coeff,
                evaluator.factor_value(factor, valuation, empty_idb, idb_names),
            )
        elif slot_values and i in slot_values:
            coeff = pops.mul(coeff, slot_values[i])
        else:
            coeff = pops.mul(
                coeff,
                evaluator.factor_value(factor, valuation, empty_idb, idb_names),
            )
    return Monomial.make(coeff, powers)


def ground_program(
    program: Program,
    database: Database,
    functions: Optional[FunctionRegistry] = None,
    total: Optional[bool] = None,
    combine_like_terms: bool = True,
    plan: str = "indexed",
    stats: Optional[JoinStats] = None,
    engine: str = "auto",
) -> PolynomialSystem:
    """Ground a program over an EDB instance into a polynomial system.

    Args:
        program: The datalog° program.
        database: The EDB instance ``(I, I_B)``.
        functions: Registry for interpreted functions over EDB-only
            sub-expressions.
        total: Whether to materialize a polynomial for *every* ground
            IDB atom over ``D₀`` (the formal semantics).  Defaults to
            true exactly when the value space is not a naturally
            ordered semiring — there absent and ``0`` differ, so empty
            sums are observable (Section 2.4's domain-independence
            discussion).  Over naturally ordered semirings the sparse
            system (only derivable heads) is semantically equal.
        combine_like_terms: Merge equal-power monomials by ``⊕`` of
            their coefficients (always semantics-preserving).
        plan: Join strategy for valuation enumeration — ``"indexed"``
            (selectivity-ordered index probes, the default) or
            ``"naive"`` (the seed's scan join, kept for differential
            testing).
        stats: Optional :class:`~repro.core.indexes.JoinStats`
            receiving the enumeration's probe/scan counters.
        engine: ``"batched"`` (the ``"auto"`` choice on indexed plans)
            runs each body's plan on the columnar whole-batch pipeline
            (:mod:`repro.core.batched`) in emit mode — the leaf builds
            provenance monomials, so the join streams matches into one
            callback; grounding is one-shot, so the win is the
            executor rather than cross-iteration caching.
            ``"interpreted"`` keeps the generator pipeline.

    Returns:
        The grounded :class:`PolynomialSystem`.
    """
    pops = database.pops
    batched = resolve_engine_mode(engine, plan) == "batched"
    if total is None:
        total = not (pops.is_semiring and pops.is_naturally_ordered)
    evaluator = FactorEvaluator(pops, database, functions, stats=stats)
    idb_names = program.idb_names()
    empty_idb = Instance(pops)
    indexes = IndexManager(stats=stats) if is_indexed_plan(plan) else None
    domain = sorted(
        database.active_domain() | program.constants(), key=repr
    )

    polynomials: Dict[VarId, Polynomial] = {}
    order: List[VarId] = []

    if total:
        for rel, arity in program.idbs.items():
            for key in itertools.product(domain, repeat=arity):
                var: VarId = (rel, key)
                polynomials[var] = Polynomial()
                order.append(var)

    def idb_supplier(name: str):
        # IDB atoms never drive grounding enumeration (symbolic).
        return lambda: ()

    for rule in program.rules:
        for body in rule.bodies:
            guards = body_guards(
                body,
                pops,
                database,
                idb_names,
                idb_supplier,
                allow_idb_guards=False,
                indexes=indexes,
            )
            if indexes is not None:
                refresh_guard_indexes(guards, indexes, epoch="ground")
            variables = body.enumeration_order()

            def ground_one(valuation, slot_values, rule=rule, body=body):
                head_key = tuple(
                    eval_term(t, valuation) for t in rule.head_args
                )
                var = (rule.head_relation, head_key)
                if var not in polynomials:
                    polynomials[var] = Polynomial()
                    order.append(var)
                monomial = _monomial_for_valuation(
                    body, valuation, pops, evaluator, idb_names, empty_idb,
                    slot_values=slot_values,
                )
                polynomials[var] = polynomials[var].plus(
                    Polynomial((monomial,))
                )

            if batched:
                ir, _indexes = build_body_plan(
                    guards,
                    variables=variables,
                    condition=body.condition,
                    order=plan_ordering(plan),
                    stats=stats,
                    n_slots=len(body.factors),
                )
                kernel = build_batched_join_kernel(
                    ir,
                    database.bool_holds,
                    domain,
                    stats=stats,
                    label=f"ground.{rule.head_relation}",
                )

                def emit(valu, slots):
                    slot_values = {
                        i: v for i, v in enumerate(slots) if v is not NO_VALUE
                    }
                    ground_one(dict(valu), slot_values)

                kernel.execute(guards, emit)
                continue
            for valuation, slot_values in enumerate_matches(
                variables,
                guards,
                domain,
                body.condition,
                database.bool_holds,
                plan=plan,
                stats=stats,
            ):
                ground_one(valuation, slot_values)

    if combine_like_terms:
        polynomials = {
            v: p.combine_like_terms(pops) for v, p in polynomials.items()
        }
    if pops.is_semiring and pops.is_naturally_ordered:
        polynomials = {
            v: p.drop_absorbed_zeros(pops) for v, p in polynomials.items()
        }
    return PolynomialSystem(pops=pops, polynomials=polynomials, order=order)


def assignment_to_instance(
    system: PolynomialSystem, assignment: Dict[VarId, Value]
) -> Instance:
    """Convert a grounded-system assignment back into an IDB instance."""
    instance = Instance(system.pops)
    for var, value in assignment.items():
        rel, key = var
        instance.set(rel, key, value)
    return instance
