"""Batched columnar Plan-IR executor: whole-batch execution per step.

This is the production executor (``engine="batched"``, which
``engine="auto"`` resolves to on every indexed plan).  The interpreted
pipeline — kept as the differential oracle — walks a join plan one
candidate tuple at a time, so the interpreter pays its per-tuple
overhead once per candidate per step.  This module flips the loop
structure: it executes each :class:`~repro.core.plan_ir.BodyPlanIR`
node over the **whole batch of candidate rows at once**, with the hot
work pushed into C-speed bulk primitives.

Data layout — one *batch* is a set of parallel columns:

* ``cols[var]``  — one Python list per bound variable (the key columns),
* ``slots[i]``   — one list per value-carrying probe slot (the value
  columns that rode the index probes),

all of equal length ``n`` (the row count).  Execution then proceeds
stage-at-a-time instead of row-at-a-time:

* a :class:`~repro.core.plan_ir.ProbeStepIR` becomes one **hash-join
  over the full batch**: build the probe-key column, fetch every mask
  bucket in one comprehension, and expand the surviving entries back
  into columns (``itertools.repeat``/``chain`` do the row replication
  at C speed);
* pushed-down filters, indicator brackets and residual ``Φ``-conjuncts
  become **vectorized boolean masks** that compress every column in one
  pass (``vector_filter_prunes`` counts the rows they remove);
* equality bindings become **column slices** — one term evaluation per
  row, no per-candidate dispatch;
* the leaf is a **grouped ⊕-reduction**: factor value columns are
  ⊗-folded elementwise and accumulated into the head bucket grouped by
  head key.

The reduction is stdlib-first (dict-of-lists, list comprehensions).
When :mod:`numpy` is importable *and* the semiring's ``⊕``/``⊗`` map
onto ufuncs (``Trop+`` = min/+, ``R+`` = +/×, ``Viterbi`` = max/×,
``Bottleneck`` = max/min) *and* every value in the batch is a plain
non-negative, NaN-free ``float``, the ⊗-fold and the grouped ⊕-reduce
run on ``float64`` arrays instead (``ufunc.at`` with exact seed/fold
order).  Any condition failing — numpy absent, unregistered semiring,
rich or mixed-type values — falls back to the stdlib path for that
leaf, so fixpoints stay byte-identical either way.

What the IR fixes, the executor keeps: the plan (join order, masks,
pushdown placement, fallback loop), index freshness
(``guards[pos].index`` resolved per invocation), per-candidate counter
events (every probe/scan/prune/fallback counter fires once per
candidate, as in a nested-loop walk of the plan — ``batch_joins`` /
``batch_rows`` count the whole-batch steps on top), and value
semantics (⊗-fold from ``1`` in body order, carried probe values,
store routing per Eq. 64 under semi-naïve variants).  Row order equals
the nested-loop candidate order, so even order-sensitive float
accumulation matches the interpreted oracle bit-for-bit.

Kernels are cached in the evaluators'
:class:`~repro.core.kernels.KernelCache` (``kernel_cache_hits`` counts
reuse).  Every evaluator runs this executor: naïve, semi-naïve with
all delta variants, hybrid, grounding (emit mode), every schedule
including ``parallel``, and the sharded workers.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, repeat
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

try:  # pragma: no cover - exercised via the monkeypatched-import test
    import numpy as _np
except Exception:  # pragma: no cover - numpy-free environments
    _np = None

from ..semirings.base import FunctionRegistry, POPS
from ..semirings.classic import BottleneckSemiring, ViterbiSemiring
from ..semirings.numeric import NonNegativeReals
from ..semirings.tropical import TropicalSemiring
from .ast import (
    And,
    BoolAtom,
    Compare,
    Condition,
    Constant,
    KeyFunc,
    Not,
    Or,
    Term,
    TrueCond,
    Variable,
)
from .indexes import NO_VALUE, JoinStats, KeyIndex
from .instance import Database
from .plan_ir import BodyPlanIR
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

_EMPTY_BUCKET: Tuple = ()
_EMPTY_DICT: Dict = {}
_MISSING = object()

_PY_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: ``(⊕, ⊗, guard_cols)`` ufunc triples per semiring name — the numpy
#: fast path is engaged only for these, and only over plain
#: non-negative NaN-free floats (where the ufuncs agree bit-for-bit
#: with the Python fold).  ``guard_cols`` marks ⊗ ufuncs that can
#: themselves diverge from the Python op on NaN or ``-0.0`` ties
#: (``minimum``/``maximum``); ``np.add``/``np.multiply`` are IEEE
#: bit-exact on *every* float, so those semirings only need the
#: post-fold guard on the accumulated products.
_NUMERIC_OPS: Dict[str, Tuple[Any, Any, bool]] = {}
if _np is not None:  # pragma: no branch
    _NUMERIC_OPS = {
        "Trop+": (_np.minimum, _np.add, False),
        "R+": (_np.add, _np.multiply, False),
        "Viterbi": (_np.maximum, _np.multiply, False),
        "Bottleneck": (_np.maximum, _np.minimum, True),
    }

#: Scalar C-level ``(class, ⊕, ⊗)`` per numeric semiring — see
#: :func:`_scalar_ops` for the exactness argument.
_FAST_SEMIRINGS: Dict[str, Tuple[type, Any, Any]] = {
    "Trop+": (TropicalSemiring, min, operator.add),
    "R+": (NonNegativeReals, operator.add, operator.mul),
    "Viterbi": (ViterbiSemiring, max, operator.mul),
    "Bottleneck": (BottleneckSemiring, max, min),
}

#: Below this row count the stdlib leaf wins (array conversion and the
#: per-row grouping pass cost more than the ufunc fold saves; with the
#: lazy map-chain leaf the crossover sits past ~2k rows on CPython
#: 3.12 + numpy 2.x for tuple-keyed heads).
_NUMPY_MIN_ROWS = 2048


def _scalar_ops(pops: Optional[POPS]):
    """C-level ``(⊕, ⊗)`` substitutes for the numeric semirings.

    The registered classes implement ``add``/``mul`` as single builtin
    expressions (``min(a, b)``, ``a + b``, …), so swapping in the
    builtin is *the same expression* for every input — not a float-only
    approximation.  Guarded by method identity so a subclass that
    overrides either op (e.g. the ``Trop+_p`` truncations) never
    matches.
    """
    if pops is None:
        return None
    entry = _FAST_SEMIRINGS.get(getattr(pops, "name", None))
    if entry is None:
        return None
    cls, add, mul = entry
    if type(pops).add is cls.add and type(pops).mul is cls.mul:
        return add, mul
    return None

# Counter cell indices (flushed into JoinStats once per invocation).
_C_PROBES = 0
_C_PROBED = 1
_C_SCANS = 2
_C_SCANNED = 3
_C_ARITY = 4
_C_PRUNES = 5
_C_FB = 6
_C_FBE = 7
_C_EQ = 8
_C_HITS = 9
_C_LOOKUPS = 10
_C_BATCH_JOINS = 11
_C_BATCH_ROWS = 12
_C_VEC_PRUNES = 13
_N_COUNTERS = 14


class BatchedError(TypeError):
    """Raised when a plan node cannot be lowered to a batched pipeline.

    Unreachable for plans produced by
    :func:`repro.core.plan_ir.build_body_plan`; raised at build time,
    never mid-fixpoint.
    """


def _compress(
    cols: Dict[str, list], slots: Dict[int, list], mask: List[bool], n: int
) -> int:
    """Drop masked-out rows from every column; return the new row count."""
    kept = 0
    for m in mask:
        if m:
            kept += 1
    if kept == n:
        return n
    for name, col in cols.items():
        cols[name] = [v for v, m in zip(col, mask) if m]
    for slot, col in slots.items():
        slots[slot] = [v for v, m in zip(col, mask) if m]
    return kept


def _replicate(col: list, counts: List[int]) -> list:
    """Repeat ``col[i]`` ``counts[i]`` times (the join expansion)."""
    return list(chain.from_iterable(map(repeat, col, counts)))


def _term_vars(term: Term) -> Set[str]:
    """The variable names a term reads."""
    if isinstance(term, Variable):
        return {term.name}
    if isinstance(term, KeyFunc):
        out: Set[str] = set()
        for a in term.args:
            out |= _term_vars(a)
        return out
    return set()


def _cond_vars(cond: Condition) -> Set[str]:
    """The variable names a condition reads."""
    if isinstance(cond, Compare):
        return _term_vars(cond.left) | _term_vars(cond.right)
    if isinstance(cond, BoolAtom):
        out: Set[str] = set()
        for a in cond.args:
            out |= _term_vars(a)
        return out
    if isinstance(cond, Not):
        return _cond_vars(cond.inner)
    if isinstance(cond, (And, Or)):
        out = set()
        for p in cond.parts:
            out |= _cond_vars(p)
        return out
    return set()


def _factor_vars(factor: Factor) -> Set[str]:
    """The variable names a factor's column function reads."""
    if isinstance(factor, RelAtom):
        out: Set[str] = set()
        for a in factor.args:
            out |= _term_vars(a)
        return out
    if isinstance(factor, Indicator):
        return _cond_vars(factor.condition)
    if isinstance(factor, FuncFactor):
        out = set()
        for f in factor.args:
            out |= _factor_vars(f)
        return out
    if isinstance(factor, KeyAsValue):
        return _term_vars(factor.term)
    return set()


class BatchedKernel:
    """One body plan compiled to a columnar whole-batch pipeline.

    In accumulate mode (:func:`build_batched_rule_kernel`) ``run(guards,
    state, bucket)`` joins, evaluates and accumulates: ``state`` is the
    current IDB instance (or the ``(new, delta, old)`` triple under a
    semi-naïve ``variant``), every match's ⊗-product is ⊕-accumulated
    into ``bucket`` under its head key, and the match count is returned.
    In emit mode (:func:`build_batched_join_kernel`) ``run(guards,
    emit)`` streams ``(valuation, slots)`` per match — the dict and list
    are owned by the kernel and reused across matches — which is what
    grounding's provenance-monomial leaf consumes.
    """

    def __init__(
        self,
        ir: BodyPlanIR,
        fallback_domain: Sequence[Any],
        bool_lookup: Callable[[str, Tuple], bool],
        stats: Optional[JoinStats],
        emit_mode: bool,
        body: Optional[SumProduct] = None,
        head_args: Tuple[Term, ...] = (),
        pops: Optional[POPS] = None,
        database: Optional[Database] = None,
        functions: Optional[FunctionRegistry] = None,
        idb_names: FrozenSet[str] = frozenset(),
        carried_slots: FrozenSet[int] = frozenset(),
        variant: Optional[Tuple[Sequence[int], int]] = None,
        label: str = "batched",
    ):
        if any(step.checks for step in ir.steps):
            raise BatchedError(
                "plans carrying runtime base-valuation checks (legacy "
                "JoinPlan lowering) have no batched pipeline"
            )
        self.ir = ir
        self.label = label
        self._stats = stats
        #: Optional budget poll (repro.core.guardrails.Budget): checked
        #: between pipeline stages, so a wall budget interrupts inside
        #: a single whole-batch rule application.
        self.poll = None
        self._bool_lookup = bool_lookup
        self._domain = tuple(fallback_domain)
        self._emit_mode = emit_mode
        self._body = body
        self._pops = pops
        self._database = database
        self._functions = functions
        self._idb_names = idb_names
        self._carried = carried_slots
        self._variant = variant
        # Any fallback equality binding needs the domain membership
        # set.
        needs_set = ir.needs_domain_set or any(
            fb.binding is not None for fb in ir.fallback
        )
        self._domset = frozenset(self._domain) if needs_set else frozenset()

        bound: Set[str] = set()
        self._initial = [
            (var, self._compile_term_col(term, bound, bind=var), check)
            for var, term, check in ir.initial_bindings
        ]
        self._prefix = self._compile_filters(ir.prefix_filters, bound)
        self._step_fns = []
        pre_bound: Set[str] = set()
        for i, step in enumerate(ir.steps):
            if i == len(ir.steps) - 1:
                pre_bound = set(bound)
            self._step_fns.append(self._compile_step(step, bound))
        self._fallback_fns = [
            self._compile_fallback(fb, bound, i == len(ir.fallback) - 1)
            for i, fb in enumerate(ir.fallback)
        ]
        self._residual = self._compile_filters(ir.residual, bound)
        self._bound_order = [v for v in ir.variables if v in bound]
        self._head_args = head_args
        if emit_mode:
            self._factors: List[Tuple[int, bool, Callable, int]] = []
            self._head_fn = None
        else:
            self._factors = [
                self._compile_factor_spec(slot, factor, bound)
                for slot, factor in enumerate(body.factors)
            ]
            self._head_fn = self._compile_key_col(head_args, bound)
        # Numpy fast path: resolved at build, re-checked per leaf (the
        # module global is monkeypatchable; values must prove float).
        self._np_ops = None
        self._zero_float = 0.0
        self._fast_ops = _scalar_ops(pops) if not emit_mode else None
        if (
            self._fast_ops is not None  # verified add/mul identity
            and type(pops.one) is float
            and type(pops.zero) is float
        ):
            self._np_ops = _NUMERIC_OPS.get(pops.name)
            self._zero_float = pops.zero
        # Idempotent-⊕ accumulate specialization: ``min``/``max`` agree
        # with ``setdefault`` + a strict compare byte-for-byte (both
        # keep the incumbent on ties and on NaN comparisons), saving a
        # bucket lookup per non-improving row.
        self._acc_lt = self._acc_gt = False
        if self._fast_ops is not None:
            self._acc_lt = self._fast_ops[0] is min
            self._acc_gt = self._fast_ops[0] is max
        self._prefix_steps = self._step_fns[:-1]
        self._fused = None if emit_mode else self._build_fused(ir, pre_bound)

    # ------------------------------------------------------------------
    # Column compilers (build-time expression lowering)
    # ------------------------------------------------------------------
    def _compile_term_col(
        self, term: Term, bound: Set[str], bind: Optional[str] = None
    ) -> Callable[[Dict[str, list], int], list]:
        """Lower a term to a column builder ``fn(cols, n) -> list``.

        ``bind`` registers the initial-binding target *after* the term
        is compiled (a binding may only read earlier bindings)."""
        fn = self._term_col(term, bound)
        if bind is not None:
            bound.add(bind)
        return fn

    def _term_col(self, term: Term, bound: Set[str]):
        if isinstance(term, Variable):
            name = term.name
            if name not in bound:
                raise BatchedError(
                    f"variable {name!r} read before any plan step binds it"
                )
            return lambda cols, n: cols[name]
        if isinstance(term, Constant):
            value = term.value
            return lambda cols, n: [value] * n
        if isinstance(term, KeyFunc):
            fn = term.fn
            subs = [self._term_col(a, bound) for a in term.args]
            if not subs:
                return lambda cols, n: [fn()] * n

            def col(cols, n, _fn=fn, _subs=subs):
                return [_fn(*vals) for vals in zip(*[s(cols, n) for s in _subs])]

            return col
        raise BatchedError(f"unknown term {term!r}")

    def _compile_key_col(
        self, args: Sequence[Term], bound: Set[str]
    ) -> Callable[[Dict[str, list], int], list]:
        fns = [self._term_col(a, bound) for a in args]
        if not fns:
            return lambda cols, n: [()] * n
        if len(fns) == 1:
            f0 = fns[0]
            return lambda cols, n: [(v,) for v in f0(cols, n)]

        def col(cols, n, _fns=fns):
            return list(zip(*[f(cols, n) for f in _fns]))

        return col

    def _compile_cond_mask(
        self, cond: Condition, bound: Set[str]
    ) -> Optional[Callable[[Dict[str, list], int], List[bool]]]:
        """Lower ``Φ`` to a boolean-mask builder; ``None`` = trivially
        true, including the trivially-true ``Or``-disjunct
        collapse."""
        if isinstance(cond, TrueCond):
            return None
        if isinstance(cond, Compare):
            op = _PY_OPS.get(cond.op)
            if op is None:  # pragma: no cover - parser gates
                raise BatchedError(f"unknown comparison {cond.op!r}")
            left = self._term_col(cond.left, bound)
            right = self._term_col(cond.right, bound)

            def mask(cols, n, _op=op, _l=left, _r=right):
                return [_op(a, b) for a, b in zip(_l(cols, n), _r(cols, n))]

            return mask
        if isinstance(cond, BoolAtom):
            key_fn = self._compile_key_col(cond.args, bound)
            lookup = self._bool_lookup
            rel = cond.relation

            def mask(cols, n, _kf=key_fn, _lk=lookup, _rel=rel):
                return [bool(_lk(_rel, k)) for k in _kf(cols, n)]

            return mask
        if isinstance(cond, Not):
            inner = self._compile_cond_mask(cond.inner, bound)
            if inner is None:
                return lambda cols, n: [False] * n
            return lambda cols, n, _i=inner: [not b for b in _i(cols, n)]
        if isinstance(cond, (And, Or)):
            parts = [self._compile_cond_mask(p, bound) for p in cond.parts]
            live = [p for p in parts if p is not None]
            if isinstance(cond, And):
                if not live:
                    return None

                def mask(cols, n, _parts=live):
                    out = _parts[0](cols, n)
                    for p in _parts[1:]:
                        out = [a and b for a, b in zip(out, p(cols, n))]
                    return out

                return mask
            if len(live) < len(parts):
                return None  # a trivially-true disjunct makes the Or true

            def mask(cols, n, _parts=live):
                out = _parts[0](cols, n)
                for p in _parts[1:]:
                    out = [a or b for a, b in zip(out, p(cols, n))]
                return out

            return mask
        raise BatchedError(f"unknown condition node {cond!r}")

    def _compile_filters(
        self, conditions: Sequence[Condition], bound: Set[str]
    ) -> List[Callable]:
        fns = [self._compile_cond_mask(c, bound) for c in conditions]
        return [f for f in fns if f is not None]

    # ------------------------------------------------------------------
    # Stage compilers
    # ------------------------------------------------------------------
    def _compile_step(self, step, bound: Set[str]) -> Callable:
        """One probe step as a whole-batch hash join stage."""
        guard_pos = step.guard_pos
        mask = step.mask
        arity = step.arity
        dups = step.dups
        key_fn = (
            self._compile_key_col(step.probe_args, bound) if mask else None
        )
        for _pos, name in step.binds:
            bound.add(name)
        filter_fns = self._compile_filters(step.filters, bound)
        binds = step.binds
        slot = step.slot
        keep_slot = slot is not None and (
            self._emit_mode or slot in self._carried
        )
        stats = self._stats

        def run_step(guards, cols, slots, n, ctr):
            guard = guards[guard_pos]
            index = guard.index
            if index is None:
                index = KeyIndex(guard.keys(), stats=stats)
            ctr[_C_BATCH_JOINS] += 1
            if mask:
                table_get = index.mask_table(mask).get
                buckets = [
                    table_get(k, _EMPTY_BUCKET) for k in key_fn(cols, n)
                ]
                total = sum(map(len, buckets))
                ctr[_C_PROBES] += n
                ctr[_C_PROBED] += total
                if dups:
                    flat: list = []
                    counts: List[int] = []
                    ap = flat.append
                    bad = 0
                    for bucket in buckets:
                        c = 0
                        for e in bucket:
                            k = e[0]
                            if len(k) != arity:
                                bad += 1
                                continue
                            for pos, first in dups:
                                if k[pos] != k[first]:
                                    break
                            else:
                                ap(e)
                                c += 1
                        counts.append(c)
                    ctr[_C_ARITY] += bad
                else:
                    flat = [
                        e for b in buckets for e in b if len(e[0]) == arity
                    ]
                    if len(flat) == total:
                        counts = list(map(len, buckets))
                    else:
                        ctr[_C_ARITY] += total - len(flat)
                        counts = [
                            sum(1 for e in b if len(e[0]) == arity)
                            for b in buckets
                        ]
            else:
                entries = index.entries()
                ctr[_C_SCANS] += n
                ctr[_C_SCANNED] += len(entries) * n
                if dups:
                    kept: list = []
                    ap = kept.append
                    bad = 0
                    for e in entries:
                        k = e[0]
                        if len(k) != arity:
                            bad += 1
                            continue
                        for pos, first in dups:
                            if k[pos] != k[first]:
                                break
                        else:
                            ap(e)
                    ctr[_C_ARITY] += bad * n
                else:
                    kept = [e for e in entries if len(e[0]) == arity]
                    ctr[_C_ARITY] += (len(entries) - len(kept)) * n
                flat = kept * n if n > 1 else kept
                counts = [len(kept)] * n
            n2 = len(flat)
            ctr[_C_BATCH_ROWS] += n2
            if n2 == 0:
                return 0
            for name, col in cols.items():
                cols[name] = _replicate(col, counts)
            for s, col in slots.items():
                slots[s] = _replicate(col, counts)
            if len(binds) == 1:
                pos, name = binds[0]
                cols[name] = [e[0][pos] for e in flat]
            elif binds:
                keys_col = [e[0] for e in flat]
                for pos, name in binds:
                    cols[name] = [k[pos] for k in keys_col]
            if keep_slot:
                slots[slot] = [e[1] for e in flat]
            n = n2
            for ffn in filter_fns:
                n2 = _compress(cols, slots, ffn(cols, n), n)
                if n2 != n:
                    ctr[_C_PRUNES] += n - n2
                    ctr[_C_VEC_PRUNES] += n - n2
                    n = n2
                    if n == 0:
                        return 0
            return n

        return run_step

    def _compile_fallback(self, fb, bound: Set[str], is_last: bool) -> Callable:
        counter = _C_FB if is_last else _C_FBE
        if fb.binding is None:
            var = fb.var
            bound.add(var)
            # Hoist the leading run of filters that read only the
            # fallback variable: they evaluate once over the d-length
            # domain column and shrink it *before* the n×d expansion,
            # instead of once per expanded row.  Only a prefix can
            # hoist — a later filter's prune count is defined on the
            # rows surviving the earlier ones, so reordering would
            # break exact counter parity with the per-candidate
            # executors.  The counters still report the full n×d
            # candidate total and per-filter prunes scaled by n, so
            # the hoist is invisible to the regression gates.
            unary_fns: List[Callable] = []
            expanded_fns: List[Callable] = []
            for cond in fb.filters:
                fn = self._compile_cond_mask(cond, bound)
                if fn is None:
                    continue  # trivially true: prunes nothing anywhere
                if not expanded_fns and _cond_vars(cond) <= {var}:
                    unary_fns.append(fn)
                else:
                    expanded_fns.append(fn)
            filter_fns = expanded_fns
            domain = self._domain

            def run_domain(guards, cols, slots, n, ctr):
                d = len(domain)
                dom: Sequence[Any] = domain
                hoisted: List[int] = []
                if unary_fns and n and d:
                    dcols = {var: list(domain)}
                    dn = d
                    for ffn in unary_fns:
                        dn2 = _compress(dcols, {}, ffn(dcols, dn), dn)
                        hoisted.append(dn - dn2)
                        dn = dn2
                        if dn == 0:
                            break
                    dom = dcols[var]
                counts = [len(dom)] * n
                for name, col in cols.items():
                    cols[name] = _replicate(col, counts)
                for s, col in slots.items():
                    slots[s] = _replicate(col, counts)
                cols[var] = list(dom) * n
                ctr[counter] += n * d
                for pruned in hoisted:
                    if pruned:
                        ctr[_C_PRUNES] += pruned * n
                        ctr[_C_VEC_PRUNES] += pruned * n
                n *= len(dom)
                if n == 0:
                    return 0
                for ffn in filter_fns:
                    n2 = _compress(cols, slots, ffn(cols, n), n)
                    if n2 != n:
                        ctr[_C_PRUNES] += n - n2
                        ctr[_C_VEC_PRUNES] += n - n2
                        n = n2
                        if n == 0:
                            return 0
                return n

            return run_domain
        term_fn = self._term_col(fb.binding, bound)
        var = fb.var
        bound.add(var)
        filter_fns = self._compile_filters(fb.filters, bound)
        domset = self._domset

        def run_binding(guards, cols, slots, n, ctr):
            col = term_fn(cols, n)
            ctr[_C_EQ] += n
            cols[var] = col
            # Domain-membership rejection is silent (no prune counter),
            # exactly like the per-candidate executors.
            n = _compress(cols, slots, [v in domset for v in col], n)
            ctr[counter] += n
            if n == 0:
                return 0
            for ffn in filter_fns:
                n2 = _compress(cols, slots, ffn(cols, n), n)
                if n2 != n:
                    ctr[_C_PRUNES] += n - n2
                    ctr[_C_VEC_PRUNES] += n - n2
                    n = n2
                    if n == 0:
                        return 0
            return n

        return run_binding

    # ------------------------------------------------------------------
    # Factor columns (accumulate-mode leaf)
    # ------------------------------------------------------------------
    def _compile_factor_spec(
        self, slot: int, factor: Factor, bound: Set[str]
    ) -> Tuple[int, bool, Callable, int]:
        col_fn, lookups = self._factor_col(slot, factor, bound)
        return slot, slot in self._carried, col_fn, lookups

    def _factor_col(
        self, slot: int, factor: Factor, bound: Set[str]
    ) -> Tuple[Callable, int]:
        """Lower one factor to ``(fn(cols, n, state) -> list, lookups)``.

        Store routing: under a semi-naïve variant, occurrence factors read the store Eq. 64
        assigns their rank (``state[0]/[1]/[2]`` = new/delta/old);
        every other factor gets EDB semantics.
        """
        pops = self._pops
        if isinstance(factor, RelAtom):
            key_fn = self._compile_key_col(factor.args, bound)
            relation = factor.relation
            if self._variant is not None:
                idb_positions, j = self._variant
                if slot in idb_positions:
                    rank = list(idb_positions).index(slot)
                    store_pos = 0 if rank < j else (1 if rank == j else 2)

                    def col(cols, n, state, _kf=key_fn, _r=relation,
                            _p=store_pos):
                        get = state[_p].get
                        return [get(_r, k) for k in _kf(cols, n)]

                    return col, 1
                return self._edb_factor_col(relation, key_fn)
            if relation in self._idb_names:

                def col(cols, n, state, _kf=key_fn, _r=relation):
                    get = state.get
                    return [get(_r, k) for k in _kf(cols, n)]

                return col, 1
            return self._edb_factor_col(relation, key_fn)
        if isinstance(factor, ValueConst):
            value = factor.value
            return (lambda cols, n, state: [value] * n), 0
        if isinstance(factor, Indicator):
            tv = (
                factor.true_value
                if factor.true_value is not None
                else pops.one
            )
            fv = (
                factor.false_value
                if factor.false_value is not None
                else pops.zero
            )
            mask_fn = self._compile_cond_mask(factor.condition, bound)
            if mask_fn is None:
                return (lambda cols, n, state: [tv] * n), 0

            def col(cols, n, state, _m=mask_fn, _t=tv, _f=fv):
                return [_t if m else _f for m in _m(cols, n)]

            return col, 0
        if isinstance(factor, FuncFactor):
            fn = self._functions.resolve(factor.name)
            subs = [self._factor_col(-1, sub, bound)[0] for sub in factor.args]
            lookups = sum(1 for _atom in factor_atoms(factor))
            if not subs:
                return (lambda cols, n, state: [fn()] * n), lookups

            def col(cols, n, state, _fn=fn, _subs=subs):
                return [
                    _fn(*vals)
                    for vals in zip(*[s(cols, n, state) for s in _subs])
                ]

            return col, lookups
        if isinstance(factor, KeyAsValue):
            term_fn = self._term_col(factor.term, bound)
            if factor.convert is None:
                return (lambda cols, n, state: term_fn(cols, n)), 0
            conv = self._functions.resolve(factor.convert)

            def col(cols, n, state, _t=term_fn, _c=conv):
                return [_c(v) for v in _t(cols, n)]

            return col, 0
        raise BatchedError(f"unknown factor {factor!r}")

    def _edb_factor_col(self, relation: str, key_fn) -> Tuple[Callable, int]:
        bottom = self._pops.bottom
        database = self._database
        if relation in database.relations:
            store_get = database.relations[relation].get

            def col(cols, n, state, _kf=key_fn, _g=store_get, _b=bottom):
                return [_g(k, _b) for k in _kf(cols, n)]

            return col, 1
        if relation in database.bool_relations:
            store = database.bool_relations[relation]
            one = self._pops.one
            zero = self._pops.zero

            def col(cols, n, state, _kf=key_fn, _s=store, _o=one, _z=zero):
                return [_o if k in _s else _z for k in _kf(cols, n)]

            return col, 1
        rels = database.relations

        def col(cols, n, state, _kf=key_fn, _rels=rels, _r=relation,
                _b=bottom):
            store = _rels.get(_r, _EMPTY_DICT)
            return [store.get(k, _b) for k in _kf(cols, n)]

        return col, 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _flush(self, ctr: List[int]) -> None:
        stats = self._stats
        if stats is None:
            return
        stats.probes += ctr[_C_PROBES]
        stats.probed_keys += ctr[_C_PROBED]
        stats.scans += ctr[_C_SCANS]
        stats.scanned_keys += ctr[_C_SCANNED]
        stats.arity_skips += ctr[_C_ARITY]
        stats.pushdown_prunes += ctr[_C_PRUNES]
        stats.fallback_candidates += ctr[_C_FB]
        stats.fallback_extensions += ctr[_C_FBE]
        stats.equality_bindings += ctr[_C_EQ]
        stats.value_probe_hits += ctr[_C_HITS]
        stats.factor_lookups += ctr[_C_LOOKUPS]
        stats.batch_joins += ctr[_C_BATCH_JOINS]
        stats.batch_rows += ctr[_C_BATCH_ROWS]
        stats.vector_filter_prunes += ctr[_C_VEC_PRUNES]

    def _pipeline(self, guards, ctr, step_fns=None):
        """Run seed + steps + fallback + residual; return the batch.

        ``step_fns`` overrides the step list (the fused fast path runs
        every step but the last here, then walks the final probe's
        buckets itself)."""
        cols: Dict[str, list] = {}
        slots: Dict[int, list] = {}
        for var, term_fn, check in self._initial:
            value = term_fn(cols, 1)[0]
            ctr[_C_EQ] += 1
            cols[var] = [value]
            if check and value not in self._domset:
                return cols, slots, 0
        for mfn in self._prefix:
            if not mfn(cols, 1)[0]:
                ctr[_C_PRUNES] += 1
                ctr[_C_VEC_PRUNES] += 1
                return cols, slots, 0
        n = 1
        poll = self.poll
        for stage in (self._step_fns if step_fns is None else step_fns):
            if poll is not None:
                poll()
            n = stage(guards, cols, slots, n, ctr)
            if n == 0:
                return cols, slots, 0
        for stage in self._fallback_fns:
            if poll is not None:
                poll()
            n = stage(guards, cols, slots, n, ctr)
            if n == 0:
                return cols, slots, 0
        for rfn in self._residual:
            n2 = _compress(cols, slots, rfn(cols, n), n)
            if n2 != n:
                ctr[_C_PRUNES] += n - n2
                ctr[_C_VEC_PRUNES] += n - n2
                n = n2
                if n == 0:
                    return cols, slots, 0
        return cols, slots, n

    def install_poll(self, poll) -> None:
        """Arm the kernel with a budget poll hook (``None`` = unarmed)."""
        self.poll = poll

    def run(self, guards: Sequence, state, bucket) -> int:
        """Accumulate mode: join, ⊗-fold and grouped ⊕-reduce at once."""
        ctr = [0] * _N_COUNTERS
        try:
            if self._fused is not None:
                cols, slots, n = self._pipeline(
                    guards, ctr, self._prefix_steps
                )
                if n == 0:
                    return 0
                r = self._run_fused(
                    guards, cols, slots, n, ctr, state, bucket
                )
                if r is not None:
                    return r
                # Runtime-infeasible (a pre-factor column could not be
                # resolved pre-expansion): run the last step expanded.
                n = self._step_fns[-1](guards, cols, slots, n, ctr)
                if n == 0:
                    return 0
            else:
                cols, slots, n = self._pipeline(guards, ctr)
                if n == 0:
                    return 0
            self._reduce_leaf(cols, slots, n, ctr, state, bucket)
            return n
        finally:
            self._flush(ctr)

    def _build_fused(self, ir: BodyPlanIR, pre_bound: Set[str]):
        """Lower the trailing probe into a fused join+reduce spec.

        Feasible when the plan ends in an unconditioned probe/scan step
        (no post-filters, fallbacks or residual), that step's slot
        carries the *last* body factor, and every other factor plus the
        head key is computable from the columns bound before it — then
        the final join expansion never materializes: the runner walks
        each input row's probe bucket and ⊕-accumulates per entry,
        which is exactly a nested-loop plan's innermost loop, with the
        partial ⊗-product of the earlier factors hoisted per input row
        (the fold order per match is unchanged, so results stay
        byte-identical).
        """
        if not ir.steps or ir.fallback or ir.residual or self._body is None:
            return None
        last = ir.steps[-1]
        if last.filters or not self._factors or last.slot is None:
            return None
        specs = self._factors
        if specs[-1][0] != last.slot or not specs[-1][1]:
            return None
        factors = self._body.factors
        bind_pos = {name: pos for pos, name in last.binds}
        lf_vars = _factor_vars(factors[-1])
        if not lf_vars <= (pre_bound | set(bind_pos)):
            return None
        pre = []
        for (slot, carried, col_fn, lookups), factor in zip(
            specs[:-1], factors[:-1]
        ):
            fb_ok = _factor_vars(factor) <= pre_bound
            if not carried and not fb_ok:
                return None
            pre.append((slot, carried, col_fn, lookups, fb_ok))
        srcs: List[Tuple[str, Any]] = []
        for term in self._head_args:
            if isinstance(term, Variable):
                if term.name in bind_pos:
                    srcs.append(("k", bind_pos[term.name]))
                elif term.name in pre_bound:
                    srcs.append(("c", term.name))
                else:
                    return None
            elif isinstance(term, Constant):
                srcs.append(("v", term.value))
            else:
                return None  # KeyFunc heads use the expanded leaf
        kinds = tuple(t for t, _ in srcs)
        if kinds == ("c", "k"):
            head_code: int = 1
            head_data: Any = (srcs[0][1], srcs[1][1])
        elif kinds == ("k",):
            head_code, head_data = 2, srcs[0][1]
        else:
            head_code = 0

            def head_data(cols, i, k, _s=tuple(srcs)):
                return tuple(
                    cols[d][i] if t == "c" else (k[d] if t == "k" else d)
                    for t, d in _s
                )

        try:
            key_fn = (
                self._compile_key_col(last.probe_args, set(pre_bound))
                if last.mask
                else None
            )
        except BatchedError:  # pragma: no cover - planner binds these
            return None
        names = tuple(sorted(lf_vars & pre_bound))

        def last_fixup(cols, i, k, state, _n=names, _b=last.binds,
                       _fn=specs[-1][2]):
            # Rare path: a probed entry without a carried value — the
            # factor re-evaluates over a one-row batch (same value and
            # lookup counting as the expanded leaf's gap merge).
            mini = {nm: [cols[nm][i]] for nm in _n}
            for pos, nm in _b:
                mini[nm] = [k[pos]]
            return _fn(mini, 1, state)[0]

        return (
            last.guard_pos, last.mask, key_fn, last.arity, last.dups,
            tuple(pre), specs[-1][3], last_fixup, head_code, head_data,
        )

    def _run_fused(self, guards, cols, slots, n, ctr, state, bucket):
        """Walk the last probe's buckets, ⊕-accumulating per entry.

        Returns the match count, or ``None`` when a pre-factor column
        cannot be resolved over the pre-probe batch (the caller then
        falls back to the expanded pipeline + leaf; nothing has been
        mutated at that point).
        """
        (guard_pos, mask, key_fn, arity, dups, pre, last_lk,
         last_fixup, head_code, head_data) = self._fused
        noval = NO_VALUE
        plan = []
        for slot, carried, col_fn, lookups, fb_ok in pre:
            col = slots.get(slot) if carried else None
            if col is None or noval in col:
                if not fb_ok:
                    return None
                plan.append((col, col_fn, lookups))
            else:
                plan.append((col, None, lookups))
        # --- committed: resolve ⊗-partials over the pre-probe batch ---
        pops = self._pops
        one = pops.one
        if self._fast_ops is not None:
            add, mul = self._fast_ops
        else:
            mul = pops.mul
            add = pops.add
        hits_clean = 0
        absent_lk = 0
        gaps = []  # (lookups, per-row NOVAL flags): counted post-loop
        fcols = []
        for col, col_fn, lookups in plan:
            if col is None:
                fcols.append(col_fn(cols, n, state))
                absent_lk += lookups
            elif col_fn is not None:
                fb = col_fn(cols, n, state)
                flags = [v is noval for v in col]
                fcols.append(
                    [f if m else v for v, m, f in zip(col, flags, fb)]
                )
                gaps.append((lookups, flags))
            else:
                fcols.append(col)
                hits_clean += 1
        parts = repeat(one, n)
        for col in fcols:
            parts = map(mul, parts, col)
        guard = guards[guard_pos]
        index = guard.index
        if index is None:
            index = KeyIndex(guard.keys(), stats=self._stats)
        ctr[_C_BATCH_JOINS] += 1
        bad = 0
        if mask:
            table_get = index.mask_table(mask).get
            buckets = [table_get(k, _EMPTY_BUCKET) for k in key_fn(cols, n)]
            ctr[_C_PROBES] += n
            ctr[_C_PROBED] += sum(map(len, buckets))
        else:
            entries = index.entries()
            ctr[_C_SCANS] += n
            ctr[_C_SCANNED] += len(entries) * n
            kept = [e for e in entries if len(e[0]) == arity]
            ctr[_C_ARITY] += (len(entries) - len(kept)) * n
            buckets = [kept] * n
        rowc = [0] * n if gaps else None
        lt = self._acc_lt
        gt = self._acc_gt
        setd = bucket.setdefault
        bget = bucket.get
        missing = _MISSING
        last_miss = 0
        n2 = 0
        i = -1
        if head_code == 1:
            hcol = cols[head_data[0]]
            kp = head_data[1]
            for a, b in zip(parts, buckets):
                i += 1
                if not b:
                    continue
                x = hcol[i]
                c = 0
                for e in b:
                    k = e[0]
                    if len(k) != arity:
                        bad += 1
                        continue
                    if dups:
                        ok = True
                        for pos, first in dups:
                            if k[pos] != k[first]:
                                ok = False
                                break
                        if not ok:
                            continue
                    v = e[1]
                    if v is noval:
                        last_miss += 1
                        v = last_fixup(cols, i, k, state)
                    v = mul(a, v)
                    hk = (x, k[kp])
                    if lt:
                        prev = setd(hk, v)
                        if v < prev:
                            bucket[hk] = v
                    elif gt:
                        prev = setd(hk, v)
                        if prev < v:
                            bucket[hk] = v
                    else:
                        prev = bget(hk, missing)
                        bucket[hk] = v if prev is missing else add(prev, v)
                    c += 1
                n2 += c
                if rowc is not None:
                    rowc[i] = c
        else:
            for a, b in zip(parts, buckets):
                i += 1
                if not b:
                    continue
                c = 0
                for e in b:
                    k = e[0]
                    if len(k) != arity:
                        bad += 1
                        continue
                    if dups:
                        ok = True
                        for pos, first in dups:
                            if k[pos] != k[first]:
                                ok = False
                                break
                        if not ok:
                            continue
                    v = e[1]
                    if v is noval:
                        last_miss += 1
                        v = last_fixup(cols, i, k, state)
                    v = mul(a, v)
                    if head_code == 2:
                        hk = (k[head_data],)
                    else:
                        hk = head_data(cols, i, k)
                    if lt:
                        prev = setd(hk, v)
                        if v < prev:
                            bucket[hk] = v
                    elif gt:
                        prev = setd(hk, v)
                        if prev < v:
                            bucket[hk] = v
                    else:
                        prev = bget(hk, missing)
                        bucket[hk] = v if prev is missing else add(prev, v)
                    c += 1
                n2 += c
                if rowc is not None:
                    rowc[i] = c
        ctr[_C_ARITY] += bad
        ctr[_C_BATCH_ROWS] += n2
        ctr[_C_HITS] += hits_clean * n2 + (n2 - last_miss)
        ctr[_C_LOOKUPS] += absent_lk * n2 + last_lk * last_miss
        for lk, flags in gaps:
            m = sum(c for c, f in zip(rowc, flags) if f)
            ctr[_C_LOOKUPS] += lk * m
            ctr[_C_HITS] += n2 - m
        return n2

    def _reduce_leaf(self, cols, slots, n, ctr, state, bucket) -> None:
        fcols: List[list] = []
        noval = NO_VALUE
        for slot, carried, col_fn, lookups in self._factors:
            if carried:
                col = slots.get(slot)
                if col is None:
                    ctr[_C_LOOKUPS] += lookups * n
                    col = col_fn(cols, n, state)
                elif noval in col:
                    fallback = col_fn(cols, n, state)
                    missing = sum(1 for v in col if v is noval)
                    ctr[_C_LOOKUPS] += lookups * missing
                    ctr[_C_HITS] += n - missing
                    col = [
                        f if v is noval else v
                        for v, f in zip(col, fallback)
                    ]
                else:
                    ctr[_C_HITS] += n
            else:
                ctr[_C_LOOKUPS] += lookups * n
                col = col_fn(cols, n, state)
            fcols.append(col)
        head_col = self._head_fn(cols, n)
        if (
            self._np_ops is not None
            and n >= _NUMPY_MIN_ROWS
            and self._numpy_reduce(fcols, head_col, n, bucket)
        ):
            return
        pops = self._pops
        one = pops.one
        if self._fast_ops is not None:
            add, mul = self._fast_ops
        else:
            mul = pops.mul
            add = pops.add
        # ⊗-fold as a lazy C-level map chain: per row the op sequence
        # is the interpreted one (fold left from 1 in body order), with
        # no intermediate product lists — the accumulate loop consumes
        # the chain directly, seeding or ⊕-merging into the head
        # bucket in row order.  For idempotent min/max ⊕ the
        # setdefault + strict-compare form is byte-identical (incumbent
        # wins ties and NaN comparisons, exactly like ``min``/``max``)
        # and saves a bucket lookup per non-improving row.
        prods = repeat(one, n)
        for col in fcols:
            prods = map(mul, prods, col)
        if self._acc_lt:
            setd = bucket.setdefault
            for k, v in zip(head_col, prods):
                prev = setd(k, v)
                if v < prev:
                    bucket[k] = v
        elif self._acc_gt:
            setd = bucket.setdefault
            for k, v in zip(head_col, prods):
                prev = setd(k, v)
                if prev < v:
                    bucket[k] = v
        else:
            bget = bucket.get
            miss = _MISSING
            for k, v in zip(head_col, prods):
                prev = bget(k, miss)
                bucket[k] = v if prev is miss else add(prev, v)

    def _numpy_reduce(self, fcols, head_col, n, bucket) -> bool:
        """Grouped ⊕-reduce on float64 arrays; False = use stdlib.

        Exactness contract: columns must be plain floats, and the
        folded per-row products non-negative and NaN-free (for
        ``minimum``/``maximum`` ⊗ the *inputs* must be too) — then the
        registered ufuncs agree bit-for-bit with Python's
        ``min``/``max``/``+``/``*``, and every registered semiring's
        ⊕-identity (``pops.zero``) is *exact* over the products
        (``min(∞, v) = v``, ``0.0 + v = v``, ``max(0.0, v) = v``), so
        each group can be seeded with the identity (or the bucket's
        existing value) and ``ufunc.at`` — which applies repeated
        indices sequentially, i.e. in row order — reproduces the
        per-candidate left fold exactly.  The ⊗-fold likewise starts
        from the first factor column because ``1 ⊗ v = v`` is exact for
        every registered pair.
        """
        np = _np
        if np is None:
            return False
        add_ufunc, mul_ufunc, guard_cols = self._np_ops
        arrs = []
        for col in fcols:
            if set(map(type, col)) != {float}:
                return False
            arr = np.asarray(col)
            if guard_cols and (
                np.signbit(arr).any() or np.isnan(arr).any()
            ):
                return False  # min/max-⊗ ties on ±0.0 (and NaN) can
                # diverge from the Python fold mid-product
            arrs.append(arr)
        if arrs:
            acc = arrs[0]
            for arr in arrs[1:]:
                acc = mul_ufunc(acc, arr)
            # One guard over the folded products covers the ⊕ stage:
            # NaN (e.g. ∞ ⊗ 0 under R+, where stdlib agrees but the ⊕
            # ufuncs and Python min/max diverge) and negatives/-0.0
            # (which break the identity seeding and min/max ties).
            if np.isnan(acc).any() or np.signbit(acc).any():
                return False
        else:
            acc = np.full(n, self._pops.one)
        pos: Dict[Any, int] = {}
        grp = pos.setdefault
        idx = [grp(k, len(pos)) for k in head_col]
        seed = np.full(len(pos), self._zero_float)
        if bucket:
            bget = bucket.get
            miss = _MISSING
            for k, p in pos.items():
                prev = bget(k, miss)
                if prev is miss:
                    continue
                if (
                    type(prev) is not float
                    or prev != prev
                    or math.copysign(1.0, prev) < 0.0
                ):
                    return False  # rich/negative bucket value: stdlib
                seed[p] = prev
        add_ufunc.at(seed, idx, acc)
        vals = seed.tolist()
        for k, p in pos.items():
            bucket[k] = vals[p]
        return True

    # ------------------------------------------------------------------
    # Emit mode (grounding / tests)
    # ------------------------------------------------------------------
    def execute(self, guards: Sequence, emit: Callable) -> int:
        """Emit mode: stream ``(valuation, slots)`` per row, in row
        order.  The dict and list are reused across rows — consumers
        copy what they retain."""
        ctr = [0] * _N_COUNTERS
        try:
            cols, slots, n = self._pipeline(guards, ctr)
            if n == 0:
                return 0
            valu: Dict[str, Any] = {}
            slot_list: List[Any] = [NO_VALUE] * self.ir.n_slots
            names = self._bound_order
            slot_cols = list(slots.items())
            for r in range(n):
                for name in names:
                    valu[name] = cols[name][r]
                for s, col in slot_cols:
                    slot_list[s] = col[r]
                emit(valu, slot_list)
            return n
        finally:
            self._flush(ctr)

    def matches(self, guards: Sequence) -> List[Tuple[Dict, Dict[int, Any]]]:
        """Materialized ``(valuation, slot_values)`` pairs (emit mode)."""
        out: List[Tuple[Dict, Dict[int, Any]]] = []

        def emit(valu: Dict, slots: List[Any]) -> None:
            out.append(
                (
                    dict(valu),
                    {i: v for i, v in enumerate(slots) if v is not NO_VALUE},
                )
            )

        self.execute(guards, emit)
        return out


def build_batched_rule_kernel(
    ir: BodyPlanIR,
    body: SumProduct,
    head_args: Tuple[Term, ...],
    pops: POPS,
    database: Database,
    functions: FunctionRegistry,
    idb_names: FrozenSet[str],
    bool_lookup: Callable[[str, Tuple], bool],
    carried_slots: FrozenSet[int],
    fallback_domain: Sequence[Any],
    stats: Optional[JoinStats] = None,
    variant: Optional[Tuple[Sequence[int], int]] = None,
    label: str = "rule",
) -> BatchedKernel:
    """Build the accumulate-mode batched kernel of one rule body.

    ``run(guards, state, bucket)`` ⊕-accumulates every match into
    ``bucket`` under its head key and returns the match count, with
    ``state`` the current IDB instance or — under a semi-naïve
    ``variant`` — the ``(new, delta, old)`` store triple.
    """
    return BatchedKernel(
        ir,
        fallback_domain,
        bool_lookup,
        stats,
        emit_mode=False,
        body=body,
        head_args=head_args,
        pops=pops,
        database=database,
        functions=functions,
        idb_names=idb_names,
        carried_slots=carried_slots,
        variant=variant,
        label=label,
    )


def build_batched_join_kernel(
    ir: BodyPlanIR,
    bool_lookup: Callable[[str, Tuple], bool],
    fallback_domain: Sequence[Any],
    stats: Optional[JoinStats] = None,
    label: str = "join",
) -> BatchedKernel:
    """Build an emit-mode batched kernel (grounding's consumer).

    ``execute(guards, emit)`` streams every satisfying valuation into
    ``emit(valuation, slots)`` in candidate order.
    """
    return BatchedKernel(
        ir, fallback_domain, bool_lookup, stats, emit_mode=True, label=label
    )
