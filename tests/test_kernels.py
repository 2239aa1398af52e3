"""The default engine: kernel caching, delta-driven activation, strata.

Covers the fixpoint machinery around the kernels, under the default
``engine="auto"`` (which resolves to the batched executor on indexed
plans) against the interpreted oracle:

* auto == interpreted fixpoints on the paper's workloads and on
  hypothesis-generated programs with cyclic, mutually recursive and
  conditional bodies, across classic-Boolean / tropical / THREE /
  lifted-reals value spaces, for both fixpoint engines and all
  schedules;
* kernel caching: one build per (rule, body[, variant]) per
  evaluator, every later fixpoint iteration a cache hit
  (``JoinStats.kernel_cache_hits``);
* delta-driven rule activation (``EvalStats.rules_skipped``): naive
  bodies with unchanged inputs reuse their cached contribution,
  semi-naïve variants with empty delta stores are dropped outright —
  with identical fixpoints;
* ``schedule="parallel"``: independent condensation branches evaluate
  concurrently with deterministic reports and identical fixpoints;
* the ``engine=`` knob's validation and the grounded/linear/hybrid
  wiring.

(``Compiled`` in the class names is the kernel tier's historical name.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import programs, workloads
from repro.core import Database, HybridEvaluator, ThresholdRule, solve
from repro.core.ast import BoolAtom, Compare, Constant, terms, var
from repro.core.grounding import ground_program
from repro.core.naive import NaiveEvaluator
from repro.core.rules import (
    Indicator,
    Program,
    RelAtom,
    Rule,
    SumProduct,
)
from repro.core.scheduler import scheduled_fixpoint
from repro.semirings import BOOL, LIFTED_REAL, REAL_PLUS, THREE, TROP


def _line_db(n=10, pops=TROP):
    return Database(pops=pops, relations={"E": dict(workloads.line_edges(n))})


# ---------------------------------------------------------------------------
# Default engine == interpreted on the paper's workloads.
# ---------------------------------------------------------------------------


class TestCompiledDifferentials:
    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    @pytest.mark.parametrize("schedule", ["monolithic", "scc", "parallel"])
    def test_sssp_line(self, method, schedule):
        db = _line_db(12)
        default = solve(
            programs.sssp(0), db, method=method, schedule=schedule
        )
        interpreted = solve(
            programs.sssp(0), db, method=method, schedule=schedule,
            engine="interpreted",
        )
        assert default.instance.equals(interpreted.instance)

    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_layered_sssp(self, method):
        db = _line_db(10)
        prog = programs.layered_sssp(0)
        default = solve(prog, db, method=method)
        interpreted = solve(prog, db, method=method, engine="interpreted")
        assert default.instance.equals(interpreted.instance)

    def test_quadratic_tc_nonlinear_variants(self):
        # Two IDB occurrences per body: exercises every delta-variant
        # store assignment (new / delta / old) in the batched path.
        dag = workloads.random_dag(10, 0.25, seed=8)
        db = Database(pops=BOOL, relations={"E": {e: True for e in dag}})
        prog = programs.quadratic_transitive_closure()
        default = solve(prog, db, method="seminaive")
        interpreted = solve(prog, db, method="seminaive", engine="interpreted")
        assert default.instance.equals(interpreted.instance)

    def test_grounded_engine_knob(self):
        db = _line_db(6)
        default = ground_program(programs.sssp(0), db)
        interpreted = ground_program(
            programs.sssp(0), db, engine="interpreted"
        )
        a = default.kleene().value
        b = interpreted.kleene().value
        assert set(a) == set(b)
        for key in a:
            assert TROP.eq(a[key], b[key])
        # method="linear" grounds through the same engine knob.
        linear = solve(programs.sssp(0), db, method="linear", stability_p=0)
        oracle = solve(
            programs.sssp(0), db, method="linear", stability_p=0,
            engine="interpreted",
        )
        assert linear.instance.equals(oracle.instance)

    def test_hybrid_engine_knob(self):
        # Example 4.3-style: a threshold IDB feeding back into the
        # POPS rules through a condition.
        def build(engine):
            rules = [
                Rule(
                    "T",
                    terms(["X"]),
                    (
                        SumProduct((RelAtom("W", terms(["X"])),)),
                        SumProduct(
                            (RelAtom("T", terms(["Z"])),
                             RelAtom("E", terms(["Z", "X"]))),
                        ),
                    ),
                ),
            ]
            prog = Program(rules=rules, edbs={"W": 1, "E": 2})
            db = Database(
                pops=REAL_PLUS,
                relations={
                    "W": {(0,): 0.4, (1,): 0.2},
                    "E": {(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5},
                },
            )
            threshold = ThresholdRule(
                head_relation="Big",
                head_args=terms(["X"]),
                body=SumProduct((RelAtom("T", terms(["X"])),)),
                predicate=lambda v: v > 0.3,
            )
            hybrid = HybridEvaluator(
                prog, [threshold], db, engine=engine, max_iterations=50
            )
            result = hybrid.run()
            return result.instance, hybrid.bool_facts("Big")

        inst_c, facts_c = build("auto")
        inst_i, facts_i = build("interpreted")
        assert inst_c.equals(inst_i)
        assert facts_c == facts_i

    def test_engine_validation(self):
        db = _line_db(4)
        with pytest.raises(ValueError):
            solve(programs.sssp(0), db, engine="mystery")
        with pytest.raises(ValueError):
            solve(programs.sssp(0), db, plan="naive", engine="batched")
        # plan="naive" + engine="auto" falls back to interpreted.
        result = solve(programs.sssp(0), db, plan="naive")
        assert result.stats["kernel_cache_hits"] == 0


# ---------------------------------------------------------------------------
# Kernel caching and delta-driven activation counters.
# ---------------------------------------------------------------------------


class TestKernelCounters:
    def test_kernel_cache_hits_across_iterations(self):
        db = _line_db(10)
        result = solve(programs.sssp(0), db, schedule="monolithic")
        # The recursive rule re-applies every iteration; each
        # application after the first is a cache hit.
        assert result.stats["kernel_cache_hits"] > 0
        assert (
            result.stats["kernel_cache_hits"]
            + result.stats["rules_skipped"]
            >= result.stats["iterations"] - 1
        )
        interpreted = solve(
            programs.sssp(0), db, schedule="monolithic", engine="interpreted"
        )
        assert interpreted.stats["kernel_cache_hits"] == 0
        assert interpreted.stats["rules_skipped"] == 0

    def test_naive_rules_skipped_on_unchanged_inputs(self):
        # The source bracket body of SSSP reads no IDB at all: after
        # iteration 1 its contribution cannot change, so every later
        # iteration skips it.
        db = _line_db(10)
        result = solve(programs.sssp(0), db, schedule="monolithic")
        assert result.stats["rules_skipped"] > 0
        baseline = solve(
            programs.sssp(0), db, schedule="monolithic", engine="interpreted"
        )
        assert result.instance.equals(baseline.instance)
        # Skipping reduces applications, never increases them.
        assert (
            result.stats["rule_applications"]
            < baseline.stats["rule_applications"]
        )

    def test_seminaive_skips_empty_delta_variants(self):
        # Two recursive predicates over disjoint edge relations: once
        # one converges, its delta is empty while the other still
        # iterates — those variants are dropped outright.
        rules = [
            Rule(
                "P",
                terms(["X"]),
                (
                    SumProduct((RelAtom("A", terms(["X"])),)),
                    SumProduct(
                        (RelAtom("P", terms(["Z"])),
                         RelAtom("E1", terms(["Z", "X"]))),
                    ),
                ),
            ),
            Rule(
                "Q",
                terms(["X"]),
                (
                    SumProduct((RelAtom("A", terms(["X"])),)),
                    SumProduct(
                        (RelAtom("Q", terms(["Z"])),
                         RelAtom("E2", terms(["Z", "X"]))),
                    ),
                ),
            ),
        ]
        prog = Program(rules=rules, edbs={"A": 1, "E1": 2, "E2": 2})
        db = Database(
            pops=TROP,
            relations={
                "A": {(0,): 0.0},
                "E1": {(0, 1): 1.0},  # short chain: P converges fast
                "E2": dict(workloads.line_edges(10)),  # long chain for Q
            },
        )
        default = solve(
            prog, db, method="seminaive", schedule="monolithic"
        )
        interpreted = solve(
            prog, db, method="seminaive", schedule="monolithic",
            engine="interpreted",
        )
        assert default.instance.equals(interpreted.instance)
        assert default.stats["rules_skipped"] > 0
        assert (
            default.stats["rule_applications"]
            < interpreted.stats["rule_applications"]
        )

    def test_bool_guard_refresh_reuses_version_counters(self):
        # A Boolean condition atom whose store never changes: the
        # per-iteration refresh must reuse the cached index and count
        # the skip instead of re-validating by materialized size.
        rules = [
            Rule(
                "R",
                terms(["X"]),
                (
                    SumProduct(
                        (RelAtom("A", terms(["X"])),),
                    ),
                    SumProduct(
                        (RelAtom("R", terms(["Z"])),
                         RelAtom("E", terms(["Z", "X"]))),
                        condition=BoolAtom("Ok", terms(["X"])),
                    ),
                ),
            ),
        ]
        prog = Program(
            rules=rules, edbs={"A": 1, "E": 2}, bool_edbs={"Ok": 1}
        )
        db = Database(
            pops=TROP,
            relations={
                "A": {(0,): 0.0},
                "E": dict(workloads.line_edges(8)),
            },
            bool_relations={"Ok": {(i,) for i in range(9)}},
        )
        default = solve(prog, db, schedule="monolithic")
        interpreted = solve(
            prog, db, schedule="monolithic", engine="interpreted"
        )
        assert default.instance.equals(interpreted.instance)
        assert default.stats["rebuild_skips"] > 0

    def test_hybrid_threshold_guard_reuse(self):
        # The hybrid evaluator's threshold bodies previously rebuilt
        # ephemeral indexes every iteration; the batched path caches
        # guards and refreshes through the base's change counters.
        def run(engine):
            prog = Program(
                rules=[
                    Rule(
                        "T",
                        terms(["X"]),
                        (
                            SumProduct((RelAtom("W", terms(["X"])),)),
                            SumProduct(
                                (RelAtom("T", terms(["Z"])),
                                 RelAtom("E", terms(["Z", "X"]))),
                            ),
                        ),
                    )
                ],
                edbs={"W": 1, "E": 2},
            )
            db = Database(
                pops=REAL_PLUS,
                relations={
                    "W": {(0,): 0.3},
                    "E": {(0, 1): 0.9, (1, 2): 0.9},
                },
            )
            hybrid = HybridEvaluator(
                prog,
                [
                    ThresholdRule(
                        "Big",
                        terms(["X"]),
                        SumProduct((RelAtom("T", terms(["X"])),)),
                        predicate=lambda v: v > 0.2,
                    )
                ],
                db,
                engine=engine,
                max_iterations=50,
            )
            result = hybrid.run()
            return result.instance, hybrid.bool_facts("Big")

        inst_c, facts_c = run("auto")
        inst_i, facts_i = run("interpreted")
        assert inst_c.equals(inst_i)
        assert facts_c == facts_i


# ---------------------------------------------------------------------------
# Parallel stratum execution.
# ---------------------------------------------------------------------------


def _wide_program():
    """Four independent recursive chains plus a joint output layer."""
    rules = []
    for i in range(4):
        rules.append(
            Rule(
                f"P{i}",
                terms(["X"]),
                (
                    SumProduct((RelAtom("A", terms(["X"])),)),
                    SumProduct(
                        (RelAtom(f"P{i}", terms(["Z"])),
                         RelAtom("E", terms(["Z", "X"]))),
                    ),
                ),
            )
        )
    rules.append(
        Rule(
            "Out",
            terms(["X"]),
            tuple(
                SumProduct((RelAtom(f"P{i}", terms(["X"])),))
                for i in range(4)
            ),
        )
    )
    return Program(rules=rules, edbs={"A": 1, "E": 2})


class TestParallelSchedule:
    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_parallel_equals_monolithic(self, method):
        prog = _wide_program()
        db = Database(
            pops=TROP,
            relations={
                "A": {(0,): 0.0},
                "E": dict(workloads.line_edges(8)),
            },
        )
        par = solve(prog, db, method=method, schedule="parallel")
        mono = solve(prog, db, method=method, schedule="monolithic")
        scc = solve(prog, db, method=method, schedule="scc")
        assert par.instance.equals(mono.instance)
        assert scc.instance.equals(mono.instance)
        assert par.stats["strata"] == scc.stats["strata"]
        assert par.stats["parallel_workers"] >= 1
        # Reports keep the deterministic condensation order.
        assert [r.relations for r in par.strata] == [
            r.relations for r in scc.strata
        ]

    def test_parallel_worker_isolation_counters(self):
        prog = _wide_program()
        db = Database(
            pops=TROP,
            relations={"A": {(0,): 0.0}, "E": dict(workloads.line_edges(6))},
        )
        par = scheduled_fixpoint(prog, db, parallel=True, max_workers=4)
        seq = scheduled_fixpoint(prog, db)
        assert par.instance.equals(seq.instance)
        # Total fixpoint progress is schedule-independent.
        assert par.stats["iterations"] == seq.stats["iterations"]
        assert (
            par.stats["rule_applications"] == seq.stats["rule_applications"]
        )

    def test_parallel_trace_capture_rejected(self):
        db = _line_db(4)
        with pytest.raises(ValueError):
            solve(programs.sssp(0), db, schedule="parallel", capture_trace=True)


# ---------------------------------------------------------------------------
# Hypothesis: default engine == interpreted over random conditional programs.
# ---------------------------------------------------------------------------

_PREDS = ["P0", "P1", "P2", "P3"]

#: Body spec: ("edb",) | ("ind", c) | ("cond", c) | ("copy", j) | ("step", j).
_body_spec = st.one_of(
    st.just(("edb",)),
    st.tuples(st.just("ind"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("cond"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("copy"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("step"), st.integers(min_value=0, max_value=3)),
)

_program_spec = st.lists(
    st.lists(_body_spec, min_size=1, max_size=2),
    min_size=1,
    max_size=4,
)


def _build_program(spec, acyclic: bool) -> Program:
    rules = []
    for i, bodies in enumerate(spec):
        head = _PREDS[i]
        sum_products = []
        for body in bodies:
            kind = body[0]
            if kind == "edb":
                sum_products.append(SumProduct((RelAtom("A", terms(["X"])),)))
            elif kind == "ind":
                sum_products.append(
                    SumProduct(
                        (Indicator(Compare("==", var("X"), Constant(body[1]))),)
                    )
                )
            elif kind == "cond":
                # A conditional body: the filter rides the pushdown and
                # vectorized-mask paths.
                sum_products.append(
                    SumProduct(
                        (RelAtom("A", terms(["X"])),),
                        condition=Compare("!=", var("X"), Constant(body[1])),
                    )
                )
            else:
                j = body[1] % len(spec)
                if acyclic and j >= i:
                    sum_products.append(
                        SumProduct((RelAtom("A", terms(["X"])),))
                    )
                elif kind == "copy":
                    sum_products.append(
                        SumProduct((RelAtom(_PREDS[j], terms(["X"])),))
                    )
                else:
                    sum_products.append(
                        SumProduct(
                            (
                                RelAtom(_PREDS[j], terms(["Z"])),
                                RelAtom("E", terms(["Z", "X"])),
                            )
                        )
                    )
        rules.append(Rule(head, terms(["X"]), tuple(sum_products)))
    return Program(rules=rules, edbs={"A": 1, "E": 2})


def _database(pops, values):
    keys = [(0,), (1,), (2,)]
    return Database(
        pops=pops,
        relations={
            "A": dict(zip(keys, values)),
            "E": {(0, 1): values[0], (1, 2): values[1], (2, 3): values[2]},
        },
    )


class TestCompiledInvariance:
    @settings(max_examples=50, deadline=None)
    @given(_program_spec)
    def test_idempotent_semirings_with_cycles(self, spec):
        for pops, values in (
            (BOOL, [True, True, True]),
            (TROP, [1.0, 2.0, 4.0]),
            (THREE, [1, 0, 1]),
        ):
            prog = _build_program(spec, acyclic=False)
            db = _database(pops, values)
            interpreted = solve(
                prog, db, engine="interpreted", max_iterations=400
            )
            default = solve(prog, db, max_iterations=400)
            assert default.instance.equals(interpreted.instance), pops.name
            if getattr(pops, "supports_minus", False):
                semi = solve(
                    prog,
                    db,
                    method="seminaive",
                    max_iterations=400,
                )
                assert semi.instance.equals(interpreted.instance), pops.name

    @settings(max_examples=30, deadline=None)
    @given(_program_spec)
    def test_lifted_reals_acyclic(self, spec):
        prog = _build_program(spec, acyclic=True)
        db = _database(LIFTED_REAL, [1.0, 2.0, 4.0])
        interpreted = solve(prog, db, engine="interpreted", max_iterations=400)
        default = solve(prog, db, max_iterations=400)
        assert default.instance.equals(interpreted.instance)

    @settings(max_examples=25, deadline=None)
    @given(_program_spec)
    def test_parallel_schedule_invariance(self, spec):
        prog = _build_program(spec, acyclic=False)
        db = _database(TROP, [1.0, 2.0, 4.0])
        mono = solve(
            prog, db, schedule="monolithic", max_iterations=400
        )
        par = solve(prog, db, schedule="parallel", max_iterations=400)
        assert par.instance.equals(mono.instance)


class TestTotalHeadsCompiled:
    def test_total_heads_matches_interpreted(self):
        # THREE is not naturally ordered: heads totalize over the whole
        # ground-atom space, and the cached-contribution merge must
        # interact with the pre-seeded zeros exactly like recomputation.
        rules = [
            Rule(
                "R",
                terms(["X"]),
                (
                    SumProduct((RelAtom("A", terms(["X"])),)),
                    SumProduct(
                        (RelAtom("R", terms(["Z"])),
                         RelAtom("E", terms(["Z", "X"]))),
                    ),
                ),
            ),
        ]
        prog = Program(rules=rules, edbs={"A": 1, "E": 2})
        db = Database(
            pops=THREE,
            relations={
                "A": {(0,): 1, (1,): 0},
                "E": {(0, 1): 1, (1, 2): 1, (2, 3): 0},
            },
        )
        default = NaiveEvaluator(prog, db).run()
        interpreted = NaiveEvaluator(prog, db, engine="interpreted").run()
        assert default.instance.equals(interpreted.instance)
        assert default.steps == interpreted.steps
