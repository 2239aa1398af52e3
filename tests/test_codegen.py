"""The deprecated engine aliases ``"compiled"`` and ``"codegen"``.

Both retired executors were deleted; their names stay accepted for one
release and resolve to ``engine="batched"`` with a
:class:`DeprecationWarning`.  This suite checks that:

* each alias warns once per ``solve()`` call, names ``batched``, and
  returns a fixpoint whose ``fingerprint()`` equals the batched one —
  through the library, ``datalogo run --engine`` and ``datalogo serve
  --engine``;
* the alias reaches every evaluator the ``engine=`` knob does — naïve,
  semi-naïve, every schedule, grounding, hybrid, direct evaluator
  construction — and computes the interpreted oracle's fixpoint there,
  including on hypothesis-generated programs;
* the alias keeps batched's kernel caching (one build per plan) and its
  ``plan="naive"`` rejection.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro import programs, workloads
from repro.core import (
    Database,
    HybridEvaluator,
    ThresholdRule,
    fingerprint,
    solve,
)
from repro.core.ast import Compare, Constant, terms, var
from repro.core.grounding import ground_program
from repro.core.naive import NaiveEvaluator
from repro.core.rules import (
    Indicator,
    Program,
    RelAtom,
    Rule,
    SumProduct,
)
from repro.core.seminaive import SemiNaiveEvaluator
from repro.semirings import BOOL, LIFTED_REAL, REAL_PLUS, THREE, TROP

#: The tests run an alias on purpose; TestDeprecatedAliases asserts the
#: warning itself (recording it overrides this filter).
pytestmark = pytest.mark.filterwarnings("ignore:engine=:DeprecationWarning")

ALIASES = ("compiled", "codegen")


def _line_db(n=10, pops=TROP):
    return Database(pops=pops, relations={"E": dict(workloads.line_edges(n))})


# ---------------------------------------------------------------------------
# Each alias warns once and computes the batched fixpoint.
# ---------------------------------------------------------------------------


def _tc_files(tmp_path):
    program = tmp_path / "tc.dl"
    program.write_text("T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).\n")
    edb = tmp_path / "edb.json"
    edb.write_text(
        '{"relations": {"E": [[["a", "b"], 1.0], [["b", "c"], 3.0]]}}'
    )
    return str(program), str(edb)


class TestDeprecatedAliases:
    @pytest.mark.parametrize("alias", ALIASES)
    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_alias_warns_and_matches_batched(self, alias, method):
        db = _line_db(12)
        batched = solve(programs.sssp(0), db, method=method, engine="batched")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = solve(programs.sssp(0), db, method=method, engine=alias)
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "batched" in str(deprecations[0].message)
        assert alias in str(deprecations[0].message)
        assert fingerprint(result.instance) == fingerprint(batched.instance)

    @pytest.mark.parametrize("alias", ALIASES)
    def test_cli_run_alias(self, alias, tmp_path, capsys):
        from repro.cli import main

        program, edb = _tc_files(tmp_path)
        args = ["run", program, "--pops", "trop", "--edb", edb,
                "--output", "json"]
        assert main(args + ["--engine", "batched"]) == 0
        expected = capsys.readouterr().out
        with pytest.warns(DeprecationWarning, match="batched"):
            assert main(args + ["--engine", alias]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("alias", ALIASES)
    def test_cli_serve_accepts_alias(self, alias):
        from repro.cli import _engine_arg, build_parser

        args = build_parser().parse_args(
            ["serve", "p.dl", "--pops", "trop", "--data-dir", "state",
             "--engine", alias]
        )
        with pytest.warns(DeprecationWarning, match="batched"):
            assert _engine_arg(args.engine) == "batched"


# ---------------------------------------------------------------------------
# The aliases reach every evaluator and compute the oracle's fixpoint.
# ---------------------------------------------------------------------------


class TestCodegenDifferentials:
    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    @pytest.mark.parametrize("schedule", ["monolithic", "scc", "parallel"])
    def test_sssp_line(self, method, schedule):
        db = _line_db(12)
        results = {
            engine: solve(
                programs.sssp(0), db, method=method, schedule=schedule,
                engine=engine,
            )
            for engine in ALIASES + ("interpreted",)
        }
        for alias in ALIASES:
            assert results[alias].instance.equals(
                results["interpreted"].instance
            )

    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_layered_sssp(self, method):
        db = _line_db(10)
        prog = programs.layered_sssp(0)
        codegen = solve(prog, db, method=method, engine="codegen")
        interpreted = solve(prog, db, method=method, engine="interpreted")
        assert codegen.instance.equals(interpreted.instance)

    def test_quadratic_tc_nonlinear_variants(self):
        # Two IDB occurrences per body: every delta-variant store
        # assignment (new / delta / old) runs under the alias.
        dag = workloads.random_dag(10, 0.25, seed=8)
        db = Database(pops=BOOL, relations={"E": {e: True for e in dag}})
        prog = programs.quadratic_transitive_closure()
        codegen = solve(prog, db, method="seminaive", engine="codegen")
        interpreted = solve(prog, db, method="seminaive", engine="interpreted")
        assert codegen.instance.equals(interpreted.instance)

    def test_grounded_engine_knob(self):
        db = _line_db(6)
        codegen = ground_program(programs.sssp(0), db, engine="codegen")
        interpreted = ground_program(
            programs.sssp(0), db, engine="interpreted"
        )
        a = codegen.kleene().value
        b = interpreted.kleene().value
        assert set(a) == set(b)
        for key in a:
            assert TROP.eq(a[key], b[key])

    def test_hybrid_engine_knob(self):
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

        inst_c, facts_c = build("codegen")
        inst_i, facts_i = build("interpreted")
        assert inst_c.equals(inst_i)
        assert facts_c == facts_i

    def test_total_heads_three(self):
        # THREE is not naturally ordered: heads totalize over the whole
        # ground-atom space; a directly constructed evaluator resolves
        # the alias too.
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
        codegen = NaiveEvaluator(prog, db, engine="codegen").run()
        interpreted = NaiveEvaluator(prog, db, engine="interpreted").run()
        assert codegen.instance.equals(interpreted.instance)
        assert codegen.steps == interpreted.steps

    def test_engine_validation(self):
        db = _line_db(4)
        with pytest.raises(ValueError):
            solve(programs.sssp(0), db, plan="naive", engine="codegen")
        with pytest.raises(ValueError):
            solve(programs.sssp(0), db, engine="sourcery")


# ---------------------------------------------------------------------------
# Kernel caching under the alias.
# ---------------------------------------------------------------------------


class TestCodegenCaching:
    def test_one_compile_per_body_across_iterations(self):
        # SSSP has two (rule, body) plans; the fixpoint runs ~n
        # iterations.  Kernels must be built exactly once per plan and
        # *reused* (cache hits), never rebuilt mid-run.
        evaluator = NaiveEvaluator(programs.sssp(0), _line_db(10),
                                   engine="codegen")
        result = evaluator.run()
        assert result.stats["iterations"] > 3
        assert len(evaluator._kernels) == 2
        assert result.stats["kernel_cache_hits"] > 0
        assert (
            result.stats["kernel_cache_hits"]
            + result.stats["rules_skipped"]
            >= result.stats["iterations"] - 1
        )

    def test_seminaive_one_compile_per_variant(self):
        # Quadratic TC: the body with two IDB occurrences has two delta
        # variants (the EDB body drops out after the bootstrap), each
        # built once and reused every iteration.
        dag = workloads.random_dag(10, 0.25, seed=8)
        db = Database(pops=BOOL, relations={"E": {e: True for e in dag}})
        evaluator = SemiNaiveEvaluator(
            programs.quadratic_transitive_closure(), db, engine="codegen"
        )
        result = evaluator.run()
        assert result.stats["iterations"] > 2
        assert len(evaluator._kernels) == 2
        assert result.stats["kernel_cache_hits"] > 0


# ---------------------------------------------------------------------------
# Hypothesis: alias == interpreted over random programs.
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
                # A conditional body: the filter becomes a vectorized
                # boolean mask.
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


class TestCodegenInvariance:
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
            codegen = solve(prog, db, engine="codegen", max_iterations=400)
            assert codegen.instance.equals(interpreted.instance), pops.name
            if getattr(pops, "supports_minus", False):
                semi = solve(
                    prog,
                    db,
                    method="seminaive",
                    engine="codegen",
                    max_iterations=400,
                )
                assert semi.instance.equals(interpreted.instance), pops.name

    @settings(max_examples=30, deadline=None)
    @given(_program_spec)
    def test_lifted_reals_acyclic(self, spec):
        prog = _build_program(spec, acyclic=True)
        db = _database(LIFTED_REAL, [1.0, 2.0, 4.0])
        interpreted = solve(prog, db, engine="interpreted", max_iterations=400)
        codegen = solve(prog, db, engine="codegen", max_iterations=400)
        assert codegen.instance.equals(interpreted.instance)

    @settings(max_examples=20, deadline=None)
    @given(_program_spec)
    def test_parallel_schedule_invariance(self, spec):
        prog = _build_program(spec, acyclic=False)
        db = _database(TROP, [1.0, 2.0, 4.0])
        mono = solve(
            prog, db, schedule="monolithic", engine="codegen",
            max_iterations=400,
        )
        par = solve(
            prog, db, schedule="parallel", engine="codegen",
            max_iterations=400,
        )
        assert par.instance.equals(mono.instance)
