"""The applications layer (`repro.apps`) and the CLI (`repro.cli`)."""

from __future__ import annotations

import json

import pytest

from repro import apps, workloads
from repro.cli import POPS_FACTORIES, load_database, main, resolve_pops
from repro.semirings import INF, TropicalPSemiring


class TestApps:
    def test_reachability(self):
        edges = {("a", "b"), ("b", "c"), ("d", "e")}
        assert apps.reachability(edges, "a") == {"a", "b", "c"}

    def test_transitive_closure(self):
        tc = apps.transitive_closure({("a", "b"), ("b", "c")})
        assert tc == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_shortest_paths_matches_dijkstra(self):
        edges = workloads.random_weighted_digraph(12, 0.2, seed=9)
        out = apps.shortest_paths(edges, 0)
        oracle = workloads.dijkstra(edges, 0)
        assert out == pytest.approx(oracle)

    def test_all_pairs(self):
        out = apps.all_pairs_shortest_paths(workloads.fig_2a_graph())
        assert out[("a", "d")] == 8.0

    def test_k_shortest(self):
        out = apps.k_shortest_paths(workloads.fig_2a_graph(), "a", k=2)
        assert out["d"] == (8.0, 9.0)
        with pytest.raises(ValueError):
            apps.k_shortest_paths({}, "a", k=0)

    def test_near_optimal(self):
        out = apps.near_optimal_paths(workloads.fig_2a_graph(), "a", eta=1.5)
        assert out["c"] == (4.0, 5.0)

    def test_widest_paths(self):
        edges = {("s", "a"): 4.0, ("a", "t"): 3.0, ("s", "t"): 2.0}
        assert apps.widest_paths(edges)[("s", "t")] == 3.0

    def test_most_reliable_paths(self):
        edges = {("s", "a"): 0.9, ("a", "t"): 0.9, ("s", "t"): 0.5}
        out = apps.most_reliable_paths(edges)
        assert out[("s", "t")] == pytest.approx(0.81)
        with pytest.raises(ValueError):
            apps.most_reliable_paths({("a", "b"): 1.5})

    def test_bom_totals(self):
        edges, costs = workloads.fig_2b_bom()
        out = apps.bom_totals(edges, costs)
        assert out["a"] is None and out["b"] is None
        assert out["c"] == 11.0 and out["d"] == 10.0

    def test_win_positions(self):
        out = apps.win_positions(workloads.fig_4_edges())
        assert out == {
            "a": "draw", "b": "draw",
            "c": "win", "e": "win",
            "d": "lose", "f": "lose",
        }

    def test_methods_agree(self):
        edges = workloads.random_weighted_digraph(8, 0.3, seed=2)
        naive = apps.all_pairs_shortest_paths(edges, method="naive")
        semi = apps.all_pairs_shortest_paths(edges, method="seminaive")
        assert naive == semi


class TestCli:
    @pytest.fixture()
    def tc_files(self, tmp_path):
        program = tmp_path / "tc.dl"
        program.write_text("T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).\n")
        edb = tmp_path / "edb.json"
        edb.write_text(json.dumps({
            "relations": {
                "E": [[["a", "b"], 1.0], [["b", "c"], 3.0]],
            }
        }))
        return str(program), str(edb)

    def test_resolve_pops(self):
        assert resolve_pops("trop").name == "Trop+"
        tp = resolve_pops("tropp:2")
        assert isinstance(tp, TropicalPSemiring) and tp.p == 2
        with pytest.raises(SystemExit):
            resolve_pops("nonsense")

    def test_every_factory_resolves(self):
        for name in POPS_FACTORIES:
            spec = name + (":1" if name in ("tropp", "tropeta") else "")
            assert resolve_pops(spec) is not None

    def test_load_database_lifts_tropp_values(self, tc_files):
        _, edb = tc_files
        db = load_database(edb, resolve_pops("tropp:1"))
        assert db.value("E", ("a", "b")) == (1.0, INF)

    def test_run_command(self, tc_files, capsys):
        program, edb = tc_files
        code = main(["run", program, "--pops", "trop", "--edb", edb])
        assert code == 0
        out = capsys.readouterr().out
        assert "T(a, c) = 4.0" in out
        assert "converged" in out

    def test_run_seminaive(self, tc_files, capsys):
        program, edb = tc_files
        code = main([
            "run", program, "--pops", "trop", "--edb", edb,
            "--method", "seminaive",
        ])
        assert code == 0
        assert "T(a, c) = 4.0" in capsys.readouterr().out

    def test_run_query_demands_point(self, tc_files, capsys):
        program, edb = tc_files
        code = main([
            "run", program, "--pops", "trop", "--edb", edb,
            "--method", "seminaive", "--query", "T(a,?)", "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "T(a, c) = 4.0" in out
        # Only the demanded source materializes…
        assert "T(b, c)" not in out
        # …through the demand path, not a counted fallback.
        assert "# stat demand_fallbacks = 0" in out

    def test_run_query_string_forms(self, tc_files, capsys):
        program, edb = tc_files
        code = main([
            "run", program, "--pops", "trop", "--edb", edb,
            "--query", "T(a, _)",
        ])
        assert code == 0
        assert "T(a, b) = 1.0" in capsys.readouterr().out

    def test_run_query_malformed_rejected(self, tc_files):
        program, edb = tc_files
        with pytest.raises(SystemExit, match="error:"):
            main([
                "run", program, "--pops", "trop", "--edb", edb,
                "--query", "T(a",
            ])
        with pytest.raises(SystemExit, match="not an IDB"):
            main([
                "run", program, "--pops", "trop", "--edb", edb,
                "--query", "Nope(a,?)",
            ])

    # compiled/codegen are deprecated aliases of batched (the CLI
    # always shows their warning on stderr).
    @pytest.mark.parametrize("engine", ["compiled", "codegen", "interpreted"])
    def test_run_engine_flag(self, tc_files, capsys, engine):
        program, edb = tc_files
        code = main([
            "run", program, "--pops", "trop", "--edb", edb,
            "--engine", engine,
        ])
        assert code == 0
        assert "T(a, c) = 4.0" in capsys.readouterr().out

    @pytest.mark.parametrize("schedule", ["scc", "parallel", "monolithic"])
    def test_run_schedule_flag(self, tc_files, capsys, schedule):
        program, edb = tc_files
        code = main([
            "run", program, "--pops", "trop", "--edb", edb,
            "--schedule", schedule,
        ])
        assert code == 0
        assert "T(a, c) = 4.0" in capsys.readouterr().out

    @pytest.mark.parametrize("plan", ["indexed", "indexed-greedy", "naive"])
    def test_run_plan_flag(self, tc_files, capsys, plan):
        program, edb = tc_files
        code = main([
            "run", program, "--pops", "trop", "--edb", edb,
            "--plan", plan, "--method", "seminaive",
        ])
        assert code == 0
        assert "T(a, c) = 4.0" in capsys.readouterr().out

    def test_run_engine_plan_conflict_rejected(self, tc_files):
        # engine=codegen (a deprecated alias of batched) needs an
        # indexed plan; the engine layer's validation surfaces as a
        # clean CLI error, not a traceback.
        program, edb = tc_files
        with pytest.raises(SystemExit, match="indexed plan"):
            main([
                "run", program, "--pops", "trop", "--edb", edb,
                "--plan", "naive", "--engine", "codegen",
            ])

    def test_run_rejects_unknown_engine(self, tc_files):
        program, edb = tc_files
        with pytest.raises(SystemExit):
            main([
                "run", program, "--pops", "trop", "--edb", edb,
                "--engine", "mystery",
            ])

    def test_classify_command(self, tc_files, capsys):
        program, edb = tc_files
        code = main(["classify", program, "--pops", "trop", "--edb", edb])
        assert code == 0
        out = capsys.readouterr().out
        assert "taxonomy case   : (v)" in out
        assert "linear program  : True" in out

    def test_pops_list(self, capsys):
        assert main(["pops-list"]) == 0
        out = capsys.readouterr().out
        assert "trop" in out and "bottleneck" in out

    def test_bool_run(self, tmp_path, capsys):
        program = tmp_path / "reach.dl"
        program.write_text("L(X) :- [X = a] | L(Z) * E(Z, X).\n")
        edb = tmp_path / "edb.json"
        edb.write_text(json.dumps({
            "relations": {
                "E": [[["a", "b"], True], [["b", "c"], True]],
            }
        }))
        code = main(["run", str(program), "--pops", "bool", "--edb", str(edb)])
        assert code == 0
        out = capsys.readouterr().out
        assert "L(c) = True" in out

    def test_module_entrypoint(self, tc_files):
        import subprocess
        import sys

        program, edb = tc_files
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", program,
             "--pops", "trop", "--edb", edb],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "T(a, c) = 4.0" in proc.stdout


class TestWorkersValidation:
    """Satellite: `engine_workers`/`--workers` fail loud at every boundary
    with the same message naming the seminaive-only constraint."""

    MSG = "engine_workers > 1 shards the semi-naïve delta"

    @pytest.fixture()
    def tc_files(self, tmp_path):
        program = tmp_path / "tc.dl"
        program.write_text("T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).\n")
        edb = tmp_path / "edb.json"
        edb.write_text(json.dumps({
            "relations": {
                "E": [[["a", "b"], 1.0], [["b", "c"], 3.0]],
            }
        }))
        return str(program), str(edb)

    def test_solve_rejects_naive_workers(self):
        from repro import core, workloads
        from repro.semirings import TROP

        db = core.Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        program = core.parse_program(
            "T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).\n"
        )
        with pytest.raises(ValueError, match="use method='seminaive'"):
            core.solve(program, db, method="naive", engine_workers=2)

    def test_scheduled_fixpoint_rejects_naive_workers(self):
        from repro import core, workloads
        from repro.core.scheduler import scheduled_fixpoint
        from repro.semirings import TROP

        db = core.Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        program = core.parse_program(
            "T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).\n"
        )
        with pytest.raises(ValueError, match="use method='seminaive'"):
            scheduled_fixpoint(program, db, method="naive", workers=2)

    def test_cli_prints_same_message(self, tc_files):
        program, edb = tc_files
        with pytest.raises(SystemExit, match="use method='seminaive'"):
            main(["run", program, "--pops", "trop", "--edb", edb,
                  "--method", "naive", "--workers", "2"])


class TestValidListsDeduped:
    """Satellite: engine/schedule choices come from one module each."""

    def test_valid_schedules_single_source(self):
        from repro.core import VALID_SCHEDULES
        from repro.core.scheduler import (
            VALID_SCHEDULES as scheduler_schedules,
        )

        assert VALID_SCHEDULES is scheduler_schedules
        assert VALID_SCHEDULES == ("auto", "scc", "parallel", "monolithic")

    def test_solve_names_valid_schedules(self):
        from repro import core, workloads
        from repro.semirings import TROP

        db = core.Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        program = core.parse_program(
            "T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).\n"
        )
        with pytest.raises(ValueError, match="monolithic"):
            core.solve(program, db, schedule="bogus")

    def test_cli_choices_track_the_lists(self):
        from repro.cli import build_parser
        from repro.core import VALID_ENGINES, VALID_SCHEDULES

        parser = build_parser()
        run_parser = next(
            a for a in parser._subparsers._group_actions[0].choices.items()
            if a[0] == "run"
        )[1]
        by_dest = {a.dest: a for a in run_parser._actions}
        assert tuple(by_dest["schedule"].choices) == VALID_SCHEDULES
        assert tuple(by_dest["engine"].choices) == tuple(VALID_ENGINES)
        serve_parser = parser._subparsers._group_actions[0].choices["serve"]
        serve_engine = next(
            a for a in serve_parser._actions if a.dest == "engine"
        )
        assert tuple(serve_engine.choices) == tuple(VALID_ENGINES)

    def test_valid_engines_single_source(self):
        from repro.core import VALID_ENGINES
        from repro.core.kernels import (
            DEPRECATED_ENGINES,
            VALID_ENGINES as kernels_engines,
        )

        assert VALID_ENGINES is kernels_engines
        # Two executors plus "auto"; the retired names are warning
        # aliases of batched, accepted for one release.
        assert VALID_ENGINES == (
            "auto", "interpreted", "batched", "compiled", "codegen"
        )
        assert DEPRECATED_ENGINES == ("compiled", "codegen")


class TestServeCli:
    @pytest.fixture()
    def tc_files(self, tmp_path):
        program = tmp_path / "tc.dl"
        program.write_text("T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).\n")
        edb = tmp_path / "edb.json"
        edb.write_text(json.dumps({
            "relations": {
                "E": [[["a", "b"], 1.0], [["b", "c"], 3.0]],
            }
        }))
        return str(program), str(edb)

    def test_serve_requires_edb_or_checkpoint(self, tc_files, tmp_path):
        program, _edb = tc_files
        with pytest.raises(SystemExit, match="no --edb"):
            main(["serve", program, "--pops", "trop",
                  "--data-dir", str(tmp_path / "empty")])

    def test_serve_round_trip_over_http(self, tc_files, tmp_path):
        """Boot the real subcommand in a thread, hit it over HTTP."""
        import threading
        import urllib.request

        from repro.cli import load_database, resolve_pops
        from repro.core import parse_program
        from repro.core.serve import DatalogService, make_server

        program_path, edb_path = tc_files
        pops = resolve_pops("trop")
        with open(program_path) as f:
            program = parse_program(f.read())
        service = DatalogService(
            program, pops, str(tmp_path / "data"),
            database=load_database(edb_path, pops),
        )
        server = make_server(service, port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/query?relation=T&key=a,c",
                timeout=10,
            ) as r:
                assert json.loads(r.read())["value"] == 4.0
        finally:
            server.shutdown()
            server.server_close()
            service.close()
