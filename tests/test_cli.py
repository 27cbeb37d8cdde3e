"""Tests for the command-line interface."""

import argparse
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccto.cli import (
    MAX_EXPANDED_NODES,
    SOLVERS,
    build_parser,
    choose_solver,
    main,
)
from ccto.colorcoding import DEFAULT_FAILURE_PROB, MAX_COLOURINGS, _colouring_plan
from ccto.core import (
    CapabilityError,
    CctoInstance,
    NotApplicableError,
    TemporalCostGraph,
)
from ccto.instances import (
    MAX_FILE_VERTICES,
    InstanceFile,
    from_edge_labels,
    load_instance,
    random_instance,
    save_instance,
)
from ccto.oracle import MAX_ORACLE_VERTICES, solve_exact
from ccto.result import SolveResult, verify_result
from ccto.tree_solvers import (
    sparse_triples_applicable,
    subforest_applicable,
    tree_closed_applicable,
)
from ccto.vitw import MAX_BAG_WIDTH, bag_width, solve_vitw, vitw_sequence, vitw_window

from conftest import I1_TUPLES, brute_force_best, make_graph

I1_TEXT = """version 1
n 3
name 0 s
name 1 a
name 2 b
tuple 0 1 1 2 2
tuple 1 2 2 3 4
tuple 2 1 4 5 1
tuple 1 0 5 6 1
query 0 0 3 8
"""

I3_TEXT = """version 1
n 3
tuple 0 1 1 2 2
tuple 1 2 3 4 1
query 0 2 3 3
"""


@pytest.fixture
def i1_path(tmp_path):
    path = tmp_path / "i1.ccto"
    path.write_text(I1_TEXT)
    return str(path)


@pytest.fixture
def i3_path(tmp_path):
    path = tmp_path / "i3.ccto"
    path.write_text(I3_TEXT)
    return str(path)


class TestSolve:
    def test_structured_golden(self, i1_path, capsys):
        code = main(["solve", i1_path, "--algorithm", "oracle", "--format", "structured"])
        assert code == 0
        assert capsys.readouterr().out == (
            "feasible yes\n"
            "cost 8\n"
            "solver oracle\n"
            "step 0 1 1 2\n"
            "step 1 2 2 3\n"
            "step 2 1 4 5\n"
            "step 1 0 5 6\n"
            "stat states 5\n"
        )

    def test_one_colour_star_has_one_colouring(self, tmp_path, capsys):
        # A closed walk with k 2 has one inner colour, so the 1,499 leaves
        # split into a single group: far more items than recursion levels.
        n = 1500
        tuples = []
        for j in range(1, n):
            tuples += [(0, j, 2 * j, 2 * j + 1, 1), (j, 0, 2 * j + 1, 2 * j + 2, 1)]
        path = tmp_path / "star.ccto"
        save_instance(path, InstanceFile(make_graph(n, tuples), None))
        argv = ["solve", str(path), "--algorithm", "colorcoding", "--format", "structured"]
        argv += ["--source", "0", "--sink", "0", "--k", "2", "--budget", "5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cost 2\n" in out
        assert "stat colourings 1\n" in out

    def test_uncountable_trials_are_a_capability_error(self, tmp_path, capsys):
        # 758 inner colours: p!/p^p underflows, so no finite number of
        # random colourings meets the failure probability. That is a
        # refusal (2), not an "infeasible" answer (1).
        n = 800
        graph = make_graph(n, [(v, v + 1, v, v + 1, 1) for v in range(n - 1)])
        path = tmp_path / "path.ccto"
        save_instance(path, InstanceFile(graph, CctoInstance(graph, 0, n - 1, 2, 5)))
        argv = ["solve", str(path), "--algorithm", "colorcoding", "--mode", "randomized"]
        assert main(argv + ["--k", "760", "--budget", "100000"]) == 2
        assert "758 inner colours" in capsys.readouterr().err

    def test_exhaustive_count_past_the_digit_limit_is_a_capability_error(self, tmp_path, capsys):
        # 28 ** 2998 colourings has over 4,300 digits, more than Python will
        # print; the refusal names the cap instead.
        n = 3000
        graph = make_graph(n, [(v, v + 1, v, v + 1, 1) for v in range(n - 1)])
        path = tmp_path / "path.ccto"
        save_instance(path, InstanceFile(graph, CctoInstance(graph, 0, n - 1, 30, 10**6)))
        argv = ["solve", str(path), "--algorithm", "colorcoding", "--mode", "exhaustive"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"28 ** 2998 exhaustive colourings exceed the cap {MAX_COLOURINGS} " in err
        assert "4300 digits" not in err

    def test_forced_inapplicable_algorithm(self, i1_path, capsys):
        code = main(["solve", i1_path, "--algorithm", "sparse"])
        assert code == 2
        err = capsys.readouterr().err
        assert "vertex a participates in 4" in err

    def test_budget_precheck_short_circuits(self, i3_path, capsys):
        code = main(
            ["solve", i3_path, "--k", "5", "--budget", "3", "--format", "structured"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "feasible no" in out
        assert "solver precheck" in out
        assert "stat lower_bound 4" in out

    def test_infeasible_exit_code(self, i1_path, capsys):
        code = main(["solve", i1_path, "--budget", "7"])
        assert code == 1
        out = capsys.readouterr().out
        assert "result: infeasible" in out
        assert "optimal cost: 8" in out

    def test_query_flags_override_file(self, i1_path, capsys):
        code = main(["solve", i1_path, "--k", "1", "--format", "structured"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost 0\n" in out

    def test_missing_query_field(self, tmp_path, capsys):
        path = tmp_path / "bare.ccto"
        path.write_text("version 1\nn 2\ntuple 0 1 3 4 1\n")
        code = main(["solve", str(path), "--source", "0", "--sink", "1", "--k", "2"])
        assert code == 2
        assert "--budget" in capsys.readouterr().err

    def test_query_flags_on_bare_file(self, tmp_path, capsys):
        path = tmp_path / "bare.ccto"
        path.write_text("version 1\nn 2\ntuple 0 1 3 4 1\ntuple 1 0 3 4 1\n")
        code = main(
            [
                "solve", str(path),
                "--source", "0", "--sink", "1", "--k", "2", "--budget", "2",
                "--format", "structured",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost 1\n" in out
        assert "step 0 1 3 4\n" in out

    def test_parse_failure(self, tmp_path, capsys):
        path = tmp_path / "broken.ccto"
        path.write_text("version 1\nn 2\ntuple 0 1 5 4 1\n")
        assert main(["solve", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_randomized_no_is_labelled(self, i3_path, capsys):
        code = main(
            [
                "solve", i3_path,
                "--algorithm", "colorcoding", "--mode", "randomized",
                "--seed", "5", "--budget", "2",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "result: not found (failure prob <= 0.001)" in out
        assert "result: infeasible" not in out

    @pytest.mark.parametrize("prob", ["0", "1", "1.5", "nan"])
    def test_failure_prob_outside_0_1_is_a_usage_error(self, i1_path, capsys, prob):
        argv = ["solve", i1_path, "--algorithm", "colorcoding", "--mode", "randomized"]
        assert main(argv + ["--failure-prob", prob]) == 2
        assert "not in (0, 1)" in capsys.readouterr().err

    def test_tiny_failure_prob_answers(self, i1_path, capsys):
        argv = ["solve", i1_path, "--algorithm", "colorcoding", "--mode", "randomized"]
        assert main(argv + ["--failure-prob", "1e-320", "--format", "structured"]) == 0
        assert "cost 8\n" in capsys.readouterr().out

    def test_colorcoding_mode_follows_the_solver_cap(self, tmp_path, capsys):
        # Closed query: 13 inner vertices, 4 inner colours, so 4^13
        # colourings exceed the exhaustive cap and the CLI must pick the
        # randomized mode rather than hand the solver a capped run.
        tuples = []
        for v in range(1, 14):
            tuples += [(0, v, 2 * v - 1, 2 * v, 1), (v, 0, 2 * v, 2 * v + 1, 1)]
        graph = make_graph(14, tuples)
        path = tmp_path / "star.ccto"
        save_instance(path, InstanceFile(graph, CctoInstance(graph, 0, 0, 5, 8)))
        code = main(
            ["solve", str(path), "--algorithm", "colorcoding", "--format", "structured"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost 8\n" in out
        assert "stat mode randomized\n" in out

    def test_auto_answers_on_epoch_timestamps(self, tmp_path, capsys):
        # Unix-epoch times: a sweep over every time unit would never finish.
        t = 1_700_000_000
        path = tmp_path / "epoch.ccto"
        path.write_text(
            "version 1\nn 3\n"
            f"tuple 0 1 {t} {t + 60} 3\n"
            f"tuple 1 2 {t + 120} {t + 180} 4\n"
            f"tuple 2 0 {t + 240} {t + 300} 5\n"
            "query 0 2 3 10\n"
        )
        started = time.perf_counter()
        assert main(["solve", str(path), "--format", "structured"]) == 0
        assert time.perf_counter() - started < 1
        out = capsys.readouterr().out
        assert "cost 7\n" in out
        assert "solver oracle\n" in out

    @pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
    @pytest.mark.parametrize("query", [["--sink", "1", "--k", "2"], ["--k", "1"]])
    def test_colorcoding_without_colours_names_itself(self, i1_path, capsys, mode, query):
        # An open walk of k <= 2 or a closed walk of k = 1 needs no colours.
        argv = ["solve", i1_path, "--algorithm", "colorcoding", "--mode", mode]
        assert main(argv + query + ["--format", "structured"]) == 0
        assert "solver colorcoding\n" in capsys.readouterr().out

    def test_every_forced_algorithm_agrees(self, i1_path, capsys):
        costs = {}
        for algorithm in ("oracle", "tree", "subforest", "vitw", "colorcoding"):
            code = main(
                ["solve", i1_path, "--algorithm", algorithm, "--format", "structured"]
            )
            assert code == 0
            out = capsys.readouterr().out
            costs[algorithm] = [l for l in out.splitlines() if l.startswith("cost ")]
        assert all(lines == ["cost 8"] for lines in costs.values())


def _busy_star(n, extra=()):
    """Hub 0 visits each leaf in turn and comes back; `extra` tuples ride
    along. Every vertex but the hub touches two tuples."""
    tuples = list(extra)
    for v in range(1, n):
        tuples += [(0, v, 2 * v - 1, 2 * v, 1), (v, 0, 2 * v, 2 * v + 1, 1)]
    return make_graph(n, tuples)


# Two more crossings of edge (0, 1) after the tour: usable 4 times.
BUSY_EDGE_EXTRA = [(0, 1, 32, 33, 1), (1, 0, 33, 34, 1)]

# A directed 12-cycle on a long time axis: 39 unit moves, 3000 apart.
LONG_CYCLE_TEXT = "version 1\nn 12\n" + "".join(
    f"tuple {t % 12} {(t + 1) % 12} {3000 * t} {3000 * t + 1} 1\n" for t in range(1, 40)
) + "query 1 1 3 100\n"


class TestChooseSolver:
    def test_small_instances_go_to_the_oracle(self, i1):
        assert choose_solver(CctoInstance(i1, 0, 0, 3, 8)) == "oracle"

    def test_sparse_wins_past_oracle_size(self):
        tuples = [(v, v + 1, 2 * v + 1, 2 * v + 2, 1) for v in range(15)]
        g = make_graph(16, tuples)
        assert choose_solver(CctoInstance(g, 0, 15, 2, 20)) == "sparse"

    def test_tree_when_too_busy_for_sparse(self):
        assert choose_solver(CctoInstance(_busy_star(16), 0, 0, 3, 30)) == "tree"

    def test_subforest_for_open_walks_on_trees(self):
        assert choose_solver(CctoInstance(_busy_star(16), 0, 5, 3, 30)) == "subforest"

    def test_vitw_for_open_walks_on_busy_trees(self):
        # Edge (0, 1) is usable 4 times, so subforest refuses.
        g = _busy_star(16, BUSY_EDGE_EXTRA)
        assert g.max_traversal_number(0, 1) == 4
        assert choose_solver(CctoInstance(g, 0, 5, 3, 30)) == "vitw"

    def test_long_axis_falls_through_past_vitw(self):
        # The vitw case with times x3000: narrow bags, but the shifted
        # horizon passes the cap, so dispatch must not pick vitw.
        g = _busy_star(16, BUSY_EDGE_EXTRA)
        g = make_graph(16, [(u, v, 3000 * d, 3000 * a, c) for u, v, d, a, c in g.tuples()])
        inst = CctoInstance(g, 0, 5, 3, 30)
        assert bag_width(g) <= MAX_BAG_WIDTH
        with pytest.raises(CapabilityError, match="time-unit cap"):
            solve_vitw(inst)
        assert choose_solver(inst) == "colorcoding"

    def test_colorcoding_is_the_fallback(self):
        # Wide bags (15 simultaneous vertices) and a cycle edge: nothing
        # cheaper applies.
        tuples = []
        for v in range(1, 16):
            tuples += [(0, v, 1, 2, 1), (v, 0, 3, 4, 1)]
        tuples += [(1, 2, 2, 3, 1)]
        g = make_graph(16, tuples)
        assert choose_solver(CctoInstance(g, 0, 0, 3, 10)) == "colorcoding"

    def test_long_axis_cycle_solves_exactly(self, tmp_path, capsys):
        path = tmp_path / "long.ccto"
        path.write_text(LONG_CYCLE_TEXT)
        assert main(["solve", str(path), "--format", "structured"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "solver oracle" in out and "cost 12" in out

    def test_dispatch_judges_the_file_subforest(self, tmp_path, capsys):
        # Edge (0, 1) is too busy outside a forest; inside it, subforest runs.
        g = _busy_star(16, BUSY_EDGE_EXTRA)
        inst = CctoInstance(g, 0, 5, 3, 30)
        assert choose_solver(inst, [(0, 1)]) == "subforest"
        path = tmp_path / "forest.ccto"
        save_instance(path, InstanceFile(g, inst, ((0, 1),)))
        assert main(["solve", str(path), "--format", "structured"]) == 0
        assert "solver subforest" in capsys.readouterr().out.splitlines()

    def test_colorcoding_mode_split(self):
        small = CctoInstance(make_graph(3, I1_TUPLES), 0, 0, 3, 8)
        assert _colouring_plan(small)[0] == "exhaustive"
        wide = CctoInstance(make_graph(14, [(0, 1, 1, 2, 1)]), 0, 1, 6, 99)
        assert _colouring_plan(wide)[0] == "randomized"

    def test_no_row_applies_to_a_randomized_plan_past_the_cap(self, tmp_path, capsys):
        # 30 vertices, closed k 16: 15 inner colours on 29 inner vertices
        # plan 2,313,160 random colourings, days of sweeps. Every row
        # refuses, and dispatch says so at once instead of running them.
        inst = random_instance(seed=5, n=30, horizon=10, density=0.3, shape="general")
        inst = CctoInstance(inst.graph, 0, 0, 16, 10**6)
        started = time.perf_counter()
        with pytest.raises(CapabilityError, match=f"^2313160 randomized .* cap {MAX_COLOURINGS} "):
            choose_solver(inst)
        path = tmp_path / "item6.ccto"
        save_instance(path, InstanceFile(inst.graph, inst))
        assert main(["solve", str(path)]) == 2
        assert "2313160 randomized colourings exceed the cap" in capsys.readouterr().err
        assert main(["analyze", str(path)]) == 0
        assert "applicable colorcoding no\n" in capsys.readouterr().out
        assert time.perf_counter() - started < 2


class TestAnalyze:
    def test_golden_report(self, i1_path, capsys):
        assert main(["analyze", i1_path]) == 0
        assert capsys.readouterr().out == (
            "n 3\n"
            "lifetime 6\n"
            "connected yes\n"
            "traversal s a 2\n"
            "traversal a b 2\n"
            "width 2\n"
            "interval a 2 5\n"
            "interval b 3 4\n"
            "applicable oracle yes\n"
            "applicable sparse no\n"
            "applicable tree yes\n"
            "applicable subforest yes\n"
            "applicable vitw yes\n"
            "applicable colorcoding yes\n"
        )

    def test_tuple_free_instance(self, tmp_path, capsys):
        path = tmp_path / "empty.ccto"
        path.write_text("version 1\nn 2\n")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lifetime 0\n" in out
        assert "width 0\n" in out
        assert "connected no\n" in out
        assert "warning graph is not connected\n" in out
        assert out.count("applicable") == 6
        assert "applicable sparse yes" in out

    def test_sparse_applicability_reported(self, i3_path, capsys):
        assert main(["analyze", i3_path]) == 0
        assert "applicable sparse yes" in capsys.readouterr().out

    def test_export_expanded(self, i1_path, tmp_path, capsys):
        target = tmp_path / "arcs.txt"
        assert main(["analyze", i1_path, "--export-expanded", str(target)]) == 0
        out = capsys.readouterr().out
        assert f"expanded 21 22 {target}" in out
        lines = target.read_text().splitlines()
        assert len(lines) == 22
        assert "0 1 1 2 2" in lines  # movement arc keeps its cost
        assert "0 0 0 1 0" in lines  # waiting arc is free

    def test_export_expanded_refuses_above_the_node_cap(self, tmp_path, capsys):
        scale = 10**7
        path = tmp_path / "long.ccto"
        save_instance(path, InstanceFile(make_graph(
            3, [(u, v, d * scale, a * scale, c) for u, v, d, a, c in I1_TUPLES]
        )))
        target = tmp_path / "arcs.txt"
        started = time.perf_counter()
        assert main(["analyze", str(path), "--export-expanded", str(target)]) == 2
        assert time.perf_counter() - started < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"export cap {MAX_EXPANDED_NODES}" in err
        assert not target.exists()

    @pytest.mark.parametrize("command", ["analyze", "solve"])
    def test_vertex_count_above_the_cap_fails_fast(self, tmp_path, capsys, command):
        path = tmp_path / "huge.ccto"
        path.write_text("version 1\nn 10000000\ntuple 0 1 1 2 1\nquery 0 1 2 5\n")
        started = time.perf_counter()
        assert main([command, str(path)]) == 2
        assert time.perf_counter() - started < 1
        assert f"line 2: 10000000 vertices exceed the vertex cap {MAX_FILE_VERTICES}" in (
            capsys.readouterr().err
        )

    def test_long_time_axis_reports_intervals(self, tmp_path, capsys):
        scale = 10**7
        path = tmp_path / "long.ccto"
        save_instance(path, InstanceFile(make_graph(
            3, [(u, v, d * scale, a * scale, c) for u, v, d, a, c in I1_TUPLES]
        )))
        started = time.perf_counter()
        assert main(["analyze", str(path)]) == 0
        assert time.perf_counter() - started < 1
        out = capsys.readouterr().out
        assert f"lifetime {6 * scale}\n" in out
        assert "width 2\n" in out
        assert f"interval 1 {2 * scale} {5 * scale}\n" in out
        assert f"interval 2 {3 * scale} {4 * scale}\n" in out

    def test_parse_failure(self, tmp_path, capsys):
        path = tmp_path / "broken.ccto"
        path.write_text("n 2\n")
        assert main(["analyze", str(path)]) == 2
        assert "version" in capsys.readouterr().err


class TestGenerate:
    def test_star_exp_golden(self, capsys):
        assert main(["generate", "star-exp", "--labels", "1,2;3,4"]) == 0
        assert capsys.readouterr().out == (
            "version 1\n"
            "n 3\n"
            "tuple 0 1 1 2 1\n"
            "tuple 0 1 2 3 1\n"
            "tuple 0 2 3 4 1\n"
            "tuple 0 2 4 5 1\n"
            "tuple 1 0 1 2 1\n"
            "tuple 1 0 2 3 1\n"
            "tuple 2 0 3 4 1\n"
            "tuple 2 0 4 5 1\n"
            "query 0 0 3 4\n"
        )

    @pytest.mark.parametrize(
        "argv, n",
        [
            (["random", "--n", str(MAX_FILE_VERTICES + 1)], MAX_FILE_VERTICES + 1),
            (["from-temporal", "--edge", "0 200000 @ 1"], 200001),
            (["star-exp", "--labels", ";".join(["1"] * MAX_FILE_VERTICES)], MAX_FILE_VERTICES + 1),
        ],
        ids=["random", "from-temporal", "star-exp"],
    )
    def test_vertex_count_above_the_file_cap_is_refused(self, tmp_path, capsys, argv, n):
        # `solve` would refuse the file, so nothing is generated or written.
        target = tmp_path / "big.ccto"
        started = time.perf_counter()
        assert main(["generate", *argv, "--output", str(target)]) == 2
        assert time.perf_counter() - started < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {n} vertices exceed the vertex cap {MAX_FILE_VERTICES}" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "x.ccto", "--trials", "1"],
            ["bench", "x.ccto", "--trials", "1"],
            ["generate", "star-exp", "--leaves", "2", "--labels", "1;2"],
        ],
    )
    def test_derived_counts_are_not_options(self, capsys, argv):
        # The trial count follows --failure-prob and the leaf count --labels.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_from_temporal_edge(self, capsys):
        assert main(["generate", "from-temporal", "--edge", "0 1 @ 3"]) == 0
        assert capsys.readouterr().out == (
            "version 1\nn 2\ntuple 0 1 3 4 1\ntuple 1 0 3 4 1\n"
        )

    def test_from_temporal_needs_edges(self, capsys):
        assert main(["generate", "from-temporal"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["from-temporal", "--edge", "0 @ 3"], "expected 'u v @ t1,t2,...'"),
            (["from-temporal", "--edge", "0 1 @"], "no departure times"),
            (["star-exp"], "star-exp needs --labels"),
            (["random", "--max-cost", "0"], "max_cost must be at least 1"),
            (["random", "--n", "20000", "--shape", "general"], "exceed the slot cap"),
        ],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, argv, message):
        assert main(["generate", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_random_is_deterministic(self, tmp_path, capsys):
        argv = ["generate", "random", "--seed", "7", "--n", "4", "--horizon", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert main(argv + ["--seed", "8"]) == 0
        assert capsys.readouterr().out != first

    def test_output_file_parses_back(self, tmp_path):
        target = tmp_path / "gen.ccto"
        argv = [
            "generate", "random", "--seed", "3", "--n", "5",
            "--horizon", "6", "--output", str(target),
        ]
        assert main(argv) == 0
        assert main(["analyze", str(target)]) == 0

    def test_solve_consumes_generated_file(self, tmp_path, capsys):
        target = tmp_path / "gen.ccto"
        main(
            ["generate", "star-exp", "--labels", "1,2;3,4", "--output", str(target)]
        )
        capsys.readouterr()
        code = main(["solve", str(target), "--format", "structured"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cost 4\n" in out


class TestBench:
    def _suite(self, tmp_path, count=10):
        paths = []
        for index in range(count):
            inst = random_instance(
                seed=900 + index, n=5, horizon=6, density=0.35, shape="tree"
            )
            path = tmp_path / f"b{index}.ccto"
            save_instance(path, InstanceFile(inst.graph, inst))
            paths.append(str(path))
        return paths

    def test_rows_agree_across_solvers(self, tmp_path, capsys):
        paths = self._suite(tmp_path)
        code = main(["bench", *paths, "--solvers", "oracle,tree,vitw"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# instance solver feasible cost states millis"
        rows = [l.split() for l in lines[1:]]
        assert len(rows) == 30
        by_instance = {}
        for row in rows:
            if row[2] != "skipped":
                by_instance.setdefault(row[0], set()).add((row[2], row[3]))
        assert all(len(v) == 1 for v in by_instance.values())

    def test_empty_suite(self, capsys):
        assert main(["bench"]) == 0
        assert capsys.readouterr().out == "# instance solver feasible cost states millis\n"

    def test_disagreement_trips_exit_3(self, tmp_path, capsys, monkeypatch):
        import ccto.cli as cli_module

        def wrong_oracle(instance):
            return SolveResult(
                feasible=True, optimal_cost=0, witness=[], solver="oracle"
            )

        monkeypatch.setattr(cli_module, "solve_exact", wrong_oracle)
        paths = self._suite(tmp_path, count=3)
        code = main(["bench", *paths, "--solvers", "oracle,vitw"])
        assert code == 3
        err = capsys.readouterr().err
        assert "disagreement" in err
        assert "oracle=0" in err

    def test_randomized_upper_bound_is_no_disagreement(self, tmp_path, capsys):
        # The first feasible randomized trial finds a tour of cost 10 where
        # the optimum is 7: a valid upper bound, not a conflict.
        inst = random_instance(seed=0, n=14, horizon=16, density=0.15, shape="general")
        path = tmp_path / "bound.ccto"
        query = CctoInstance(inst.graph, 0, 0, 6, 200)
        save_instance(path, InstanceFile(inst.graph, query))
        code = main(
            ["bench", str(path), "--solvers", "oracle,colorcoding", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"{path} oracle yes 7 " in out
        assert f"{path} colorcoding yes 10 " in out

    def test_randomized_below_exact_trips_exit_3(self, tmp_path, capsys, monkeypatch):
        import ccto.cli as cli_module

        def cheap_colorcoding(instance, mode, **_):
            return SolveResult(
                feasible=True, optimal_cost=0, witness=[], solver="colorcoding",
                stats={"mode": "randomized"},
            )

        monkeypatch.setattr(cli_module, "solve_color_coding", cheap_colorcoding)
        paths = self._suite(tmp_path, count=1)
        code = main(["bench", *paths, "--solvers", "oracle,colorcoding"])
        assert code == 3
        assert "colorcoding=0 below oracle=" in capsys.readouterr().err

    def test_inapplicable_rows_marked_skipped(self, tmp_path, capsys):
        graph = TemporalCostGraph(3, I1_TUPLES)
        path = tmp_path / "open.ccto"
        save_instance(path, InstanceFile(graph, CctoInstance(graph, 0, 2, 3, 9)))
        code = main(["bench", str(path), "--solvers", "tree,oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"{path} tree skipped - - -" in out

    def test_missing_query_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bare.ccto"
        path.write_text("version 1\nn 2\ntuple 0 1 1 2 1\n")
        assert main(["bench", str(path)]) == 2
        assert "no query" in capsys.readouterr().err


def _dispatched(instance):
    """`choose_solver`'s row, or "refused" when no row applies."""
    try:
        return choose_solver(instance)
    except CapabilityError:
        return "refused"


def _dispatch_instances():
    """Seeded instances past the oracle cap that reach every branch of
    dispatch after the oracle."""
    for seed in range(60):
        shape = "general" if seed % 2 else "tree"
        density = (0.05, 0.15, 0.5)[seed % 3]
        yield random_instance(seed=seed, n=15 + seed % 5, horizon=8, density=density, shape=shape)
    for seed in range(10):
        # Labelled trees with closed queries, as the tree solver wants.
        rng = random.Random(seed)
        n = 15 + seed
        labels = {(rng.randrange(v), v): rng.sample(range(2 * n), 2) for v in range(1, n)}
        yield CctoInstance(from_edge_labels(n, labels), 0, 0, 4, 2 * n)


class TestDispatchBagWidth:
    def test_interval_width_matches_the_bag_sequence(self):
        for seed in range(300):
            inst = random_instance(
                seed=seed, n=2 + seed % 13, horizon=1 + seed % 9,
                density=(0.05, 0.2, 0.5)[seed % 3],
                shape="general" if seed % 2 else "tree",
            )
            assert bag_width(inst.graph) == vitw_sequence(inst.graph).width, seed
        assert bag_width(make_graph(3, [])) == vitw_sequence(make_graph(3, [])).width == 0

    def test_scaled_twin_dispatches_the_same(self):
        seen = set()
        for inst in _dispatch_instances():
            g = inst.graph
            twin = TemporalCostGraph(
                g.n, [(u, v, d * 1000, a * 1000, c) for u, v, d, a, c in g.tuples()]
            )
            name = _dispatched(inst)
            assert _dispatched(
                CctoInstance(twin, inst.source, inst.sink, inst.k, inst.budget)
            ) == name
            seen.add(name)
        assert {"sparse", "tree", "vitw", "colorcoding"} <= seen

    def test_dispatch_never_builds_the_bag_sequence(self, monkeypatch, tmp_path):
        expected = [_dispatched(inst) for inst in _dispatch_instances()]
        paths = []
        for index, inst in enumerate(_dispatch_instances()):
            paths.append(tmp_path / f"{index}.ccto")
            save_instance(paths[-1], InstanceFile(inst.graph, inst))

        def refuse(graph):
            raise AssertionError("dispatch built the per-time bags")

        monkeypatch.setattr("ccto.vitw.vitw_sequence", refuse)
        assert [_dispatched(inst) for inst in _dispatch_instances()] == expected
        for path in paths:
            assert main(["analyze", str(path)]) == 0


def if_chain_choose_solver(instance):
    """Dispatch as an explicit if-chain: the reference for the table walk."""
    graph = instance.graph
    if graph.n <= MAX_ORACLE_VERTICES:
        return "oracle"
    if sparse_triples_applicable(graph):
        return "sparse"
    if tree_closed_applicable(instance):
        return "tree"
    if subforest_applicable(instance):
        return "subforest"
    try:
        vitw_window(instance)
        return "vitw"
    except CapabilityError:
        pass
    try:
        _colouring_plan(instance)
    except CapabilityError:
        return "refused"
    return "colorcoding"


# A two-vertex tree whose one edge can be crossed 4 times.
BUSY_EDGE_TEXT = """version 1
n 2
tuple 0 1 1 2 1
tuple 1 0 2 3 1
tuple 0 1 3 4 1
tuple 1 0 4 5 1
"""


class TestSolverTable:
    def test_dispatch_matches_the_if_chain(self):
        instances = list(_dispatch_instances())
        for seed in range(200):
            instances.append(
                random_instance(
                    seed=seed,
                    n=2 + seed % 15,
                    horizon=2 + seed % 9,
                    density=(0.05, 0.2, 0.5)[seed % 3],
                    shape="general" if seed % 2 else "tree",
                )
            )
        for inst in instances:
            assert _dispatched(inst) == if_chain_choose_solver(inst)

    def test_algorithm_choices_are_the_table(self):
        commands = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        algorithm = next(
            action
            for action in commands.choices["solve"]._actions
            if action.dest == "algorithm"
        )
        assert algorithm.choices == ["auto", *SOLVERS]

    def test_analyze_rows_are_the_table(self, tmp_path, capsys):
        for seed in range(50):
            inst = random_instance(
                seed=seed,
                n=2 + seed % 7,
                horizon=3 + seed % 6,
                density=(0.1, 0.3, 0.6)[seed % 3],
                shape="general" if seed % 5 == 4 else "tree",
            )
            graph = inst.graph
            busy = tuple(e for e, number in graph.traversal_numbers().items() if number > 3)
            for query in (inst, None):
                path = tmp_path / f"t{seed}.ccto"
                save_instance(path, InstanceFile(graph, query, busy[: seed % 3]))
                file = load_instance(path)
                assert main(["analyze", str(path)]) == 0
                rows = [
                    line.split()[1:]
                    for line in capsys.readouterr().out.splitlines()
                    if line.startswith("applicable ")
                ]
                stand_in = query or CctoInstance(graph, 0, 0, 1, 0)
                assert rows == [
                    [name, "yes" if solver.applicable(stand_in, file.subforest) else "no"]
                    for name, solver in SOLVERS.items()
                ]

    def test_analyze_subforest_row_without_a_query(self, tmp_path, capsys):
        path = tmp_path / "busy.ccto"
        path.write_text(BUSY_EDGE_TEXT)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "traversal 0 1 4\n" in out
        assert "applicable subforest no\n" in out
        argv = ["solve", str(path), "--algorithm", "subforest"]
        argv += ["--source", "0", "--sink", "0", "--k", "1", "--budget", "0"]
        assert main(argv) == 2
        assert "outside the subforest admits 4" in capsys.readouterr().err

    def test_bench_rejects_unknown_solvers_up_front(self, i1_path, capsys):
        assert main(["bench", i1_path, "--solvers", "oracle,vitw,nope"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown solver 'nope'" in err
        assert all(name in err for name in SOLVERS)
        assert main(["bench", "--solvers", "nope"]) == 2
        assert capsys.readouterr().out == ""


def _tiny_instance(seed, n, horizon, extra, tree):
    """A query on n vertices with a few stored tuples; on a tree every edge
    carries one, so the tree solvers get to run, and a random half of the
    edges is the subforest."""
    rng = random.Random(seed)
    if tree:
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        pairs = edges + [(v, u) for u, v in edges]
        chosen = [rng.choice((edge, edge[::-1])) for edge in edges]
    else:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        chosen = []
    chosen += [rng.choice(pairs) for _ in range(extra)]
    tuples = {}
    for u, v in chosen:
        depart = rng.randrange(horizon)
        tuples[u, v, depart, rng.randint(depart + 1, horizon)] = rng.randint(1, 5)
    graph = make_graph(n, [key + (cost,) for key, cost in tuples.items()])
    subforest = {edge for edge in sorted(graph.edges) if rng.random() < 0.5}
    source = rng.randrange(n)
    sink = rng.choice((source, rng.randrange(n)))
    query = CctoInstance(graph, source, sink, rng.randint(1, n + 1), rng.randint(0, 20))
    return query, subforest if graph.is_tree() else ()


@given(
    st.integers(0, 2**32), st.integers(2, 5), st.integers(1, 6),
    st.integers(0, 8), st.booleans(),
)
@settings(derandomize=True, deadline=None)
def test_every_registry_solver_agrees_on_tiny_instances(seed, n, horizon, extra, tree):
    instance, subforest = _tiny_instance(seed, n, horizon, extra, tree)
    expected = solve_exact(instance)
    assert expected.optimal_cost == brute_force_best(instance)[0]
    for name, solver in SOLVERS.items():
        if not solver.applicable(instance, subforest):
            continue
        modes = ("exhaustive", "randomized") if name == "colorcoding" else (None,)
        for mode in modes:
            args = argparse.Namespace(
                mode=mode, seed=seed, failure_prob=DEFAULT_FAILURE_PROB
            )
            result = solver.run(instance, subforest, args)
            verify_result(instance, result)
            if mode == "randomized":
                assert result.optimal_cost >= expected.optimal_cost, name
            else:
                assert (result.feasible, result.optimal_cost) == (
                    expected.feasible, expected.optimal_cost
                ), name


def _twins(instance):
    """The instance, its long-axis twin (times x10^5, so any vitw window
    passes the horizon cap), its wide-bag twin (13 new leaves of the
    source, all live at once before every old move) and its many-colour
    twin (15 new isolated vertices and k raised to 15 inner colours, whose
    2,313,160 random colourings pass the colouring cap)."""
    graph, n = instance.graph, instance.graph.n
    query = (instance.source, instance.sink, instance.k, instance.budget)
    leaves = [(instance.source, x, 1, 2, 1) for x in range(n, n + 13)]
    leaves += [(x, instance.source, 3, 4, 1) for x in range(n, n + 13)]
    scaled = [(u, v, d * 10**5, a * 10**5, c) for u, v, d, a, c in graph.tuples()]
    shifted = [(u, v, d + 4, a + 4, c) for u, v, d, a, c in graph.tuples()]
    yield instance
    yield CctoInstance(make_graph(n, scaled), *query)
    yield CctoInstance(make_graph(n + 13, shifted + leaves), *query)
    k = 15 + (1 if instance.source == instance.sink else 2)
    yield CctoInstance(
        make_graph(n + 15, graph.tuples()), instance.source, instance.sink, k, instance.budget
    )


@given(
    st.integers(0, 2**32), st.integers(2, 5), st.integers(1, 6),
    st.integers(0, 8), st.booleans(),
)
@settings(derandomize=True, deadline=None)
def test_applicable_exactly_when_run_does_not_refuse(seed, n, horizon, extra, tree):
    base, subforest = _tiny_instance(seed, n, horizon, extra, tree)
    args = argparse.Namespace(
        mode=None, seed=seed, failure_prob=DEFAULT_FAILURE_PROB
    )
    for instance in _twins(base):
        for name, solver in SOLVERS.items():
            applicable = solver.applicable(instance, subforest)
            # Colour coding refuses before any sweep; a run it accepts past
            # n = 8 is only too slow to try here.
            if name == "colorcoding" and instance.graph.n > 8 and applicable:
                continue
            try:
                solver.run(instance, subforest, args)
            except (NotApplicableError, CapabilityError):
                assert not applicable, name
            else:
                assert applicable, name


@given(
    st.integers(0, 2**32), st.integers(2, 5), st.integers(1, 6),
    st.integers(0, 8), st.booleans(),
    st.integers(0, 1000), st.lists(st.integers(1, 1000), min_size=6, max_size=6),
)
@settings(derandomize=True, deadline=None)
def test_every_registry_solver_ignores_a_time_relabelling(
    seed, n, horizon, extra, tree, offset, gaps
):
    # Solvers compare times only by order, so a strictly increasing map of
    # the time axis changes nothing but the times in the witness. The map
    # stays below 7,001, inside vitw's horizon cap.
    base, subforest = _tiny_instance(seed, n, horizon, extra, tree)
    times = [offset + sum(gaps[:t]) for t in range(horizon + 1)]
    graph = make_graph(n, [(u, v, times[d], times[a], c) for u, v, d, a, c in base.graph.tuples()])
    twin = CctoInstance(graph, base.source, base.sink, base.k, base.budget)
    # vitw steps through every time unit of its shifted window, so these stay
    # in time units until it runs on the shared label sweep (ROADMAP item 2).
    raw_time_stats = {"vitw": {"shift", "effective_lifetime", "states"}}
    for name, solver in SOLVERS.items():
        applicable = solver.applicable(base, subforest)
        assert solver.applicable(twin, subforest) == applicable, name
        if not applicable:
            continue
        modes = ("exhaustive", "randomized") if name == "colorcoding" else (None,)
        for mode in modes:
            args = argparse.Namespace(mode=mode, seed=seed, failure_prob=DEFAULT_FAILURE_PROB)
            expected, got = solver.run(base, subforest, args), solver.run(twin, subforest, args)
            assert (got.feasible, got.optimal_cost) == (expected.feasible, expected.optimal_cost)
            relabelled = expected.witness and [
                (u, v, times[d], times[a]) for u, v, d, a in expected.witness
            ]
            assert got.witness == relabelled, name
            exempt = raw_time_stats.get(name, set())
            assert got.stats.keys() == expected.stats.keys(), name
            for key in got.stats.keys() - exempt:
                assert got.stats[key] == expected.stats[key], (name, key)
            if "state_space" in got.stats:
                assert got.stats["states"] <= got.stats["state_space"], name
