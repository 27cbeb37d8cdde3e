"""Tests for the exhaustive reference solvers."""

import random

import pytest

from ccto.cli import SOLVERS, choose_solver
from ccto.core import INF, CapabilityError, CctoInstance, walk_back, walk_cost, walks_between
from ccto.instances import parse_instance, random_instance
from ccto.oracle import DONE, min_cost_walk_oracle, solve_exact
from ccto.result import SolveResult, verify_result

from conftest import (
    all_quadruples,
    brute_force_best,
    make_graph,
    random_tuple_set,
)
from pinned_answers import POOL_STRIDE, pool_pipeline


def uncapped_solve_exact(instance):
    """The oracle before its visited sets were capped at k: every state
    carries its full visited bitmask. The reference for the capped one."""
    graph = instance.graph
    start = (instance.source, 0, 1 << instance.source)
    labels = {start: 0}
    parent: dict = {}
    by_time: dict[int, set] = {0: {start}}
    for t in sorted({0} | {arrive for _, _, _, arrive, _ in graph.tuples()}):
        for state in sorted(by_time.get(t, ())):
            v, _, mask = state
            base = labels[state]
            for depart, arrive, w, cost in graph.moves_from(v):
                if depart < t:
                    continue
                nxt = (w, arrive, mask | (1 << w))
                candidate = base + cost
                if candidate < labels.get(nxt, INF):
                    labels[nxt] = candidate
                    parent[nxt] = (state, (v, w, depart, arrive))
                    by_time.setdefault(arrive, set()).add(nxt)
    best = INF
    best_state = None
    if instance.source == instance.sink and instance.k == 1:
        best, best_state = 0, start
    for state in sorted(labels):
        v, _, mask = state
        if v != instance.sink or bin(mask).count("1") < instance.k:
            continue
        if labels[state] < best:
            best, best_state = labels[state], state
    witness = None
    if best_state is not None:
        steps = []
        node = best_state
        while node != start:
            node, step = parent[node]
            steps.append(step)
        steps.reverse()
        witness = steps
    return SolveResult(
        feasible=best <= instance.budget,
        optimal_cost=best,
        witness=witness,
        solver="oracle",
        stats={"states": len(labels)},
    )


def whole_graph_solve_exact(instance):
    """The capped oracle as it swept before `walks_between`: every move of
    the whole graph is expanded. The reference for the pruned sweep."""
    graph = instance.graph
    k = instance.k
    start = (instance.source, 0, DONE if k == 1 else 1 << instance.source)
    labels = {start: 0}
    parent: dict = {}
    by_time: dict[int, list] = {0: [start]}
    for t in sorted({0} | {arrive for _, _, _, arrive, _ in graph.tuples()}):
        for state in sorted(by_time.pop(t, ())):
            v, _, mask = state
            base = labels[state]
            for depart, arrive, w, cost in graph.moves_from(v):
                if depart < t:
                    continue
                grown = mask | (1 << w)
                nxt = (w, arrive, DONE if grown.bit_count() == k else grown)
                candidate = base + cost
                known = labels.get(nxt)
                if known is None:
                    by_time.setdefault(arrive, []).append(nxt)
                elif candidate >= known:
                    continue
                labels[nxt] = candidate
                parent[nxt] = (state, (v, w, depart, arrive))
    accepted = [s for s in labels if s[0] == instance.sink and s[2] == DONE]
    best_state = min(accepted, key=lambda s: (labels[s], s), default=None)
    best = INF if best_state is None else labels[best_state]
    return SolveResult(
        feasible=best <= instance.budget,
        optimal_cost=best,
        witness=None if best_state is None else walk_back(parent, best_state, start),
        solver="oracle",
        stats={"states": len(labels)},
    )


class TestSolveExact:
    def test_reference_tour(self, i1):
        result = solve_exact(CctoInstance(i1, 0, 0, 3, 8))
        assert result.feasible
        assert result.optimal_cost == 8
        assert result.witness == [(0, 1, 1, 2), (1, 2, 2, 3), (2, 1, 4, 5), (1, 0, 5, 6)]

    def test_budget_only_gates_feasibility(self, i1):
        tight = solve_exact(CctoInstance(i1, 0, 0, 3, 7))
        assert not tight.feasible
        assert tight.optimal_cost == 8
        assert tight.witness is not None

    def test_no_walk_back_to_the_source(self, i2):
        result = solve_exact(CctoInstance(i2, 0, 0, 2, 100))
        assert not result.feasible
        assert result.optimal_cost == INF
        assert result.witness is None

    def test_k_beyond_n_is_infeasible(self, i1):
        result = solve_exact(CctoInstance(i1, 0, 0, 4, 100))
        assert not result.feasible
        assert result.optimal_cost == INF

    def test_trivial_closed_instance(self, i1):
        result = solve_exact(CctoInstance(i1, 2, 2, 1, 0))
        assert result.feasible
        assert result.optimal_cost == 0
        assert result.witness == []

    def test_open_walk(self, i2):
        result = solve_exact(CctoInstance(i2, 0, 2, 3, 6))
        assert result.feasible
        assert result.optimal_cost == 6

    def test_results_verify(self, i1, i2):
        for graph, src, dst, k, budget in [
            (i1, 0, 0, 3, 8),
            (i1, 0, 0, 3, 7),
            (i1, 0, 1, 2, 100),
            (i2, 0, 2, 3, 6),
            (i2, 2, 0, 1, 5),
        ]:
            instance = CctoInstance(graph, src, dst, k, budget)
            verify_result(instance, solve_exact(instance))

    def test_capability_cap(self):
        graph = make_graph(15, [])
        with pytest.raises(CapabilityError):
            solve_exact(CctoInstance(graph, 0, 0, 1, 0))
        # Source -> sink walks touch 3 of the 15 vertices; the cap still
        # counts all 15, in the solver and in the oracle row, and dispatch
        # passes the query on as before.
        graph = make_graph(15, [(0, 1, 0, 1, 1), (1, 2, 1, 2, 1), (5, 6, 0, 1, 1), (2, 7, 0, 1, 1)])
        instance = CctoInstance(graph, 0, 2, 3, 10)
        assert walks_between(graph, 0, 2).tuple_count() == 2
        for solve in (solve_exact, lambda q: SOLVERS["oracle"].run(q, (), None)):
            with pytest.raises(CapabilityError, match="at most 14 vertices, got 15"):
                solve(instance)
        assert not SOLVERS["oracle"].applicable(instance, ())
        assert choose_solver(instance) == "sparse"

    def test_matches_walk_enumeration(self):
        rng = random.Random(424242)
        for _ in range(40):
            n = rng.randint(2, 4)
            graph = make_graph(n, random_tuple_set(rng, n, 5, rng.randint(0, 7)))
            instance = CctoInstance(
                graph,
                rng.randrange(n),
                rng.randrange(n),
                rng.randint(1, n),
                rng.randint(0, 12),
            )
            expected_cost, _ = brute_force_best(instance)
            result = solve_exact(instance)
            assert result.optimal_cost == expected_cost
            assert result.feasible == (expected_cost <= instance.budget)
            verify_result(instance, result)

    def test_monotone_in_k(self):
        rng = random.Random(99)
        for _ in range(15):
            n = rng.randint(2, 5)
            graph = make_graph(n, random_tuple_set(rng, n, 6, rng.randint(2, 9)))
            src, dst = rng.randrange(n), rng.randrange(n)
            costs = [
                solve_exact(CctoInstance(graph, src, dst, k, 0)).optimal_cost
                for k in range(1, n + 1)
            ]
            assert costs == sorted(costs)

    def test_witness_cost_is_reported_cost(self):
        rng = random.Random(314)
        for _ in range(20):
            n = rng.randint(2, 5)
            graph = make_graph(n, random_tuple_set(rng, n, 6, rng.randint(2, 9)))
            instance = CctoInstance(graph, rng.randrange(n), rng.randrange(n), 2, 50)
            result = solve_exact(instance)
            if result.witness is not None:
                assert walk_cost(graph, result.witness) == result.optimal_cost

    def test_scaled_timestamps_keep_cost_and_states(self):
        # The sweep visits arrival times only, so a 10^12-scaled twin costs
        # the same and settles the same labels.
        scale = 10**12
        for seed in range(40):
            inst = random_instance(
                seed=seed, n=2 + seed % 7, horizon=3 + seed % 6,
                density=(0.2, 0.4, 0.7)[seed % 3],
                shape="general" if seed % 2 else "tree",
            )
            twin_graph = make_graph(inst.graph.n, [
                (u, v, d * scale, a * scale, c) for u, v, d, a, c in inst.graph.tuples()
            ])
            twin = CctoInstance(twin_graph, inst.source, inst.sink, inst.k, inst.budget)
            plain, scaled = solve_exact(inst), solve_exact(twin)
            assert scaled.optimal_cost == plain.optimal_cost, seed
            assert scaled.stats["states"] == plain.stats["states"], seed
            verify_result(twin, scaled)

    def test_k_cap_matches_the_uncapped_reference(self):
        fewer = 0
        for seed in range(520):
            rng = random.Random(seed)
            n = rng.randint(2, 9)
            inst = random_instance(
                seed=seed, n=n, horizon=rng.randint(4, 9),
                density=rng.choice((0.2, 0.3, 0.45)),
                shape="tree" if seed % 4 < 2 else "general",
            )
            source = inst.source
            sink = source if seed % 2 else (source + rng.randrange(1, n)) % n
            instance = CctoInstance(inst.graph, source, sink, rng.randint(1, n + 1), inst.budget)
            expected, got = uncapped_solve_exact(instance), solve_exact(instance)
            assert (got.feasible, got.optimal_cost) == (
                expected.feasible, expected.optimal_cost
            ), seed
            verify_result(instance, got)
            assert got.stats["states"] <= expected.stats["states"], seed
            fewer += got.stats["states"] < expected.stats["states"]
        assert fewer > 0

    def test_matches_the_whole_graph_reference(self):
        fewer = infeasible = 0
        for seed in range(600):
            rng = random.Random(seed)
            n = rng.randint(1, 9)
            inst = random_instance(
                seed=seed, n=n, horizon=rng.randint(3, 9),
                density=rng.choice((0.15, 0.3, 0.45)),
                shape="tree" if seed % 4 < 2 else "general",
            )
            source = inst.source
            sink = source if seed % 2 or n == 1 else (source + rng.randrange(1, n)) % n
            instance = CctoInstance(
                inst.graph, source, sink, rng.randint(1, n + 1), rng.randint(0, 4 * n)
            )
            expected, got = whole_graph_solve_exact(instance), solve_exact(instance)
            assert (got.feasible, got.optimal_cost, got.witness) == (
                expected.feasible, expected.optimal_cost, expected.witness
            ), seed
            assert got.stats["states"] <= expected.stats["states"], seed
            fewer += got.stats["states"] < expected.stats["states"]
            infeasible += not got.feasible
        assert fewer > 0
        assert infeasible > 0

    def test_fewer_than_k_vertices_on_any_walk_settle_only_the_start(self):
        # 2 -> 3 -> 4 -> 5 lies on no walk from 0, and 0 -> 1 -> 0 touches
        # two vertices, so no move out of the start can complete k 3.
        graph = make_graph(6, [
            (0, 1, 0, 1, 1), (1, 0, 1, 2, 1), (2, 3, 0, 1, 1), (3, 4, 1, 2, 1), (4, 5, 2, 3, 1),
        ])
        instance = CctoInstance(graph, 0, 0, 3, 10)
        got, expected = solve_exact(instance), whole_graph_solve_exact(instance)
        assert got.stats["states"] == 1
        assert (got.feasible, got.optimal_cost, got.witness) == (False, INF, None)
        assert (expected.feasible, expected.optimal_cost, expected.witness) == (False, INF, None)

    def test_reach_prune_holds_the_small_dense_work_down(self):
        # Every POOL_STRIDE-th seed-1 small_dense request, run as perfbench
        # runs it: losing the reach prune fails here, not only in the
        # benchmark. The 52 requests settle 135,691 states on the whole
        # graph and 68,155 with `walks_between` alone.
        pool, pipeline = pool_pipeline("small_dense")
        pruned = whole = 0
        for request in pool[::POOL_STRIDE]:
            solver, result = pipeline.solve(request)
            assert solver == "oracle"
            pruned += result.stats["states"]
            whole += whole_graph_solve_exact(parse_instance(request.text).query).stats["states"]
        assert pruned == 26928
        assert 2 * pruned < whole

    def test_deterministic(self, i1):
        instance = CctoInstance(i1, 0, 0, 3, 8)
        first = solve_exact(instance)
        second = solve_exact(instance)
        assert first.witness == second.witness
        assert first.stats == second.stats


class TestMinCostWalkOracle:
    def test_exact_departure_is_required(self, i2):
        assert min_cost_walk_oracle(i2, 0, 2, 1, 3) == 6
        assert min_cost_walk_oracle(i2, 0, 2, 0, 3) == INF

    def test_exact_arrival_is_required(self, i2):
        assert min_cost_walk_oracle(i2, 0, 1, 1, 2) == 2
        assert min_cost_walk_oracle(i2, 0, 1, 1, 3) == INF

    def test_diagonal_is_free(self, i2):
        assert min_cost_walk_oracle(i2, 1, 1, 0, 3) == 0
        assert min_cost_walk_oracle(i2, 1, 1, 2, 2) == 0
        assert min_cost_walk_oracle(i2, 1, 1, 3, 2) == INF

    def test_slack_inside_the_walk(self, i3):
        assert min_cost_walk_oracle(i3, 0, 2, 1, 4) == 3

    def test_diagonal_beats_any_tour(self, i1):
        # Waiting in place is free, so the diagonal is 0 even when a real
        # closed tour (cost 8 here) exists for the same time pair.
        assert min_cost_walk_oracle(i1, 0, 0, 1, 6) == 0

    def test_tour_forced_through_the_far_vertex(self, i1):
        assert min_cost_walk_oracle(i1, 0, 2, 1, 3) == 6
        assert min_cost_walk_oracle(i1, 2, 0, 4, 6) == 2

    def test_capability_caps(self):
        with pytest.raises(CapabilityError):
            min_cost_walk_oracle(make_graph(9, []), 0, 0, 0, 0)
        with pytest.raises(CapabilityError):
            min_cost_walk_oracle(make_graph(2, [(0, 1, 0, 11, 1)]), 0, 1, 0, 11)

    def test_agrees_with_walk_enumeration(self):
        rng = random.Random(1618)
        for _ in range(10):
            n = rng.randint(2, 4)
            graph = make_graph(n, random_tuple_set(rng, n, 5, rng.randint(1, 6)))
            from conftest import enumerate_walks

            walks = {u: list(enumerate_walks(graph, u)) for u in range(n)}
            for u, v, t1, t2 in all_quadruples(graph):
                expected = INF
                if u == v and t1 <= t2:
                    expected = 0
                for w in walks[u]:
                    if not w:
                        continue
                    if w[-1][1] == v and w[0][2] == t1 and w[-1][3] == t2:
                        expected = min(expected, walk_cost(graph, w))
                assert min_cost_walk_oracle(graph, u, v, t1, t2) == expected
