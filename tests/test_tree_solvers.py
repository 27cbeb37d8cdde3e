"""Tests for the tree-shaped and tuple-sparse solvers."""

import random
from collections import deque

import pytest

from ccto import colorcoding
from ccto.colorcoding import solve_color_coding
from ccto.core import INF, CctoInstance, NotApplicableError, _label_sweep
from ccto.instances import from_edge_labels
from ccto.oracle import solve_exact
from ccto.result import verify_result
from ccto.tree_solvers import (
    partition_forest_paths,
    solve_sparse_triples,
    solve_subforest,
    solve_tree_closed,
    sparse_triples_applicable,
    subforest_applicable,
    tree_closed_applicable,
)

from conftest import I1_TUPLES, W1, make_graph, random_tuple_set


def random_tree_instances(seed, count, n_range=(3, 6), horizon_range=(4, 8)):
    from ccto.instances import random_instance

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        inst = random_instance(
            seed=rng.randrange(2**30),
            n=rng.randint(*n_range),
            horizon=rng.randint(*horizon_range),
            density=rng.uniform(0.1, 0.45),
            shape="tree",
        )
        if inst.graph.is_tree():
            out.append(inst)
    return out


class TestTreeClosed:
    def test_reference_tour(self, i1):
        result = solve_tree_closed(CctoInstance(i1, 0, 0, 3, 8))
        assert result.feasible
        assert result.optimal_cost == 8
        assert result.witness == W1
        assert result.solver == "tree_closed"

    def test_budget_below_optimum(self, i1):
        result = solve_tree_closed(CctoInstance(i1, 0, 0, 3, 7))
        assert not result.feasible
        assert result.optimal_cost == 8

    def test_k_beyond_n_is_infeasible(self, i1):
        result = solve_tree_closed(CctoInstance(i1, 0, 0, 4, 100))
        assert not result.feasible
        assert result.optimal_cost == INF

    def test_smaller_k_values(self, i1):
        assert solve_tree_closed(CctoInstance(i1, 0, 0, 1, 0)).optimal_cost == 0
        assert solve_tree_closed(CctoInstance(i1, 0, 0, 2, 9)).optimal_cost == 3

    def test_traversal_number_four_is_rejected(self, i1):
        tuples = I1_TUPLES + [(0, 1, 6, 7, 1), (1, 0, 7, 8, 1)]
        graph = make_graph(3, tuples)
        assert graph.max_traversal_number(0, 1) == 4
        instance = CctoInstance(graph, 0, 0, 3, 100)
        with pytest.raises(NotApplicableError, match="traversals"):
            solve_tree_closed(instance)
        assert not tree_closed_applicable(instance)

    def test_open_walks_are_rejected(self, i1):
        with pytest.raises(NotApplicableError, match="source = sink"):
            solve_tree_closed(CctoInstance(i1, 0, 2, 2, 9))

    def test_non_tree_is_rejected(self):
        graph = make_graph(
            3, [(0, 1, 0, 1, 1), (1, 2, 1, 2, 1), (2, 0, 2, 3, 1)]
        )
        with pytest.raises(NotApplicableError, match="tree"):
            solve_tree_closed(CctoInstance(graph, 0, 0, 2, 9))

    def test_state_space_closed_form(self, i1):
        result = solve_tree_closed(CctoInstance(i1, 0, 0, 3, 8))
        # 3 vertices x 5 event times (0 and arrivals 2, 3, 5, 6) x counts 0..3.
        assert result.stats["state_space"] == 3 * 5 * 4
        assert result.stats["states"] <= result.stats["state_space"]

    def test_matches_oracle_on_applicable_random_instances(self):
        checked = 0
        for inst in random_tree_instances(90125, 120):
            closed = CctoInstance(
                inst.graph, inst.source, inst.source, inst.k, inst.budget
            )
            if not tree_closed_applicable(closed):
                continue
            result = solve_tree_closed(closed)
            exact = solve_exact(closed)
            assert result.optimal_cost == exact.optimal_cost
            assert result.feasible == exact.feasible
            verify_result(closed, result)
            checked += 1
        assert checked >= 30


def reference_partition_forest_paths(graph, subforest, source):
    """The partition as first written: BFS each subforest component and
    root it at its vertex nearest the source. The reference for the
    parent-map version."""
    if not graph.is_tree():
        raise NotApplicableError("the underlying graph is not a tree")
    edges = set()
    adjacency = {}
    for u, v in subforest:
        edge = (min(u, v), max(u, v))
        if edge not in graph.edges:
            raise ValueError(f"subforest edge {edge} is not an edge of the graph")
        if edge in edges:
            continue
        edges.add(edge)
        adjacency.setdefault(edge[0], []).append(edge[1])
        adjacency.setdefault(edge[1], []).append(edge[0])
    depth = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    paths = []
    assigned = set()
    for first in sorted(adjacency):
        if first in assigned:
            continue
        component = {first}
        queue = deque([first])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in component:
                    component.add(w)
                    queue.append(w)
        assigned |= component
        root = min(component, key=lambda v: (depth[v], v))
        cparent = {root: None}
        children = {v: 0 for v in component}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in cparent:
                    cparent[w] = u
                    children[u] += 1
                    queue.append(w)
        covered = set()
        for leaf in sorted(v for v in component if v != root and not children[v]):
            chain = [leaf]
            v = leaf
            while v != root:
                up = cparent[v]
                edge = (min(v, up), max(v, up))
                if edge in covered:
                    break
                covered.add(edge)
                chain.append(up)
                v = up
            chain.reverse()
            paths.append(chain)
        if len(covered) != len(component) - 1:
            raise AssertionError("leaf paths failed to cover the component")
    return paths


class TestPartition:
    def test_star_decomposes_into_single_edge_paths(self):
        tuples = [(0, leaf, leaf, leaf + 1, 1) for leaf in (1, 2, 3)]
        graph = make_graph(4, tuples)
        paths = partition_forest_paths(graph, {(0, 1), (0, 2), (0, 3)}, 0)
        assert paths == [[0, 1], [0, 2], [0, 3]]

    def test_single_edge(self, i1):
        assert partition_forest_paths(i1, {(1, 2)}, 0) == [[1, 2]]

    def test_path_subforest_leaf_count_depends_on_source(self):
        tuples = [(v, v + 1, v, v + 1, 1) for v in range(4)]
        graph = make_graph(5, tuples)
        edges = {(v, v + 1) for v in range(4)}
        assert partition_forest_paths(graph, edges, 0) == [[0, 1, 2, 3, 4]]
        assert partition_forest_paths(graph, edges, 2) == [[2, 1, 0], [2, 3, 4]]

    def test_junction_tops_are_shared(self):
        tuples = [
            (0, 1, 0, 1, 1),
            (1, 2, 1, 2, 1),
            (1, 3, 2, 3, 1),
        ]
        graph = make_graph(4, tuples)
        assert partition_forest_paths(graph, {(1, 2), (1, 3)}, 0) == [
            [1, 2],
            [1, 3],
        ]

    def test_every_edge_covered_exactly_once(self):
        rng = random.Random(555)
        for inst in random_tree_instances(555, 20, n_range=(4, 7)):
            edges = sorted(inst.graph.edges)
            if not edges:
                continue
            chosen = {e for e in edges if rng.random() < 0.6}
            paths = partition_forest_paths(inst.graph, chosen, inst.source)
            seen = []
            for path in paths:
                assert len(path) >= 2
                for a, b in zip(path, path[1:]):
                    seen.append((min(a, b), max(a, b)))
            assert sorted(seen) == sorted(chosen)
            assert len(set(seen)) == len(seen)

    def test_matches_the_component_bfs_reference(self):
        rng = random.Random(909)
        for inst in random_tree_instances(909, 1200, n_range=(2, 16), horizon_range=(3, 6)):
            graph = inst.graph
            keep = rng.random()
            chosen = {
                edge if rng.random() < 0.5 else edge[::-1]
                for edge in sorted(graph.edges) if rng.random() < keep
            }
            source = rng.randrange(graph.n)
            assert partition_forest_paths(graph, chosen, source) == (
                reference_partition_forest_paths(graph, chosen, source)
            )

    def test_rejects_non_edges(self, i1):
        with pytest.raises(ValueError, match="not an edge"):
            partition_forest_paths(i1, {(0, 2)}, 0)

    def test_rejects_out_of_range_sources(self, i1):
        # A negative id must not index the adjacency list from its end.
        for source in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                partition_forest_paths(i1, {(1, 2)}, source)


class TestSubforest:
    def test_reference_tour_with_subforest(self, i1):
        result = solve_subforest(CctoInstance(i1, 0, 0, 3, 8), {(0, 1)})
        assert result.feasible
        assert result.optimal_cost == 8
        assert result.solver == "subforest"
        verify_result(CctoInstance(i1, 0, 0, 3, 8), result)

    def test_empty_subforest_matches_tree_closed(self, i1):
        instance = CctoInstance(i1, 0, 0, 3, 8)
        assert (
            solve_subforest(instance).optimal_cost
            == solve_tree_closed(instance).optimal_cost
            == 8
        )

    def test_open_walk_through_middle_subforest_edge(self):
        tuples = [
            (0, 1, 0, 1, 1),
            (1, 2, 1, 2, 1),
            (2, 1, 2, 3, 1),
            (1, 2, 3, 4, 1),
            (2, 3, 4, 5, 1),
        ]
        graph = make_graph(4, tuples)
        instance = CctoInstance(graph, 0, 3, 4, 10)
        result = solve_subforest(instance, {(1, 2)})
        exact = solve_exact(instance)
        assert result.optimal_cost == exact.optimal_cost
        assert result.feasible == exact.feasible
        verify_result(instance, result)

    def test_high_traversal_edge_must_be_in_subforest(self):
        tuples = [
            (0, 1, 0, 1, 1),
            (1, 2, 1, 2, 1),
            (2, 1, 2, 3, 1),
            (1, 2, 3, 4, 1),
            (2, 1, 4, 5, 1),
            (1, 0, 5, 6, 1),
        ]
        graph = make_graph(3, tuples)
        instance = CctoInstance(graph, 0, 0, 3, 100)
        with pytest.raises(NotApplicableError, match="outside the subforest"):
            solve_subforest(instance)
        result = solve_subforest(instance, {(1, 2)})
        assert result.optimal_cost == 4

    def test_revisits_along_subforest_paths_never_recount(self):
        tuples = [
            (0, 1, 0, 1, 1),
            (1, 2, 1, 2, 1),
            (2, 1, 2, 3, 1),
            (1, 2, 3, 4, 1),
            (2, 1, 4, 5, 1),
            (1, 0, 5, 6, 1),
        ]
        graph = make_graph(3, tuples)
        result = solve_subforest(CctoInstance(graph, 0, 0, 4, 100), {(1, 2)})
        assert not result.feasible
        assert result.optimal_cost == INF

    def test_leaf_path_cap(self):
        tuples = [(0, leaf, leaf, leaf + 1, 1) for leaf in range(1, 6)]
        tuples += [(leaf, 0, leaf + 1, leaf + 2, 1) for leaf in range(1, 6)]
        graph = make_graph(6, tuples)
        edges = {(0, leaf) for leaf in range(1, 6)}
        instance = CctoInstance(graph, 0, 0, 2, 10)
        with pytest.raises(NotApplicableError, match="cap"):
            solve_subforest(instance, edges)
        assert solve_subforest(instance, edges, max_paths=5).optimal_cost == 2
        assert not subforest_applicable(instance, edges)

    def test_state_space_bound(self, i1):
        result = solve_subforest(CctoInstance(i1, 0, 0, 3, 8), {(0, 1), (1, 2)})
        n, T, k, paths = 3, 6, 3, result.stats["paths"]
        assert result.stats["states"] <= result.stats["state_space"]
        assert result.stats["state_space"] <= (k + 1) * (T + 1) * n ** (paths + 1) + 1

    def test_agrees_with_tree_closed_where_both_apply(self):
        checked = 0
        for inst in random_tree_instances(140, 80):
            closed = CctoInstance(
                inst.graph, inst.source, inst.source, inst.k, inst.budget
            )
            if not tree_closed_applicable(closed):
                continue
            closed_result = solve_tree_closed(closed)
            empty_result = solve_subforest(closed)
            assert closed_result.optimal_cost == empty_result.optimal_cost
            assert closed_result.feasible == empty_result.feasible
            checked += 1
        assert checked >= 25

    def test_matches_oracle_with_high_traversal_subforests(self):
        checked = 0
        for inst in random_tree_instances(7781, 120, horizon_range=(5, 8)):
            heavy = {
                (u, v)
                for u, v in inst.graph.edges
                if inst.graph.max_traversal_number(u, v) > 3
            }
            if not subforest_applicable(inst, heavy):
                continue
            result = solve_subforest(inst, heavy)
            exact = solve_exact(inst)
            assert result.optimal_cost == exact.optimal_cost, (
                inst.graph.tuples_repr
                if hasattr(inst.graph, "tuples_repr")
                else list(inst.graph.tuples())
            )
            assert result.feasible == exact.feasible
            verify_result(inst, result)
            checked += 1
        assert checked >= 40


class TestSparseTriples:
    def test_open_path(self, i3):
        instance = CctoInstance(i3, 0, 2, 3, 3)
        result = solve_sparse_triples(instance)
        assert result.feasible
        assert result.optimal_cost == 3
        assert result.witness == [(0, 1, 1, 2), (1, 2, 3, 4)]

    def test_budget_below_optimum(self, i3):
        result = solve_sparse_triples(CctoInstance(i3, 0, 2, 3, 2))
        assert not result.feasible
        assert result.optimal_cost == 3

    def test_busy_vertex_is_named(self, i1):
        with pytest.raises(NotApplicableError, match="vertex a participates in 4"):
            solve_sparse_triples(CctoInstance(i1, 0, 0, 3, 8))
        assert not sparse_triples_applicable(i1)
        bare = make_graph(3, I1_TUPLES)
        with pytest.raises(NotApplicableError, match="vertex 1 participates in 4"):
            solve_sparse_triples(CctoInstance(bare, 0, 0, 3, 8))

    def test_source_revisits_never_recount(self):
        graph = make_graph(2, [(0, 1, 1, 2, 1), (1, 0, 2, 3, 1), (0, 1, 3, 4, 1)])
        result = solve_sparse_triples(CctoInstance(graph, 0, 1, 3, 100))
        assert not result.feasible
        assert result.optimal_cost == INF

    def test_sink_revisits_count_once(self):
        graph = make_graph(
            3, [(0, 1, 0, 1, 1), (1, 2, 1, 2, 1), (2, 1, 2, 3, 1)]
        )
        instance = CctoInstance(graph, 0, 1, 3, 5)
        result = solve_sparse_triples(instance)
        assert result.optimal_cost == 3
        assert result.optimal_cost == solve_exact(instance).optimal_cost
        verify_result(instance, result)

    def test_closed_walk(self):
        graph = make_graph(2, [(0, 1, 0, 1, 2), (1, 0, 1, 2, 3)])
        result = solve_sparse_triples(CctoInstance(graph, 0, 0, 2, 5))
        assert result.optimal_cost == 5
        assert result.witness == [(0, 1, 0, 1), (1, 0, 1, 2)]

    def test_matches_oracle_on_applicable_random_instances(self):
        rng = random.Random(60622)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 6)
            graph = make_graph(n, random_tuple_set(rng, n, 7, rng.randint(1, n)))
            if not sparse_triples_applicable(graph):
                continue
            source = rng.randrange(n)
            sink = source if rng.random() < 0.5 else rng.randrange(n)
            instance = CctoInstance(
                graph, source, sink, rng.randint(1, n), rng.randint(0, 12)
            )
            result = solve_sparse_triples(instance)
            exact = solve_exact(instance)
            assert result.optimal_cost == exact.optimal_cost
            assert result.feasible == exact.feasible
            verify_result(instance, result)
            checked += 1


def dense_label_sweep(graph, start, step):
    """Reference sweep stepping through every time unit 0..lifetime."""
    labels = {start: 0}
    parent = {}
    by_time = {start[1]: {start}}
    for t in range(graph.lifetime + 1):
        for state in sorted(by_time.get(t, ())):
            base = labels[state]
            v = state[0]
            for move in graph.moves_from(v):
                if move[0] < t:
                    continue
                nxt = step(state, move)
                if nxt is None:
                    continue
                candidate = base + move[3]
                if candidate < labels.get(nxt, INF):
                    labels[nxt] = candidate
                    parent[nxt] = (state, (v, move[2], move[0], move[1]))
                    by_time.setdefault(move[1], set()).add(nxt)
    return labels, parent


class TestEventSweep:
    def test_matches_dense_sweep_for_every_solver(self, monkeypatch):
        sweeps = []
        event_sweep = _label_sweep

        def both(graph, start, step):
            got = event_sweep(graph, start, step)
            sweeps.append((got, dense_label_sweep(graph, start, step)))
            return got

        monkeypatch.setattr("ccto.result._label_sweep", both)
        rng = random.Random(4411)
        solved = set()
        for inst in random_tree_instances(93, 40, n_range=(3, 7), horizon_range=(4, 12)):
            closed = CctoInstance(inst.graph, inst.source, inst.source, inst.k, inst.budget)
            if tree_closed_applicable(closed):
                solve_tree_closed(closed)
                solved.add("tree")
            busy = [e for e in inst.graph.edges if inst.graph.max_traversal_number(*e) > 3]
            if subforest_applicable(inst, busy):
                solve_subforest(inst, busy)
                solved.add("subforest")
            if inst.graph.n <= 5:
                solve_color_coding(inst, "exhaustive")
                solved.add("colour")
        while len(solved) < 4:
            n = rng.randint(2, 7)
            graph = make_graph(n, random_tuple_set(rng, n, 9, rng.randint(1, n + 2)))
            if sparse_triples_applicable(graph):
                solve_sparse_triples(CctoInstance(graph, 0, rng.randrange(n), rng.randint(1, n), 20))
                solved.add("sparse")
        assert len(sweeps) > 40
        for (labels, parent), (dense_labels, dense_parent) in sweeps:
            assert labels == dense_labels
            assert parent == dense_parent

    def test_colour_sweeps_run_on_the_shared_sweep(self, monkeypatch):
        # Colour coding reports through the same `_sweep_solve` as the tree
        # solvers, so patching the sweep where it looks it up puts every
        # colouring's sweep under the dense comparison above.
        sweeps = []
        event_sweep = _label_sweep

        def both(graph, start, step):
            got = event_sweep(graph, start, step)
            sweeps.append((got, dense_label_sweep(graph, start, step)))
            return got

        monkeypatch.setattr("ccto.result._label_sweep", both)
        tuples = []
        for v in range(1, 5):
            tuples += [(0, v, 2 * v - 1, 2 * v, 1), (v, 0, 2 * v, 2 * v + 1, 1)]
        graph = make_graph(5, tuples)
        colorcoding.solve_colourful(graph, 0, 0, 3, {1: 1, 2: 2, 3: 1, 4: 2}, 20)
        result = solve_color_coding(CctoInstance(graph, 0, 0, 3, 20), "exhaustive")
        assert result.optimal_cost == 4
        assert len(sweeps) == 1 + result.stats["colourings"] == 8
        for got, dense in sweeps:
            assert got == dense


def scaled(instance, factor):
    graph = make_graph(
        instance.graph.n,
        [(u, v, d * factor, a * factor, c) for u, v, d, a, c in instance.graph.tuples()],
    )
    return CctoInstance(graph, instance.source, instance.sink, instance.k, instance.budget)


class TestHugeTimestamps:
    """Solve time follows the stored tuples, not the length of the time axis."""

    FACTOR = 10**12

    def assert_same_answer(self, solve, instance):
        twin = scaled(instance, self.FACTOR)
        assert twin.graph.lifetime >= self.FACTOR
        expected, got = solve(instance), solve(twin)
        assert got.optimal_cost == expected.optimal_cost
        assert got.stats["states"] == expected.stats["states"]
        verify_result(twin, got)

    def test_sparse_chain(self):
        tuples = [(i, i + 1, 2 * i, 2 * i + 1, i + 1) for i in range(5)]
        tuples.append((5, 4, 11, 12, 1))
        instance = CctoInstance(make_graph(6, tuples), 0, 4, 6, 30)
        assert solve_sparse_triples(instance).optimal_cost == 16
        self.assert_same_answer(solve_sparse_triples, instance)

    def test_tree(self):
        tuples = [
            (0, 1, 0, 1, 2),
            (0, 1, 1, 2, 4),
            (1, 2, 1, 2, 1),
            (2, 1, 2, 3, 1),
            (1, 3, 3, 4, 2),
            (3, 1, 4, 5, 1),
            (1, 0, 5, 6, 1),
            (0, 4, 6, 7, 3),
            (4, 0, 7, 8, 1),
        ]
        instance = CctoInstance(make_graph(5, tuples), 0, 0, 5, 20)
        assert solve_tree_closed(instance).optimal_cost == 12
        assert solve_exact(instance).optimal_cost == 12
        self.assert_same_answer(solve_tree_closed, instance)
        self.assert_same_answer(solve_subforest, instance)


class TestTraversalPrecondition:
    def test_smallest_busy_edge_is_named(self):
        labels = {(0, 1): [1], (0, 2): [2, 4, 6, 8, 10], (0, 3): [3, 5, 7, 9]}
        graph = from_edge_labels(4, labels)
        with pytest.raises(NotApplicableError, match=r"^edge \(0, 2\) admits 5 traversals"):
            solve_tree_closed(CctoInstance(graph, 0, 0, 2, 9))
        with pytest.raises(
            NotApplicableError, match=r"^edge \(0, 3\) outside the subforest admits 4"
        ):
            solve_subforest(CctoInstance(graph, 0, 0, 2, 9), [(0, 2)])
        solve_subforest(CctoInstance(graph, 0, 0, 2, 9), [(0, 2), (0, 3)])
