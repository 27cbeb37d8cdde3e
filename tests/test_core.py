import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from ccto.core import (
    INF,
    CctoInstance,
    TemporalCostGraph,
    distinct_vertices,
    tuple_problem,
    validate_walk,
    walk_back,
    walk_cost,
    walks_between,
)
from ccto.instances import from_edge_labels, random_instance
from conftest import (
    W1,
    bag_by_quantifiers,
    enumerate_walks,
    instances_for_suite,
    make_graph,
    random_tuple_set,
    random_valid_walk,
)


class TestCostAccessor:
    def test_stored_tuple(self, i1):
        assert i1.cost(0, 1, 1, 2) == 2
        assert i1.cost(2, 1, 4, 5) == 1

    def test_waiting_is_free(self, i1):
        assert i1.cost(0, 0, 2, 4) == 0
        assert i1.cost(1, 1, 0, 6) == 0

    def test_time_must_advance(self, i1):
        assert i1.cost(1, 2, 2, 2) == INF
        assert i1.cost(0, 0, 4, 4) == INF
        assert i1.cost(0, 0, 4, 2) == INF

    def test_absent_movement_is_infinite(self, i1):
        assert i1.cost(0, 2, 1, 3) == INF
        assert i1.cost(1, 0, 1, 2) == INF

    def test_vertex_range_checked(self, i1):
        with pytest.raises(ValueError):
            i1.cost(0, 3, 1, 2)
        with pytest.raises(ValueError):
            i1.cost(-1, 0, 1, 2)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="waiting"):
            make_graph(2, [(0, 0, 1, 2, 1)])

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            make_graph(2, [(0, 1, 2, 2, 1)])
        with pytest.raises(ValueError):
            make_graph(2, [(0, 1, -1, 2, 1)])

    def test_rejects_non_positive_cost(self):
        with pytest.raises(ValueError):
            make_graph(2, [(0, 1, 1, 2, 0)])

    def test_rejects_oversized_cost(self):
        with pytest.raises(ValueError):
            make_graph(2, [(0, 1, 1, 2, 2**64)])
        make_graph(2, [(0, 1, 1, 2, 2**64 - 1)])

    def test_rejects_bool_fields(self):
        with pytest.raises(ValueError, match="non-integer"):
            make_graph(2, [(0, 1, False, True, True)])
        with pytest.raises(ValueError):
            make_graph(True, [])

    def test_rejects_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_graph(2, [(0, 1, 1, 2, 1), (0, 1, 1, 2, 3)])

    @pytest.mark.parametrize("name", ["", "a#b", "a  b", " a", "a\nb", 5, None])
    def test_rejects_names_a_file_cannot_carry(self, name):
        with pytest.raises(ValueError, match="vertex 1 name"):
            make_graph(2, [], names={1: name})

    def test_lifetime(self, i1):
        assert i1.lifetime == 6
        assert make_graph(3, []).lifetime == 0

    def test_connectivity_and_tree(self, i1):
        assert i1.is_connected()
        assert i1.is_tree()
        disconnected = make_graph(4, [(0, 1, 1, 2, 1)])
        assert not disconnected.is_connected()
        assert not disconnected.is_tree()


class TestTraversalNumber:
    def test_i1_edges(self, i1):
        assert i1.max_traversal_number(0, 1) == 2
        assert i1.max_traversal_number(1, 2) == 2

    def test_shared_times_chain_once(self):
        g = make_graph(2, [(0, 1, 1, 2, 1), (1, 0, 1, 2, 1)])
        assert g.max_traversal_number(0, 1) == 1

    def test_back_to_back(self):
        g = make_graph(2, [(0, 1, 1, 2, 1), (1, 0, 2, 3, 1), (0, 1, 3, 4, 1)])
        assert g.max_traversal_number(0, 1) == 3

    def test_non_edge_rejected(self, i1):
        with pytest.raises(ValueError):
            i1.max_traversal_number(0, 2)

    def test_bounds_walk_usage(self, i1, i3):
        rng = random.Random(7)
        for graph in (i1, i3):
            limits = {e: graph.max_traversal_number(*e) for e in graph.edges}
            for _ in range(200):
                walk = random_valid_walk(graph, rng)
                used = {}
                for u, v, _, _ in walk:
                    if u != v:
                        e = (u, v) if u < v else (v, u)
                        used[e] = used.get(e, 0) + 1
                for e, count in used.items():
                    assert count <= limits[e]


def scan_neighbors(graph, u):
    return {b if a == u else a for a, b in graph.edges if u in (a, b)}


def scan_connected(graph):
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in scan_neighbors(graph, u) - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == graph.n


def scan_traversal_number(graph, u, v):
    pairs = {
        (depart, arrive)
        for a, b, depart, arrive, _ in graph.tuples()
        if (a, b) in ((u, v), (v, u))
    }
    count = 0
    frontier = -1
    for depart, arrive in sorted(pairs, key=lambda p: (p[1], p[0])):
        if depart >= frontier:
            count += 1
            frontier = arrive
    return count


def index_test_graphs():
    rng = random.Random(2024)
    graphs = []
    for shape in ("tree", "general"):
        for _ in range(25):
            graphs.append(
                random_instance(
                    seed=rng.randrange(2**30),
                    n=rng.randint(1, 9),
                    horizon=rng.randint(1, 10),
                    density=rng.uniform(0.05, 0.6),
                    shape=shape,
                ).graph
            )
    for _ in range(10):
        n = rng.randint(2, 7)
        labels = {}
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.4:
                labels[(u, v)] = rng.sample(range(12), rng.randint(1, 5))
        graphs.append(from_edge_labels(n, labels))
    graphs.append(make_graph(4, [(0, 1, 1, 2, 1), (2, 3, 0, 4, 2), (3, 2, 1, 3, 1)]))
    graphs.append(make_graph(5, [(0, 1, 0, 1, 1), (1, 2, 1, 2, 1)]))
    graphs.append(make_graph(3, []))
    graphs.append(make_graph(1, []))
    return graphs


class TestGraphIndex:
    """The indexed static-structure queries against direct scans."""

    @pytest.mark.parametrize("graph", index_test_graphs())
    def test_matches_scans(self, graph):
        for u in range(graph.n):
            assert graph.neighbors(u) == scan_neighbors(graph, u)
        connected = scan_connected(graph)
        assert graph.is_connected() == connected
        assert graph.is_tree() == (len(graph.edges) == graph.n - 1 and connected)
        for u, v in itertools.permutations(range(graph.n), 2):
            if (min(u, v), max(u, v)) in graph.edges:
                assert graph.max_traversal_number(u, v) == scan_traversal_number(graph, u, v)
            else:
                with pytest.raises(ValueError, match="not an edge"):
                    graph.max_traversal_number(u, v)

    def test_vertex_ids_checked(self, i1):
        with pytest.raises(ValueError, match="out of range"):
            i1.neighbors(3)
        with pytest.raises(ValueError, match="out of range"):
            i1.max_traversal_number(0, -1)

    def test_neighbors_returns_a_copy(self, i1):
        i1.neighbors(1).clear()
        assert i1.neighbors(1) == {0, 2}

    def test_racing_first_use_agrees(self):
        graph = random_instance(seed=5, n=40, horizon=30, density=0.3, shape="tree").graph
        expected = [scan_traversal_number(graph, u, v) for u, v in sorted(graph.edges)]
        answers = []

        def query():
            answers.append(
                (graph.is_tree(), [graph.max_traversal_number(u, v) for u, v in sorted(graph.edges)])
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=query) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [(True, expected)] * len(threads)


class TestWalks:
    def test_w1_validates_and_costs_8(self, i1):
        assert validate_walk(i1, W1, 0).ok
        assert walk_cost(i1, W1) == 8

    def test_empty_walk(self, i1):
        assert validate_walk(i1, [], 0).ok
        assert walk_cost(i1, []) == 0
        assert distinct_vertices([], 0) == 1

    def test_explicit_waiting_steps_allowed(self, i3):
        walk = [(0, 1, 1, 2), (1, 1, 2, 3), (1, 2, 3, 4)]
        assert validate_walk(i3, walk, 0).ok
        assert walk_cost(i3, walk) == 3
        assert distinct_vertices(walk, 0) == 3

    def test_wrong_anchor(self, i1):
        report = validate_walk(i1, W1, 1)
        assert not report.ok and report.step_index == 0

    def test_broken_vertex_chain(self, i1):
        walk = [(0, 1, 1, 2), (2, 1, 4, 5)]
        report = validate_walk(i1, walk, 0)
        assert not report.ok and report.step_index == 1

    def test_broken_time_chain(self, i1):
        # Second step departs before the first arrives.
        g = make_graph(3, [(0, 1, 2, 4, 1), (1, 2, 3, 5, 1)])
        report = validate_walk(g, [(0, 1, 2, 4), (1, 2, 3, 5)], 0)
        assert not report.ok and report.step_index == 1

    def test_infinite_step(self, i1):
        report = validate_walk(i1, [(0, 2, 1, 3)], 0)
        assert not report.ok and "infinite" in report.reason

    @pytest.mark.parametrize(
        "walk, reason",
        [
            ([(0, 1, 1)], "is not a quadruple"),
            ([(0, 5, 1, 2)], "vertex id 5 out of range"),
            ([(0, 1, 2, 2)], "does not advance time"),
        ],
    )
    def test_malformed_steps_are_reported(self, i1, walk, reason):
        report = validate_walk(i1, walk, 0)
        assert not report.ok and report.step_index == 0
        assert reason in report.reason

    def test_walk_cost_rejects_invalid(self, i1):
        with pytest.raises(ValueError):
            walk_cost(i1, [(0, 2, 1, 3)])

    def test_distinct_counts_anchor_and_moves(self):
        assert distinct_vertices([(0, 0, 0, 5)], 0) == 1
        assert distinct_vertices(W1, 0) == 3

    def test_walk_back_at_start_is_empty(self):
        assert walk_back({}, (0, 1), (0, 1)) == []

    def test_walk_back_skips_waits(self):
        parent = {(0, 3): ((0, 1), None)}
        assert walk_back(parent, (0, 3), (0, 1)) == []

    def test_walk_back_returns_walk_order(self):
        parent = {(1, 2): ((0, 1), (0, 1, 1, 2)), (2, 3): ((1, 2), (1, 2, 2, 3))}
        assert walk_back(parent, (2, 3), (0, 1)) == [(0, 1, 1, 2), (1, 2, 2, 3)]

    def test_walk_back_three_links_mixing_waits_and_moves(self, i1):
        # (0,1) -move-> (1,2) -wait-> (1,5) -move-> (0,6): W1's first and last
        # moves with the wait between them left implicit.
        parent = {
            (1, 2): ((0, 1), (0, 1, 1, 2)),
            (1, 5): ((1, 2), None),
            (0, 6): ((1, 5), (1, 0, 5, 6)),
        }
        walk = walk_back(parent, (0, 6), (0, 1))
        assert walk == [(0, 1, 1, 2), (1, 0, 5, 6)]
        assert walk_cost(i1, walk) == 3

    def test_concatenation_is_additive(self, i1):
        rng = random.Random(11)
        for _ in range(100):
            walk = random_valid_walk(i1, rng)
            if not walk:
                continue
            for cut in range(len(walk) + 1):
                head, tail = walk[:cut], walk[cut:]
                head_cost = sum(i1.cost(*s) for s in head)
                tail_cost = sum(i1.cost(*s) for s in tail)
                assert walk_cost(i1, walk) == head_cost + tail_cost


@given(st.integers(2, 5), st.integers(1, 8), st.integers(0, 20), st.integers(0, 2**32))
def test_random_graphs_are_consistent(n, horizon, count, seed):
    rng = random.Random(seed)
    tuples = random_tuple_set(rng, n, horizon, count)
    graph = TemporalCostGraph(n, tuples)
    assert graph.lifetime == max((t[3] for t in tuples), default=0)
    for u, v, depart, arrive, cost in tuples:
        assert graph.cost(u, v, depart, arrive) == cost
    assert graph.tuple_count() == len(tuples)
    listed = list(graph.tuples())
    assert listed == sorted(listed)


@st.composite
def stored_graphs(draw):
    """A graph on 1-6 vertices with up to 12 time pairs, some stored in both
    directions, with optional names, and a (source, sink) pair."""
    n = draw(st.integers(1, 6))
    stored = {}
    if n > 1:
        vertex = st.integers(0, n - 1)
        pairs = st.tuples(vertex, vertex, st.integers(0, 8), st.integers(1, 4), st.booleans())
        for u, v, depart, span, both in draw(st.lists(pairs, max_size=12)):
            if u != v:
                for a, b in [(u, v), (v, u)][: 1 + both]:
                    stored.setdefault((a, b, depart, depart + span), draw(st.integers(1, 9)))
    names = {v: f"v{v}" for v in range(n)} if draw(st.booleans()) else None
    graph = TemporalCostGraph(n, [key + (cost,) for key, cost in stored.items()], names)
    return graph, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@given(stored_graphs())
def test_index_matches_direct_recomputation(drawn):
    graph, source, sink = drawn
    tuples = list(graph.tuples())
    index = graph._graph_index()
    edges = {(min(u, v), max(u, v)) for u, v, _, _, _ in tuples}
    assert graph.edges == frozenset(edges) and type(graph.edges) is frozenset
    assert graph.lifetime == max((t[3] for t in tuples), default=0)
    assert index.events == len({0} | {t[3] for t in tuples})
    intervals = {}
    for v in range(graph.n):
        times = [t for t in range(graph.lifetime + 1) if bag_by_quantifiers(graph, v, t)]
        if times:
            intervals[v] = (times[0], times[-1])
    assert dict(graph.live_intervals()) == intervals
    assert index.incidence == [sum(v in t[:2] for t in tuples) for v in range(graph.n)]
    assert dict(graph.traversal_numbers()) == {e: scan_traversal_number(graph, *e) for e in edges}

    # Tuples with a chain of tuples from the source before them and one to
    # the sink after them, each grown to a fixpoint.
    after_source = {t for t in tuples if t[0] == source}
    before_sink = {t for t in tuples if t[1] == sink}
    for _ in tuples:
        after_source |= {t for t in tuples for p in after_source if p[1] == t[0] and p[3] <= t[2]}
        before_sink |= {t for t in tuples for q in before_sink if t[1] == q[0] and t[3] <= q[2]}
    kept = sorted(after_source & before_sink)
    pruned = walks_between(graph, source, sink)
    rebuilt = TemporalCostGraph(graph.n, kept, graph.names)
    assert list(pruned.tuples()) == list(rebuilt.tuples())
    assert all(pruned.moves_from(u) == rebuilt.moves_from(u) for u in range(graph.n))
    assert pruned.edges == rebuilt.edges
    assert pruned.lifetime == rebuilt.lifetime
    assert pruned.names == graph.names


class TestWalksBetween:
    def test_keeps_exactly_the_tuples_on_a_source_sink_walk(self):
        closed = set()
        for inst in instances_for_suite(seed=1706, count=80, n_range=(2, 7), horizon_range=(3, 7)):
            graph, source, sink = inst.graph, inst.source, inst.sink
            on_walks = {
                step
                for walk in enumerate_walks(graph, source)
                if walk and walk[-1][1] == sink
                for step in walk
            }
            pruned = walks_between(graph, source, sink)
            assert pruned.n == graph.n
            assert {t[:4] for t in pruned.tuples()} == on_walks, inst
            assert all(graph.cost(*t[:4]) == t[4] for t in pruned.tuples())
            closed.add(source == sink)
        assert closed == {True, False}

    def test_leaves_only_moves_that_can_still_reach_the_sink(self, i1):
        # From 0 to 2 the tour's way back (2 -> 1 -> 0) is of no use.
        pruned = walks_between(i1, 0, 2)
        assert list(pruned.tuples()) == [(0, 1, 1, 2, 2), (1, 2, 2, 3, 4)]
        assert list(walks_between(i1, 0, 0).tuples()) == list(i1.tuples())
        # From 2, the walk can only start on the tour's way back.
        assert list(walks_between(i1, 2, 0).tuples()) == [(1, 0, 5, 6, 1), (2, 1, 4, 5, 1)]
        assert walks_between(i1, 2, 2).tuple_count() == 0


class TestInstance:
    def test_valid(self, i1):
        inst = CctoInstance(i1, 0, 0, 3, 8)
        assert inst.k == 3

    def test_k_must_be_positive(self, i1):
        with pytest.raises(ValueError):
            CctoInstance(i1, 0, 0, 0, 8)
        with pytest.raises(ValueError):
            CctoInstance(i1, 0, 0, -2, 8)

    def test_bools_are_not_integers(self, i1):
        with pytest.raises(ValueError):
            CctoInstance(i1, 0, 0, True, 8)
        with pytest.raises(ValueError):
            CctoInstance(i1, 0, 0, 2, False)
        with pytest.raises(ValueError):
            CctoInstance(i1, False, 0, 2, 8)

    def test_k_may_exceed_n(self, i1):
        # "visit more vertices than exist" is a representable, infeasible ask
        assert CctoInstance(i1, 0, 0, 4, 8).k == 4

    def test_budget_non_negative(self, i1):
        with pytest.raises(ValueError):
            CctoInstance(i1, 0, 0, 2, -1)

    def test_vertex_ids_checked(self, i1):
        with pytest.raises(ValueError):
            CctoInstance(i1, 0, 5, 2, 3)


class TestSinglePassValidation:
    """The constructor's combined check and `tuple_problem` agree."""

    BAD = [
        ((0, 1, 1.0, 2, 1), "non-integer"),
        ((0, "1", 1, 2, 1), "non-integer"),
        ((0, 1, 1, 2, True), "non-integer"),
        ((0, 4, 1, 2, 1), "vertex out of range"),
        ((-1, 1, 1, 2, 1), "vertex out of range"),
        ((2, 2, 1, 2, 1), "self-loop"),
        ((0, 1, 3, 3, 1), "need 0 <= depart < arrive"),
        ((0, 1, -2, 3, 1), "need 0 <= depart < arrive"),
        ((0, 1, 1, 2, 0), "cost must be positive"),
        ((0, 1, 1, 2, 2**64), "cost must be at most 2^64-1"),
        ((1, 2, 2, 3, 9), "duplicate tuple key"),
    ]

    @pytest.mark.parametrize("bad, reason", BAD)
    def test_bad_tuple_among_good_ones(self, bad, reason):
        good = [(0, 1, 1, 2, 1), (1, 2, 2, 3, 1), (2, 3, 3, 4, 1), (3, 0, 4, 5, 1)]
        for position in range(len(good) + 1):
            if reason == "duplicate tuple key" and position < 2:
                continue
            tuples = good[:position] + [bad] + good[position:]
            with pytest.raises(ValueError) as err:
                make_graph(4, tuples)
            message = str(err.value)
            assert message.startswith(reason), message
            assert message == tuple_problem(bad, 4, {t[:4] for t in good[:position]})

    def test_good_tuples_have_no_problem(self, i1):
        stored = set()
        for item in i1.tuples():
            assert tuple_problem(item, i1.n, stored) is None
            stored.add(item[:4])

    def test_one_pass_fills_every_view(self):
        tuples = [(2, 0, 4, 9, 1), (0, 1, 3, 4, 2), (0, 1, 1, 2, 5), (1, 0, 2, 3, 1)]
        graph = make_graph(3, iter(tuples))
        assert sorted(graph.tuples()) == sorted(tuples)
        assert graph.moves_from(0) == [(1, 2, 1, 5), (3, 4, 1, 2)]
        assert graph.moves_from(1) == [(2, 3, 0, 1)]
        assert graph.edges == {(0, 1), (0, 2)}
        assert graph.lifetime == 9

    @pytest.mark.parametrize("graph", index_test_graphs())
    def test_traversal_numbers_is_the_per_edge_map(self, graph):
        numbers = graph.traversal_numbers()
        assert set(numbers) == graph.edges
        assert all(numbers[e] == graph.max_traversal_number(*e) for e in graph.edges)
        with pytest.raises(TypeError):
            numbers[next(iter(numbers), (0, 1))] = 99
