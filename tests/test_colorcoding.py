"""Tests for the walk-cost table and the colour-coding solvers.

The paper's colour-order decomposition (`ordered_walk_min`) is defined
here as the reference that the colour-subset sweep is checked against.
"""

import decimal
import itertools
import math
import time

import pytest

from ccto import colorcoding
from ccto.core import INF, CapabilityError, CctoInstance, TemporalCostGraph
from ccto.colorcoding import (
    MAX_COLOURINGS,
    all_pairs_min_walk,
    exhaustive_colouring_count,
    solve_color_coding,
    solve_colourful,
)
from ccto.oracle import min_cost_walk_oracle, solve_exact
from ccto.result import verify_result

from conftest import (
    I1_TUPLES,
    W1,
    all_quadruples,
    enumerate_walks,
    instances_for_suite,
    make_graph,
)


class TestMinWalkTable:
    def test_two_hop_chain(self, i2):
        table = all_pairs_min_walk(i2)
        assert table.cost(0, 2, 1, 3) == 6
        assert table.walk(0, 2, 1, 3) == [(0, 1, 1, 2), (1, 2, 2, 3)]

    def test_diagonal_is_free(self, i2):
        table = all_pairs_min_walk(i2)
        assert table.cost(1, 1, 2, 5) == 0
        assert table.walk(1, 1, 2, 5) == []
        assert (1, 1, 2, 3) not in table.entries

    def test_too_little_time(self, i2):
        table = all_pairs_min_walk(i2)
        assert table.cost(0, 2, 1, 2) == INF
        with pytest.raises(ValueError):
            table.walk(0, 2, 1, 2)

    def test_matches_walk_oracle_on_every_quadruple(self):
        for inst in instances_for_suite(seed=901, count=25, n_range=(3, 5), horizon_range=(3, 6)):
            table = all_pairs_min_walk(inst.graph)
            for u, v, t1, t2 in all_quadruples(inst.graph):
                assert table.cost(u, v, t1, t2) == min_cost_walk_oracle(
                    inst.graph, u, v, t1, t2
                ), (u, v, t1, t2)

    def test_walks_cost_what_the_table_says(self, i1):
        table = all_pairs_min_walk(i1)
        for (u, v, t1, t2), cost in table.entries.items():
            steps = table.walk(u, v, t1, t2)
            assert steps[0][0] == u and steps[0][2] == t1
            assert steps[-1][1] == v and steps[-1][3] == t2
            assert sum(i1.cost(*s) for s in steps) == cost

    def test_restriction_confines_intermediate_stops(self, i2):
        # Reaching vertex 2 from 0 needs a stop at 1; banning 1 as an
        # intermediate kills the walk even though 1 stays usable as an
        # endpoint of its own walks.
        table = all_pairs_min_walk(i2, restrict_to={0})
        assert table.cost(0, 2, 1, 3) == INF
        assert table.cost(0, 1, 1, 2) == 2

    def test_one_sweep_per_departure(self, i1, monkeypatch):
        starts = []
        sweep = colorcoding._label_sweep

        def counting(graph, start, step):
            starts.append(start)
            return sweep(graph, start, step)

        monkeypatch.setattr(colorcoding, "_label_sweep", counting)
        graphs = [i1] + [
            inst.graph for inst in instances_for_suite(seed=1414, count=20)
        ]
        for graph in graphs:
            starts.clear()
            all_pairs_min_walk(graph)
            departures = {(u, depart) for u, _, depart, _, _ in graph.tuples()}
            assert sorted(starts) == sorted(departures)

    def test_long_time_axis_scales_with_the_tuples(self):
        # Times x1000: a loop over the time axis would take seconds.
        scaled = make_graph(
            3, [(u, v, d * 1000, a * 1000, c) for u, v, d, a, c in I1_TUPLES]
        )
        started = time.perf_counter()
        big = all_pairs_min_walk(scaled)
        small = all_pairs_min_walk(make_graph(3, I1_TUPLES))
        assert big.entries == {
            (u, v, t1 * 1000, t2 * 1000): cost
            for (u, v, t1, t2), cost in small.entries.items()
        }
        for u, v, t1, t2 in small.entries:
            assert big.walk(u, v, t1 * 1000, t2 * 1000) == [
                (x, y, d * 1000, a * 1000) for x, y, d, a in small.walk(u, v, t1, t2)
            ]
        assert time.perf_counter() - started < 1

    def test_growing_restriction_never_hurts(self):
        for inst in instances_for_suite(seed=402, count=12, n_range=(3, 5)):
            vertices = list(range(inst.graph.n))
            tables = [
                all_pairs_min_walk(inst.graph, restrict_to=set(vertices[:i]))
                for i in range(len(vertices) + 1)
            ]
            for u, v, t1, t2 in all_quadruples(inst.graph):
                costs = [t.cost(u, v, t1, t2) for t in tables]
                assert costs == sorted(costs, reverse=True)
                assert costs[-1] == all_pairs_min_walk(inst.graph).cost(u, v, t1, t2)


_CARRY = ("carry",)


def _classes(colouring):
    """colour -> sorted tuple of its vertices."""
    out: dict = {}
    for v in sorted(colouring):
        out.setdefault(colouring[v], []).append(v)
    return {c: tuple(vs) for c, vs in out.items()}


def _ordered_run(graph, classes, order):
    """Fill, colour by colour in `order`, the cheapest cost of reaching each
    vertex of the current colour by each time, with that vertex the first of
    its colour on the walk and all earlier stops of already-placed colours.

    Returns per-step (table, costs, backpointers); costs[v][t] is monotone
    in t (waiting is free), backpointers record either the realizing move
    (previous vertex, its departure time) or a carry from t - 1.
    """
    horizon = graph.lifetime
    source = classes[order[0]][0]
    steps: list = [None]
    prev_costs = {source: [0] * (horizon + 1)}
    placed = set(classes[order[0]])
    prev_class = classes[order[0]]
    for colour in order[1:]:
        table = all_pairs_min_walk(graph, placed)
        costs = {}
        bp = {}
        for v in classes.get(colour, ()):
            row = [INF] * (horizon + 1)
            row_bp = [None] * (horizon + 1)
            for t2 in range(1, horizon + 1):
                for vp in prev_class:
                    prow = prev_costs[vp]
                    for t1 in range(t2):
                        if prow[t1] == INF:
                            continue
                        leg = table.cost(vp, v, t1, t2)
                        if leg == INF:
                            continue
                        cand = prow[t1] + leg
                        if cand < row[t2]:
                            row[t2] = cand
                            row_bp[t2] = (vp, t1)
                if row[t2 - 1] < row[t2]:
                    row[t2] = row[t2 - 1]
                    row_bp[t2] = _CARRY
            costs[v] = row
            bp[v] = row_bp
        steps.append((table, costs, bp))
        placed |= set(classes.get(colour, ()))
        prev_class = classes.get(colour, ())
        prev_costs = costs
    return steps


def _rebuild_ordered(steps, order, classes, v, t):
    legs = []
    for i in range(len(order) - 1, 0, -1):
        table, _costs, bp = steps[i]
        while bp[v][t] is _CARRY:
            t -= 1
        vp, t1 = bp[v][t]
        legs.append(table.walk(vp, v, t1, t))
        v, t = vp, t1
    legs.reverse()
    return [step for leg in legs for step in leg]


def ordered_walk_min(graph, colouring, order):
    """Cheapest walk whose colours first appear exactly in `order`.

    `colouring` maps vertices to colours; colour 0 must be exactly one
    vertex (the start), `order` must be a permutation of the used colours
    beginning with 0. Uncoloured vertices are off limits. Returns
    (cost, steps) with steps None when no such walk exists; the walk ends
    at the vertex where the last colour first appeared.
    """
    classes = _classes(colouring)
    _check_colour_zero(classes, order, set(colouring.values()))
    if len(order) == 1:
        return 0, []
    steps = _ordered_run(graph, classes, order)
    _table, costs, _bp = steps[-1]
    horizon = graph.lifetime
    best, best_v = INF, None
    for v in classes.get(order[-1], ()):
        if costs[v][horizon] < best:
            best, best_v = costs[v][horizon], v
    if best_v is None:
        return INF, None
    return best, _rebuild_ordered(steps, order, classes, best_v, horizon)


def _check_colour_zero(classes, order, used_colours):
    if len(classes.get(0, ())) != 1:
        raise ValueError("colour 0 must be exactly the start vertex")
    if not order or order[0] != 0:
        raise ValueError("colour order must start with colour 0")
    if set(order) != used_colours or len(order) != len(set(order)):
        raise ValueError("colour order must permute the used colours")


class TestOrderedWalkMin:
    def test_chain_in_order(self, i2):
        cost, steps = ordered_walk_min(i2, {0: 0, 1: 1, 2: 2}, (0, 1, 2))
        assert cost == 6
        assert steps == [(0, 1, 1, 2), (1, 2, 2, 3)]

    def test_chain_against_the_order(self, i2):
        # Every walk reaching vertex 2 passes vertex 1 first, so colour 1
        # can never first-appear after colour 2.
        cost, steps = ordered_walk_min(i2, {0: 0, 1: 1, 2: 2}, (0, 2, 1))
        assert cost == INF
        assert steps is None

    def test_single_colour_palette(self, i2):
        assert ordered_walk_min(i2, {0: 0}, (0,)) == (0, [])

    def test_colour_zero_must_be_single(self, i2):
        with pytest.raises(ValueError):
            ordered_walk_min(i2, {0: 0, 1: 0, 2: 1}, (0, 1))
        with pytest.raises(ValueError):
            ordered_walk_min(i2, {1: 1, 2: 2}, (1, 2))

    def test_order_must_permute_used_colours(self, i2):
        with pytest.raises(ValueError):
            ordered_walk_min(i2, {0: 0, 1: 1, 2: 2}, (0, 1))
        with pytest.raises(ValueError):
            ordered_walk_min(i2, {0: 0, 1: 1}, (1, 0))

    def test_identity_colouring_matches_walk_enumeration(self):
        # With every vertex its own colour, the DP answers: cheapest walk
        # whose vertices first appear in exactly the given order.
        for inst in instances_for_suite(seed=555, count=10, n_range=(3, 4), horizon_range=(3, 5)):
            graph = inst.graph
            colouring = {v: v for v in range(graph.n)}
            order = tuple(range(graph.n))

            best = INF
            for walk in enumerate_walks(graph, 0):
                seen = [0]
                for _u, v, _d, _a in walk:
                    if v not in seen:
                        seen.append(v)
                if seen == list(order):
                    best = min(best, sum(graph.cost(*s) for s in walk))
            got, steps = ordered_walk_min(graph, colouring, order)
            assert got == best
            if got != INF:
                assert sum(graph.cost(*s) for s in steps) == got


class TestSolveColourful:
    def test_chain_with_budget_to_spare(self, i2):
        result = solve_colourful(i2, 0, 2, 3, {1: 1}, 6)
        assert result.feasible and result.optimal_cost == 6
        verify_result(CctoInstance(i2, 0, 2, 3, 6), result)

    def test_chain_budget_short(self, i2):
        result = solve_colourful(i2, 0, 2, 3, {1: 1}, 5)
        assert not result.feasible
        assert result.optimal_cost == 6

    def test_two_vertices_direct(self, i2):
        result = solve_colourful(i2, 0, 2, 2, {}, 6)
        assert result.feasible and result.optimal_cost == 6
        assert result.stats["direct"]

    def test_closed_single_vertex(self, i2):
        result = solve_colourful(i2, 0, 0, 1, {}, 0)
        assert result.feasible and result.optimal_cost == 0
        assert result.witness == []

    def test_sink_colour_may_appear_mid_walk(self):
        # Optimal walk 0,1,2,1 revisits the sink: its colour first appears
        # second, and the walk finishes with an extra unrestricted leg.
        g = make_graph(3, [(0, 1, 1, 2, 1), (1, 2, 2, 3, 1), (2, 1, 3, 4, 1)])
        result = solve_colourful(g, 0, 1, 3, {2: 1}, 3)
        assert result.feasible and result.optimal_cost == 3
        assert result.witness == [(0, 1, 1, 2), (1, 2, 2, 3), (2, 1, 3, 4)]

    def test_matches_order_enumeration_plus_final_leg(self, i2):
        table = all_pairs_min_walk(i2)
        by_orders = INF
        for tail in itertools.permutations((1, 2)):
            cost, steps = ordered_walk_min(i2, {0: 0, 1: 1, 2: 2}, (0,) + tail)
            if steps is not None and steps[-1][1] == 2:
                by_orders = min(by_orders, cost)
        assert solve_colourful(i2, 0, 2, 3, {1: 1}, 99).optimal_cost == by_orders

    def test_matches_order_enumeration_on_random_colourings(self):
        # Reference: split a colourful walk where its last new colour first
        # appears, at vertex v by time t1. Before the split it is the
        # cheapest walk showing the colours in that order (tuples arriving
        # by t1, v the only vertex of the last colour); after it, an
        # unrestricted final leg from v to the sink.
        import random

        rng = random.Random(47)
        found = 0
        for inst in instances_for_suite(
            seed=4711, count=40, n_range=(4, 6), horizon_range=(3, 6)
        ):
            graph, source, sink, k = inst.graph, inst.source, inst.sink, inst.k
            inner = sorted(set(range(graph.n)) - {source, sink})
            palette = k - 2 if source != sink else k - 1
            if palette <= 0 or palette > len(inner):
                continue
            table = all_pairs_min_walk(graph)
            top = graph.lifetime
            for _ in range(6):
                colouring = {v: rng.randint(1, palette) for v in inner}
                full = {**colouring, source: 0}
                if source != sink:
                    full[sink] = palette + 1
                want = INF
                tails = itertools.permutations(sorted(set(full.values()) - {0}))
                if len(set(colouring.values())) < palette:
                    tails = ()  # an inner colour is unused: nothing is colourful
                for tail in tails:
                    last = tail[-1]
                    for v in sorted(u for u, c in full.items() if c == last):
                        keep = {u: c for u, c in full.items() if c != last or u == v}
                        for t1 in range(top + 1):
                            early = make_graph(
                                graph.n, [t for t in graph.tuples() if t[3] <= t1]
                            )
                            head, _ = ordered_walk_min(early, keep, (0,) + tail)
                            leg = min(
                                table.cost(v, sink, a, b)
                                for a in range(t1, top + 1)
                                for b in range(a, top + 1)
                            )
                            want = min(want, head + leg)
                got = solve_colourful(graph, source, sink, k, colouring, inst.budget)
                assert got.optimal_cost == want, (inst, colouring)
                verify_result(CctoInstance(graph, source, sink, k, inst.budget), got)
                found += want != INF
        assert found >= 20

    def test_colouring_domain_checked(self, i1):
        with pytest.raises(ValueError):
            solve_colourful(i1, 0, 0, 3, {1: 1}, 8)
        with pytest.raises(ValueError):
            solve_colourful(i1, 0, 0, 3, {1: 1, 2: 5}, 8)

    def test_unused_colour_cannot_accept(self, i1):
        # Both inner vertices sharing a colour leaves the other colour with
        # no first appearance, so no walk qualifies.
        result = solve_colourful(i1, 0, 0, 3, {1: 1, 2: 1}, 99)
        assert not result.feasible
        assert result.optimal_cost == INF

    def test_accepting_implies_oracle_accepts(self):
        import random

        rng = random.Random(31)
        for inst in instances_for_suite(seed=808, count=30):
            graph, k = inst.graph, inst.k
            source, sink = inst.source, inst.sink
            inner = sorted(set(range(graph.n)) - {source, sink})
            palette = k - 2 if source != sink else k - 1
            if palette <= 0 or palette > len(inner):
                continue
            colouring = {v: rng.randint(1, palette) for v in inner}
            got = solve_colourful(graph, source, sink, k, colouring, inst.budget)
            want = solve_exact(inst)
            if got.feasible:
                assert want.feasible
                assert want.optimal_cost <= got.optimal_cost
                verify_result(
                    CctoInstance(graph, source, sink, k, inst.budget), got
                )


def stirling2(count, parts):
    """Partitions of `count` items into exactly `parts` non-empty groups."""
    terms = (
        (-1) ** j * math.comb(parts, j) * (parts - j) ** count for j in range(parts + 1)
    )
    return sum(terms) // math.factorial(parts)


@pytest.mark.parametrize("count", range(8))
def test_partitions_are_the_stirling_number_in_order(count):
    for parts in range(count + 2):
        # Group ids in first-use order: each item opens at most the next group.
        expected = [
            assign
            for assign in itertools.product(range(1, parts + 1), repeat=count)
            if set(assign) == set(range(1, parts + 1))
            and all(assign[i] <= max(assign[:i], default=0) + 1 for i in range(count))
        ]
        got = list(colorcoding._partitions(count, parts))
        assert got == expected
        assert len(got) == stirling2(count, parts)


class TestSolveColorCoding:
    def test_chain_exhaustive(self, i2):
        instance = CctoInstance(i2, 0, 2, 3, 6)
        result = solve_color_coding(instance, "exhaustive")
        assert result.feasible and result.optimal_cost == 6
        assert result.stats["colourings"] == 1
        verify_result(instance, result)

    def test_closed_tour_exhaustive(self, i1):
        instance = CctoInstance(i1, 0, 0, 3, 8)
        result = solve_color_coding(instance, "exhaustive")
        assert result.feasible and result.optimal_cost == 8
        assert result.witness == W1
        verify_result(instance, result)

    def test_single_vertex_target(self, i1):
        closed = solve_color_coding(CctoInstance(i1, 0, 0, 1, 0), "exhaustive")
        assert closed.feasible and closed.optimal_cost == 0
        open_ = solve_color_coding(CctoInstance(i1, 0, 1, 1, 2), "exhaustive")
        assert open_.feasible and open_.optimal_cost == 2

    @pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
    def test_no_colour_answers_are_named_colorcoding(self, i1, mode):
        for query in [(0, 0, 1, 0), (0, 1, 1, 2), (0, 1, 2, 2)]:
            result = solve_color_coding(CctoInstance(i1, *query), mode, seed=1)
            assert result.feasible
            assert result.solver == "colorcoding"
            assert result.stats["mode"] == mode

    def test_more_colours_than_inner_vertices(self, i1):
        result = solve_color_coding(CctoInstance(i1, 0, 0, 5, 99), "exhaustive")
        assert not result.feasible
        assert result.optimal_cost == INF

    def test_exhaustive_cap(self):
        # 10 inner vertices, 4 inner colours: 4^10 colourings pass the cap,
        # which is refused before any sweep runs.
        g = make_graph(12, [(0, 1, 1, 2, 1)])
        instance = CctoInstance(g, 0, 1, 6, 99)
        assert exhaustive_colouring_count(instance) > MAX_COLOURINGS
        with pytest.raises(CapabilityError, match="colourings exceed the cap"):
            solve_color_coding(instance, "exhaustive")

    @pytest.mark.parametrize("k", [30, 3000])
    def test_exhaustive_cap_past_its_bit_length_builds_no_count(self, monkeypatch, k):
        # 2998 inner vertices: palette ** inner has far more digits than
        # Python prints, so the refusal must neither build nor format it.
        def no_count(instance):
            raise AssertionError("counted exhaustive colourings")

        monkeypatch.setattr(colorcoding, "exhaustive_colouring_count", no_count)
        instance = CctoInstance(make_graph(3000, [(0, 1, 1, 2, 1)]), 0, 1, k, 10)
        with pytest.raises(
            CapabilityError,
            match=rf"^{k - 2} \*\* 2998 exhaustive colourings exceed the cap {MAX_COLOURINGS} ",
        ):
            solve_color_coding(instance, "exhaustive")

    def test_exhaustive_matches_oracle(self):
        for inst in instances_for_suite(seed=6011, count=80):
            want = solve_exact(inst)
            got = solve_color_coding(inst, "exhaustive")
            assert got.feasible == want.feasible
            assert got.optimal_cost == want.optimal_cost
            verify_result(inst, got)

    def test_randomized_finds_reference_tour(self, i1):
        instance = CctoInstance(i1, 0, 0, 3, 8)
        result = solve_color_coding(instance, "randomized", seed=7)
        assert result.feasible and result.optimal_cost == 8
        verify_result(instance, result)
        assert result.stats["note"] == "cost is a verified upper bound"

    def test_randomized_trial_count(self, i1):
        # ceil(ln(delta) / ln(1 - p!/p^p)) with p = 2 inner colours, delta = 1e-3.
        result = solve_color_coding(CctoInstance(i1, 0, 0, 3, 8), "randomized", seed=1)
        assert result.stats["trials"] == math.ceil(math.log(1e-3) / math.log(1 - 2 / 4)) == 10

    def test_randomized_is_reproducible(self, i1):
        instance = CctoInstance(i1, 0, 0, 3, 8)
        first = solve_color_coding(instance, "randomized", seed=99)
        second = solve_color_coding(instance, "randomized", seed=99)
        assert first.stats == second.stats
        assert first.witness == second.witness

    def test_randomized_no_answer_is_labelled(self, i2):
        instance = CctoInstance(i2, 0, 2, 3, 5)
        result = solve_color_coding(instance, "randomized", seed=5)
        assert not result.feasible
        assert "not found" in result.stats["note"]
        verify_result(instance, result)

    def test_randomized_needs_a_seed(self, i1):
        with pytest.raises(ValueError):
            solve_color_coding(CctoInstance(i1, 0, 0, 3, 8), "randomized")
        # Checked before the closed k = 1 query's no-colour answer too.
        with pytest.raises(ValueError, match="needs a seed"):
            solve_color_coding(CctoInstance(i1, 0, 0, 1, 8), "randomized")

    @pytest.mark.parametrize("prob", [0, 1, 1.5, -0.5, math.nan, math.inf])
    def test_failure_prob_must_lie_strictly_between_0_and_1(self, i1, prob):
        with pytest.raises(ValueError, match=r"not in \(0, 1\)"):
            solve_color_coding(
                CctoInstance(i1, 0, 0, 3, 8), "randomized", seed=1, failure_prob=prob
            )

    def test_tiny_failure_prob_answers(self, i1):
        # 1/1e-320 overflows a float; -log(1e-320) does not.
        result = solve_color_coding(
            CctoInstance(i1, 0, 0, 3, 8), "randomized", seed=1, failure_prob=1e-320
        )
        assert result.feasible and result.optimal_cost == 8
        assert result.stats["trials"] == math.ceil(320 * math.log(10) / math.log(2)) == 1064

    @pytest.mark.parametrize(
        "prob", [1e-3, 0.3, 1e-320, 0.5, 0.25, 0.125, 0.1, 0.9, 0.99, 1e-2, 1e-6, 1e-9, 1e-15, 1e-100]
    )
    def test_trial_count_is_the_exact_miss_bound(self, prob):
        # One colour: every colouring is colourful, so one trial, not the
        # ln(prob) / ln(1 - 1) = 0 the formula gives.
        assert colorcoding._trial_count(1, prob) == 1
        # ceil(ln(prob) / ln(1 - p!/p^p)) to 60 digits. Where the quotient is
        # a whole number (p = 2 at prob 0.5, 0.25, 0.125) it must not round up.
        with decimal.localcontext() as context:
            context.prec = 60
            for palette in range(2, 32):
                hit = decimal.Decimal(math.factorial(palette)) / decimal.Decimal(palette) ** palette
                expected = math.ceil(decimal.Decimal(prob).ln() / (1 - hit).ln())
                assert colorcoding._trial_count(palette, prob) == expected, palette

    def test_one_inner_colour_runs_one_trial(self):
        # Open query, k 3: the one inner colour always shows, so a miss
        # (here the budget) is settled by a single colouring.
        graph = make_graph(6, [(0, 1, 1, 2, 1), (1, 2, 2, 3, 1), (3, 4, 1, 2, 1)])
        result = solve_color_coding(CctoInstance(graph, 0, 2, 3, 0), "randomized", seed=1)
        assert not result.feasible and result.optimal_cost == 2
        assert result.stats["trials"] == result.stats["trials_used"] == 1

    def test_uncountable_trials_are_a_capability_error(self):
        # 758 inner colours: p!/p^p underflows and e^p overflows a float.
        n = 800
        graph = make_graph(n, [(v, v + 1, v, v + 1, 1) for v in range(n - 1)])
        instance = CctoInstance(graph, 0, n - 1, 760, 100_000)
        with pytest.raises(CapabilityError, match="758 inner colours"):
            solve_color_coding(instance, "randomized", seed=1)

    def test_trial_count_refuses_without_building_factorials(self, monkeypatch):
        # 10^5 inner colours: p! and p^p have about half a million digits
        # each, and P = p!/p^p is e^-99999 either way, so the count is INF
        # and the plan refuses it without building them.
        factorial = math.factorial

        def small_factorial(n):
            assert n < 10**4, "built a huge factorial"
            return factorial(n)

        monkeypatch.setattr(colorcoding.math, "factorial", small_factorial)
        n = 10**5 + 2
        instance = CctoInstance(make_graph(n, [(0, 1, 1, 2, 1)]), 0, 1, n, 10)
        started = time.perf_counter()
        with pytest.raises(CapabilityError, match="^inf randomized colourings exceed the cap"):
            solve_color_coding(instance, "randomized", seed=1)
        assert time.perf_counter() - started < 0.5

    def test_mode_choice_skips_a_colouring_count_past_the_cap(self, monkeypatch):
        # With no mode, 2 inner colours on more inner vertices than the cap
        # has bits are past it, so the plan is randomized without building
        # palette ** inner.
        def no_count(instance):
            raise AssertionError("counted exhaustive colourings")

        monkeypatch.setattr(colorcoding, "exhaustive_colouring_count", no_count)
        n = MAX_COLOURINGS.bit_length() + 3
        instance = CctoInstance(make_graph(n, [(0, 1, 1, 2, 1)]), 0, 1, 4, 10)
        assert colorcoding._colouring_plan(instance) == ("randomized", 10)

    @pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
    def test_pruning_changes_only_the_state_count(self, monkeypatch, mode):
        # Sweeping only the moves on a source -> sink walk keeps every
        # answer, witness and colouring or trial count of the whole graph.
        suite = instances_for_suite(seed=1705, count=60, n_range=(2, 7), horizon_range=(3, 8))
        calls = []
        prune = colorcoding.walks_between

        def counted(graph, source, sink):
            calls.append((source, sink))
            return prune(graph, source, sink)

        def run():
            return [solve_color_coding(inst, mode, seed=i) for i, inst in enumerate(suite)]

        monkeypatch.setattr(colorcoding, "walks_between", counted)
        pruned = run()
        monkeypatch.setattr(colorcoding, "walks_between", lambda graph, source, sink: graph)
        whole = run()
        assert len(calls) <= len(suite)  # at most once per call
        fewer = 0
        for inst, got, want in zip(suite, pruned, whole):
            assert (got.feasible, got.optimal_cost, got.witness) == (
                want.feasible, want.optimal_cost, want.witness
            ), inst
            got_stats, want_stats = dict(got.stats), dict(want.stats)
            assert got_stats.pop("states", 0) <= want_stats.pop("states", 0)
            assert got_stats == want_stats
            fewer += got.stats.get("states", 0) < want.stats.get("states", 0)
        assert {inst.source == inst.sink for inst in suite} == {True, False}
        assert sum(result.feasible for result in whole) >= 10
        assert fewer >= 20

    def test_unknown_mode(self, i1):
        with pytest.raises(ValueError):
            solve_color_coding(CctoInstance(i1, 0, 0, 3, 8), "best-effort")
        with pytest.raises(ValueError, match="unknown mode"):
            solve_color_coding(CctoInstance(i1, 0, 0, 1, 8), "bogus")

    def test_randomized_yes_instances_all_found(self):
        # Mini version of the acceptance sweep: every feasible instance
        # with small k yields a verified witness under two master seeds.
        suite = [
            inst
            for inst in instances_for_suite(seed=7207, count=40)
            if inst.k <= 5 and solve_exact(inst).feasible
        ]
        assert len(suite) >= 10
        for master in (11, 23):
            for inst in suite:
                result = solve_color_coding(inst, "randomized", seed=master)
                assert result.feasible
                verify_result(inst, result)
