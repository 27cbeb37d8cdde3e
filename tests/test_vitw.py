"""Tests for the interval-bag sequence and the width-parameterized solver."""

import time

import pytest

from ccto.cli import choose_solver
from ccto.core import INF, CapabilityError, CctoInstance, TemporalCostGraph
from ccto.oracle import solve_exact
from ccto.result import verify_result
from ccto.vitw import MAX_VITW_HORIZON, solve_vitw, vitw_sequence

from conftest import I1_TUPLES, I3_TUPLES, W1, bag_by_quantifiers, instances_for_suite, make_graph


class TestVitwSequence:
    def test_reference_instance_bags(self, i1):
        seq = vitw_sequence(i1)
        assert [sorted(b) for b in seq.bags] == [
            [],
            [],
            [1],
            [1, 2],
            [1, 2],
            [1],
            [],
        ]
        # The source never appears: its arrivals all come after its only
        # departure, so no time has one of each on the right sides.
        assert all(0 not in b for b in seq.bags)
        assert seq.width == 2

    def test_single_tuple_has_empty_bags(self):
        g = make_graph(2, [(0, 1, 1, 2, 3)])
        seq = vitw_sequence(g)
        assert all(not b for b in seq.bags)
        assert seq.width == 0

    def test_no_tuples(self):
        seq = vitw_sequence(make_graph(2, []))
        assert seq.bags == [frozenset()]
        assert seq.width == 0

    def test_matches_quantifier_scan(self):
        for inst in instances_for_suite(seed=1405, count=60):
            seq = vitw_sequence(inst.graph)
            for t in range(inst.graph.lifetime + 1):
                expected = {
                    v
                    for v in range(inst.graph.n)
                    if bag_by_quantifiers(inst.graph, v, t)
                }
                assert seq.bags[t] == expected

    def test_membership_is_one_interval(self):
        for inst in instances_for_suite(seed=77, count=40):
            seq = vitw_sequence(inst.graph)
            assert seq.width <= inst.graph.n
            for v in range(inst.graph.n):
                times = [t for t, b in enumerate(seq.bags) if v in b]
                if times:
                    assert times == list(range(times[0], times[-1] + 1))


class TestSolveVitw:
    def test_reference_tour(self, i1):
        result = solve_vitw(CctoInstance(i1, 0, 0, 3, 8))
        assert result.feasible
        assert result.optimal_cost == 8
        assert result.witness == W1
        verify_result(CctoInstance(i1, 0, 0, 3, 8), result)

    def test_budget_below_optimum(self, i1):
        result = solve_vitw(CctoInstance(i1, 0, 0, 3, 7))
        assert not result.feasible
        assert result.optimal_cost == 8

    def test_open_path(self, i3):
        instance = CctoInstance(i3, 0, 2, 3, 3)
        result = solve_vitw(instance)
        assert result.feasible
        assert result.optimal_cost == 3
        verify_result(instance, result)

    @pytest.mark.parametrize("k, cost", [(3, 6), (4, 6), (5, INF)])
    def test_k_counts_vertices_that_left_the_bag(self, k, cost):
        # Vertex 1 is live only at time 2 and vertex 2 only over 3..5, so
        # both have left the bag before the sink is reached at 6: k 3 and 4
        # are met only through the forgotten count.
        graph = make_graph(4, [(0, 1, 1, 2, 1), (1, 2, 2, 3, 2), (2, 3, 5, 6, 3)])
        instance = CctoInstance(graph, 0, 3, k, 10)
        result = solve_vitw(instance)
        expected = solve_exact(instance)
        assert result.optimal_cost == expected.optimal_cost == cost
        assert result.feasible == expected.feasible
        if cost < INF:
            assert result.witness == [(0, 1, 1, 2), (1, 2, 2, 3), (2, 3, 5, 6)]
            verify_result(instance, result)

    def test_k_beyond_n_is_infeasible(self, i1):
        result = solve_vitw(CctoInstance(i1, 0, 0, 4, 50))
        assert not result.feasible
        assert result.optimal_cost == INF

    def test_source_without_departures(self):
        g = make_graph(2, [(0, 1, 1, 2, 3)])
        closed = solve_vitw(CctoInstance(g, 1, 1, 1, 0))
        assert closed.feasible and closed.optimal_cost == 0
        assert closed.witness == []
        open_ = solve_vitw(CctoInstance(g, 1, 0, 1, 9))
        assert not open_.feasible and open_.optimal_cost == INF

    def test_sink_without_arrivals(self):
        g = make_graph(3, [(0, 1, 1, 2, 1)])
        result = solve_vitw(CctoInstance(g, 0, 2, 1, 9))
        assert not result.feasible
        assert result.optimal_cost == INF

    def test_trivial_closed_walk(self, i2):
        result = solve_vitw(CctoInstance(i2, 0, 0, 1, 0))
        assert result.feasible
        assert result.optimal_cost == 0
        assert result.witness == []

    def test_shift_and_original_coordinates(self, i1):
        # The same tour pushed two steps later: the solver normalizes the
        # start back to time 1 internally but reports original times.
        late = make_graph(
            3, [(u, v, d + 2, a + 2, c) for u, v, d, a, c in I1_TUPLES]
        )
        instance = CctoInstance(late, 0, 0, 3, 8)
        result = solve_vitw(instance)
        assert result.optimal_cost == 8
        assert result.stats["shift"] == -2
        assert result.witness == [(u, v, d + 2, a + 2) for u, v, d, a in W1]
        verify_result(instance, result)

    def test_truncation_ignores_late_noise(self, i1):
        # Tuples that only move away from the sink after its last arrival
        # cannot matter; the effective lifetime stops at that arrival.
        noisy = make_graph(4, I1_TUPLES + [(1, 3, 7, 9, 1), (3, 1, 10, 11, 1)])
        result = solve_vitw(CctoInstance(noisy, 0, 0, 3, 8))
        assert result.optimal_cost == 8
        assert result.stats["effective_lifetime"] == 6

    def test_width_ignores_a_hub_off_every_walk(self, i1):
        # Vertex 16's 13 leaves are live over times 2..3, beside I1's bags,
        # for a whole-graph width of 15; no walk from 0 reaches them, so they
        # never enter a bag the solver builds.
        hub = [(16, x, 1, 2, 1) for x in range(3, 16)] + [(x, 16, 3, 4, 1) for x in range(3, 16)]
        instance = CctoInstance(make_graph(17, I1_TUPLES + hub), 0, 0, 3, 8)
        result = solve_vitw(instance)
        assert result.feasible
        assert result.optimal_cost == solve_exact(CctoInstance(i1, 0, 0, 3, 8)).optimal_cost == 8
        assert result.stats["width"] <= 2
        verify_result(instance, result)
        assert choose_solver(instance) == "vitw"

    def test_horizon_ignores_an_unreachable_sink_arrival(self):
        # Vertex 3 is never reached from 0, so its late move into the sink
        # neither stretches the time axis nor trips the time-unit cap.
        instance = CctoInstance(make_graph(4, I1_TUPLES + [(3, 0, 10**6, 10**6 + 1, 1)]), 0, 0, 3, 8)
        result = solve_vitw(instance)
        assert result.optimal_cost == 8
        assert result.stats["effective_lifetime"] == 6
        verify_result(instance, result)

    def test_width_cap(self):
        wide = []
        for v in range(1, 14):
            wide.append((0, v, 1, 2, 1))
            wide.append((v, 0, 3, 4, 1))
        g = make_graph(14, wide)
        assert vitw_sequence(g).width == 13
        with pytest.raises(CapabilityError):
            solve_vitw(CctoInstance(g, 0, 0, 2, 10))

    def test_width_cap_fails_before_building_bags(self):
        # A 10^9-scaled twin would need one bag per time unit; the cap must
        # be checked from the vertex intervals first.
        wide = [(1, 2, 2, 3, 1)]
        for v in range(1, 14):
            wide += [(0, v, 1, 2, 1), (v, 0, 3, 4, 1)]
        scale = 10**9
        g = make_graph(14, [(u, v, d * scale, a * scale, c) for u, v, d, a, c in wide])
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match="bag width 13 exceeds the cap 12"):
            solve_vitw(CctoInstance(g, 0, 0, 3, 10))
        assert time.perf_counter() - start < 1.0

    def test_long_time_axis_fails_fast(self):
        # Width 2 passes the width cap; 500,001 shifted time units do not.
        scale = 10**5
        g = make_graph(3, [(u, v, d * scale, a * scale, c) for u, v, d, a, c in I1_TUPLES])
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match=f"time-unit cap {MAX_VITW_HORIZON}"):
            solve_vitw(CctoInstance(g, 0, 0, 3, 10))
        assert time.perf_counter() - start < 1.0

    def test_optimum_is_budget_independent(self, i1):
        costs = {
            solve_vitw(CctoInstance(i1, 0, 0, 3, budget)).optimal_cost
            for budget in (0, 7, 8, 40)
        }
        assert costs == {8}

    def test_matches_oracle_on_random_instances(self):
        checked = 0
        for inst in instances_for_suite(seed=2203, count=80):
            expected = solve_exact(inst)
            got = solve_vitw(inst)
            assert got.feasible == expected.feasible
            assert got.optimal_cost == expected.optimal_cost
            verify_result(inst, got)
            checked += 1
        assert checked == 80

    def test_live_states_stay_under_bound(self):
        for inst in instances_for_suite(seed=3307, count=30):
            stats = solve_vitw(inst).stats
            assert stats["max_live_states"] <= stats["state_bound"]
            assert stats["width"] <= stats["width_eff"]

    def test_state_bound_ignores_the_budget(self):
        # Fuel is the value of a state, not part of its key.
        for inst in instances_for_suite(seed=3307, count=30):
            stats = solve_vitw(inst).stats
            width = stats["width_eff"]
            assert stats["state_bound"] == width * (inst.k + 1) * 2**width

    def test_deterministic(self, i1):
        instance = CctoInstance(i1, 0, 0, 3, 8)
        first = solve_vitw(instance)
        second = solve_vitw(instance)
        assert first.witness == second.witness
        assert first.stats == second.stats
