"""Tests for instance files, random generation, and the star reduction."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccto.core import CapabilityError, CctoInstance
from ccto.instances import (
    MAX_FILE_VERTICES,
    MAX_RANDOM_SLOTS,
    InstanceFile,
    from_edge_labels,
    parse_instance,
    random_instance,
    serialize_instance,
    starexp_feasible,
    starexp_reduction,
)
from ccto.oracle import solve_exact

from conftest import I1_TUPLES, make_graph

CANONICAL_I1 = """version 1
n 3
name 0 s
name 1 a
name 2 b
tuple 0 1 1 2 2
tuple 1 0 5 6 1
tuple 1 2 2 3 4
tuple 2 1 4 5 1
query 0 0 3 8
"""


class TestParsing:
    def test_canonical_round_trip_is_byte_identical(self):
        inst = parse_instance(CANONICAL_I1)
        assert serialize_instance(inst) == CANONICAL_I1

    def test_parsed_content(self):
        inst = parse_instance(CANONICAL_I1)
        assert inst.graph.n == 3
        assert inst.graph.names[1] == "a"
        assert set(inst.graph.tuples()) == set(I1_TUPLES)
        assert (inst.query.source, inst.query.sink) == (0, 0)
        assert (inst.query.k, inst.query.budget) == (3, 8)
        assert inst.subforest == ()

    def test_comments_blanks_and_order_are_tolerated(self):
        text = (
            "version 1  # header\n"
            "\n"
            "n 2\n"
            "query 0 1 2 9\n"
            "# full-line comment\n"
            "tuple 0 1 0 1 3\n"
            "subforest 1 0\n"
        )
        inst = parse_instance(text)
        assert inst.query.k == 2
        assert inst.subforest == ((0, 1),)

    def test_names_may_contain_spaces(self):
        text = "version 1\nn 1\nname 0 depot north gate\n"
        inst = parse_instance(text)
        assert inst.graph.names[0] == "depot north gate"
        assert serialize_instance(parse_instance(serialize_instance(inst))) == (
            serialize_instance(inst)
        )

    @pytest.mark.parametrize(
        "text, line, needle",
        [
            ("n 2\n", 1, "version"),
            ("version 2\nn 2\n", 1, "version"),
            ("version 1\ntuple 0 1 0 1 1\n", 2, "before n"),
            ("version 1\nn 2\nn 3\n", 3, "duplicate n"),
            ("version 1\nn 0\n", 2, "positive"),
            ("version 1\nn 2\ntuple 0 2 0 1 1\n", 3, "out of range"),
            ("version 1\nn 2\ntuple 0 0 0 1 1\n", 3, "self-loop"),
            ("version 1\nn 2\ntuple 0 1 3 2 1\n", 3, "depart < arrive"),
            ("version 1\nn 2\ntuple 0 1 0 1 0\n", 3, "positive"),
            ("version 1\nn 2\ntuple 0 1 0 1 1\ntuple 0 1 0 1 4\n", 4, "duplicate"),
            ("version 1\nn 2\ntuple 0 1 0 x 1\n", 3, "integers"),
            ("version 1\nn 2\nquery 0 1 0 5\n", 3, "k must be"),
            ("version 1\nn 2\nquery 0 1 1 1\nquery 0 1 1 2\n", 4, "duplicate query"),
            ("version 1\nn 2\nname 5 far\n", 3, "out of range"),
            ("version 1\nn 2\nname 0 a\nname 0 b\n", 4, "duplicate name"),
            ("version 1\nn 3\nsubforest 0 1\n", 3, "not an edge"),
            ("version 1\nn 2\nsubforest 1 1\n", 3, "differ"),
            ("version 1\nn 2\nwalk 0 1\n", 3, "unknown directive"),
            ("version 1\nn 2\ntuple 0 1 0 1\n", 3, "takes"),
            ("version 1\nversion 1\nn 2\n", 2, "duplicate version"),
            ("version 1\nn 2 3\n", 2, "n takes exactly one value"),
            ("version 1\nn 2\nname 0\n", 3, "name takes a vertex and a label"),
            ("version 1\nn 2\nquery 0 1 2\n", 3, "query takes"),
            ("version 1\nn 2\nsubforest 0\n", 3, "subforest takes two endpoints"),
            ("version 1\nn 2\nsubforest 0 5\n", 3, "vertex out of range in"),
        ],
    )
    def test_diagnostics_carry_line_numbers(self, text, line, needle):
        with pytest.raises(ValueError) as err:
            parse_instance(text)
        assert f"line {line}" in str(err.value)
        assert needle in str(err.value)

    def test_oversized_cost_carries_line_number(self):
        text = "version 1\nn 2\ntuple 0 1 0 1 99999999999999999999999\n"
        with pytest.raises(ValueError, match="^line 3: cost must be at most"):
            parse_instance(text)
        parse_instance(f"version 1\nn 2\ntuple 0 1 0 1 {2**64 - 1}\n")

    def test_vertex_count_is_capped(self):
        parse_instance(f"version 1\nn {MAX_FILE_VERTICES}\n")
        with pytest.raises(CapabilityError, match=f"^line 2: .* vertex cap {MAX_FILE_VERTICES}$"):
            parse_instance(f"version 1\nn {MAX_FILE_VERTICES + 1}\n")

    def test_empty_and_headerless_files(self):
        with pytest.raises(ValueError, match="version"):
            parse_instance("")
        with pytest.raises(ValueError, match="missing n"):
            parse_instance("version 1\n")

    def test_duplicate_subforest_edge_even_when_flipped(self):
        text = (
            "version 1\nn 2\ntuple 0 1 0 1 1\nsubforest 0 1\nsubforest 1 0\n"
        )
        with pytest.raises(ValueError, match="line 5"):
            parse_instance(text)


class TestSerialization:
    def test_graph_without_query_round_trips(self, i3):
        inst = InstanceFile(i3)
        again = parse_instance(serialize_instance(inst))
        assert again.query is None
        assert serialize_instance(again) == serialize_instance(inst)

    def test_subforest_edges_are_normalized_and_sorted(self, i1):
        inst = InstanceFile(
            i1, CctoInstance(i1, 0, 0, 3, 8), subforest=((1, 2), (0, 1))
        )
        text = serialize_instance(inst)
        assert text.endswith("subforest 0 1\nsubforest 1 2\n")
        assert parse_instance(text).subforest == ((0, 1), (1, 2))


class TestRandomInstances:
    def test_same_seed_same_bytes(self):
        first = random_instance(seed=7, n=5, horizon=6, density=0.3)
        second = random_instance(seed=7, n=5, horizon=6, density=0.3)
        assert serialize_instance(
            InstanceFile(first.graph, first)
        ) == serialize_instance(InstanceFile(second.graph, second))

    def test_different_seeds_differ(self):
        texts = {
            serialize_instance(
                InstanceFile(inst.graph, inst)
            )
            for inst in (
                random_instance(seed=s, n=5, horizon=6, density=0.3)
                for s in range(8)
            )
        }
        assert len(texts) > 1

    def test_tree_shape_is_a_tree(self):
        for seed in range(12):
            inst = random_instance(seed=seed, n=6, horizon=6, density=0.6, shape="tree")
            if inst.graph.edges:
                assert inst.graph.is_tree() or len(inst.graph.edges) < 5

    def test_general_shape_respects_horizon_and_costs(self):
        inst = random_instance(
            seed=3, n=4, horizon=5, density=0.9, max_cost=2, shape="general"
        )
        for _, _, depart, arrive, cost in inst.graph.tuples():
            assert 0 <= depart < arrive <= 5
            assert 1 <= cost <= 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_instance(seed=0, n=0, horizon=3, density=0.2)
        with pytest.raises(ValueError):
            random_instance(seed=0, n=3, horizon=0, density=0.2)
        with pytest.raises(ValueError):
            random_instance(seed=0, n=3, horizon=3, density=0.2, shape="ring")
        with pytest.raises(ValueError, match="max_cost"):
            random_instance(seed=0, n=3, horizon=3, density=0.2, max_cost=0)

    def test_slot_cap_refuses_before_drawing(self):
        # Ordered pairs x horizon: 2 (n - 1) on a tree, n (n - 1) in general.
        random_instance(seed=0, n=2, horizon=MAX_RANDOM_SLOTS // 2, density=0.0)
        with pytest.raises(CapabilityError, match="slot cap"):
            random_instance(seed=0, n=2, horizon=MAX_RANDOM_SLOTS // 2 + 1, density=0.0)
        with pytest.raises(CapabilityError, match="slot cap"):
            random_instance(seed=0, n=50, horizon=10**8, density=0.0)
        with pytest.raises(CapabilityError, match="slot cap"):
            random_instance(seed=0, n=20_000, horizon=6, density=0.25, shape="general")

    @given(st.integers(0, 10**6), st.integers(2, 6), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_any_seed(self, seed, n, horizon):
        inst = random_instance(seed=seed, n=n, horizon=horizon, density=0.25)
        text = serialize_instance(InstanceFile(inst.graph, inst))
        again = parse_instance(text)
        assert serialize_instance(again) == text
        assert again.query.k == inst.k

    @given(
        st.dictionaries(
            st.integers(0, 2),
            st.one_of(st.text("ab #\t\n", max_size=5), st.text(max_size=5), st.integers()),
            max_size=3,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_names_round_trip_or_are_refused(self, names):
        try:
            graph = make_graph(3, I1_TUPLES, names)
        except ValueError as exc:
            assert "name" in str(exc)
            return
        again = parse_instance(serialize_instance(InstanceFile(graph)))
        assert again.graph.names == names


class TestStarReduction:
    def test_labels_become_unit_tuples_both_ways(self):
        graph = from_edge_labels(3, {(0, 1): [2, 2, 5], (0, 2): [1]})
        assert set(graph.tuples()) == {
            (0, 1, 2, 3, 1),
            (1, 0, 2, 3, 1),
            (0, 1, 5, 6, 1),
            (1, 0, 5, 6, 1),
            (0, 2, 1, 2, 1),
            (2, 0, 1, 2, 1),
        }

    def test_reduction_shape(self):
        inst = starexp_reduction([{1, 3}, {2}])
        assert inst.graph.n == 3
        assert (inst.source, inst.sink) == (0, 0)
        assert (inst.k, inst.budget) == (3, 4)

    def test_single_leaf_round_trip(self):
        assert starexp_feasible([{1, 2}])
        assert solve_exact(starexp_reduction([{1, 2}])).feasible

    def test_single_label_leaf_cannot_return(self):
        assert not starexp_feasible([{4}])
        assert not solve_exact(starexp_reduction([{4}])).feasible

    def test_two_leaves_competing_for_times(self):
        assert starexp_feasible([{1, 2}, {3, 4}])
        assert starexp_feasible([{3, 4}, {1, 2}])
        assert not starexp_feasible([{1, 2}, {1, 2}])
        # Trips cannot nest: the walk must return to the centre in between.
        assert not starexp_feasible([{1, 4}, {2, 3}])

    def test_empty_star_is_trivially_explored(self):
        assert starexp_feasible([])
        assert solve_exact(starexp_reduction([])).feasible

    def test_checker_matches_oracle_on_exhaustive_sample(self):
        rng = random.Random(2024)
        label_pool = list(range(1, 7))
        for _ in range(60):
            leaves = rng.randint(1, 3)
            labels = [
                set(rng.sample(label_pool, rng.randint(1, 3)))
                for _ in range(leaves)
            ]
            inst = starexp_reduction(labels)
            assert solve_exact(inst).feasible == starexp_feasible(labels), labels

    def test_feasible_reduction_cost_is_exactly_budget(self):
        for labels in [([{1, 2}]), ([{1, 2}, {3, 4}]), ([{3, 4}, {1, 2}])]:
            result = solve_exact(starexp_reduction(labels))
            assert result.feasible
            assert result.optimal_cost == 2 * len(labels)


class TestBudgetPrecheck:
    def test_settles_only_when_k_exceeds_budget_reach(self, i1):
        from ccto.result import budget_precheck, verify_result

        inst = CctoInstance(i1, 0, 0, 3, 1)
        result = budget_precheck(inst)
        assert result is not None and not result.feasible
        assert result.optimal_cost is None
        verify_result(inst, result)
        assert budget_precheck(CctoInstance(i1, 0, 0, 3, 2)) is None

    def test_agrees_with_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            inst = random_instance(
                seed=rng.randrange(2**30), n=rng.randint(2, 5),
                horizon=rng.randint(2, 6), density=0.3, shape="general",
            )
            from ccto.result import budget_precheck

            result = budget_precheck(inst)
            if result is not None:
                assert not solve_exact(inst).feasible


class TestTupleValidationLines:
    """Tuples are checked once, by the graph constructor; the parser still
    names the line of the first tuple the constructor rejects."""

    GOOD = serialize_instance(
        InstanceFile(random_instance(seed=31, n=6, horizon=12, density=0.4).graph)
    )

    def _with_line(self, bad, position):
        lines = self.GOOD.splitlines()
        assert len(lines) > 20 and position <= len(lines)
        lines.insert(position, bad)
        return "\n".join(lines) + "\n", position + 1

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("tuple 0 6 1 2 1", "vertex out of range"),
            ("tuple 7 1 1 2 1", "vertex out of range"),
            ("tuple 2 2 1 2 1", "self-loop"),
            ("tuple 0 1 4 4 1", "need 0 <= depart < arrive"),
            ("tuple 0 1 5 4 1", "need 0 <= depart < arrive"),
            ("tuple 0 1 -1 4 1", "need 0 <= depart < arrive"),
            ("tuple 0 1 20 21 0", "cost must be positive"),
            ("tuple 0 1 20 21 -3", "cost must be positive"),
            (f"tuple 0 1 20 21 {2**64}", "cost must be at most 2^64-1"),
            ("tuple 0 1 20 2.5 1", "expected integers"),
            ("tuple 0 1 20 21", "tuple takes"),
        ],
    )
    @pytest.mark.parametrize("position", [3, 11, -1])
    def test_one_bad_tuple_among_many(self, bad, reason, position):
        if position < 0:
            position = len(self.GOOD.splitlines())
        text, lineno = self._with_line(bad, position)
        with pytest.raises(ValueError, match=rf"^line {lineno}: {re.escape(reason)}"):
            parse_instance(text)

    def test_duplicate_is_reported_at_its_second_occurrence(self):
        lines = self.GOOD.splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("tuple"))
        fields = lines[first].split()
        fields[5] = str(int(fields[5]) + 1)
        text, lineno = self._with_line(" ".join(fields), len(lines) - 2)
        assert lineno > first + 1
        with pytest.raises(ValueError, match=rf"^line {lineno}: duplicate tuple key"):
            parse_instance(text)

    def test_first_bad_tuple_wins(self):
        text, _ = self._with_line("tuple 2 2 1 2 1", 15)
        lines = text.splitlines()
        lines.insert(8, "tuple 0 1 0 1 0")
        with pytest.raises(ValueError, match=r"^line 9: cost must be positive"):
            parse_instance("\n".join(lines) + "\n")

    def test_later_bad_directive_is_reported_before_a_bad_tuple(self):
        # Tuples are validated when the graph is built, after every line has
        # been read, so a malformed line of any other kind is found first.
        text, _ = self._with_line("tuple 2 2 1 2 1", 4)
        text += "walk 0 1\n"
        lineno = len(text.splitlines())
        with pytest.raises(ValueError, match=rf"^line {lineno}: unknown directive"):
            parse_instance(text)

    def test_good_file_parses_to_the_same_tuples(self):
        graph = parse_instance(self.GOOD).graph
        assert serialize_instance(InstanceFile(graph)) == self.GOOD
