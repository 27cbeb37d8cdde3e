"""Tests for the shared result checks."""

import pytest

from ccto.core import CctoInstance
from ccto.result import SolveResult, verify_result

from conftest import W1

# (source, sink, k, budget), (feasible, cost, witness, stats), message:
# one case per rejection.
REJECTIONS = [
    ((0, 0, 3, 8), (False, None, None, {}), "missing optimal_cost without a justifying"),
    ((0, 0, 3, 8), (False, None, W1, {"lower_bound": 9}), "witness attached to a result"),
    ((0, 0, 3, 7), (True, 8, W1, {}), "feasible=True disagrees with cost 8 vs budget 7"),
    ((0, 0, 3, 8), (True, 8, None, {}), "feasible result without a witness"),
    ((0, 0, 3, 8), (True, 8, [(0, 2, 1, 3)], {}), "witness invalid at step 0"),
    ((0, 0, 2, 8), (True, 2, [(0, 1, 1, 2)], {}), "witness ends at 1, sink is 0"),
    ((0, 0, 4, 8), (True, 8, W1, {}), "witness visits fewer than k distinct"),
]


class TestVerifyResult:
    @pytest.mark.parametrize("query, fields, message", REJECTIONS)
    def test_rejects_inconsistent_results(self, i1, query, fields, message):
        feasible, cost, witness, stats = fields
        with pytest.raises(ValueError, match=message):
            verify_result(
                CctoInstance(i1, *query), SolveResult(feasible, cost, witness, "test", stats)
            )

    def test_rejects_a_wrong_witness_cost(self, i1):
        with pytest.raises(ValueError, match="witness cost 8 != reported 9"):
            verify_result(
                CctoInstance(i1, 0, 0, 3, 9), SolveResult(True, 9, W1, "test")
            )

    def test_finite_cost_needs_a_witness_whatever_the_stats(self, i1):
        instance = CctoInstance(i1, 0, 0, 3, 7)
        for stats in ({}, {"witness_omitted": True}):
            result = SolveResult(False, 8, None, "test", stats)
            with pytest.raises(ValueError, match="finite optimal_cost without a witness"):
                verify_result(instance, result)
