"""Tests for the shared result checks."""

import pytest

from ccto.core import CctoInstance
from ccto.result import SolveResult, verify_result

from conftest import W1


class TestVerifyResult:
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
