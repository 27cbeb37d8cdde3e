"""The solvers still give every pinned answer (see tests/pinned_answers.py).

Perfbench pools are checked at every POOL_STRIDE-th request to keep the
suite fast. The stride is coprime to every pool's stratum cycle (6, 8, 5
and 3 entries), so each stratum is still sampled.
"""

import pytest

import pinned_answers
from pinned_answers import POOL_STRIDE


def _moved(lines):
    """Each regenerated line that differs from its pinned line, with both."""
    pinned = pinned_answers.read_records()
    moved = []
    for line in lines:
        key = line.split(" ", 1)[0]
        if pinned.get(key) != line:
            moved.append(f"{key}:\n  pinned {pinned.get(key)}\n  now    {line}")
    return moved


@pytest.mark.parametrize("workload", pinned_answers.WORKLOADS)
def test_perfbench_pool_answers_are_pinned(workload):
    lines = pinned_answers.pool_records(workload, POOL_STRIDE)
    assert lines
    moved = _moved(lines)
    assert not moved, "\n".join(moved)


def test_solver_row_answers_are_pinned():
    lines = pinned_answers.row_records()
    assert len(lines) == pinned_answers.QUERIES * (len(pinned_answers.ccto.cli.SOLVERS) + 1)
    moved = _moved(lines)
    assert not moved, "\n".join(moved)
