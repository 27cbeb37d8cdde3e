"""Shared result type for all solvers, and the label sweep solvers' report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import INF, CctoInstance, _label_sweep, distinct_vertices, validate_walk, walk_back


@dataclass
class SolveResult:
    """What a solver reports for one instance.

    optimal_cost is the minimum cost over qualifying walks regardless of the
    budget (INF when no walk qualifies at any budget); feasible compares it
    against the instance budget. witness, when present, is a qualifying walk
    of exactly optimal_cost. Randomized solvers may report a verified upper
    bound instead of the true optimum and say so in stats.
    """

    feasible: bool
    optimal_cost: object
    witness: Optional[list] = None
    solver: str = ""
    stats: dict = field(default_factory=dict)


def _sweep_solve(graph, start, step, accept, budget, solver, **stats):
    """Sweep from `start` and report the cheapest state `accept` takes (the
    smallest such state on ties) with its witness, and `states`, the number
    of labels settled, ahead of `stats`."""
    labels, parent = _label_sweep(graph, start, step)
    accepted = ((cost, state) for state, cost in labels.items() if accept(state))
    best, state = min(accepted, default=(INF, None))
    return SolveResult(
        feasible=best <= budget,
        optimal_cost=best,
        witness=None if state is None else walk_back(parent, state, start),
        solver=solver,
        stats={"states": len(labels), **stats},
    )


def budget_precheck(instance: CctoInstance):
    """Settle an instance on the budget alone, or return None.

    Any walk through k distinct vertices makes at least k - 1 moves, each of
    cost at least 1, so k > budget + 1 is infeasible before any search. The
    returned result carries no optimal_cost (only a lower bound in stats)
    because nothing was solved.
    """
    if instance.k > instance.budget + 1:
        return SolveResult(
            feasible=False,
            optimal_cost=None,
            solver="precheck",
            stats={"lower_bound": instance.k - 1},
        )
    return None


def verify_result(instance: CctoInstance, result: SolveResult) -> None:
    """Raise ValueError unless `result` is internally consistent for `instance`.

    Checks the feasible/optimal_cost/budget relation and, when a witness is
    present, that it validates, runs source to sink, visits at least k
    distinct vertices, and costs exactly optimal_cost. optimal_cost may be
    None only for infeasible answers justified by a stats lower_bound.
    """
    if result.optimal_cost is None:
        bound = result.stats.get("lower_bound")
        if result.feasible or bound is None or bound <= instance.budget:
            raise ValueError("missing optimal_cost without a justifying lower bound")
        if result.witness is not None:
            raise ValueError("witness attached to a result with no optimal_cost")
        return
    if result.feasible != (result.optimal_cost <= instance.budget):
        raise ValueError(
            f"feasible={result.feasible} disagrees with cost {result.optimal_cost} "
            f"vs budget {instance.budget}"
        )
    if result.feasible and result.witness is None:
        raise ValueError("feasible result without a witness")
    if result.witness is not None:
        walk = result.witness
        report = validate_walk(instance.graph, walk, instance.source)
        if not report.ok:
            raise ValueError(f"witness invalid at step {report.step_index}: {report.reason}")
        end = walk[-1][1] if walk else instance.source
        if end != instance.sink:
            raise ValueError(f"witness ends at {end}, sink is {instance.sink}")
        if distinct_vertices(walk, instance.source) < instance.k:
            raise ValueError("witness visits fewer than k distinct vertices")
        cost = sum(instance.graph.cost(*step) for step in walk)
        if cost != result.optimal_cost:
            raise ValueError(f"witness cost {cost} != reported {result.optimal_cost}")
    elif result.optimal_cost != INF:
        raise ValueError("finite optimal_cost without a witness")
