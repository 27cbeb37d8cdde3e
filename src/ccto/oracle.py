"""Exhaustive reference solvers, trusted by everything else.

Deliberately simple: a label-setting sweep over (vertex, time, visited-set)
states on the moves that lie on a source -> sink walk, skipping a move
whose walks on to the sink cannot complete k distinct vertices, and a
memo-free DFS for pairwise min-cost walk queries. Both refuse inputs large
enough to make exhaustion dubious, judged on the whole instance graph.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .core import INF, CapabilityError, CctoInstance, TemporalCostGraph, walk_back, walks_between
from .result import SolveResult

MAX_ORACLE_VERTICES = 14
MAX_WALK_ORACLE_VERTICES = 8
MAX_WALK_ORACLE_LIFETIME = 10
# Mask of a visited set that holds k vertices; -1 has every bit set.
DONE = -1


def check_oracle_size(graph, max_vertices=MAX_ORACLE_VERTICES, max_lifetime=None):
    """Raise CapabilityError past max_vertices vertices or, if given, a
    lifetime of max_lifetime; the defaults are `solve_exact`'s caps."""
    if graph.n > max_vertices:
        raise CapabilityError(f"oracle handles at most {max_vertices} vertices, got {graph.n}")
    if max_lifetime is not None and graph.lifetime > max_lifetime:
        raise CapabilityError(f"oracle handles lifetimes to {max_lifetime}, got {graph.lifetime}")


def solve_exact(instance: CctoInstance) -> SolveResult:
    """Solve an instance by dynamic programming over visited-vertex sets.

    States are (vertex, arrival time, visited bitmask) with minimal cost;
    once the set holds k vertices its mask becomes the single `DONE`
    marker, so at most sum_{i<k} C(n-1, i) sets exist per (vertex, time)
    instead of 2^(n-1). Every transition strictly increases time, so one
    ascending sweep over time 0 and the stored arrival times settles all
    labels. Optimal cost is independent of the budget; the budget only
    decides feasibility. Deterministic: states and moves are expanded in
    sorted order and labels improve strictly.

    The cap is checked on the instance graph, then the sweep runs on
    `walks_between(graph, source, sink)`: a dropped move is never taken or
    lands where the sink is out of reach. Each kept move carries `reach`,
    the vertices on some walk from its landing on to the sink, its head
    included, and a state `need` vertices short of k skips a move with
    fewer than `need` of them outside its visited set. An accepting
    continuation visits only vertices in `reach`, and a state that passes
    the test on a move came in on a move that passed it too. So states that
    can reach an accepting one keep their labels and parents, and only
    `states` falls.
    """
    check_oracle_size(instance.graph)
    graph = walks_between(instance.graph, instance.source, instance.sink)
    k = instance.k
    moves = [graph.moves_from(v) for v in range(graph.n)]
    # reach[v][i] is moves[v][i]'s mask and suffix[v][i] ORs reach[v][i:].
    # Walks on from a move depart after it, so they are settled first.
    reach = [[0] * len(m) for m in moves]
    suffix = [[0] * (len(m) + 1) for m in moves]
    order = ((m[0], v, i) for v in range(graph.n) for i, m in enumerate(moves[v]))
    for _, v, i in sorted(order, reverse=True):
        _, arrive, w, _ = moves[v][i]
        reach[v][i] = 1 << w | suffix[w][bisect_left(moves[w], arrive, key=itemgetter(0))]
        suffix[v][i] = reach[v][i] | suffix[v][i + 1]
    start = (instance.source, 0, DONE if k == 1 else 1 << instance.source)
    labels = {start: 0}
    parent: dict = {}
    by_time: dict[int, list] = {0: [start]}
    # States only ever sit at time 0 or at a stored arrival time.
    for t in sorted({0} | {arrive for _, _, _, arrive, _ in graph.tuples()}):
        for state in sorted(by_time.pop(t, ())):
            v, _, mask = state
            base = labels[state]
            need = 0 if mask == DONE else k - mask.bit_count()
            for (depart, arrive, w, cost), ahead in zip(moves[v], reach[v]):
                if depart < t or (ahead & ~mask).bit_count() < need:
                    continue
                # DONE has every bit set, so the OR keeps it DONE.
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


def min_cost_walk_oracle(
    graph: TemporalCostGraph, u: int, v: int, t1: int, t2: int
):
    """Min cost of a walk u -> v departing exactly t1, arriving exactly t2.

    The first movement step must leave at t1 and the last must land at t2;
    waiting is free, so u == v with t1 <= t2 costs 0. Enumerates every chain
    of stored tuples by depth-first search, no memoization — this is the
    independent yardstick for the shared-subwalk tables elsewhere.
    """
    check_oracle_size(graph, MAX_WALK_ORACLE_VERTICES, MAX_WALK_ORACLE_LIFETIME)
    graph._check_vertex(u)
    graph._check_vertex(v)
    if u == v and t1 <= t2:
        return 0
    if t1 >= t2:
        return INF

    best = [INF]

    def explore(here: int, ready: int, spent: int) -> None:
        if here == v and ready == t2 and spent < best[0]:
            best[0] = spent
        for depart, arrive, w, cost in graph.moves_from(here):
            if depart >= ready and arrive <= t2:
                explore(w, arrive, spent + cost)

    for depart, arrive, w, cost in graph.moves_from(u):
        if depart == t1 and arrive <= t2:
            explore(w, arrive, cost)
    return best[0]
