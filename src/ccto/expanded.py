"""Time-expanded view of a temporal cost graph.

Each (vertex, time) pair becomes a node; every stored tuple becomes one
weighted arc, and unit waiting arcs (v, t) -> (v, t+1) of weight 0 make
slack explicit. All arcs advance time, so the graph is a DAG and a single
time-ordered sweep computes min-cost paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import INF, TemporalCostGraph, walk_back


@dataclass
class ExpandedGraph:
    """DAG over (vertex, time) nodes, arcs grouped by departure time.

    arcs_by_time maps a departure time t to a list of (u, v, arrive, weight)
    entries for arcs (u, t) -> (v, arrive). Waiting arcs carry weight 0 and
    u == v; movement arcs mirror stored tuples.
    """

    n: int
    horizon: int
    arcs_by_time: dict

    @property
    def vertex_count(self) -> int:
        return self.n * (self.horizon + 1)

    @property
    def arc_count(self) -> int:
        return sum(len(arcs) for arcs in self.arcs_by_time.values())

    def check_node(self, node) -> None:
        v, t = node
        if not (0 <= v < self.n and 0 <= t <= self.horizon):
            raise ValueError(f"node {node!r} outside the expanded graph")


def build_time_expanded(graph: TemporalCostGraph) -> ExpandedGraph:
    """Materialize the expanded DAG of `graph` over times 0..lifetime."""
    horizon = graph.lifetime
    arcs_by_time: dict[int, list] = {t: [] for t in range(horizon + 1)}
    for u, v, depart, arrive, cost in graph.tuples():
        arcs_by_time[depart].append((u, v, arrive, cost))
    for t in range(horizon):
        for v in range(graph.n):
            arcs_by_time[t].append((v, v, t + 1, 0))
    return ExpandedGraph(graph.n, horizon, arcs_by_time)


def dag_min_cost_path(expanded: ExpandedGraph, source, target):
    """Min-cost path between two (vertex, time) nodes of the expanded DAG.

    Returns (cost, walk) where walk lists the movement steps of one optimal
    path (waiting arcs are left implicit), or (INF, None) when the target is
    unreachable. Single forward sweep in time order; ties keep the first
    predecessor in scan order, so output is deterministic.
    """
    expanded.check_node(source)
    expanded.check_node(target)
    dist = {source: 0}
    pred: dict = {}
    for t in range(source[1], target[1] + 1):
        for u, v, arrive, weight in expanded.arcs_by_time.get(t, ()):
            here = dist.get((u, t), INF)
            if here == INF or arrive > target[1]:
                continue
            candidate = here + weight
            if candidate < dist.get((v, arrive), INF):
                dist[(v, arrive)] = candidate
                pred[(v, arrive)] = ((u, t), (u, v, t, arrive) if u != v else None)
    if target not in dist:
        return INF, None
    return dist[target], walk_back(pred, target, source)


def export_arcs(expanded: ExpandedGraph):
    """Yield one 'u t_depart v t_arrive weight' line per arc, sorted."""
    for t in sorted(expanded.arcs_by_time):
        for u, v, arrive, weight in sorted(expanded.arcs_by_time[t]):
            yield f"{u} {t} {v} {arrive} {weight}"
