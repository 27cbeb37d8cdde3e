"""Exact solvers exploiting tree shape or tuple sparsity.

Three label DPs over (vertex, time, bookkeeping) states, each polynomial
where the general problem is hard because structure limits how often a walk
can re-enter territory it has already counted:

- solve_tree_closed: closed walks on a tree whose edges all admit at most
  three traversals. A closed tree walk crosses each edge an even number of
  times, so at most twice, so arcs pointing away from the source are exactly
  the first visits and a saturating counter suffices.
- solve_subforest: open or closed walks on a tree where edges crossable more
  than three times form a designated subforest. Subforest edges carry
  per-path high-water marks that admit increments only for genuinely new
  vertices; the remaining edges use +1/-1 bookkeeping that nets exactly one
  increment per used edge.
- solve_sparse_triples: any graph where each vertex touches at most three
  stored tuples, which caps every vertex (bar the endpoints, handled
  specially) at a single visit.

All report the budget-independent optimal cost with a witness walk and raise
NotApplicableError when their structural precondition fails.
"""

from __future__ import annotations

import math
from collections import deque

from .core import CctoInstance, NotApplicableError, TemporalCostGraph, _holds
from .result import SolveResult, _sweep_solve

MAX_SUBFOREST_PATHS = 4


def _tree_parents(graph: TemporalCostGraph, root: int) -> dict:
    """Parent map of the tree rooted at `root` (the root maps to None), in
    breadth-first order, so every vertex comes after its parent."""
    graph._check_vertex(root)
    adjacency = graph._graph_index().adjacency
    parent = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def _require_tree(graph):
    if not graph.is_tree():
        raise NotApplicableError("the underlying graph is not a tree")


def _check_traversals(numbers, what):
    """Raise for the smallest edge of `numbers` (edge -> traversal
    number) admitting more than three traversals."""
    if numbers and max(numbers.values()) > 3:
        u, v = min(edge for edge, number in numbers.items() if number > 3)
        raise NotApplicableError(
            f"edge ({u}, {v}){what} admits {numbers[u, v]} traversals, more than 3"
        )


def _check_tree_closed(instance: CctoInstance):
    _require_tree(instance.graph)
    if instance.source != instance.sink:
        raise NotApplicableError("closed-walk solver needs source = sink")
    _check_traversals(instance.graph.traversal_numbers(), "")


def tree_closed_applicable(instance: CctoInstance) -> bool:
    return _holds(_check_tree_closed, instance)


def solve_tree_closed(instance: CctoInstance) -> SolveResult:
    """Closed tree walks with all traversal numbers at most 3.

    A walk from the source back to itself crosses each tree edge an even
    number of times, hence at most twice here: once away from the source,
    once back. Away arcs therefore enter each vertex at most once and are
    the exact moments a new vertex is counted. The counter starts at 1 (the
    source itself is counted) and saturates at k.
    """
    _check_tree_closed(instance)
    graph, k = instance.graph, instance.k
    parent = _tree_parents(graph, instance.source)
    start = (instance.source, 0, 1)

    def step(state, move):
        v, _, count = state
        _, arrive, w, _cost = move
        if parent.get(w) == v:
            return (w, arrive, min(count + 1, k))
        return (w, arrive, count)

    return _sweep_solve(
        graph,
        start,
        step,
        lambda s: s[0] == instance.source and s[2] == k,
        instance.budget,
        "tree_closed",
        state_space=graph.n * graph._graph_index().events * (k + 1),
    )


def partition_forest_paths(graph: TemporalCostGraph, subforest, source: int):
    """Split subforest edges into vertex paths, each ending at a leaf.

    Rooted at the source, each connected piece of the subforest is a
    subtree: its top is the one vertex whose edge up is not a subforest
    edge, and every other vertex hangs below its tree parent. Pieces come in
    order of their smallest vertex. Leaves (piece vertices with no subforest
    edge down) are processed in vertex-id order; each walks up toward the
    top until it meets an already covered edge or the top, producing one
    path written top-first. Every subforest edge lands in exactly one path;
    the first vertex of a path may be shared with an earlier one.
    """
    _require_tree(graph)
    for u, v in subforest:
        edge = (min(u, v), max(u, v))
        if edge not in graph.edges:
            raise ValueError(f"subforest edge {edge} is not an edge of the graph")
    parent = _tree_parents(graph, source)
    # Vertices whose edge up to their tree parent is a subforest edge.
    lower = {v if parent[v] == u else u for u, v in subforest}
    top, pieces = {}, {}
    for v, up in parent.items():
        top[v] = top[up] if v in lower else v
        if v in lower:
            pieces.setdefault(top[v], []).append(v)
    paths = []
    for root in sorted(pieces, key=lambda r: min(r, *pieces[r])):
        below = pieces[root]
        covered = set()  # the lower vertex of each covered edge
        for leaf in sorted(set(below) - {parent[v] for v in below}):
            chain = [leaf]
            while chain[-1] != root and chain[-1] not in covered:
                covered.add(chain[-1])
                chain.append(parent[chain[-1]])
            chain.reverse()
            paths.append(chain)
        if len(covered) != len(below):
            raise AssertionError("leaf paths failed to cover the component")
    return paths


def _subforest_paths(instance, subforest, max_paths):
    """Leaf paths of `subforest` from the source, once the subforest
    solver's preconditions hold: a tree, at most `max_paths` paths, and
    traversal number at most 3 on every edge outside the subforest."""
    edges = {(min(u, v), max(u, v)) for u, v in subforest}
    paths = partition_forest_paths(instance.graph, edges, instance.source)
    if len(paths) > max_paths:
        raise NotApplicableError(
            f"subforest has {len(paths)} leaf paths, cap is {max_paths}"
        )
    numbers = instance.graph.traversal_numbers()
    _check_traversals(
        {edge: numbers[edge] for edge in numbers if edge not in edges},
        " outside the subforest",
    )
    return paths


def subforest_applicable(instance, subforest=(), max_paths=MAX_SUBFOREST_PATHS):
    return _holds(_subforest_paths, instance, subforest, max_paths)


def solve_subforest(
    instance: CctoInstance, subforest=(), max_paths=MAX_SUBFOREST_PATHS
) -> SolveResult:
    """Tree walks where only the subforest edges may be crossed freely.

    Every edge outside the subforest needs a traversal number of at most 3.
    Used non-subforest edges then follow forced crossing patterns (pairs
    away-then-toward off the source-sink path; toward or
    toward-away-toward on it), so counting +1 on arrivals toward the sink
    and -1 on path arrivals away from it nets exactly one new vertex per
    used edge. Subforest edges may be recrossed arbitrarily often, so each
    decomposition path carries a high-water mark of its deepest visited
    position and only arrivals beyond the mark count as new. The counter
    starts at 1 for the source and saturates at k; every transient dip is
    repaid before the walk can reach the sink, so accepting states with
    counter exactly k at the sink is exact.
    """
    paths = _subforest_paths(instance, subforest, max_paths)
    graph, k = instance.graph, instance.k

    position = []
    edge_path = {}
    for j, path in enumerate(paths):
        position.append({v: i + 1 for i, v in enumerate(path)})
        for a, b in zip(path, path[1:]):
            edge_path[(min(a, b), max(a, b))] = j

    toward_sink = _tree_parents(graph, instance.sink)
    anchor_edges = set()
    v = instance.source
    while v != instance.sink:
        up = toward_sink[v]
        anchor_edges.add((min(v, up), max(v, up)))
        v = up

    start = (instance.source, 0, 1, (0,) * len(paths))

    def step(state, move):
        v, _, q, marks = state
        _, arrive, w, _cost = move
        edge = (v, w) if v < w else (w, v)
        j = edge_path.get(edge)
        if j is not None:
            pos = position[j][w]
            fresh = pos > marks[j]
            q2 = min(q + 1, k) if fresh else q
            if pos >= 2 and pos > marks[j]:
                marks = marks[:j] + (pos,) + marks[j + 1 :]
            return (w, arrive, q2, marks)
        if toward_sink.get(v) == w:
            return (w, arrive, min(q + 1, k), marks)
        q2 = q - 1 if edge in anchor_edges else q
        if q2 < 0:
            return None
        return (w, arrive, q2, marks)

    return _sweep_solve(
        graph,
        start,
        step,
        lambda s: s[0] == instance.sink and s[2] == k,
        instance.budget,
        "subforest",
        paths=len(paths),
        state_space=graph.n * graph._graph_index().events * (k + 1) * math.prod(map(len, paths)),
    )


def _check_sparse_triples(graph: TemporalCostGraph):
    for vertex, count in enumerate(graph._graph_index().incidence):
        if count > 3:
            label = graph.names.get(vertex, str(vertex))
            raise NotApplicableError(
                f"vertex {label} participates in {count} stored tuples, more than 3"
            )


def sparse_triples_applicable(graph: TemporalCostGraph) -> bool:
    return _holds(_check_sparse_triples, graph)


def solve_sparse_triples(instance: CctoInstance) -> SolveResult:
    """Any graph where each vertex touches at most three stored tuples.

    A walk uses each stored tuple at most once (departure times strictly
    increase), so a mid-walk visit consumes two of a vertex's three tuple
    slots: interior vertices are visited at most once and every arrival at
    one counts a new vertex. The endpoints get special treatment — with
    three slots the source can be left, re-entered and left again, and the
    sink entered, left and re-entered — so arrivals at the source never
    count (it is pre-counted) and arrivals at the sink count once, tracked
    by a flag.
    """
    _check_sparse_triples(instance.graph)
    graph, k = instance.graph, instance.k
    source, sink = instance.source, instance.sink
    # A closed walk's sink is the source, already counted: it starts seen.
    start = (source, 0, 1, source == sink)

    def step(state, move):
        _, arrive, w, _cost = move
        count, seen = state[2], state[3]
        if w == sink and not seen:
            return (w, arrive, min(count + 1, k), True)
        if w in (source, sink):
            return (w, arrive, count, seen)
        return (w, arrive, min(count + 1, k), seen)

    return _sweep_solve(
        graph,
        start,
        step,
        lambda s: s[0] == sink and s[2] == k,
        instance.budget,
        "sparse_triples",
        state_space=graph.n * graph._graph_index().events * (k + 1) * 2,  # 2: the seen flag
    )
