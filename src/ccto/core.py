"""Temporal cost graphs, valid walks, and problem instances.

A temporal cost graph on vertices 0..n-1 assigns a fuel cost to every
quadruple (from, to, depart, arrive) over the time domain {0, ..., T}.
Only finitely many quadruples carry a finite positive cost; these are
stored explicitly and everything else follows the defaults: waiting at
a vertex is free (cost 0 whenever depart < arrive), and any other
movement, including travel backwards in time, is impossible (Infinite).

Graphs are immutable after construction and safe to share between
threads; all query methods are pure.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

INF = math.inf

# Largest cost accepted on a stored tuple. Sums of stored costs may exceed
# this (Python ints do not wrap); the bound only guards serialized inputs.
COST_MAX = 2**64 - 1

# One movement of a walk: (from, to, depart, arrive). Waiting steps have
# from == to; stored graph tuples always have from != to.
Step = tuple[int, int, int, int]
Walk = list  # list[Step]


class NotApplicableError(ValueError):
    """A specialized solver's structural precondition does not hold."""


class CapabilityError(RuntimeError):
    """An instance exceeds a configured size cap (a solver's, or the file vertex cap)."""


def _holds(check, *args) -> bool:
    """Whether `check(*args)` passes; a refusal or an unknown edge fails it."""
    try:
        check(*args)
    except (NotApplicableError, CapabilityError, ValueError):
        return False
    return True


def tuple_problem(item: tuple, n: int, stored) -> Optional[str]:
    """Why `item` cannot join a graph on n vertices that already stores the
    (from, to, depart, arrive) keys in `stored`; None if it can."""
    u, v, depart, arrive, cost = item
    if not (type(u) is type(v) is type(depart) is type(arrive) is type(cost) is int):
        return f"non-integer field in tuple {item!r}"
    if not (0 <= u < n and 0 <= v < n):
        return f"vertex out of range in tuple {item!r}"
    if u == v:
        return f"self-loop tuple {item!r}; waiting is implicit"
    if not 0 <= depart < arrive:
        return f"need 0 <= depart < arrive in tuple {item!r}"
    if cost < 1:
        return f"cost must be positive in tuple {item!r}"
    if cost > COST_MAX:
        return f"cost must be at most 2^64-1 in tuple {item!r}"
    if (u, v, depart, arrive) in stored:
        return f"duplicate tuple key {(u, v, depart, arrive)}"
    return None


class _GraphIndex(NamedTuple):
    """Every per-graph fact besides the stored moves, built in one pass."""

    edges: frozenset  # (min_id, max_id) pairs: the keys of `traversal`
    lifetime: int  # latest stored arrival time, 0 without tuples
    events: int  # time 0 plus each distinct stored arrival time
    intervals: dict  # vertex -> (first arrival, last departure), where not empty
    incidence: list  # stored tuples touching each vertex, indexed by vertex
    adjacency: list  # list[set[int]], indexed by vertex
    traversal: dict  # (min_id, max_id) -> max traversal number
    connected: bool


class TemporalCostGraph:
    """Finite set of costed movement tuples over a common vertex set.

    Each tuple is validated once, here, in the same pass that stores it;
    the constructor keeps only the cost of each tuple and each vertex's
    moves in departure order. Every other per-graph fact (`edges`,
    `lifetime`, `live_intervals`, `traversal_numbers`, adjacency,
    connectivity, event and incidence counts) comes from one index built
    from the stored tuples on first use, so construction pays nothing for
    it. Filling that index is the one internal write after construction:
    it is idempotent, and two threads racing on it each build an equal
    index and store it with one attribute assignment, so sharing a graph
    between threads stays safe.

    Args:
        n: number of vertices (ids 0..n-1).
        tuples: iterable of (from, to, depart, arrive, cost) with
            from != to, 0 <= depart < arrive, and 1 <= cost <= COST_MAX.
        names: optional mapping from vertex id to display name; an instance
            file splits a name on whitespace and cuts it at '#'.

    Raises:
        ValueError: on malformed or duplicate tuples, with the reason from
            `tuple_problem`, and on a name that a file cannot carry.
    """

    __slots__ = ("n", "names", "_cost", "_by_source", "_index")

    def __init__(self, n: int, tuples: Iterable[tuple], names: Optional[dict] = None):
        if type(n) is not int or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        self.n = n
        self.names = dict(names) if names else {}
        for vid, name in self.names.items():
            self._check_vertex(vid)
            if not (isinstance(name, str) and name and "#" not in name
                    and name == " ".join(name.split())):
                raise ValueError(f"vertex {vid} name {name!r} cannot be written to a file")
        cost_map: dict[tuple[int, int, int, int], int] = {}
        by_source: dict[int, list[tuple[int, int, int, int]]] = defaultdict(list)
        for item in tuples:
            u, v, depart, arrive, cost = item
            key = (u, v, depart, arrive)
            # type(), not isinstance(): bool subclasses int. The type test
            # comes first so that the comparisons only ever see ints.
            if not (
                type(u) is type(v) is type(depart) is type(arrive) is type(cost) is int
                and 0 <= u < n and 0 <= v < n and u != v and 0 <= depart < arrive
                and 1 <= cost <= COST_MAX and key not in cost_map
            ):
                raise ValueError(tuple_problem(item, n, cost_map))
            cost_map[key] = cost
            by_source[u].append((depart, arrive, v, cost))
        for moves in by_source.values():
            moves.sort()
        self._cost = cost_map
        self._by_source = dict(by_source)  # a plain dict: lookups never insert
        self._index = None

    def _check_vertex(self, v) -> None:
        if type(v) is not int or not (0 <= v < self.n):
            raise ValueError(f"vertex id {v!r} out of range [0, {self.n})")

    def cost(self, u: int, v: int, depart: int, arrive: int):
        """Cost of moving from u to v departing/arriving at the given times.

        Returns 0 for waiting (u == v, depart < arrive), the stored cost for
        a stored tuple, and INF otherwise. Vertex ids are checked; times may
        be any integers (out-of-order times are simply Infinite).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if depart >= arrive:
            return INF
        if u == v:
            return 0
        return self._cost.get((u, v, depart, arrive), INF)

    def tuples(self) -> Iterator[tuple[int, int, int, int, int]]:
        """Stored tuples as (from, to, depart, arrive, cost), sorted."""
        for key in sorted(self._cost):
            yield key + (self._cost[key],)

    def tuple_count(self) -> int:
        return len(self._cost)

    def moves_from(self, u: int) -> list[tuple[int, int, int, int]]:
        """Stored tuples leaving u, as (depart, arrive, to, cost), sorted."""
        return self._by_source.get(u, [])

    @property
    def edges(self) -> frozenset:
        """Underlying static edges as (min_id, max_id) pairs."""
        return self._graph_index().edges

    @property
    def lifetime(self) -> int:
        """Latest stored arrival time; 0 without tuples."""
        return self._graph_index().lifetime

    def live_intervals(self) -> Mapping:
        """Read-only map from each vertex that sits in some vitw bag to its
        (first arrival, last departure), both inclusive."""
        return MappingProxyType(self._graph_index().intervals)

    def _graph_index(self) -> _GraphIndex:
        index = self._index
        if index is None:
            index = self._index = self._build_index()
        return index

    def _build_index(self) -> _GraphIndex:
        # Activity selection on every edge at once: time pairs in order of
        # arrival, each taken when it departs no earlier than the last pair
        # taken on its edge arrived. A pair stored in both directions is
        # taken at most once, because its second copy departs before the
        # first one arrives. Every edge takes its first pair, so the taken
        # counts are keyed by exactly the edges.
        traversal: dict[tuple[int, int], int] = {}
        frontier: dict[tuple[int, int], int] = {}
        first_arrival: dict[int, int] = {}
        incidence = [len(self._by_source.get(u, ())) for u in range(self.n)]
        events, last = 1, 0  # time 0, then each distinct arrival (all >= 1)
        for u, v, depart, arrive in sorted(self._cost, key=itemgetter(3, 2)):
            if arrive != last:
                events, last = events + 1, arrive
            first_arrival.setdefault(v, arrive)
            incidence[v] += 1
            edge = (u, v) if u < v else (v, u)
            if depart >= frontier.get(edge, -1):
                traversal[edge] = traversal.get(edge, 0) + 1
                frontier[edge] = arrive
        intervals = {}
        for v, start in first_arrival.items():
            moves = self._by_source.get(v)
            if moves and start <= moves[-1][0]:  # the last move departs latest
                intervals[v] = (start, moves[-1][0])
        adjacency = [set() for _ in range(self.n)]
        for u, v in traversal:
            adjacency[u].add(v)
            adjacency[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        connected = len(seen) == self.n
        return _GraphIndex(
            frozenset(traversal), last, events, intervals, incidence, adjacency, traversal, connected
        )

    def neighbors(self, u: int) -> set:
        self._check_vertex(u)
        return set(self._graph_index().adjacency[u])

    def is_connected(self) -> bool:
        """Connectivity of the underlying static graph (informational)."""
        return self._graph_index().connected

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1 and self.is_connected()

    def traversal_numbers(self) -> Mapping:
        """Read-only map from every edge (min_id, max_id) to its
        `max_traversal_number`."""
        return MappingProxyType(self._graph_index().traversal)

    def max_traversal_number(self, u: int, v: int) -> int:
        """Longest chain of usable time pairs on the edge {u, v}.

        A time pair (t1, t2) is usable if either direction of the edge has a
        stored tuple at those times; a chain requires each pair to depart no
        earlier than the previous pair arrives. Computed greedily over pairs
        sorted by arrival (classic activity selection).

        Raises:
            ValueError: if {u, v} is not an edge of the graph.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        number = self._graph_index().traversal.get((u, v) if u < v else (v, u))
        if number is None:
            raise ValueError(f"{{{u}, {v}}} is not an edge of the graph")
        return number


@dataclass(frozen=True)
class WalkReport:
    """Outcome of validating a walk; `step_index` locates the first failure."""

    ok: bool
    reason: Optional[str] = None
    step_index: Optional[int] = None


def validate_walk(graph: TemporalCostGraph, walk: list, anchor: int) -> WalkReport:
    """Check that `walk` is a valid walk of `graph` starting at `anchor`.

    A valid walk is a sequence of steps (from, to, depart, arrive) where each
    step has finite cost under the graph's accessor, consecutive steps chain
    on vertices (to == next from) and times (arrive <= next depart), and the
    first step leaves the anchor. The empty walk is valid at any anchor.
    """
    graph._check_vertex(anchor)
    previous = None
    for index, step in enumerate(walk):
        if len(step) != 4:
            return WalkReport(False, f"step {step!r} is not a quadruple", index)
        u, v, depart, arrive = step
        try:
            step_cost = graph.cost(u, v, depart, arrive)
        except ValueError as exc:
            return WalkReport(False, str(exc), index)
        if depart >= arrive:
            return WalkReport(False, f"step {step!r} does not advance time", index)
        if step_cost == INF:
            return WalkReport(False, f"step {step!r} has infinite cost", index)
        if previous is None:
            if u != anchor:
                return WalkReport(False, f"first step leaves {u}, anchor is {anchor}", index)
        else:
            if u != previous[1]:
                return WalkReport(False, f"step {step!r} does not chain on vertex {previous[1]}", index)
            if depart < previous[3]:
                return WalkReport(False, f"step {step!r} departs before arrival at {previous[3]}", index)
        previous = step
    return WalkReport(True)


def walk_cost(graph: TemporalCostGraph, walk: list):
    """Total cost of a valid walk (0 for the empty walk).

    Raises:
        ValueError: if the walk does not validate from its own first vertex.
    """
    if not walk:
        return 0
    report = validate_walk(graph, walk, walk[0][0])
    if not report.ok:
        raise ValueError(f"invalid walk at step {report.step_index}: {report.reason}")
    return sum(graph.cost(*step) for step in walk)


def _label_sweep(graph, start, step):
    """Settle min-cost labels over time-layered states.

    States are tuples starting (vertex, arrival_time, ...); `step` maps a
    settled state and a stored move (depart, arrive, to, cost) to the next
    state, or None to drop the transition. Every move strictly increases
    time, so settling arrival times in ascending order settles everything;
    a heap holds the arrival times that occur, so the sweep never visits an
    empty time. Sorted iteration and strict improvement keep backpointers
    deterministic.
    """
    labels = {start: 0}
    parent = {}
    by_time = {start[1]: {start}}
    pending = [start[1]]
    while pending:
        t = heapq.heappop(pending)
        for state in sorted(by_time.pop(t)):
            base = labels[state]
            v = state[0]
            for move in graph.moves_from(v):
                if move[0] < t:
                    continue
                nxt = step(state, move)
                if nxt is None:
                    continue
                candidate = base + move[3]
                if candidate < labels.get(nxt, INF):
                    labels[nxt] = candidate
                    parent[nxt] = (state, (v, move[2], move[0], move[1]))
                    bucket = by_time.get(move[1])
                    if bucket is None:
                        bucket = by_time[move[1]] = set()
                        heapq.heappush(pending, move[1])
                    bucket.add(nxt)
    return labels, parent


def walk_back(parent: dict, state, start) -> list:
    """Steps from `start` to `state` in walk order, following entries
    `parent[s] = (previous state, step)`; a None step (a wait) adds none."""
    steps = []
    while state != start:
        state, step = parent[state]
        if step is not None:
            steps.append(step)
    steps.reverse()
    return steps


def walks_between(graph: TemporalCostGraph, source: int, sink: int) -> TemporalCostGraph:
    """The graph of the stored tuples that lie on some walk leaving `source`
    at time 0 or later and ending at `sink`.

    A tuple (u, v, depart, arrive) lies on one exactly when the earliest
    arrival at u is at most `depart` and `arrive` is at most the latest time
    v can still depart and reach the sink (any time, at the sink itself):
    waiting is free on both sides of it. One pass in departure order
    settles the earliest arrivals, since a tuple only follows tuples that
    arrive by its departure and so depart before it; one pass in descending
    arrival order settles the latest departures the same way.
    """
    earliest = [INF] * graph.n
    earliest[source] = 0
    for u, v, depart, arrive in sorted(graph._cost, key=itemgetter(2)):
        if earliest[u] <= depart and arrive < earliest[v]:
            earliest[v] = arrive
    latest = [-1] * graph.n
    latest[sink] = INF
    for u, v, depart, arrive in sorted(graph._cost, key=itemgetter(3), reverse=True):
        if arrive <= latest[v] and depart > latest[u]:
            latest[u] = depart
    # The kept moves are valid and in order already, so they fill an empty
    # graph's maps directly instead of passing the constructor's checks.
    pruned = TemporalCostGraph(graph.n, (), graph.names)
    for u, moves in graph._by_source.items():
        kept = [move for move in moves if earliest[u] <= move[0] and move[1] <= latest[move[2]]]
        if kept:
            pruned._by_source[u] = kept
            pruned._cost.update(((u, v, depart, arrive), cost) for depart, arrive, v, cost in kept)
    return pruned


def distinct_vertices(walk: list, anchor: int) -> int:
    """Number of distinct vertices visited: anchor plus endpoints of moves."""
    seen = {anchor}
    for u, v, _, _ in walk:
        if u != v:
            seen.add(u)
            seen.add(v)
    return len(seen)


@dataclass(frozen=True)
class CctoInstance:
    """A temporal orienteering query against a temporal cost graph.

    Asks for a walk from source to sink that visits at least k distinct
    vertices (source and sink are counted) at total cost at most budget.
    """

    graph: TemporalCostGraph
    source: int
    sink: int
    k: int
    budget: int

    def __post_init__(self):
        self.graph._check_vertex(self.source)
        self.graph._check_vertex(self.sink)
        # k above n is allowed and simply infeasible; queries like "visit 5
        # distinct vertices of a 3-vertex graph" must be representable.
        if type(self.k) is not int or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if type(self.budget) is not int or self.budget < 0:
            raise ValueError(f"budget must be a non-negative integer, got {self.budget!r}")
