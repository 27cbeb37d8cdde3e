"""Interval bags over time and the width-parameterized solver.

A vertex belongs to the bag at time t when it has some arrival at or before
t and some departure at or after t; such membership forms one contiguous
interval, so a vertex leaves the bag sequence at most once. The solver walks
the bags in order keeping, per (current vertex, count of visited vertices
already out of scope, visited subset of the current bag), only the minimum
fuel — small bags mean few states regardless of the lifetime. Like the
oracle and colour coding, it works on `core.walks_between`'s graph, so
tuples on no source -> sink walk widen no bag and lengthen no time axis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import INF, CapabilityError, CctoInstance, TemporalCostGraph, walk_back, walks_between
from .result import SolveResult

MAX_BAG_WIDTH = 12
# The solver steps through every time unit of the shifted horizon and keeps
# parents per step, so it refuses axes longer than this.
MAX_VITW_HORIZON = 20_000


@dataclass
class VitwSequence:
    """Per-time vertex bags (index 0..lifetime) and their maximum size."""

    bags: list
    width: int


def vitw_sequence(graph: TemporalCostGraph) -> VitwSequence:
    """Bags H_t = vertices with an arrival <= t and a departure >= t.

    Vertices missing either side appear in no bag; otherwise membership is
    exactly the interval [earliest arrival, latest departure].
    """
    bags = [set() for _ in range(graph.lifetime + 1)]
    for v, (start, stop) in graph.live_intervals().items():
        for t in range(start, stop + 1):
            bags[t].add(v)
    frozen = [frozenset(bag) for bag in bags]
    return VitwSequence(frozen, max((len(b) for b in frozen), default=0))


def bag_width(graph: TemporalCostGraph) -> int:
    """`vitw_sequence(graph).width` from one sweep over the sorted ends of
    `graph.live_intervals()`, whatever the lifetime."""
    # At equal times a vertex leaving (-1) sorts before one arriving.
    events = sorted(
        end for start, stop in graph.live_intervals().values()
        for end in ((start, 1), (stop + 1, -1))
    )
    width = live = 0
    for _, delta in events:
        live += delta
        width = max(width, live)
    return width


def vitw_window(instance: CctoInstance):
    """(graph, first, width) that `solve_vitw` works on: the graph of the
    tuples on some source -> sink walk, from `walks_between`, the first
    departure from the source in it (1 when it is empty) and its bag width.

    Every tuple outside that graph is unusable. Its lifetime is the last
    arrival at the sink, so the horizon runs from one time unit before the
    first departure to there. Both caps are checked from vertex intervals,
    before any per-time bag.
    """
    work = walks_between(instance.graph, instance.source, instance.sink)
    source_departs = work.moves_from(instance.source)
    first = source_departs[0][0] if source_departs else 1
    width = bag_width(work)
    if width > MAX_BAG_WIDTH:
        raise CapabilityError(f"bag width {width} exceeds the cap {MAX_BAG_WIDTH}")
    horizon = work.lifetime + 1 - first
    if horizon > MAX_VITW_HORIZON:
        raise CapabilityError(
            f"shifted horizon {horizon} exceeds the time-unit cap {MAX_VITW_HORIZON}"
        )
    return work, first, width


def solve_vitw(instance: CctoInstance) -> SolveResult:
    """Bag-sequence dynamic program; exact for any instance, fast when the
    bag width is small.

    It steps through every time unit of `vitw_window`'s graph, from one
    before the first source departure to the last arrival at the sink; the
    bag of time t sits at index t + shift. Each bag is a bit mask built from
    `live_intervals()`, with the source and sink kept in every bag: the
    source is live before any arrival and the sink must stay addressable
    after its last departure, while every other vertex is only ever
    occupied inside its own interval. The reported width follows the
    two-sided definition unchanged. On an empty window the one step holds
    only the start state, which is an answer exactly when source = sink and
    k = 1: the one-vertex closed walk, which stays put for free.

    States map (vertex, forgotten-visited count capped at k, visited subset
    of the current bag) to minimum fuel, one state per key, so the optimal
    cost is independent of the budget; the budget decides feasibility only.
    A state that enters a bag, by waiting or by a move, moves each visited
    vertex outside it into the forgotten count.
    """
    source, sink, k = instance.source, instance.sink, instance.k
    work, first, width = vitw_window(instance)
    shift = 1 - first
    horizon = work.lifetime + shift
    bag_masks = [(1 << source) | (1 << sink)] * (horizon + 1)
    for v, (start, stop) in work.live_intervals().items():
        for t in range(start + shift, stop + shift + 1):
            bag_masks[t] |= 1 << v
    width_eff = max(mask.bit_count() for mask in bag_masks)

    def enter(before, mask, bag):
        """(forgotten count, visited subset) of a state entering `bag`."""
        return min(k, before + (mask & ~bag).bit_count()), mask & bag

    moves_at: dict = {}
    for u, v, depart, arrive, cost in work.tuples():
        moves_at.setdefault((u, depart), []).append((arrive, v, cost))

    start_key = (source, 0, 1 << source)
    current = {start_key: 0}
    parents: dict = {}
    staged: dict[int, list] = {}
    best, best_at = INF, None
    max_live = 0
    total_states = 0

    for t in range(first - 1, work.lifetime + 1):
        if t >= first:
            bag = bag_masks[t + shift]
            merged = {}
            for key in sorted(current):
                v, before, mask = key
                if not (bag >> v) & 1:
                    continue
                key2 = (v, *enter(before, mask, bag))
                if current[key] < merged.get(key2, INF):
                    merged[key2] = current[key]
                    parents[(t, key2)] = ((t - 1, key), None)
            for key2, fuel, back in staged.pop(t, ()):
                if fuel < merged.get(key2, INF):
                    merged[key2] = fuel
                    parents[(t, key2)] = back
            current = merged
        max_live = max(max_live, len(current))
        total_states += len(current)
        for key in sorted(current):
            v, before, mask = key
            fuel = current[key]
            if v == sink and before + mask.bit_count() >= k:
                if fuel < best:
                    best, best_at = fuel, (t, key)
            for arrive, w, cost in moves_at.get((v, t), ()):
                bag = bag_masks[arrive + shift]
                if not (bag >> w) & 1:
                    continue
                forgotten, kept = enter(before, mask, bag)
                key2 = (w, forgotten, kept | (1 << w))
                staged.setdefault(arrive, []).append(
                    (key2, fuel + cost, ((t, key), (v, w, t, arrive)))
                )

    witness = None if best_at is None else walk_back(parents, best_at, (first - 1, start_key))
    # Keys are (vertex in bag, forgotten count 0..k, subset of bag); fuel
    # is the value, not part of the key, so the budget does not enter.
    bound = width_eff * (k + 1) * 2**width_eff
    if max_live > bound:
        raise AssertionError(
            f"{max_live} live states exceeded the width bound {bound}"
        )
    return SolveResult(
        feasible=best <= instance.budget,
        optimal_cost=best,
        witness=witness,
        solver="vitw",
        stats={
            "width": width,
            "width_eff": width_eff,
            "shift": shift,
            "effective_lifetime": horizon,
            "max_live_states": max_live,
            "states": total_states,
            "state_bound": bound,
        },
    )
