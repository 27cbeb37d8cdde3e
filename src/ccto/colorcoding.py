"""Colour-coding solvers.

The pipeline: a solver for the colourful variant (visit every colour) as
one label sweep over (vertex, time, colours seen), and the full solver that
tries colourings of the inner vertices — every colouring exhaustively, or
seeded random draws with an explicit failure probability. The full solver
first drops every stored move that lies on no source -> sink walk, once per
call, so each colouring's sweep only settles states that can still reach
the sink; randomized mode draws the fewest trials that the exact chance of
a colourful walk allows.

A walk that must show all k colours visits k distinct vertices, and any
walk through k distinct vertices is colourful under some colouring that
separates those vertices, which is what makes the reduction exact.

`all_pairs_min_walk` tabulates minimum walk costs between all vertex/time
pairs, with one label sweep per (vertex, departure time). The paper's
colour-order decomposition, a dynamic program over walks whose colours
first appear in a prescribed order, is built on it and lives in
tests/test_colorcoding.py as the reference the sweep is checked against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate

from .core import (
    INF,
    CapabilityError,
    CctoInstance,
    TemporalCostGraph,
    _label_sweep,
    walk_back,
    walks_between,
)
from .result import SolveResult, _sweep_solve, verify_result

MAX_COLOURINGS = 1_000_000
DEFAULT_FAILURE_PROB = 1e-3


@dataclass
class MinWalkTable:
    """Minimum walk costs keyed by (from, to, depart, arrive).

    An entry is the cheapest valid walk whose first move departs exactly
    `depart` and whose last move arrives exactly `arrive`; quadruples with
    no finite walk are absent. Diagonal queries (u, u, t1, t2) with
    t1 <= t2 cost 0 by waiting in place and are answered without storage.
    When built with a restriction, walks may only pass through the allowed
    vertices (the two endpoints are always allowed for their own walks).
    """

    entries: dict
    _parents: dict = field(default_factory=dict, repr=False)

    def cost(self, u, v, t1, t2):
        if u == v and t1 <= t2:
            return 0
        return self.entries.get((u, v, t1, t2), INF)

    def walk(self, u, v, t1, t2):
        """Steps of a minimum walk for the quadruple ([] for diagonals)."""
        if u == v and t1 <= t2:
            return []
        if (u, v, t1, t2) not in self.entries:
            raise ValueError(f"no finite walk for {(u, v, t1, t2)}")
        return walk_back(self._parents[u, t1], (v, t2), (u, t1))


def all_pairs_min_walk(graph: TemporalCostGraph, restrict_to=None) -> MinWalkTable:
    """Minimum-cost walks between all vertex/time quadruples.

    One label sweep over (vertex, arrival time) states per source u and
    departure time t1 of a move leaving u: the start state (u, t1) takes
    only moves departing exactly t1, and every label at a vertex other than
    u is an entry. With a restriction, a state outside it (u is always
    allowed) is labelled but never expanded, so intermediate stops are
    confined while the final move may land anywhere. The work follows the
    stored tuples, not the length of the time axis.
    """
    interior = frozenset(range(graph.n) if restrict_to is None else restrict_to)
    entries: dict = {}
    parents: dict = {}
    for u in range(graph.n):
        allowed = interior | {u}
        for t1 in sorted({move[0] for move in graph.moves_from(u)}):
            start = (u, t1)

            def step(state, move):
                if state[0] not in allowed or (state == start and move[0] != t1):
                    return None
                return (move[2], move[1])

            labels, parents[start] = _label_sweep(graph, start, step)
            for (y, land), cost in labels.items():
                if y != u:
                    entries[u, y, t1, land] = cost
    return MinWalkTable(entries, parents)


def _palette(graph, source, sink, k):
    """Sorted inner vertices (all but source and sink) and the number of
    inner colours: k - 2, or k - 1 when the walk is closed."""
    inner = sorted(set(range(graph.n)) - {source, sink})
    return inner, (k - 2 if source != sink else k - 1)


def exhaustive_colouring_count(instance: CctoInstance) -> int:
    """Colourings the cap counts in exhaustive mode: palette ** inner vertices."""
    inner, palette = _palette(instance.graph, instance.source, instance.sink, instance.k)
    return max(palette, 0) ** len(inner)


def solve_colourful(graph, source, sink, k, colouring, budget) -> SolveResult:
    """Cheapest walk source -> sink showing every colour, k colours total.

    `colouring` covers exactly the inner vertices (everything but source
    and sink) with colours 1..k-2, or 1..k-1 when source = sink. One label
    sweep over (vertex, arrival time, mask of colours seen) settles it, the
    colour-subset DP of Alon, Yuster and Zwick: a move into a vertex ORs in
    its colour bit (the source and a distinct sink carry none), and a state
    at the sink accepts once its mask holds the whole palette. Revisits are
    free to carry the walk onward, so the sink may be passed mid-walk. For
    k of at most 2 with distinct endpoints (or 1 when closed) no colours
    are needed and the colouring is ignored.
    """
    inner, palette = _palette(graph, source, sink, k)
    bit = [0] * graph.n
    if palette > 0:
        if set(colouring) != set(inner):
            raise ValueError("colouring must cover exactly the inner vertices")
        bad = [c for c in colouring.values() if not (1 <= c <= palette)]
        if bad:
            raise ValueError(
                f"colour {bad[0]} outside the inner palette 1..{palette}"
            )
        for v, c in colouring.items():
            bit[v] = 1 << (c - 1)
    full = (1 << max(palette, 0)) - 1
    start = (source, 0, 0)

    def step(state, move):
        _, arrive, w, _cost = move
        return (w, arrive, state[2] | bit[w])

    result = _sweep_solve(
        graph, start, step, lambda s: s[0] == sink and s[2] == full, budget, "colourful"
    )
    if palette <= 0:
        result.stats["direct"] = True
    return result


def _trial_count(palette, failure_prob):
    """Random colourings after which a walk through `palette` distinct
    inner vertices has drawn distinct colours in none of them with
    probability at most failure_prob: ceil(ln(failure_prob) / ln(1 - P)),
    where P = p!/p^p is the chance that p vertices draw p distinct colours.
    P is an exact integer ratio, correctly rounded; with one colour every
    colouring is colourful, so one trial is enough. A count that is no
    finite float is INF.
    """
    if palette == 1:
        return 1
    # ln P from lgamma: far below ln of the smallest float (about -745), P
    # rounds to 0, so p! and p^p are never built.
    if math.lgamma(palette + 1) - palette * math.log(palette) < -800:
        return INF
    hit = math.factorial(palette) / palette**palette
    trials = math.log(failure_prob) / math.log1p(-hit) if hit else INF
    return math.ceil(trials) if math.isfinite(trials) else INF


def _partitions(count, parts):
    """Assignments of `count` items to exactly `parts` unlabelled groups,
    as tuples of group ids 1..parts in first-use order, in lexicographic
    order; each one steps to the next, so no count of items can recurse."""
    if parts > count or parts == 0 < count:
        return
    assign = [1] * (count - parts) + list(range(1, parts + 1))  # the smallest
    while True:
        yield tuple(assign)
        high = list(accumulate(assign, max))
        # Raise the last item that can take a higher group; refill the rest smallest first.
        i = next((i for i in range(count - 1, 0, -1) if assign[i] < min(high[i - 1] + 1, parts)), 0)
        if i == 0:
            return
        assign[i] += 1
        used = max(high[i - 1], assign[i])
        assign[i + 1 :] = [1] * (count - i - 1 - parts + used) + list(range(used + 1, parts + 1))


def _colouring_plan(instance: CctoInstance, mode=None, failure_prob=DEFAULT_FAILURE_PROB):
    """(mode, count) of a `solve_color_coding` run, and colour coding's
    check in dispatch. No mode means exhaustive if its palette ** inner
    vertices colourings fit the cap, else randomized, which counts
    `_trial_count` trials; a query that needs no colouring counts 0.

    Raises:
        ValueError: for an unknown mode or a failure probability outside (0, 1).
        CapabilityError: if the count exceeds MAX_COLOURINGS, in either mode.
    """
    inner, palette = _palette(instance.graph, instance.source, instance.sink, instance.k)
    # With more inner vertices than the cap has bits, palette ** inner >= 2 ** inner is past it.
    too_long = palette >= 2 and len(inner) > MAX_COLOURINGS.bit_length()
    colourings = INF if too_long else exhaustive_colouring_count(instance)
    mode = mode or ("exhaustive" if colourings <= MAX_COLOURINGS else "randomized")
    if mode not in ("exhaustive", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "randomized" and not 0 < failure_prob < 1:
        raise ValueError(f"failure probability {failure_prob} is not in (0, 1)")
    if not 0 < palette <= len(inner):
        return mode, 0
    count = colourings if mode == "exhaustive" else _trial_count(palette, failure_prob)
    if count > MAX_COLOURINGS:
        shown = f"{palette} ** {len(inner)}" if mode == "exhaustive" and too_long else count
        raise CapabilityError(
            f"{shown} {mode} colourings exceed the cap {MAX_COLOURINGS} "
            f"({palette} inner colours on {len(inner)} inner vertices)"
        )
    return mode, count


def solve_color_coding(
    instance: CctoInstance,
    mode: str | None = "exhaustive",
    *,
    failure_prob: float = DEFAULT_FAILURE_PROB,
    seed=None,
) -> SolveResult:
    """Solve by colouring the inner vertices and taking the best colourful
    answer.

    Exhaustive mode tries every way of splitting the inner vertices into
    exactly as many groups as there are inner colours (colour names do not
    matter because only the set of colours seen is tracked) and is exact. Randomized mode
    draws independent uniform colourings: a witness with k distinct
    vertices gets distinct colours with probability P = p!/p^p for p inner
    colours, so ceil(ln(failure_prob) / ln(1 - P)) trials push the miss
    probability below failure_prob, and it stops at the first trial within
    budget. A feasible answer always carries a re-validated witness;
    "infeasible" from randomized mode means no witness was found at that
    confidence. Mode None picks one as `_colouring_plan` does.

    Every colouring is swept on `walks_between(graph, source, sink)`, built
    once. Each move into a state that can reach an accepting state lies on
    a source -> sink walk, so such states keep the labels and parents they
    have on the whole graph: answers, witnesses and counts of colourings
    and trials are those of the whole graph, and `states` counts only the
    labels the smaller graph settles.

    Raises:
        CapabilityError: if the mode needs more than MAX_COLOURINGS
            colourings or trials, before any sweep runs.
    """
    graph, source, sink = instance.graph, instance.source, instance.sink
    k, budget = instance.k, instance.budget
    mode, trials = _colouring_plan(instance, mode, failure_prob)
    if mode == "randomized" and seed is None:
        raise ValueError("randomized mode needs a seed")
    inner, palette = _palette(graph, source, sink, k)

    if palette <= 0:
        result = solve_colourful(graph, source, sink, k, {}, budget)
        result.solver = "colorcoding"
        result.stats["mode"] = mode
        return result
    if palette > len(inner):
        return SolveResult(
            feasible=False,
            optimal_cost=INF,
            solver="colorcoding",
            stats={"mode": mode, "reason": "fewer inner vertices than colours"},
        )

    if mode == "exhaustive":
        colourings = (
            dict(zip(inner, assign)) for assign in _partitions(len(inner), palette)
        )
    else:
        colourings = (
            {v: rng.randint(1, palette) for v in inner}
            for rng in (random.Random(seed * 1_000_003 + i) for i in range(trials))
        )
    pruned = walks_between(graph, source, sink)
    best = None
    used = states = 0
    for colouring in colourings:
        result = solve_colourful(pruned, source, sink, k, colouring, budget)
        states += result.stats["states"]
        used += 1
        if best is None or result.optimal_cost < best.optimal_cost:
            best = result
        # Randomized answers are bounds, so the first one within budget will do.
        if mode == "randomized" and best.feasible:
            break
    best.solver = "colorcoding"
    if mode == "exhaustive":
        best.stats = {"mode": "exhaustive", "colourings": used, "states": states}
        return best
    best.stats = {
        "mode": "randomized",
        "trials": trials,
        "trials_used": used,
        "states": states,
        "failure_prob": failure_prob,
        "note": (
            "cost is a verified upper bound"
            if best.feasible
            else f"not found (failure prob <= {failure_prob})"
        ),
    }
    if best.feasible:
        verify_result(instance, best)
    return best
