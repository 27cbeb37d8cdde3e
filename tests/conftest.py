"""Shared fixtures and independent brute-force checkers.

The helpers here deliberately avoid the package's solver machinery: walks
are enumerated literally as chains of stored tuples, so tests can compare
solver output against a second, dumber route.
"""

from __future__ import annotations

import itertools
import random

import pytest

from ccto.core import INF, CctoInstance, TemporalCostGraph


def make_graph(n, tuples, names=None):
    return TemporalCostGraph(n, tuples, names)


# Three-vertex fixture with a closed tour s -> a -> b -> a -> s of cost 8.
I1_TUPLES = [
    (0, 1, 1, 2, 2),
    (1, 2, 2, 3, 4),
    (2, 1, 4, 5, 1),
    (1, 0, 5, 6, 1),
]
# W1 is the unique walk of I1 visiting all three vertices and returning.
W1 = [(0, 1, 1, 2), (1, 2, 2, 3), (2, 1, 4, 5), (1, 0, 5, 6)]

# Simple path fixture: s -> a -> b with no slack between the two moves.
I2_TUPLES = [
    (0, 1, 1, 2, 2),
    (1, 2, 2, 3, 4),
]

# Path fixture with a waiting gap at a; one tuple per vertex pair.
I3_TUPLES = [
    (0, 1, 1, 2, 2),
    (1, 2, 3, 4, 1),
]


@pytest.fixture
def i1():
    return make_graph(3, I1_TUPLES, names={0: "s", 1: "a", 2: "b"})


@pytest.fixture
def i2():
    return make_graph(3, I2_TUPLES, names={0: "s", 1: "a", 2: "b"})


@pytest.fixture
def i3():
    return make_graph(3, I3_TUPLES, names={0: "s", 1: "a", 2: "b"})


def enumerate_walks(graph, source):
    """Yield every valid walk from `source` as a list of stored-tuple steps.

    Walks that differ only by implicit waiting are enumerated once (waiting
    steps are never emitted). Includes the empty walk. Exponential; for tiny
    fixtures only.
    """

    def extend(prefix, at, time):
        yield list(prefix)
        for depart, arrive, to, _cost in graph.moves_from(at):
            if depart >= time:
                prefix.append((at, to, depart, arrive))
                yield from extend(prefix, to, arrive)
                prefix.pop()

    yield from extend([], source, 0)


def brute_force_best(instance):
    """(optimal_cost, witness) by literal enumeration of all walks."""
    graph = instance.graph
    best = INF
    best_walk = None
    for walk in enumerate_walks(graph, instance.source):
        end = walk[-1][1] if walk else instance.source
        if end != instance.sink:
            continue
        seen = {instance.source}
        for u, v, _, _ in walk:
            seen.add(u)
            seen.add(v)
        if len(seen) < instance.k:
            continue
        cost = sum(graph.cost(*step) for step in walk)
        if cost < best:
            best = cost
            best_walk = list(walk)
    return best, best_walk


def random_valid_walk(graph, rng, max_steps=8):
    """Build a random valid walk by chaining stored tuples greedily."""
    at = rng.randrange(graph.n)
    time = 0
    walk = []
    for _ in range(max_steps):
        options = [m for m in graph.moves_from(at) if m[0] >= time]
        if not options or rng.random() < 0.25:
            break
        depart, arrive, to, _cost = rng.choice(options)
        walk.append((at, to, depart, arrive))
        at, time = to, arrive
    return walk


def random_tuple_set(rng, n, horizon, count, max_cost=5):
    """A random list of well-formed stored tuples (no duplicate keys)."""
    seen = set()
    tuples = []
    for _ in range(count * 3):
        if len(tuples) >= count:
            break
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        depart = rng.randrange(horizon)
        arrive = rng.randrange(depart + 1, horizon + 1)
        key = (u, v, depart, arrive)
        if key in seen:
            continue
        seen.add(key)
        tuples.append(key + (rng.randrange(1, max_cost + 1),))
    return tuples


def instances_for_suite(seed, count, n_range=(3, 6), horizon_range=(4, 8)):
    """Deterministic stream of random CctoInstances for agreement suites."""
    from ccto.instances import random_instance

    rng = random.Random(seed)
    out = []
    for index in range(count):
        shape = "tree" if index % 2 == 0 else "general"
        inst_file = random_instance(
            seed=rng.randrange(2**30),
            n=rng.randint(*n_range),
            horizon=rng.randint(*horizon_range),
            density=rng.uniform(0.08, 0.3),
            max_cost=5,
            shape=shape,
        )
        out.append(inst_file)
    return out


def bag_by_quantifiers(graph, v, t):
    """v is in the bag at t iff some arrival lands at or before t and some
    departure leaves at or after t; written as a direct scan on purpose."""
    arrives = any(w == v and a <= t for _, w, _, a, _ in graph.tuples())
    departs = any(u == v and d >= t for u, _, d, _, _ in graph.tuples())
    return arrives and departs


def all_quadruples(graph):
    top = graph.lifetime
    for u, v in itertools.product(range(graph.n), repeat=2):
        for t1 in range(top + 1):
            for t2 in range(top + 1):
                yield u, v, t1, t2
