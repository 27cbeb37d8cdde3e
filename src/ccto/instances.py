"""Instance files, random instance generation, and the star reduction.

The text format is line oriented, one directive per line, '#' starts a
comment. Directives: `version 1` first, then `n <count>`, and in any order
`name <vertex> <text>`, `tuple <from> <to> <depart> <arrive> <cost>`,
`query <source> <sink> <k> <budget>` (at most once), and repeated
`subforest <u> <v>` edges. Serialization is canonical, so equal instances
produce identical bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .core import CapabilityError, CctoInstance, TemporalCostGraph, tuple_problem

FORMAT_VERSION = 1
# The graph keeps per-vertex structures, so a file's n alone could exhaust
# memory; perfbench's largest instances have 600 vertices.
MAX_FILE_VERTICES = 10**5
# `random_instance` flips a coin per (ordered pair, departure time) slot and
# any slot can become a stored tuple, so it refuses more slots than this.
MAX_RANDOM_SLOTS = 10**6


@dataclass
class InstanceFile:
    """A parsed instance file: the graph plus optional query and subforest."""

    graph: TemporalCostGraph
    query: Optional[CctoInstance] = None
    subforest: tuple = ()


def check_vertex_cap(n: int, where: str = "") -> None:
    """Refuse a file of more than MAX_FILE_VERTICES vertices; `where`
    prefixes the message."""
    if n > MAX_FILE_VERTICES:
        raise CapabilityError(f"{where}{n} vertices exceed the vertex cap {MAX_FILE_VERTICES}")


def _fail(lineno, message):
    raise ValueError(f"line {lineno}: {message}")


def _ints(lineno, values):
    try:
        return [int(v) for v in values]
    except ValueError:
        _fail(lineno, f"expected integers, got {' '.join(values)!r}")


def parse_instance(text: str) -> InstanceFile:
    """Parse the text format, reporting errors with their line number.

    `tuple` lines are only converted to integers: the graph constructor
    validates the tuples, and only when it rejects one is `tuple_problem`
    rerun here to find its line. So any other bad line is reported first,
    even one after a bad tuple.
    """
    version = None
    n = None
    names: dict[int, str] = {}
    tuples = []
    tuple_lines = []
    query_fields = None
    query_line = None
    subforest_lines = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind = fields[0]
        # The common case first; n is only ever set after version.
        if kind == "tuple" and n is not None:
            if len(fields) != 6:
                _fail(lineno, "tuple takes from, to, depart, arrive, cost")
            try:
                item = (int(fields[1]), int(fields[2]), int(fields[3]),
                        int(fields[4]), int(fields[5]))
            except ValueError:
                _ints(lineno, fields[1:])  # raises, quoting the fields
            tuples.append(item)
            tuple_lines.append(lineno)
            continue
        if version is None and kind != "version":
            _fail(lineno, "file must start with a version directive")
        if kind == "version":
            if version is not None:
                _fail(lineno, "duplicate version directive")
            if len(fields) != 2 or fields[1] != str(FORMAT_VERSION):
                _fail(lineno, f"unsupported version {' '.join(fields[1:])!r}")
            version = FORMAT_VERSION
            continue
        if kind == "n":
            if n is not None:
                _fail(lineno, "duplicate n directive")
            if len(fields) != 2:
                _fail(lineno, "n takes exactly one value")
            (n,) = _ints(lineno, fields[1:])
            if n < 1:
                _fail(lineno, f"vertex count must be positive, got {n}")
            check_vertex_cap(n, f"line {lineno}: ")
            continue
        if n is None:
            _fail(lineno, f"{kind} directive before n")
        if kind == "name":
            if len(fields) < 3:
                _fail(lineno, "name takes a vertex and a label")
            (vertex,) = _ints(lineno, fields[1:2])
            if not 0 <= vertex < n:
                _fail(lineno, f"vertex {vertex} out of range")
            if vertex in names:
                _fail(lineno, f"duplicate name for vertex {vertex}")
            names[vertex] = " ".join(fields[2:])
        elif kind == "query":
            if query_fields is not None:
                _fail(lineno, "duplicate query directive")
            if len(fields) != 5:
                _fail(lineno, "query takes source, sink, k, budget")
            query_fields = _ints(lineno, fields[1:])
            query_line = lineno
        elif kind == "subforest":
            if len(fields) != 3:
                _fail(lineno, "subforest takes two endpoints")
            u, v = _ints(lineno, fields[1:])
            if not (0 <= u < n and 0 <= v < n):
                _fail(lineno, f"vertex out of range in {' '.join(fields)!r}")
            if u == v:
                _fail(lineno, "subforest edge endpoints must differ")
            edge = (min(u, v), max(u, v))
            if edge in subforest_lines:
                _fail(lineno, f"duplicate subforest edge {edge[0]} {edge[1]}")
            subforest_lines[edge] = lineno
        else:
            _fail(lineno, f"unknown directive {kind!r}")

    if version is None:
        raise ValueError("empty file: missing version directive")
    if n is None:
        raise ValueError("missing n directive")
    try:
        graph = TemporalCostGraph(n, tuples, names or None)
    except ValueError:
        stored = set()
        for item, lineno in zip(tuples, tuple_lines):
            problem = tuple_problem(item, n, stored)
            if problem is not None:
                raise ValueError(f"line {lineno}: {problem}") from None
            stored.add(item[:4])
        raise
    for edge, lineno in subforest_lines.items():
        if edge not in graph.edges:
            _fail(lineno, f"subforest edge {edge[0]} {edge[1]} is not an edge of the graph")
    query = None
    if query_fields is not None:
        source, sink, k, budget = query_fields
        try:
            query = CctoInstance(graph, source, sink, k, budget)
        except ValueError as exc:
            raise ValueError(f"line {query_line}: {exc}") from None
    return InstanceFile(graph, query, tuple(sorted(subforest_lines)))


def serialize_instance(inst: InstanceFile) -> str:
    """Render an InstanceFile in canonical form (sorted, LF, trailing LF)."""
    graph = inst.graph
    lines = [f"version {FORMAT_VERSION}", f"n {graph.n}"]
    for vertex in sorted(graph.names):
        lines.append(f"name {vertex} {graph.names[vertex]}")
    for u, v, depart, arrive, cost in graph.tuples():
        lines.append(f"tuple {u} {v} {depart} {arrive} {cost}")
    if inst.query is not None:
        q = inst.query
        lines.append(f"query {q.source} {q.sink} {q.k} {q.budget}")
    for u, v in sorted(inst.subforest):
        lines.append(f"subforest {u} {v}")
    return "\n".join(lines) + "\n"


def load_instance(path) -> InstanceFile:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def save_instance(path, inst: InstanceFile) -> None:
    Path(path).write_text(serialize_instance(inst), encoding="utf-8")


def random_instance(
    seed: int,
    n: int,
    horizon: int,
    density: float,
    max_cost: int = 5,
    shape: str = "tree",
) -> CctoInstance:
    """Deterministic random instance; same arguments, same instance.

    shape "tree" draws a random spanning tree and only places tuples along
    its edges; "general" allows every ordered pair. Each ordered pair gets an
    independent coin flip per departure time with probability `density`;
    travel takes one or two time units and costs 1..max_cost. The query picks
    a random source, a closed walk half of the time, a uniform k, and a
    budget scaled to max_cost * n. More than MAX_RANDOM_SLOTS ordered pairs
    x horizon raise CapabilityError before anything is drawn.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if horizon < 1:
        raise ValueError(f"need a positive horizon, got {horizon}")
    if max_cost < 1:
        raise ValueError(f"max_cost must be at least 1, got {max_cost}")
    pairs = {"tree": 2 * (n - 1), "general": n * (n - 1)}.get(shape)
    if pairs is None:
        raise ValueError(f"unknown shape {shape!r}")
    if pairs * horizon > MAX_RANDOM_SLOTS:
        raise CapabilityError(
            f"{pairs} ordered pairs x horizon {horizon} exceed the slot cap {MAX_RANDOM_SLOTS}"
        )
    rng = random.Random(seed)
    if shape == "tree":
        undirected = [(rng.randrange(v), v) for v in range(1, n)]
        directed = [(u, v) for u, v in undirected]
        directed += [(v, u) for u, v in undirected]
    else:
        directed = [(u, v) for u in range(n) for v in range(n) if u != v]
    tuples = []
    for u, v in sorted(directed):
        for depart in range(horizon):
            if rng.random() < density:
                arrive = depart + rng.randint(1, min(2, horizon - depart))
                tuples.append((u, v, depart, arrive, rng.randint(1, max_cost)))
    graph = TemporalCostGraph(n, tuples)
    source = rng.randrange(n)
    sink = source if rng.random() < 0.5 else rng.randrange(n)
    k = rng.randint(1, n)
    budget = rng.randint(0, max_cost * n)
    return CctoInstance(graph, source, sink, k, budget)


def from_edge_labels(n: int, labels: dict) -> TemporalCostGraph:
    """Graph with a unit-cost, unit-travel tuple both ways per labelled time.

    `labels` maps undirected edges (u, v) to iterables of departure times.
    """
    tuples = []
    for (u, v), times in sorted(labels.items()):
        for t in sorted(set(times)):
            tuples.append((u, v, t, t + 1, 1))
            tuples.append((v, u, t, t + 1, 1))
    return TemporalCostGraph(n, tuples)


def starexp_reduction(leaf_labels) -> CctoInstance:
    """Encode a star exploration question as a closed-walk instance.

    Leaf j of the star (centre 0, leaves 1..len(leaf_labels)) is reachable
    exactly at the labelled times, unit cost each way. Visiting all vertices
    and returning with budget twice the leaf count forces one clean round
    trip per leaf, so the instance is feasible exactly when the star can be
    fully explored.
    """
    leaves = len(leaf_labels)
    labels = {(0, j + 1): leaf_labels[j] for j in range(leaves)}
    graph = from_edge_labels(leaves + 1, labels)
    return CctoInstance(graph, 0, 0, leaves + 1, 2 * leaves)


def starexp_feasible(leaf_labels) -> bool:
    """Decide star exploration by literal enumeration.

    Tries every order of the leaves and every choice of labelled departure
    times out and back, requiring strictly increasing times throughout. Kept
    deliberately naive as an independent check on the reduction.
    """
    labels = [sorted(set(times)) for times in leaf_labels]

    def visit(remaining, now):
        if not remaining:
            return True
        for j in sorted(remaining):
            rest = remaining - {j}
            for out in labels[j]:
                if out < now:
                    continue
                for back in labels[j]:
                    if back >= out + 1 and visit(rest, back + 1):
                        return True
        return False

    return visit(frozenset(range(len(labels))), 0)
