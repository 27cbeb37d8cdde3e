"""Command-line entry point: solve, analyze, generate, bench.

Output is line-oriented. `solve --format structured` and `analyze` emit
stable key/value lines in the same style as the instance grammar; `bench`
emits one row per (instance, solver) pair and fails loudly when two exact
solvers disagree, which is the regression tripwire.

Exit codes: 0 feasible, 1 infeasible, 2 usage/parse/capability error,
3 benchmark disagreement.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import namedtuple

from .colorcoding import DEFAULT_FAILURE_PROB, _colouring_plan, solve_color_coding
from .core import (
    INF,
    CapabilityError,
    CctoInstance,
    NotApplicableError,
    _holds,
)
from .expanded import build_time_expanded, export_arcs
from .instances import (
    InstanceFile,
    check_vertex_cap,
    from_edge_labels,
    load_instance,
    random_instance,
    save_instance,
    serialize_instance,
    starexp_reduction,
)
from .oracle import check_oracle_size, solve_exact
from .result import budget_precheck
from .tree_solvers import (
    solve_sparse_triples,
    solve_subforest,
    solve_tree_closed,
    sparse_triples_applicable,
    subforest_applicable,
    tree_closed_applicable,
)
from .vitw import bag_width, solve_vitw, vitw_window

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2
EXIT_DISAGREEMENT = 3

# `build_time_expanded` makes one node per (vertex, time unit) however few
# tuples there are, so `analyze --export-expanded` refuses above this.
MAX_EXPANDED_NODES = 10**5


# run(instance, subforest, args) -> SolveResult, and applicable(instance,
# subforest) -> bool: whether run refuses by NotApplicableError or
# CapabilityError, with colour coding in its default mode and failure
# probability. Both look solvers up in this module's globals when called,
# so a test can substitute one by patching its name here.
Solver = namedtuple("Solver", "run applicable")

# Every solver the CLI offers, in dispatch (and `analyze` row) order:
# exact methods first, probabilistic last.
SOLVERS = {
    "oracle": Solver(
        lambda instance, subforest, args: solve_exact(instance),
        lambda instance, subforest: _holds(check_oracle_size, instance.graph),
    ),
    "sparse": Solver(
        lambda instance, subforest, args: solve_sparse_triples(instance),
        lambda instance, subforest: sparse_triples_applicable(instance.graph),
    ),
    "tree": Solver(
        lambda instance, subforest, args: solve_tree_closed(instance),
        lambda instance, subforest: tree_closed_applicable(instance),
    ),
    "subforest": Solver(
        lambda instance, subforest, args: solve_subforest(instance, subforest),
        lambda instance, subforest: subforest_applicable(instance, subforest),
    ),
    "vitw": Solver(
        lambda instance, subforest, args: solve_vitw(instance),
        lambda instance, subforest: _holds(vitw_window, instance),
    ),
    # `bench` has no --mode; exhaustive mode ignores the randomized options.
    "colorcoding": Solver(
        lambda instance, subforest, args: solve_color_coding(
            instance, getattr(args, "mode", None), seed=args.seed, failure_prob=args.failure_prob
        ),
        lambda instance, subforest: _holds(_colouring_plan, instance),
    ),
}

def choose_solver(instance: CctoInstance, subforest=()) -> str:
    """The first `SOLVERS` row whose check passes; the budget precheck runs
    before it. When none does, colour coding's refusal is raised."""
    for name, solver in SOLVERS.items():
        if solver.applicable(instance, subforest):
            return name
    _colouring_plan(instance)
    raise CapabilityError("no solver applies")


def _query_from(args, file) -> CctoInstance:
    base = file.query
    fields = {}
    for field_name in ("source", "sink", "k", "budget"):
        given = getattr(args, field_name, None)
        if given is not None:
            fields[field_name] = given
        elif base is not None:
            fields[field_name] = getattr(base, field_name)
        else:
            raise ValueError(
                f"instance has no query; pass --{field_name} on the command line"
            )
    return CctoInstance(file.graph, **fields)


def _cost_text(cost):
    if cost is None:
        return "unknown"
    if cost == INF:
        return "infinite"
    return str(cost)


def _emit_result(result, fmt, out):
    note = result.stats.get("note", "")
    if fmt == "structured":
        print(f"feasible {'yes' if result.feasible else 'no'}", file=out)
        print(f"cost {_cost_text(result.optimal_cost)}", file=out)
        print(f"solver {result.solver}", file=out)
        if result.witness:
            for u, v, depart, arrive in result.witness:
                print(f"step {u} {v} {depart} {arrive}", file=out)
        for key in sorted(result.stats):
            print(f"stat {key} {result.stats[key]}", file=out)
        return
    if result.feasible:
        print("result: feasible", file=out)
    elif "not found" in note:
        print(f"result: {note}", file=out)
    else:
        print("result: infeasible", file=out)
    print(f"optimal cost: {_cost_text(result.optimal_cost)}", file=out)
    print(f"solver: {result.solver}", file=out)
    if result.witness:
        print("witness:", file=out)
        for u, v, depart, arrive in result.witness:
            print(f"  step {u} {v} {depart} {arrive}", file=out)
    for key in sorted(result.stats):
        if key != "note":
            print(f"{key}: {result.stats[key]}", file=out)


def cmd_solve(args) -> int:
    file = load_instance(args.instance)
    instance = _query_from(args, file)
    result = budget_precheck(instance)
    if result is None:
        name = args.algorithm
        if name == "auto":
            name = choose_solver(instance, file.subforest)
        result = SOLVERS[name].run(instance, file.subforest, args)
    _emit_result(result, args.format, sys.stdout)
    return EXIT_FEASIBLE if result.feasible else EXIT_INFEASIBLE


def _label(graph, v):
    return graph.names.get(v, str(v))


def cmd_analyze(args) -> int:
    file = load_instance(args.instance)
    graph = file.graph
    nodes = graph.n * (graph.lifetime + 1)
    if args.export_expanded and nodes > MAX_EXPANDED_NODES:
        raise CapabilityError(
            f"time-expanded graph would have {nodes} nodes, "
            f"above the export cap {MAX_EXPANDED_NODES}"
        )
    out = sys.stdout
    print(f"n {graph.n}", file=out)
    print(f"lifetime {graph.lifetime}", file=out)
    connected = graph.is_connected()
    print(f"connected {'yes' if connected else 'no'}", file=out)
    if not connected:
        print("warning graph is not connected", file=out)
    for u, v in sorted(graph.edges):
        print(
            f"traversal {_label(graph, u)} {_label(graph, v)} "
            f"{graph.max_traversal_number(u, v)}",
            file=out,
        )
    print(f"width {bag_width(graph)}", file=out)
    for v, (start, stop) in sorted(graph.live_intervals().items()):
        print(f"interval {_label(graph, v)} {start} {stop}", file=out)
    # Without a query, judge every solver against a closed walk from 0.
    query = file.query or CctoInstance(graph, 0, 0, 1, 0)
    for name, solver in SOLVERS.items():
        verdict = "yes" if solver.applicable(query, file.subforest) else "no"
        print(f"applicable {name} {verdict}", file=out)
    if args.export_expanded:
        expanded = build_time_expanded(graph)
        lines = "\n".join(export_arcs(expanded))
        if args.export_expanded == "-":
            if lines:
                print(lines, file=out)
        else:
            with open(args.export_expanded, "w", encoding="utf-8") as handle:
                handle.write(lines + ("\n" if lines else ""))
        print(
            f"expanded {expanded.vertex_count} {expanded.arc_count} "
            f"{args.export_expanded}",
            file=out,
        )
    return EXIT_FEASIBLE


def _parse_labels(text):
    groups = []
    for part in text.split(";"):
        part = part.strip()
        groups.append(set(int(x) for x in part.split(",")) if part else set())
    return groups


def _parse_edge_flag(text):
    head, _, tail = text.partition("@")
    try:
        u, v = (int(x) for x in head.split())
        times = [int(x) for x in tail.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad --edge {text!r}; expected 'u v @ t1,t2,...'")
    if not times:
        raise ValueError(f"bad --edge {text!r}; no departure times")
    return (u, v), times


def cmd_generate(args) -> int:
    if args.kind == "random":
        n = 5 if args.n is None else args.n
        check_vertex_cap(n)
        instance = random_instance(
            seed=args.seed,
            n=n,
            horizon=args.horizon,
            density=args.density,
            max_cost=args.max_cost,
            shape=args.shape,
        )
        file = InstanceFile(instance.graph, instance)
    elif args.kind == "star-exp":
        if not args.labels:
            raise ValueError("star-exp needs --labels, e.g. --labels '1,2;3,4'")
        labels = _parse_labels(args.labels)
        check_vertex_cap(len(labels) + 1)
        instance = starexp_reduction(labels)
        file = InstanceFile(instance.graph, instance)
    else:
        if not args.edge:
            raise ValueError("from-temporal needs at least one --edge flag")
        labels: dict = {}
        top = 0
        for flag in args.edge:
            (u, v), times = _parse_edge_flag(flag)
            key = (min(u, v), max(u, v))
            labels.setdefault(key, set()).update(times)
            top = max(top, u, v)
        n = args.n if args.n is not None else top + 1
        check_vertex_cap(n)
        file = InstanceFile(from_edge_labels(n, labels))
    if args.output:
        save_instance(args.output, file)
    else:
        sys.stdout.write(serialize_instance(file))
    return EXIT_FEASIBLE


def _disagreement(path, answers):
    """First conflict among one instance's (name, feasible, cost, bound)
    answers, or None.

    Exact answers must match each other. A randomized answer is only an
    upper bound (or a miss), so it conflicts only by undercutting an exact
    cost.
    """
    exact = [a for a in answers if not a[3]]
    for (a, fa, ca, _), (b, fb, cb, _) in zip(exact, exact[1:]):
        if (fa, ca) != (fb, cb):
            return f"{path}: {a}={_cost_text(ca)} {b}={_cost_text(cb)}"
    if exact:
        a, _, ca, _ = exact[0]
        for name, _, cost, bound in answers:
            if bound and cost < ca:
                return f"{path}: {name}={_cost_text(cost)} below {a}={_cost_text(ca)}"
    return None


def cmd_bench(args) -> int:
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    for name in solvers:
        if name not in SOLVERS:
            raise ValueError(f"unknown solver {name!r}; valid: {', '.join(SOLVERS)}")
    print("# instance solver feasible cost states millis")
    disagreement = None
    for path in args.instances:
        file = load_instance(path)
        if file.query is None:
            raise ValueError(f"{path} has no query; bench needs solvable instances")
        instance = file.query
        answers = []
        for name in solvers:
            start = time.perf_counter()
            try:
                result = SOLVERS[name].run(instance, file.subforest, args)
            except (NotApplicableError, CapabilityError):
                print(f"{path} {name} skipped - - -")
                continue
            millis = (time.perf_counter() - start) * 1000.0
            states = result.stats.get("states", "-")
            print(
                f"{path} {name} {'yes' if result.feasible else 'no'} "
                f"{_cost_text(result.optimal_cost)} {states} {millis:.1f}"
            )
            bound = result.stats.get("mode") == "randomized"
            answers.append((name, result.feasible, result.optimal_cost, bound))
        disagreement = _disagreement(path, answers) or disagreement
    if disagreement:
        print(f"disagreement {disagreement}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_FEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccto",
        description="Solvers for budgeted vertex-collecting walks on "
        "temporal cost graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance")
    solve.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", *SOLVERS],
    )
    solve.add_argument("--source", type=int)
    solve.add_argument("--sink", type=int)
    solve.add_argument("--k", type=int)
    solve.add_argument("--budget", type=int)
    solve.add_argument("--format", default="human", choices=["human", "structured"])
    solve.add_argument("--mode", choices=["exhaustive", "randomized"])
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--failure-prob", type=float, default=DEFAULT_FAILURE_PROB)
    solve.set_defaults(func=cmd_solve)

    analyze = sub.add_parser("analyze", help="report structural parameters")
    analyze.add_argument("instance")
    analyze.add_argument(
        "--export-expanded",
        metavar="PATH",
        help="write the time-expanded arcs to PATH ('-' for stdout)",
    )
    analyze.set_defaults(func=cmd_analyze)

    generate = sub.add_parser("generate", help="emit an instance file")
    generate.add_argument("kind", choices=["random", "star-exp", "from-temporal"])
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--n", type=int, default=None)
    generate.add_argument("--horizon", type=int, default=6)
    generate.add_argument("--density", type=float, default=0.25)
    generate.add_argument("--max-cost", type=int, default=5)
    generate.add_argument("--shape", default="tree", choices=["tree", "general"])
    generate.add_argument("--labels", help="star-exp: per-leaf label sets, '1,2;3,4'")
    generate.add_argument(
        "--edge",
        action="append",
        default=[],
        help="from-temporal: repeated 'u v @ t1,t2,...'",
    )
    generate.add_argument("--output")
    generate.set_defaults(func=cmd_generate)

    bench = sub.add_parser("bench", help="run solvers over a suite")
    bench.add_argument("instances", nargs="*")
    bench.add_argument("--solvers", default="oracle,tree,vitw")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--failure-prob", type=float, default=DEFAULT_FAILURE_PROB)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotApplicableError, CapabilityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
