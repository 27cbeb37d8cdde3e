"""Solve benchmark for ccto: verified-answer latency on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload small_dense --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: a single client sends the
next request when the previous one has finished. A request is what
`ccto solve` does with an instance file: parse, budget precheck, dispatch
(for `auto`), the public solver call and `verify_result`, all timed
together. Every answer is then compared, outside the timed path, with a
reference answer from a second route (see workloads.reference).

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
traced run, whose spans are also written to `.perfbench/`. The exit code
is 0 when every answer checked out, 1 when an answer was wrong or could
not be checked, and 2 when the benchmark could not run at all (for example
when `src/ccto` is missing).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import NoTrace, Tracer
from workloads import GENERATORS, Request, answer, reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# Set-up (import, generation, serialization) is repeated and its median
# reported, so that one slow repetition does not move setup_s.
SETUP_REPEATS = 5
# No request or reference answer may take longer; a timeout is a failure.
DEADLINE_S = 20.0
# latency_tail_ms is the latency with this many requests slower than it.
TAIL_BEYOND = 10

# Which module each dispatch name's public solver lives in.
LAYER_OF = {
    "oracle": "oracle",
    "tree": "tree_solvers",
    "sparse": "tree_solvers",
    "vitw": "vitw",
    "colorcoding": "colorcoding",
}
TIMED_LAYERS = (
    "instances.parse",
    "core.index",
    "cli.dispatch",
    "result.precheck",
    "result.verify",
    "oracle.solve",
    "tree_solvers.solve",
    "vitw.sequence",
    "vitw.solve",
    "colorcoding.table",
    "colorcoding.solve",
)
# The layers each workload was built to load; the traced run reports the
# share of request time they hold.
INTENDED = {
    "small_dense": ("oracle.solve", "vitw.solve"),
    "colour": ("colorcoding.solve",),
    "big_graph": ("cli.dispatch", "tree_solvers.solve"),
    "sparse_time": ("tree_solvers.solve", "vitw.solve"),
}


class WrongAnswer(Exception):
    """verify_result rejected an answer."""


class DeadlineExceeded(Exception):
    """A call ran past DEADLINE_S."""


def _expire(_signum, _frame):
    raise DeadlineExceeded(f"no answer within {DEADLINE_S:g} s")


def within_deadline(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Pipeline:
    """One request as `ccto solve` handles it, each call a span."""

    def __init__(self, ccto, trace):
        self.ccto = ccto
        self.choose_solver = sys.modules["ccto.cli"].choose_solver
        self.trace = trace
        self.solvers = {
            "oracle": ccto.solve_exact,
            "tree": ccto.solve_tree_closed,
            "sparse": ccto.solve_sparse_triples,
            "vitw": ccto.solve_vitw,
        }

    def solve(self, request: Request):
        """Returns (solver name, result); raises on any failure."""
        return self.trace.call("request", self._solve, request)

    def _solve(self, request):
        call, ccto = self.trace.call, self.ccto
        instance = call("instances.parse", ccto.parse_instance, request.text).query
        name = "precheck"
        result = call("result.precheck", ccto.budget_precheck, instance)
        if result is None:
            name = request.solver
            if name == "auto":
                name = call("cli.dispatch", self.choose_solver, instance)
            if name == "colorcoding":
                if request.mode is None:
                    raise ValueError("auto dispatch reached colour coding")
                result = call(
                    "colorcoding.solve",
                    ccto.solve_color_coding,
                    instance,
                    request.mode,
                    seed=request.seed,
                )
            else:
                result = call(LAYER_OF[name] + ".solve", self.solvers[name], instance)
        try:
            call("result.verify", ccto.verify_result, instance, result)
        except ValueError as exc:
            raise WrongAnswer(f"{name}: {exc}") from exc
        return name, result


@dataclasses.dataclass
class Outcome:
    index: int
    seconds: float
    solver: str = ""
    result: object = None
    error: str = ""
    wrong: bool = False


def run_one(pipeline, request, index) -> Outcome:
    began = time.perf_counter()
    try:
        solver, result = within_deadline(pipeline.solve, request)
    except WrongAnswer as exc:
        return Outcome(index, time.perf_counter() - began, error=str(exc), wrong=True)
    except Exception as exc:  # every failure of a request is counted, none ends the run
        return Outcome(index, time.perf_counter() - began, error=f"{type(exc).__name__}: {exc}")
    return Outcome(index, time.perf_counter() - began, solver, result)


def closed_loop(pipeline, requests, seconds, after=None):
    """Send requests back to back, cycling the pool, for `seconds`."""
    outcomes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        pipeline.trace.request = len(outcomes)
        index = len(outcomes) % len(requests)
        outcome = run_one(pipeline, requests[index], index)
        outcomes.append(outcome)
        if after is not None:
            after(outcome)
    return outcomes, time.perf_counter() - start


def fresh_import():
    for name in [m for m in sys.modules if m == "ccto" or m.startswith("ccto.")]:
        del sys.modules[name]
    ccto = importlib.import_module("ccto")
    importlib.import_module("ccto.cli")
    return ccto


def setup(workload, seed):
    """Import ccto and build the request pool, SETUP_REPEATS times.

    Returns the last import, the pool, the median set-up time and whether
    every repetition produced the same request texts.
    """
    times, first, deterministic = [], None, True
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ccto = fresh_import()
        pool = GENERATORS[workload](ccto, random.Random(f"{workload}:{seed}"))
        times.append(time.perf_counter() - start)
        first = pool if first is None else first
        deterministic = deterministic and pool == first
    return ccto, pool, statistics.median(times), deterministic


class Checker:
    """Reference answers per pool entry, computed once, outside timing."""

    def __init__(self, ccto, workload, requests):
        self.ccto, self.workload, self.requests = ccto, workload, requests
        self.plain = Pipeline(ccto, NoTrace())
        self.references = {}
        self.problems = []

    def _reference(self, outcome):
        request = self.requests[outcome.index]
        instance = self.ccto.parse_instance(request.text).query

        def solve_twin(text):
            return self.plain.solve(dataclasses.replace(request, text=text, twin=None))[1]

        return within_deadline(
            reference, self.ccto, self.workload, request, instance, outcome.solver, solve_twin
        )

    def verdict(self, outcome) -> str:
        """'exact'; 'miss' (a randomized bound above the optimum, or not
        found); 'failed' (no answer); or 'wrong' (rejected by verify_result,
        disagreeing with the reference, or no reference to compare with)."""
        if outcome.error:
            self.problems.append(f"request {outcome.index}: {outcome.error}")
            return "wrong" if outcome.wrong else "failed"
        if outcome.index not in self.references:
            try:
                self.references[outcome.index] = self._reference(outcome)
            except Exception as exc:  # a reference that cannot answer leaves the request unchecked
                self.references[outcome.index] = f"{type(exc).__name__}: {exc}"
        expected = self.references[outcome.index]
        if isinstance(expected, str):
            self.problems.append(f"request {outcome.index}: reference failed: {expected}")
            return "wrong"
        got = answer(outcome.result)
        if got == expected or (got == (False, None) and not expected[0]):
            # The budget precheck settles infeasibility without a cost.
            return "exact"
        randomized = self.requests[outcome.index].mode == "randomized"
        if randomized and got[1] is not None and got[1] > expected[1]:
            return "miss"
        self.problems.append(f"request {outcome.index}: {outcome.solver} answered {got}, reference {expected}")
        return "wrong"


def percentile_tail(latencies):
    """(value, percentile) of the latency with TAIL_BEYOND slower ones;
    the slowest when there are too few samples for that."""
    ordered = sorted(latencies)
    position = len(ordered) - 1 - TAIL_BEYOND
    if position < 0:
        position = len(ordered) - 1
    return ordered[position], 100.0 * position / len(ordered)


def tally(checker, outcomes):
    verdicts = [checker.verdict(o) for o in outcomes]
    randomized = [v for o, v in zip(outcomes, verdicts) if checker.requests[o.index].mode == "randomized"]
    return {
        "attempted": len(outcomes),
        "ok": sum(v in ("exact", "miss") for v in verdicts),
        "exact": verdicts.count("exact"),
        "wrong": verdicts.count("wrong"),
        "randomized": len(randomized),
        "misses": randomized.count("miss"),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(outcomes, elapsed, counts, setup_s, peak_rss_mb):
    latencies = [o.seconds * 1000.0 for o in outcomes]
    tail, tail_pct = percentile_tail(latencies)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(tail, "ms"),
        "throughput_rps": metric(counts["ok"] / elapsed, "1/s"),
        "exact_answer_frac": metric(counts["exact"] / counts["attempted"], "frac"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    notes = {
        "latency_tail_ms": f"p{tail_pct:.1f}, {TAIL_BEYOND} slower of {len(latencies)} samples",
    }
    return metrics, notes


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(workload, tracer, outcomes, replay, counts):
    """Self time per layer (sum and share of request time), counts from
    result.stats over the distinct requests answered, and trace overhead."""
    self_s = tracer.self_seconds()
    request_s = sum(end - start for name, start, end, _p, _r in tracer.spans if name == "request")
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_ms"] = metric(self_s.get(layer, 0.0) * 1000.0, "ms")
        metrics[f"{layer}_share"] = metric(_ratio(self_s.get(layer, 0.0), request_s), "frac")

    stats = defaultdict(list)
    seen = set()
    for o in outcomes:
        if not o.error and o.index not in seen:
            seen.add(o.index)
            stats[LAYER_OF.get(o.solver)].append(o.result.stats)
    oracle = stats["oracle"]
    tree = stats["tree_solvers"]
    vitw = [s for s in stats["vitw"] if "states" in s]
    colour = stats["colorcoding"]
    randomized = [s for s in colour if s.get("mode") == "randomized"]
    exhaustive = [s for s in colour if s.get("mode") == "exhaustive"]
    metrics.update(
        {
            "oracle.states": metric(_mean([s["states"] for s in oracle]), "count"),
            "tree_solvers.states": metric(_mean([s["states"] for s in tree]), "count"),
            "tree_solvers.state_fill": metric(
                _ratio(sum(s["states"] for s in tree), sum(s["state_space"] for s in tree)), "frac"
            ),
            "vitw.states": metric(_mean([s["states"] for s in vitw]), "count"),
            "vitw.max_live_states": metric(max((s["max_live_states"] for s in vitw), default=0), "count"),
            "vitw.states_per_step": metric(
                _ratio(sum(s["states"] for s in vitw), sum(s["effective_lifetime"] + 1 for s in vitw)), "count"
            ),
            "colorcoding.colourings": metric(
                _mean([s.get("colourings", s.get("trials_used", 0)) for s in colour]), "count"
            ),
            "colorcoding.tables": metric(_mean([s.get("tables", 0) for s in exhaustive]), "count"),
            "colorcoding.trials_used_frac": metric(
                _ratio(sum(s["trials_used"] for s in randomized), sum(s["trials"] for s in randomized)), "frac"
            ),
            "colorcoding.randomized_miss_frac": metric(_ratio(counts["misses"], counts["randomized"]), "frac"),
            "trace.intended_share": metric(
                _ratio(sum(self_s.get(layer, 0.0) for layer in INTENDED[workload]), request_s), "frac"
            ),
            "trace.overhead_frac": metric(
                _ratio(sum(o.seconds for o in outcomes), sum(o.seconds for o in replay)) - 1.0, "frac"
            ),
        }
    )
    return metrics


def probe(tracer, ccto, request, outcome):
    """Attribution probes, outside the request span: the graph index
    queries dispatch and the tree checks make, the vitw bag sequence, and
    one min-walk table for colour coding."""
    graph = ccto.parse_instance(request.text).graph

    def index():
        graph.is_tree()
        for v in range(graph.n):
            graph.neighbors(v)
        for u, v in sorted(graph.edges):
            graph.max_traversal_number(u, v)

    within_deadline(tracer.call, "core.index", index)
    if outcome.solver == "vitw":
        within_deadline(tracer.call, "vitw.sequence", ccto.vitw_sequence, graph)
    if outcome.solver == "colorcoding":
        within_deadline(tracer.call, "colorcoding.table", ccto.all_pairs_min_walk, graph)


def load_ccto():
    """Import ccto from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        ccto = importlib.import_module("ccto")
    except ImportError as exc:
        print(f"error: cannot import ccto from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if SRC.resolve() not in Path(ccto.__file__).resolve().parents:
        print(f"error: ccto was imported from {ccto.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_ccto()
    signal.signal(signal.SIGALRM, _expire)
    ccto, requests, setup_s, deterministic = setup(args.workload, args.seed)
    digest = hashlib.sha256(repr(requests).encode()).hexdigest()[:16]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"pool {len(requests)} requests, digest {digest}, same texts on every set-up: {deterministic}")

    checker = Checker(ccto, args.workload, requests)
    if args.trace:
        tracer = Tracer()
        outcomes, elapsed = closed_loop(
            Pipeline(ccto, tracer),
            requests,
            args.seconds,
            after=lambda o: probe(tracer, ccto, requests[o.index], o),
        )
        replay = [run_one(checker.plain, requests[o.index], o.index) for o in outcomes]
        counts = tally(checker, outcomes)
        replay_counts = tally(checker, replay)
        wrong = counts["wrong"] + replay_counts["wrong"]
        metrics = per_layer(args.workload, tracer, outcomes, replay, counts)
        notes = {}
        tracer.write(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        intended = " + ".join(INTENDED[args.workload])
        share = metrics["trace.intended_share"]["value"]
        print(f"intended layers {intended} hold {share:.1%} of request time")
    else:
        outcomes, elapsed = closed_loop(Pipeline(ccto, NoTrace()), requests, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counts = tally(checker, outcomes)
        wrong = counts["wrong"]
        metrics, notes = end_to_end(outcomes, elapsed, counts, setup_s, peak_rss_mb)

    failed = counts["attempted"] - counts["ok"]
    print(f"requests {counts['attempted']} in {elapsed:.2f} s, {len({o.index for o in outcomes})} distinct")
    print(f"failed_frac {failed / counts['attempted']:.4f} ({failed} of {counts['attempted']})")
    print(
        f"randomized_miss_frac {_ratio(counts['misses'], counts['randomized']):.4f} "
        f"({counts['misses']} of {counts['randomized']} randomized answers above the optimum or not found)"
    )
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {entry['value']:.6g} {entry['unit']}{note}")
    for problem in checker.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = deterministic and wrong == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": counts["attempted"], "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
