"""Pinned answer records: the exact answers the solvers give on a fixed
input set, one line per request.

Rewrite the records file from the repository root with

    PYTHONPATH=src python3 tests/pinned_answers.py

A line reads `id solver feasible cost counts witness`: the request id, the
solver that answered, yes/no, the optimal cost, the colourings or trials
colour coding used (`-` for other solvers), and the full witness walk as
`u,v,depart,arrive` steps joined by `;` (`-` when there is none). A run
that raises is pinned as `refused` or `error` with the exception's class.
The inputs:

- every request of the four perfbench pools at seed 1, run as
  `perfbench/run.py`'s `Pipeline` runs them (parse, budget precheck,
  dispatch for `auto`, the solver and `verify_result`);
- QUERIES seeded `random_instance` queries through every `cli.SOLVERS`
  row, colour coding in both modes.

tests/test_pinned_answers.py regenerates them and compares line by line,
so a changed answer names the request that moved.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import ccto
import ccto.cli
from ccto.colorcoding import DEFAULT_FAILURE_PROB
from ccto.core import CapabilityError, NotApplicableError

ROOT = Path(__file__).resolve().parent.parent
RECORDS = Path(__file__).resolve().parent / "pinned_answers.txt"
POOL_SEED = 1
# Tier-1 checks every POOL_STRIDE-th pool request (see test_pinned_answers.py).
POOL_STRIDE = 7
WORKLOADS = ("small_dense", "colour", "big_graph", "sparse_time")
QUERIES = 300


def _perfbench():
    """perfbench/run.py and its workloads module, imported from the checkout."""
    path = str(ROOT / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import run
    import workloads

    return run, workloads


def record(name, outcome) -> str:
    """The record line of one request: `outcome` is (solver, SolveResult)
    or the exception the request raised."""
    if isinstance(outcome, Exception):
        refused = isinstance(outcome, (NotApplicableError, CapabilityError))
        return f"{name} {'refused' if refused else 'error'} {type(outcome).__name__}"
    solver, result = outcome
    counts = ",".join(
        f"{key}={result.stats[key]}"
        for key in ("colourings", "trials", "trials_used")
        if key in result.stats
    )
    witness = ";".join(",".join(map(str, step)) for step in result.witness or ())
    return (
        f"{name} {solver} {'yes' if result.feasible else 'no'} {result.optimal_cost} "
        f"{counts or '-'} {witness or '-'}"
    )


def _attempt(solve, *args):
    try:
        return solve(*args)
    except (NotApplicableError, CapabilityError, ValueError) as exc:
        return exc


def pool_pipeline(workload):
    """A seed-1 perfbench pool and a `Pipeline` that runs it untraced."""
    run, workloads = _perfbench()
    pool = workloads.GENERATORS[workload](ccto, random.Random(f"{workload}:{POOL_SEED}"))
    return pool, run.Pipeline(ccto, run.NoTrace())


def pool_records(workload, stride=1):
    """Records of every `stride`-th request of a seed-1 perfbench pool."""
    pool, pipeline = pool_pipeline(workload)
    return [
        record(f"{workload}/{index}", _attempt(pipeline.solve, pool[index]))
        for index in range(0, len(pool), stride)
    ]


def query(seed):
    """The seed-th small random query: n 2-8, horizon 2-9, trees and
    general graphs."""
    return ccto.random_instance(
        seed=seed,
        n=2 + seed % 7,
        horizon=2 + seed % 8,
        density=(0.1, 0.3, 0.5)[seed % 3],
        shape="general" if seed % 2 else "tree",
    )


def row_records(seeds=range(QUERIES)):
    """Records of each seeded query through every solver row."""
    lines = []
    for seed in seeds:
        instance = query(seed)
        for name, solver in ccto.cli.SOLVERS.items():
            modes = ("exhaustive", "randomized") if name == "colorcoding" else (None,)
            for mode in modes:
                args = argparse.Namespace(mode=mode, seed=seed, failure_prob=DEFAULT_FAILURE_PROB)
                result = _attempt(solver.run, instance, (), args)
                outcome = result if isinstance(result, Exception) else (result.solver, result)
                lines.append(record(f"random/{seed}/{name}{'-' + mode if mode else ''}", outcome))
    return lines


def all_records():
    return [line for w in WORKLOADS for line in pool_records(w)] + row_records()


def read_records():
    """The pinned file as {id: line}."""
    lines = RECORDS.read_text(encoding="utf-8").splitlines()
    return {line.split(" ", 1)[0]: line for line in lines}


if __name__ == "__main__":
    RECORDS.write_text("\n".join(all_records()) + "\n", encoding="utf-8")
