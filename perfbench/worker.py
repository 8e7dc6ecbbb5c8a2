"""One benchmark process: set up one workload, then run it as a closed loop.

Started by run.py with ``src`` on PYTHONPATH. One caller, no threads: each
operation starts when the previous one has returned and been checked. The
worker prints one JSON line for run.py: the time it became ready to time its
first operation, and, unless ``--setup-only``, the latency of every
successful operation, the counts, peak memory, the layer totals and the
set-up samples it took.

Set-up time on a shared virtual machine moves in bursts of a few seconds,
so an untraced worker samples it at even intervals across the run: between
two operations it starts a ``--setup-only`` copy of itself and waits for it.
The copy runs alone, and the time it takes is left out of the run's clock.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import types
from collections import defaultdict

import checks
import workloads

# Spans are recorded around public calls into the package and named
# layer.function: the functions `cli.main` calls, patched in the cli module
# when tracing, and the ones library operations call; attribute -> span.
CLI_CHILDREN = {
    "graph_from_json": "graphs.graph_from_json",
    "sigma_exact": "solver.sigma_exact",
    "lower_bound_girth": "solver.lower_bound_girth",
    "optimal_construction": "constructions.optimal_construction",
    "embed_grid": "planar.embed_grid",
    "stretch_lower_bound": "planar.stretch_lower_bound",
}
LIBRARY_CALLS = {
    "make_graph": "graphs.make_graph",
    "sigma_exact": "solver.sigma_exact",
    "validate_instance": "convex.validate_instance",
    "construct_tree": "convex.construct_tree",
    "classify_split": "constructions.classify_split",
    "count_spanning_trees_kirchhoff": "solver.count_spanning_trees_kirchhoff",
}
SPANS = tuple(dict.fromkeys(["cli.main", *CLI_CHILDREN.values(), *LIBRARY_CALLS.values()]))
COUNTS = ("solver.trees_enumerated", "convex.construct_tree_failed")
SETUP_SAMPLES = 24

# The package is imported inside functions: importing it is timed as set-up.


class Tracer:
    """Busy time and call count per span, plus counters; kept in memory."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.cli_children = 0.0

    def wrap(self, name, fn, under_cli=False):
        from treestretch.graphs import GraphError

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except GraphError:
                if name == "convex.construct_tree":
                    self.counts["convex.construct_tree_failed"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                self.busy[name] += dt
                self.calls[name] += 1
                if under_cli:
                    self.cli_children += dt
            if name == "solver.sigma_exact":
                self.counts["solver.trees_enumerated"] += result.trees_enumerated
            return result

        return traced

    def metrics(self) -> dict:
        out = {}
        for name in SPANS:
            out[f"{name}_ms"] = (self.busy[name] * 1e3, "ms")
            out[f"{name}.calls"] = (self.calls[name], "count")
        out["cli.self_ms"] = ((self.busy["cli.main"] - self.cli_children) * 1e3, "ms")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        return out


def load_library(tracer: Tracer | None):
    """The package entry points the operations call, wrapped when tracing."""
    import treestretch.cli as cli
    from treestretch import (
        GraphError,
        classify_split,
        construct_tree,
        count_spanning_trees_kirchhoff,
        make_graph,
        sigma_exact,
        validate_instance,
    )

    lib = types.SimpleNamespace(
        GraphError=GraphError,
        cli_main=cli.main,
        make_graph=make_graph,
        sigma_exact=sigma_exact,
        validate_instance=validate_instance,
        construct_tree=construct_tree,
        classify_split=classify_split,
        count_spanning_trees_kirchhoff=count_spanning_trees_kirchhoff,
    )
    if tracer is None:
        return lib
    for attr, span in CLI_CHILDREN.items():
        setattr(cli, attr, tracer.wrap(span, getattr(cli, attr), under_cli=True))
    lib.cli_main = tracer.wrap("cli.main", cli.main)
    for attr, span in LIBRARY_CALLS.items():
        setattr(lib, attr, tracer.wrap(span, getattr(lib, attr)))
    return lib


def setup_sample() -> float:
    """Seconds from spawning a set-up-only copy of this worker until it was
    ready to time its first operation."""
    started = time.monotonic()
    out = subprocess.run([sys.executable, __file__, *sys.argv[1:], "--setup-only"],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return json.loads(out.splitlines()[-1])["ready"] - started


def run_op(op, lib, verified: dict, errors: list):
    """Run one operation and check its output; return its latency in seconds,
    or None if the program refused it.

    ``verified`` maps an operation to the last output that passed its check.
    """
    t0 = time.perf_counter()
    try:
        out = op.run(lib)
    except (lib.GraphError, workloads.OpFailed) as exc:
        if not op.known_fault:
            errors.append(f"{op.label}: unexpected failure: {exc}")
        return None
    dt = time.perf_counter() - t0
    try:
        value = op.parse(out)
        if verified.get(id(op)) != value:
            op.check(value)
            verified[id(op)] = value
    except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
        errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
    return dt


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = time.monotonic()
    import treestretch.cli  # noqa: F401  (timed: import cost is part of set-up)
    t1 = time.monotonic()
    ops, warm = workloads.WORKLOADS[args.workload](args.seed)
    t2 = time.monotonic()
    tracer = Tracer() if args.trace else None
    lib = load_library(tracer)
    errors: list[str] = []
    verified: dict = {}
    for op in warm:
        if run_op(op, lib, verified, errors) is None:
            errors.append(f"{op.label}: warm-up failed")
    ready = time.monotonic()
    setup = {"import_ms": (t1 - t0) * 1e3, "inputs_ms": (t2 - t1) * 1e3,
             "warmup_ms": (ready - t2) * 1e3}
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup": setup, "errors": errors}))
        return 0

    if tracer is not None:
        tracer.reset()
    per_op: dict[str, list[float]] = {op.label: [] for op in ops}
    attempted = failed = rounds = 0
    samples: list[float] = []
    interval = args.seconds / SETUP_SAMPLES
    next_sample = interval / 2 if tracer is None else float("inf")
    start = time.perf_counter()
    paused = 0.0

    def clock() -> float:
        return time.perf_counter() - start - paused

    while not rounds or clock() < args.seconds:
        for op in ops:
            dt = run_op(op, lib, verified, errors)
            attempted += 1
            if dt is None:
                failed += 1
            else:
                per_op[op.label].append(dt)
            if clock() >= next_sample and len(samples) < SETUP_SAMPLES:
                t = time.perf_counter()
                samples.append(setup_sample())
                paused += time.perf_counter() - t
                next_sample = clock() + interval
        rounds += 1
    print(json.dumps({
        "ready": ready,
        "setup": setup,
        "errors": errors[:20],
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "round_size": len(ops),
        "latencies": per_op,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": tracer.metrics() if tracer is not None else {},
        "setup_samples_s": samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
