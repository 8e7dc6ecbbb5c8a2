"""Benchmark of the treestretch package: one workload per call.

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each workload runs in a fresh worker
process (worker.py) as a closed loop with one caller. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` the worker wraps the package's public calls and the line
holds the per-layer metrics instead. Set-up time is the median over fresh
processes, from spawning the interpreter to the moment the worker could time
its first operation: the measuring worker and the set-up-only copies of it
that the worker starts at even intervals while it measures. Each run also
leaves its figures, with the median latency of every operation of the round,
in .perfbench/<workload>-seed<seed>-trace<0|1>.json under the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TAIL_PERCENTILE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"


def fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def spawn(args, timeout: float) -> tuple[float, dict]:
    """Start one worker, wait for it, return (spawn time, its JSON line)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    started = time.monotonic()
    # Its own process group, so that a set-up copy it has started is stopped
    # with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return started, json.loads(out.strip().splitlines()[-1])


def nearest_rank(count: int, p: float) -> int:
    """1-based rank of the nearest-rank p-th percentile of ``count`` values."""
    return max(1, int(-(-count * p // 100)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "treestretch" / "cli.py").is_file():
        return fail(f"no package source at {SRC / 'treestretch'}; run from a source checkout")
    for tree in (SRC, HERE):
        compileall.compile_dir(tree, quiet=1)

    try:
        started, res = spawn(args, timeout=args.seconds + 120)
        samples = [res["ready"] - started, *res["setup_samples_s"]]
    except (RuntimeError, ValueError, IndexError) as exc:
        return fail(str(exc))

    for line in res["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    lat = sorted(x for xs in res["latencies"].values() for x in xs)
    ok = len(lat)
    if not ok:
        return fail("no operation succeeded")
    tail = TAIL_PERCENTILE[args.workload]
    rank = nearest_rank(ok, tail)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["layers"].items()}
        for key, value in res["setup"].items():
            metrics[f"setup.{key}"] = {"value": value, "unit": "ms"}
        metrics["trace.op_p50_ms"] = {"value": statistics.median(lat) * 1e3, "unit": "ms"}
        metrics["trace.ops"] = {"value": ok, "unit": "count"}
    else:
        metrics = {
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": lat[rank - 1] * 1e3, "unit": "ms"},
            "ops_per_s": {"value": ok / sum(lat), "unit": "ops/s"},
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        **result,
        "run": vars(args),
        "rounds": res["rounds"],
        "round_size": res["round_size"],
        "setup_samples_s": samples,
        "tail": {"percentile": tail, "samples": ok, "beyond": ok - rank},
        "setup_ms": res["setup"],
        "errors": res["errors"],
        "op_median_ms": {label: statistics.median(xs) * 1e3
                         for label, xs in res["latencies"].items() if xs},
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(f"{args.workload}: {ok} ops in {res['rounds']} rounds of {res['round_size']}; "
          f"details in {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
