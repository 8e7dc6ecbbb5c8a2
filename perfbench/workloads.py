"""The three workloads: how each builds its operations from a seed, runs
them and checks them.

An operation (``Op``) is one closed-loop request. Its output is checked
against answers the benchmark computes itself; a later round of the same
input that gives an identical output needs no second check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

import checks
import inputs


class OpFailed(Exception):
    """The CLI refused an operation: it returned a non-zero exit code."""


@dataclass
class Op:
    """``run`` is timed; ``parse`` turns its output into a comparable value
    outside the timed region, and ``check`` raises CheckError if it is wrong."""

    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    parse: Callable[[Any], Any] = lambda out: out
    known_fault: bool = False


# ---------------------------------------------------------------------------
# CLI operations, run in-process


def _call_cli(lib, argv, stdin_text=None) -> str:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli_main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _report(text: str) -> dict:
    """The JSON report without its one varying field."""
    report = json.loads(text)
    report.pop("runtime_s", None)
    return report


def solve_op(label: str, n: int, edges, sigma: int) -> Op:
    text = json.dumps({"n": n, "edges": [list(e) for e in edges], "meta": {}})

    return Op(
        label,
        lambda lib: _call_cli(lib, ["solve", "-"], text),
        lambda report: checks.verify_solve(n, edges, sigma, report),
        _report,
    )


def construct_op(label: str, argv, n: int, edges, expect: dict) -> Op:
    return Op(
        label,
        lambda lib: _call_cli(lib, ["construct", *argv]),
        lambda report: checks.verify_construct(n, edges, expect, report),
        _report,
    )


# ---------------------------------------------------------------------------
# Library operations


def convex_op(label: str, n_y: int, tau, sigma, known_fault=False) -> Op:
    n, edges = inputs.bipartite(n_y, sigma)

    def run(lib):
        inst = lib.validate_instance(n_y, tau, sigma)
        tree = lib.construct_tree(inst)
        exact = lib.sigma_exact(inst.graph)
        return tree.edge_pairs(), exact.sigma, exact.optimal_tree.edge_pairs()

    return Op(label, run, lambda out: checks.verify_convex(n, edges, *out), known_fault=known_fault)


def split_op(label: str, n: int, edges, clique, independent) -> Op:
    def run(lib):
        g = lib.make_graph(n, edges)
        cls = lib.classify_split(g, clique, independent)
        exact = lib.sigma_exact(g)
        return cls.sigma, exact.sigma, exact.optimal_tree.edge_pairs()

    return Op(label, run, lambda out: checks.verify_split(n, edges, clique, independent, *out))


def count_op(label: str, n: int, edges, sigma: int, trees: int) -> Op:
    def run(lib):
        g = lib.make_graph(n, edges)
        exact = lib.sigma_exact(g, use_pruning=False)
        kirchhoff = lib.count_spanning_trees_kirchhoff(g)
        return exact.sigma, exact.trees_enumerated, kirchhoff, exact.optimal_tree.edge_pairs()

    return Op(label, run, lambda out: checks.verify_count(n, edges, sigma, trees, *out))


# ---------------------------------------------------------------------------
# Workloads: build(seed) -> (round of ops, warm-up ops)

# (label, graph, sigma, relabellings per round, how they are drawn). Most
# searches move far from their canonical cost under relabelling (BFS order:
# rect(3,5) 0.01-0.15 s, rect(3,6) 0.006-1.4 s, trirect(3,4) 0.02-0.27 s,
# tri(4) 5-20 s), so those stay canonical. K_{3,3,3} keeps its cost within a
# few per cent under uniform relabellings, rect(4,4) within 0.45-0.9 s under
# BFS ones (uniform: 0.6-1.6 s). Five K_{3,3,3} relabellings put the median of
# a round's 13 operations among six searches of nearly equal cost.
LADDER = [
    ("K_{3,3,3}", inputs.multipartite((3, 3, 3)), checks.sigma_multipartite((3, 3, 3)), 5, "uniform"),
    ("rect(3,5)", inputs.rect_grid(3, 5), checks.sigma_rect(3, 5), 0, None),
    ("rect(4,4)", inputs.rect_grid(4, 4), checks.sigma_rect(4, 4), 2, "bfs"),
    ("rect(3,6)", inputs.rect_grid(3, 6), checks.sigma_rect(3, 6), 0, None),
    ("trirect(3,4)", inputs.tri_rect_grid(3, 4), checks.sigma_tri_rect(3, 4), 0, None),
    ("tri(4)", inputs.tri_grid(4), checks.sigma_tri(4), 0, None),
]


def exact_ladder(seed: int):
    rng = random.Random(seed)
    ops = []
    for label, (n, edges), sigma, relabellings, kind in LADDER:
        ops.append(solve_op(label, n, edges, sigma))
        for k in range(relabellings):
            perm = inputs.bfs_relabelling(n, edges, rng) if kind == "bfs" else inputs.shuffled(n, rng)
            ops.append(solve_op(f"{label}~{k}", n, inputs.relabel(n, edges, perm), sigma))
    n, edges = inputs.petersen()
    return ops, [solve_op("petersen", n, edges, checks.PETERSEN_SIGMA)]


CONVEX_PER_ROUND = 300
SPLIT_PER_SHAPE = 12
# (clique, independent) sizes with at most 7 vertices in all. On larger split
# graphs of stretch 3 with a triangle the search must exhaust, taking 20-170
# ms on some draws, and how many a seed draws would set the workload's speed.
SPLIT_SHAPES = [(c, i) for c in range(2, 6) for i in range(1, 5) if c + i <= 7]
COUNTS = [
    ("K_5", inputs.complete(5), 2, checks.tree_count_complete(5)),
    ("K_6", inputs.complete(6), 2, checks.tree_count_complete(6)),
    ("K_7", inputs.complete(7), 2, checks.tree_count_complete(7)),
    ("K_{3,3}", inputs.multipartite((3, 3)), 3, checks.tree_count_bipartite(3, 3)),
    ("K_{3,4}", inputs.multipartite((3, 4)), 3, checks.tree_count_bipartite(3, 4)),
    ("Petersen", inputs.petersen(), checks.PETERSEN_SIGMA, checks.PETERSEN_TREES),
]


def verify_batch(seed: int):
    rng = random.Random(seed)
    ops = []
    for i, instance in enumerate(inputs.convex_pool_draw(rng, CONVEX_PER_ROUND)):
        ops.append(convex_op(f"convex#{i}", *instance))
    for k, s, n_y, tau, sigma in inputs.KNOWN_FAULTS:
        ops.append(convex_op(f"convex-fault(k={k},seed={s})", n_y, tau, sigma, known_fault=True))
    for i, n_y, tau, sigma in inputs.POOL_FAULTS:
        ops.append(convex_op(f"convex-pool-fault(i={i})", n_y, tau, sigma, known_fault=True))
    for clique, n_ind in SPLIT_SHAPES:
        for i in range(SPLIT_PER_SHAPE):
            n, edges, cl, ind = inputs.random_split(rng, clique, n_ind)
            ops.append(split_op(f"split({clique},{n_ind})#{i}", n, edges, cl, ind))
    for label, (n, edges), sigma, trees in COUNTS:
        ops.append(count_op(label, n, inputs.relabel(n, edges, inputs.shuffled(n, rng)), sigma, trees))
    n, edges = inputs.complete(4)
    warm = [
        convex_op("warm-convex", 3, [(0, 1), (1, 2)], [[0, 1], [1, 2], [0, 1, 2]]),
        split_op("warm-split", n, edges, [0, 1, 2, 3], []),
        count_op("warm-count", n, edges, 2, checks.tree_count_complete(4)),
    ]
    return ops, warm


# Grid sizes by vertex count: (rows, columns) shapes with exactly that many
# vertices, the side of the triangular grid with about as many, and how many
# rect and trirect shapes the seed draws. A rect grid's cost hardly depends on
# its shape, a trirect grid's does. The round has 19 operations: eight cost
# under 150 ms (the grids of about 360 vertices, three multipartite and two
# chain graphs), eight over 250 ms, and the three rect grids of 540 vertices,
# about 200 ms each, sit in the middle. The median is the middle one of those
# three whatever the draw, with a whole operation of margin on either side.
GRID_SIZES = {
    360: ([(12, 30), (15, 24), (18, 20)], 25, 1, 1),
    540: ([(12, 45), (15, 36), (18, 30), (20, 27)], 31, 3, 1),
    720: ([(12, 60), (15, 48), (16, 45), (18, 40), (20, 36), (24, 30)], 36, 1, 1),
    900: ([(12, 75), (15, 60), (18, 50), (20, 45), (25, 36), (30, 30)], 41, 1, 1),
}


def _grid_ops(rng: random.Random):
    ops = []
    for shapes, t, rect_draws, trirect_draws in GRID_SIZES.values():
        for m, n in rng.sample(shapes, rect_draws):
            v, edges = inputs.rect_grid(m, n)
            sigma = checks.sigma_rect(m, n)
            ops.append(construct_op(
                f"rect({m},{n})", ["rect-grid", str(m), str(n)], v, edges,
                {"sigma": sigma, "girth_lb": 3, "level_lb": sigma},
            ))
        v, edges = inputs.tri_grid(t)
        sigma = checks.sigma_tri(t)
        ops.append(construct_op(
            f"tri({t})", ["tri-grid", str(t)], v, edges,
            {"sigma": sigma, "girth_lb": 2, "level_lb": sigma},
        ))
        for m, n in rng.sample(shapes, trirect_draws):
            v, edges = inputs.tri_rect_grid(m, n)
            sigma = checks.sigma_tri_rect(m, n)
            ops.append(construct_op(
                f"trirect({m},{n})", ["tri-rect-grid", str(m), str(n)], v, edges,
                {"sigma": sigma, "girth_lb": 2, "level_lb": sigma},
            ))
    return ops


def _multipartite_op(parts) -> Op:
    v, edges = inputs.multipartite(parts)
    return construct_op(
        "K_{" + ",".join(map(str, parts)) + "}",
        ["complete-multipartite", *map(str, parts)], v, edges,
        {"sigma": checks.sigma_multipartite(parts), "girth_lb": 2 if len(parts) >= 3 else 3,
         "level_lb": None},
    )


def _chain_op(label: str, m: int, n: int, sizes) -> Op:
    v, edges = inputs.chain(m, n, sizes)
    return construct_op(
        label, ["chain", str(m), str(n), *map(str, sizes)], v, edges,
        {"sigma": 3, "girth_lb": 3, "level_lb": None},
    )


MULTIPARTITE_VERTICES = 80


def _parts(rng: random.Random, smallest: int, count: int, total: int) -> list[int]:
    """``count`` part sizes, each at least ``smallest``, summing to ``total``
    (ascending, as the construction requires)."""
    free = total - smallest * count
    cuts = sorted(rng.randint(0, free) for _ in range(count - 1))
    return sorted(smallest + b - a for a, b in zip([0, *cuts], [*cuts, free]))


def construct_large(seed: int):
    rng = random.Random(seed)
    ops = _grid_ops(rng)
    for smallest in (1, 4, 8):
        rest = _parts(rng, smallest, rng.randint(2, 4), MULTIPARTITE_VERTICES - smallest)
        ops.append(_multipartite_op([smallest, *rest]))
    for k in range(2):
        m, n = rng.randint(24, 32), rng.randint(24, 32)
        sizes = sorted(rng.randint(2, n) for _ in range(m - 1)) + [n]
        ops.append(_chain_op(f"chain#{k}({m},{n})", m, n, sizes))
    warm = [
        construct_op("warm-rect", ["rect-grid", "4", "5"], *inputs.rect_grid(4, 5),
                     {"sigma": 5, "girth_lb": 3, "level_lb": 5}),
        _multipartite_op([2, 3, 3]),
    ]
    return ops, warm


WORKLOADS = {
    "exact-ladder": exact_ladder,
    "verify-batch": verify_batch,
    "construct-large": construct_large,
}

# The tail percentile of each workload. Percentile * successful operations
# per round falls well inside one operation's place in the sorted round
# (exact-ladder 12.48 of 13, verify-batch 461.54 of 462), or inside a group
# of operations of nearly equal cost (construct-large 17.29 of 19, in the
# group of places 18 and 19), so the value stays on that operation or group
# whatever the number of rounds in a run, and one slow sample of a neighbour
# does not move it.
TAIL_PERCENTILE = {
    "exact-ladder": 96,
    "verify-batch": 99.9,
    "construct-large": 91,
}
