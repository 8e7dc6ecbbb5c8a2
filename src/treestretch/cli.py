"""Command-line front end for generation, construction, solving, and levels.

Every subcommand is a thin shell over the library. JSON reports carry a
``"schema": 1`` field and are emitted with sorted keys, so identical
arguments (and seed) produce byte-identical output except for the
``runtime_s`` field. Exit codes: 0 success, 1 validation or parameter
error or standard output closed early, 2 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from operator import itemgetter
from typing import Sequence

from . import convex as convex_mod
from .families import (
    FAMILIES,
    Chain,
    Complete,
    CompleteBipartite,
    CompleteMultipartite,
    Cycle,
    Diamond,
    FamilyGraph,
    FamilySpec,
    Petersen,
    RectGrid,
    Split,
    TriGrid,
    TriRectGrid,
    Wheel,
    embed_grid,  # not called here; kept as an attribute that tracing wraps by name
    family_of,
    make,
    optimal_construction,
    random_convex_spec,
    random_glued_blocks,
    stretch_lower_bound,
)
from .graphs import (
    GraphError,
    ParameterError,
    ResourceLimitError,
    ValidationError,
    graph_from_json,
    graph_to_json,
    stretch,
    to_dot,
)
from .planar import embed_cube, face_levels, overlay_dot
from .solver import DEFAULT_MAX_TREES, check_tree_cap, lower_bound_girth, sigma_exact


_MAX_TREES_HELP = (
    "exit 2 when the search reaches more than this many spanning trees; the cap "
    "counts finished trees, not search work, so it does not bound the running time"
)


def _tree_cap(text: str) -> int:
    """Parse ``--max-trees``; a cap below 1 is refused while parsing, before any output."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return check_tree_cap(cap)


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems as parameter errors."""

    def error(self, message):
        raise ParameterError(message)


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))


_PARSERS = {name: parse for fam in FAMILIES for name, parse in fam.cli.items()}


def _parse_spec(name: str, params: Sequence[str], seed: int) -> FamilySpec:
    """Build a family spec from CLI words; random-* families consume the seed."""
    if name not in _PARSERS:
        raise ParameterError(f"unknown family {name!r}")
    return _PARSERS[name](name, params, seed)


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"expected a JSON object in {path}")
    return data


def cmd_generate(args) -> int:
    if args.family == "random-blocks":
        if args.params:
            raise ParameterError("random-blocks takes no parameters (use --seed)")
        g = random_glued_blocks(random.Random(args.seed))
        meta = {"family": "random-blocks", "seed": args.seed}
    else:
        fam = make(_parse_spec(args.family, args.params, args.seed))
        g, meta = fam.graph, fam.meta
    if args.dot:
        coords = meta.get("coordinates")
        print(to_dot(g, coordinates=coords), end="")
        return 0
    _emit(graph_to_json(g, meta))
    return 0


def _lower_bounds(built: FamilyGraph) -> tuple[int | None, int | None]:
    """The girth bound when the graph has a cycle, and the face-level bound of a plane grid."""
    g = built.graph
    girth_lb = lower_bound_girth(g) if g.m >= g.n else None
    level_lb = stretch_lower_bound(built) if built.plane is not None else None
    return girth_lb, level_lb


def cmd_construct(args) -> int:
    started = time.perf_counter()
    spec = _parse_spec(args.family, args.params, args.seed)
    fam = family_of(spec)
    result = optimal_construction(spec)
    g = result.tree.host
    girth_lb, level_lb = _lower_bounds(result.family_graph)
    report = {
        "schema": 1,
        "command": "construct",
        "family": {"family": fam.name, **fam.describe(spec)},
        "sigma_formula": result.sigma,
        "sigma_measured": result.certificate.stretch,
        "degenerate": result.degenerate,
        "tree": [list(p) for p in result.tree.edge_pairs()],
        "lower_bound_girth": girth_lb,
        "lower_bound_level": level_lb,
    }
    if args.verify:
        exact = sigma_exact(g, use_pruning=not args.no_prune, max_trees=args.max_trees)
        report["sigma_exact"] = exact.sigma
        report["trees_enumerated"] = exact.trees_enumerated
    report["runtime_s"] = round(time.perf_counter() - started, 6)
    _emit(report)
    return 0


def cmd_solve(args) -> int:
    started = time.perf_counter()
    g, _ = graph_from_json(_read_json(args.file))
    result = sigma_exact(g, use_pruning=not args.no_prune, max_trees=args.max_trees)
    report = {
        "schema": 1,
        "command": "solve",
        "n": g.n,
        "m": g.m,
        "sigma": result.sigma,
        "optimal_tree": [list(p) for p in result.optimal_tree.edge_pairs()],
        "trees_enumerated": result.trees_enumerated,
        "pruned": result.pruned,
        "lower_bound_girth": result.lower_bound_used,
        "runtime_s": round(time.perf_counter() - started, 6),
    }
    _emit(report)
    return 0


def cmd_convex(args) -> int:
    started = time.perf_counter()
    data = _read_json(args.file)
    meta = data.get("meta")
    if "tau_edges" not in data and isinstance(meta, dict) and "tau_edges" in meta:
        data = meta
    instance = convex_mod.instance_from_json(data)
    details = convex_mod.construct_details(instance)
    cert = stretch(instance.graph, details.tree)
    report = {
        "schema": 1,
        "command": "convex",
        "instance": convex_mod.instance_to_json(instance),
        "degenerate": details.structure is None,
        "tree": [list(p) for p in details.tree.edge_pairs()],
        "sigma_measured": cert.stretch,
    }
    if details.structure is not None:
        s = details.structure
        report["root"] = s.root
        report["levels"] = [list(level) for level in s.levels]
        report["predecessor"] = {str(j): i for j, i in sorted(s.predecessor.items())}
        report["discarded"] = {str(q): list(pair) for q, pair in sorted(s.discarded.items())}
    report["runtime_s"] = round(time.perf_counter() - started, 6)
    _emit(report)
    return 0


def cmd_levels(args) -> int:
    if args.family == "cube":
        if args.params:
            raise ParameterError("cube takes no parameters")
        plane, coords, row_of = embed_cube(), None, lambda label: 0
    else:
        spec = _parse_spec(args.family, args.params, seed=0)
        fam = family_of(spec)
        if fam.cells is None:
            raise ParameterError(f"no embedding for family {args.family!r}")
        built = make(spec)
        plane, coords, row_of = built.plane, built.meta["coordinates"], itemgetter(fam.row_axis)
    levels = face_levels(plane)
    if args.dual_dot:
        print(overlay_dot(plane, coordinates=coords), end="")
        return 0
    print(f"lambda_max = {levels.lambda_max}")
    rows: dict[int, list[int]] = {}
    for f in plane.bounded_faces:
        rows.setdefault(row_of(plane.labels[f]), []).append(levels.level[f])
    for r in sorted(rows):
        print(" ".join(str(v) for v in rows[r]))
    return 0


def _reproduce_rows():
    """The desk-scale verification matrix: (label, spec, run_exact) triples."""
    rows: list[tuple[str, FamilySpec, bool]] = []
    for n in range(3, 7):
        rows.append((f"K_{n}", Complete(n), True))
    for n in range(3, 9):
        rows.append((f"C_{n}", Cycle(n), True))
    for n in range(4, 8):
        rows.append((f"W_{n}", Wheel(n), True))
    for n in range(4, 7):
        rows.append((f"D_{n}", Diamond(n), True))
    for m in range(2, 5):
        for n in range(m, 5):
            rows.append((f"K_{{{m},{n}}}", CompleteBipartite(m, n), True))
    for parts in [
        (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
        (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3),
    ]:
        label = "K_{" + ",".join(str(p) for p in parts) + "}"
        rows.append((label, CompleteMultipartite(parts), True))
    rows.append(("Petersen", Petersen(), True))
    rows.append(("split(3;12,23)", Split(3, (frozenset({0, 1}), frozenset({1, 2}))), True))
    rows.append(
        (
            "split(3;12,23,13)",
            Split(3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))),
            True,
        )
    )
    rows.append(("chain(2,3;2,3)", Chain(2, 3, (2, 3)), True))
    rows.append(("chain(3,4;2,3,4)", Chain(3, 4, (2, 3, 4)), True))
    rng = random.Random(2024)
    for k in range(10):
        spec = random_convex_spec(rng, max_x=4, max_y=4, require_cycle=True)
        rows.append((f"convex#{k}", spec, True))
    exact_rect = {
        (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5),
    }
    for m in range(2, 6):
        for n in range(m, 6):
            rows.append((f"rect({m},{n})", RectGrid(m, n), (m, n) in exact_rect))
    for n in range(1, 7):
        rows.append((f"tri({n})", TriGrid(n), n <= 4))
    exact_tri_rect = {(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)}
    for m in range(2, 5):
        for n in range(m, 6):
            rows.append((f"trirect({m},{n})", TriRectGrid(m, n), (m, n) in exact_tri_rect))
    return rows


def cmd_reproduce(args) -> int:
    header = f"{'instance':<18} {'formula':>7} {'built':>5} {'exact':>5} {'girth_lb':>8} {'level_lb':>8}  status"
    print(header)
    print("-" * len(header))
    disagreements = 0
    for label, spec, run_exact in _reproduce_rows():
        result = optimal_construction(spec)
        g = result.tree.host
        girth_lb, level_lb = _lower_bounds(result.family_graph)
        exact_sigma = None
        if run_exact:
            exact_sigma = sigma_exact(g, max_trees=args.max_trees).sigma
        ok = result.certificate.stretch == result.sigma
        if exact_sigma is not None:
            ok = ok and exact_sigma == result.sigma
        for bound in (girth_lb, level_lb):
            if bound is not None:
                ok = ok and bound <= result.sigma
        if not ok:
            disagreements += 1
        print(
            f"{label:<18} {result.sigma:>7} {result.certificate.stretch:>5} "
            f"{exact_sigma if exact_sigma is not None else '-':>5} "
            f"{girth_lb if girth_lb is not None else '-':>8} "
            f"{level_lb if level_lb is not None else '-':>8}  "
            f"{'ok' if ok else 'DISAGREE'}"
        )
    print(f"{disagreements} disagreement(s)")
    return 0 if disagreements == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treestretch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a family graph as canonical JSON")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--seed", type=int, default=0, help="seed for random-* families")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("construct", help="build the family's optimal tree")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--verify", action="store_true", help="also run the exact solver")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument(
        "--max-trees", type=_tree_cap, default=DEFAULT_MAX_TREES, help=_MAX_TREES_HELP
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("solve", help="exact minimum stretch of a graph JSON file")
    p.add_argument("file", help="graph JSON path, or - for stdin")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument(
        "--max-trees", type=_tree_cap, default=DEFAULT_MAX_TREES, help=_MAX_TREES_HELP
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("convex", help="validate and solve a host-tree instance JSON")
    p.add_argument("file", help="instance JSON path, or - for stdin")
    p.set_defaults(func=cmd_convex)

    p = sub.add_parser("levels", help="face levels of a grid embedding")
    p.add_argument("family", help="rect-grid | tri-grid | tri-rect-grid | cube")
    p.add_argument("params", nargs="*")
    p.add_argument("--dual-dot", action="store_true", help="emit a primal+dual DOT overlay")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("reproduce", help="run the verification matrix")
    p.add_argument(
        "--max-trees", type=_tree_cap, default=DEFAULT_MAX_TREES, help=_MAX_TREES_HELP
    )
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
        return code
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed standard output early (``| head``). Point it at devnull
        # so that the interpreter's flush at shutdown does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
