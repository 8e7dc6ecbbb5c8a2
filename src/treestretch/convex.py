"""Bipartite instances whose neighbor sets are subpaths of a host tree.

An instance consists of a tree tau on the Y-side vertices and an ordered family
Sigma = (Y_1, ..., Y_m) of Y-subsets, one per X-side vertex, each required to
induce a path in tau. The family must additionally satisfy a laminar condition
relative to every inclusion-maximal member. Such instances always admit a
spanning tree all of whose fundamental cycles have length four (stretch 3),
and this module builds one:

1. pick a root set that contains a tau-leaf and is inclusion-maximal;
2. grow breadth-first "levels": successors of a set Y_i are the remaining sets
   that overlap it, stick out of it, and have an inclusion-maximal union with it;
3. attach the X-vertices one at a time, the selected sets level by level and
   then the unselected ones in index order: each x_j joins every vertex of Y_j
   not yet in the tree, plus one anchor, a vertex of Y_j already in the tree
   that shares a tree neighbour with every other such vertex of Y_j.

Every edge the rule leaves out closes a 4-cycle through the anchor, so any
tree it finishes has stretch 3 (proved at ``_try_build``); no check follows.
That the rule always finds an anchor is not proved, so the builder retries
the other eligible roots and a second tie-break for the anchor.
Vertex numbering of the bipartite graph: x_i is vertex i (0 <= i < m), y_j is
vertex m + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graphs import (
    Graph,
    ParameterError,
    SpanningTree,
    ValidationError,
    is_connected,
    json_ints,
    make_graph,
    spanning_tree_from_pairs,
)


def check_laminar(family: Sequence[Iterable[int]]) -> tuple[bool, tuple[int, int] | None]:
    """True iff every pair of sets is nested or disjoint; else the violating pair."""
    sets = [frozenset(s) for s in family]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            inter = sets[i] & sets[j]
            if inter and not (sets[i] <= sets[j] or sets[j] <= sets[i]):
                return False, (i, j)
    return True, None


@dataclass(frozen=True)
class ConvexInstance:
    """A validated instance: host tree, neighbor-set family, bipartite graph.

    ``paths`` holds each Y_i's vertex sequence along its tau-subpath in a fixed
    canonical orientation (smaller endpoint first).
    """

    n_y: int
    tau_edges: tuple[tuple[int, int], ...]
    sigma: tuple[frozenset[int], ...]
    graph: Graph
    paths: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.sigma)

    def x_vertex(self, i: int) -> int:
        return i

    def y_vertex(self, j: int) -> int:
        return self.m + j

    @property
    def tau_adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.n_y)}
        for a, b in self.tau_edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def tau_leaves(self) -> list[int]:
        adj = self.tau_adjacency
        return [v for v in range(self.n_y) if len(adj[v]) <= 1]


def _subpath_sequence(tau_adj: Sequence[Sequence[int]], members: frozenset[int]) -> tuple[int, ...] | None:
    """Vertex sequence of the path induced by ``members`` in tau, or None."""
    if not members:
        return None
    if len(members) == 1:
        return (next(iter(members)),)
    degrees = {v: sum(1 for w in tau_adj[v] if w in members) for v in members}
    ends = sorted(v for v in members if degrees[v] == 1)
    if len(ends) != 2 or any(d > 2 for d in degrees.values()):
        return None
    seq = [ends[0]]
    prev = -1
    while seq[-1] != ends[1]:
        nxt = [w for w in tau_adj[seq[-1]] if w in members and w != prev]
        if len(nxt) != 1:
            return None
        prev = seq[-1]
        seq.append(nxt[0])
    if len(seq) != len(members):
        return None  # induced subgraph is disconnected
    return tuple(seq)


def validate_instance(
    n_y: int,
    tau_edges: Iterable[Sequence[int]],
    sigma: Sequence[Iterable[int]],
) -> ConvexInstance:
    """Check the subpath condition per set and laminarity per maximal member.

    Raises ValidationError naming the offending set (subpath violations) or the
    maximal set plus the offending pair (laminar violations).
    """
    edges = [(int(a), int(b)) for a, b in tau_edges]
    if n_y < 1:
        raise ParameterError("the host tree needs at least one vertex")
    if len(edges) != n_y - 1:
        raise ValidationError(f"host tree on {n_y} vertices needs {n_y - 1} edges, got {len(edges)}")
    tau = make_graph(n_y, edges)
    if not is_connected(tau):
        raise ValidationError("host tau is not connected, so it is not a tree")

    sets = []
    for i, raw in enumerate(sigma):
        s = frozenset(int(v) for v in raw)
        if not s:
            raise ValidationError(f"Y_{i + 1} is empty")
        if any(not (0 <= v < n_y) for v in s):
            raise ValidationError(f"Y_{i + 1} has a vertex outside the host tree")
        sets.append(s)
    if not sets:
        raise ValidationError("the family of neighbor sets is empty")

    paths = []
    for i, s in enumerate(sets):
        seq = _subpath_sequence(tau.adjacency, s)
        if seq is None:
            raise ValidationError(f"Y_{i + 1} does not induce a path in the host tree")
        paths.append(seq)

    for i0, y0 in enumerate(sets):
        if any(other is not y0 and y0 < other for other in sets):
            continue  # only inclusion-maximal members anchor the laminar check
        rel = []
        rel_index = []
        for i, s in enumerate(sets):
            if s & y0:
                rel.append(s - y0)
                rel_index.append(i)
        ok, pair = check_laminar(rel)
        if not ok:
            a, b = pair  # type: ignore[misc]
            raise ValidationError(
                f"laminar condition fails at maximal set Y_{i0 + 1}: "
                f"Y_{rel_index[a] + 1} and Y_{rel_index[b] + 1} cross outside it"
            )

    m = len(sets)
    graph_edges = []
    for i, s in enumerate(sets):
        for y in sorted(s):
            graph_edges.append((i, m + y))
    graph = make_graph(m + n_y, graph_edges)
    if not is_connected(graph):
        raise ValidationError(
            "the bipartite graph is disconnected "
            "(the neighbor sets do not cover and link all of the host tree)"
        )
    return ConvexInstance(
        n_y=n_y,
        tau_edges=tuple(sorted(tuple(sorted(e)) for e in edges)),
        sigma=tuple(sets),
        graph=graph,
        paths=tuple(paths),
    )


def root_candidates(instance: ConvexInstance) -> list[int]:
    """Indices of sets that contain a tau-leaf and are inclusion-maximal, ascending."""
    leaves = set(instance.tau_leaves())
    out = []
    for i, s in enumerate(instance.sigma):
        if not (s & leaves):
            continue
        if any(j != i and s < instance.sigma[j] for j in range(instance.m)):
            continue
        out.append(i)
    return out


@dataclass(frozen=True)
class LevelStructure:
    """Breadth-first selection of the family: levels, predecessor links, leftovers.

    ``discarded`` maps each unselected set q to a covering pair (i, j) with
    Y_i meeting Y_q and Y_q inside Y_i union Y_j; the degenerate pair (i, i)
    records plain containment Y_q inside Y_i.
    """

    root: int
    levels: tuple[tuple[int, ...], ...]
    predecessor: Mapping[int, int]
    discarded: Mapping[int, tuple[int, int]]

    @property
    def selected(self) -> list[int]:
        return [i for level in self.levels for i in level]


def level_sets(instance: ConvexInstance, root: int) -> LevelStructure:
    """Grow levels from the root until the selected sets cover Y.

    Successors of a selected Y_i are remaining sets that overlap it, have a
    vertex outside everything covered so far, and whose union with Y_i is
    inclusion-maximal among Y_i's candidates; among candidates with identical
    unions only the lowest index is admitted. A twin of a selected set thus
    never becomes a candidate and is left for attachment as unselected.
    The structural guarantees the construction relies on (selected sets pairwise
    non-nested, sibling extensions disjoint, sets two levels apart disjoint) are
    asserted and raise ValidationError when violated.
    """
    sigma = instance.sigma
    m = instance.m
    if not (0 <= root < m):
        raise ParameterError(f"root index {root} out of range")
    y_all = frozenset(range(instance.n_y))
    remaining = set(range(m)) - {root}
    levels: list[tuple[int, ...]] = [(root,)]
    predecessor: dict[int, int] = {}
    covered = set(sigma[root])

    while covered != y_all:
        current = levels[-1]
        next_level: dict[int, int] = {}
        for i in current:
            cands = [
                j
                for j in sorted(remaining)
                if sigma[i] & sigma[j] and sigma[j] - covered
            ]
            unions = {j: sigma[i] | sigma[j] for j in cands}
            for j in cands:
                uj = unions[j]
                dominated = any(uj < unions[l] for l in cands) or any(
                    l < j and unions[l] == uj for l in cands
                )
                if not dominated and j not in next_level:
                    next_level[j] = i
        if not next_level:
            raise ValidationError(
                "level procedure stalled before covering Y "
                "(the bipartite graph is disconnected or the instance is invalid)"
            )
        for j in sorted(next_level):
            predecessor[j] = next_level[j]
            remaining.discard(j)
            covered |= sigma[j]
        levels.append(tuple(sorted(next_level)))

    selected = [i for level in levels for i in level]
    for a_pos in range(len(selected)):
        for b_pos in range(a_pos + 1, len(selected)):
            a, b = selected[a_pos], selected[b_pos]
            if sigma[a] <= sigma[b] or sigma[b] <= sigma[a]:
                raise ValidationError(
                    f"selected sets Y_{a + 1} and Y_{b + 1} are nested"
                )
    for level in levels[1:]:
        by_pred: dict[int, list[int]] = {}
        for j in level:
            by_pred.setdefault(predecessor[j], []).append(j)
        for i, siblings in by_pred.items():
            for a_pos in range(len(siblings)):
                for b_pos in range(a_pos + 1, len(siblings)):
                    a, b = siblings[a_pos], siblings[b_pos]
                    if (sigma[a] - sigma[i]) & (sigma[b] - sigma[i]):
                        raise ValidationError(
                            f"sibling extensions of Y_{a + 1} and Y_{b + 1} overlap"
                        )
    for k in range(len(levels) - 2):
        for i in levels[k]:
            for j in levels[k + 2]:
                if sigma[i] & sigma[j]:
                    raise ValidationError(
                        f"sets two levels apart intersect: Y_{i + 1} and Y_{j + 1}"
                    )

    successors: dict[int, list[int]] = {}
    for j, i in predecessor.items():
        successors.setdefault(i, []).append(j)
    discarded: dict[int, tuple[int, int]] = {}
    for q in sorted(remaining):
        pair = None
        for level in levels:
            for i in level:
                if sigma[q] <= sigma[i]:
                    pair = (i, i)
                    break
                for j in sorted(successors.get(i, ())):
                    if sigma[i] & sigma[q] and sigma[q] <= (sigma[i] | sigma[j]):
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair:
                break
        if pair is None:
            raise ValidationError(f"no covering pair exists for unselected set Y_{q + 1}")
        discarded[q] = pair
    return LevelStructure(
        root=root,
        levels=tuple(levels),
        predecessor=predecessor,
        discarded=discarded,
    )


def _attach(
    path: Sequence[int], centers: Mapping[int, set[int]], toward_end: bool
) -> list[int] | None:
    """Y-vertices an X-vertex with neighbour path ``path`` joins in the tree.

    ``centers`` maps each Y-vertex already in the tree to its X-neighbours
    there. The X-vertex joins every vertex of ``path`` not yet in the tree,
    plus one anchor: a vertex already in the tree that shares a tree neighbour
    with every other such vertex of ``path``. The anchor is the candidate
    nearest to a new vertex along the path, ties going toward the path's start
    (or its end when ``toward_end``); with no new vertex, the first candidate
    along the path. None when no vertex qualifies as the anchor.
    """
    new = [p for p, y in enumerate(path) if y not in centers]
    old = [y for y in path if y in centers]
    if not old:
        return list(path)  # the root: there is no tree to meet yet
    anchors = [
        p for p, y in enumerate(path)
        if y in centers and all(o == y or centers[o] & centers[y] for o in old)
    ]
    if not anchors:
        return None
    if not new:
        return [path[anchors[0]]]
    anchor = min(anchors, key=lambda p: (min(abs(p - q) for q in new), -p if toward_end else p))
    return [path[p] for p in new] + [path[anchor]]


def _try_build(instance: ConvexInstance, structure: LevelStructure, toward_end: bool) -> SpanningTree:
    """Attach the selected sets, then the unselected ones in index order.

    Each x_j joins the Y-vertices that ``_attach`` picks; ValidationError names
    the first set left without an anchor. Any tree this finishes has every
    fundamental cycle of length four, so no check follows:

    - every set after the root meets the tree when it is attached: a selected
      set meets its predecessor, which sits on an earlier level, and the
      unselected sets come after the selected ones have covered Y. So x_j
      joins the tree through its anchor a, and the new Y-vertices it brings
      hang off x_j; every step keeps a tree, and the last one spans the graph;
    - an edge x_j-y' left out of the tree has y' in Y_j already in the tree
      when x_j is attached, and y' is not the anchor. By the anchor rule a and
      y' share a tree neighbour c, so x_j, a, c, y' is the fundamental cycle of
      x_j-y', of length four;
    - later steps only add new vertices, hanging off the tree, so the tree
      path x_j, a, c, y' never changes.
    """
    centers: dict[int, set[int]] = {}
    edges: list[tuple[int, int]] = []
    for j in [*structure.selected, *sorted(structure.discarded)]:
        joined = _attach(instance.paths[j], centers, toward_end)
        if joined is None:
            raise ValidationError(f"Y_{j + 1} has no anchor")
        for y in joined:
            edges.append((j, instance.y_vertex(y)))
            centers.setdefault(y, set()).add(j)
    return spanning_tree_from_pairs(instance.graph, edges)


@dataclass(frozen=True)
class ConstructionResult:
    """A tree with all fundamental cycles of length four, plus its level structure.

    ``structure`` is None exactly when the bipartite graph was already a tree
    and no level procedure ran.
    """

    tree: SpanningTree
    structure: LevelStructure | None


def construct_details(instance: ConvexInstance) -> ConstructionResult:
    """Build a tree whose fundamental cycles all have length exactly four.

    If the bipartite graph is itself a tree, it is returned as-is (stretch 1,
    a degenerate but valid answer). Otherwise each root candidate is tried in
    ascending index order, and for each root the attach rule runs with anchor
    ties toward the path's start, then toward its end; the first tree the rule
    finishes is returned. The rule is sound (see ``_try_build``) but not
    proved to finish, hence the retries. When every attempt fails,
    ValidationError names per root the level-procedure fault or the first set
    left without an anchor.
    """
    g = instance.graph
    if g.m == g.n - 1:
        return ConstructionResult(spanning_tree_from_pairs(g, list(g.edges)), None)

    failures: list[str] = []
    for root in root_candidates(instance):
        try:
            structure = level_sets(instance, root)
        except ValidationError as exc:
            failures.append(f"root Y_{root + 1}: {exc}")
            continue
        for toward_end in (False, True):
            try:
                return ConstructionResult(_try_build(instance, structure, toward_end), structure)
            except ValidationError as exc:
                if not toward_end:
                    failures.append(f"root Y_{root + 1}: {exc}")
    detail = "; ".join(failures) if failures else "no eligible root"
    raise ValidationError(f"construction failed for every root candidate ({detail})")


def construct_tree(instance: ConvexInstance) -> SpanningTree:
    """Spanning tree in which every fundamental cycle has length exactly four."""
    return construct_details(instance).tree


# ---------------------------------------------------------------------------
# Instance serialization (used by the CLI)


def instance_to_json(instance: ConvexInstance) -> dict:
    return {
        "n_y": instance.n_y,
        "tau_edges": [[a, b] for a, b in instance.tau_edges],
        "sigma": [sorted(s) for s in instance.sigma],
    }


def instance_from_json(data: Mapping) -> ConvexInstance:
    try:
        tau_edges = [json_ints("instance", e, 2) for e in data["tau_edges"]]
        sigma = [json_ints("instance", s) for s in data["sigma"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed instance JSON: {exc}") from exc
    if "n_y" in data:
        [n_y] = json_ints("instance", [data["n_y"]])
    else:
        vertices = {v for e in tau_edges for v in e} | {v for s in sigma for v in s}
        n_y = max(vertices) + 1 if vertices else 1
    return validate_instance(n_y, tau_edges, sigma)
