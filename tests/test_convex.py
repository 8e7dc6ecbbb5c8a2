"""Convex bipartite instances: validation, level structure, tree construction."""

from __future__ import annotations

import random

import pytest

from treestretch.convex import (
    ConstructionResult,
    check_laminar,
    construct_details,
    construct_tree,
    instance_from_json,
    instance_to_json,
    level_sets,
    root_candidates,
    validate_instance,
)
from treestretch.families import Chain, chain_instance, random_convex_spec
from treestretch.graphs import (
    ParameterError,
    ValidationError,
    stretch,
    tree_distance,
)
from treestretch.solver import sigma_exact

PATH_5 = [(0, 1), (1, 2), (2, 3), (3, 4)]


def overlapping_windows():
    """Three length-3 windows sliding along a 5-vertex path."""
    return validate_instance(5, PATH_5, [[0, 1, 2], [1, 2, 3], [2, 3, 4]])


def two_sided_extension():
    """Needs the root retry: on the first root candidate a set has no anchor."""
    return validate_instance(
        5,
        [(0, 2), (1, 2), (2, 3), (3, 4)],
        [[1, 2, 3], [0, 2, 3, 4], [1, 2, 0], [3, 4]],
    )


def assert_all_cycles_length_four(instance, tree):
    g = instance.graph
    for e in sorted(tree.cotree_edges):
        assert tree_distance(tree, *g.edges[e]) == 3


class TestCheckLaminar:
    def test_laminar(self):
        ok, pair = check_laminar([{0, 1}, {0, 1, 2}, {3}])
        assert ok and pair is None

    def test_crossing(self):
        ok, pair = check_laminar([{0, 1}, {1, 2}])
        assert not ok and pair == (0, 1)

    def test_empty_sets_ignored(self):
        ok, _ = check_laminar([set(), {0}, set()])
        assert ok


class TestValidateInstance:
    def test_good_instance(self):
        inst = overlapping_windows()
        assert inst.m == 3
        assert inst.n_y == 5
        assert inst.graph.n == 8
        assert inst.paths[0] == (0, 1, 2)
        assert inst.y_vertex(0) == 3

    def test_non_subpath_rejected(self):
        with pytest.raises(ValidationError, match="Y_1 does not induce a path"):
            validate_instance(3, [(0, 1), (1, 2)], [[0, 2], [0, 1, 2]])

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError, match="Y_2 is empty"):
            validate_instance(3, [(0, 1), (1, 2)], [[0, 1], []])

    def test_vertex_out_of_range(self):
        with pytest.raises(ValidationError, match="outside the host tree"):
            validate_instance(3, [(0, 1), (1, 2)], [[0, 3]])

    def test_tau_must_be_a_tree(self):
        with pytest.raises(ValidationError, match="needs 2 edges"):
            validate_instance(3, [(0, 1)], [[0, 1]])
        with pytest.raises(ValidationError, match="not connected"):
            validate_instance(4, [(0, 1), (1, 2), (0, 2)], [[0, 1]])

    def test_positive_vertex_count(self):
        with pytest.raises(ParameterError):
            validate_instance(0, [], [[0]])

    def test_laminar_violation_on_spider(self):
        # Legs 2-1-0, 2-3-4, 2-5-6; the two long sets cross outside Y_1.
        tau = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]
        sets = [[1, 2, 3], [0, 1, 2, 5], [1, 2, 5, 6]]
        with pytest.raises(ValidationError, match="laminar condition fails at maximal set Y_1"):
            validate_instance(7, tau, sets)

    def test_uncovered_vertex_rejected(self):
        with pytest.raises(ValidationError, match="disconnected"):
            validate_instance(4, [(0, 1), (1, 2), (2, 3)], [[0, 1]])

    def test_single_vertex_host(self):
        inst = validate_instance(1, [], [[0]])
        assert inst.graph.n == 2 and inst.graph.m == 1


class TestRootSelection:
    def test_windows(self):
        inst = overlapping_windows()
        assert root_candidates(inst) == [0, 2]

    def test_non_maximal_leaf_set_skipped(self):
        inst = chain_instance(Chain(2, 3, (2, 3)))
        assert root_candidates(inst) == [1]


class TestLevelSets:
    def test_windows_structure(self):
        inst = overlapping_windows()
        structure = level_sets(inst, 0)
        assert structure.root == 0
        assert structure.levels == ((0,), (2,))
        assert structure.predecessor == {2: 0}
        assert structure.discarded == {1: (0, 2)}
        assert structure.selected == [0, 2]

    def test_chain_all_discarded_into_root(self):
        inst = chain_instance(Chain(2, 3, (2, 3)))
        structure = level_sets(inst, 1)
        assert structure.levels == ((1,),)
        assert structure.discarded == {0: (1, 1)}


class TestConstruction:
    def test_windows_tree(self):
        inst = overlapping_windows()
        result = construct_details(inst)
        assert isinstance(result, ConstructionResult)
        assert result.structure is not None
        cert = stretch(inst.graph, result.tree)
        assert cert.stretch == 3
        assert_all_cycles_length_four(inst, result.tree)

    def test_two_sided_extension_tree(self):
        inst = two_sided_extension()
        tree = construct_tree(inst)
        assert stretch(inst.graph, tree).stretch == 3
        assert_all_cycles_length_four(inst, tree)
        assert sigma_exact(inst.graph).sigma == 3

    def test_chain_tree(self):
        inst = chain_instance(Chain(3, 4, (2, 3, 4)))
        tree = construct_tree(inst)
        assert stretch(inst.graph, tree).stretch == 3
        assert_all_cycles_length_four(inst, tree)

    def test_degenerate_instance_returns_whole_graph(self):
        inst = validate_instance(2, [(0, 1)], [[0, 1]])
        result = construct_details(inst)
        assert result.structure is None
        assert result.tree.tree_edges == frozenset(range(inst.graph.m))
        assert stretch(inst.graph, result.tree).stretch == 1

    def test_optimality_on_windows(self):
        inst = overlapping_windows()
        assert sigma_exact(inst.graph).sigma == 3

    def test_seeded_sweep(self):
        rng = random.Random(424242)
        cyclic = 0
        for _ in range(80):
            spec = random_convex_spec(rng, max_x=4, max_y=4)
            inst = spec.instance
            tree = construct_tree(inst)
            cert = stretch(inst.graph, tree)
            if inst.graph.m == inst.graph.n - 1:
                assert cert.stretch <= 1
                continue
            cyclic += 1
            assert cert.stretch == 3
            assert_all_cycles_length_four(inst, tree)
        assert cyclic >= 20  # the sampler must exercise the real construction


# Valid instances on which the builder once raised ValidationError, although
# each has a tree of stretch 3: random_convex_spec(random.Random(seed),
# max_x=k, max_y=k) at (k, seed), and pool instances of the benchmark's convex
# inputs. Rows: (label, n_y, tau_edges, sigma).
REPAIRED_FAULTS = [
    ("k8-s278", 5, [[0, 1], [0, 3], [1, 2], [3, 4]],
     [[1, 2], [3, 4], [1, 2], [2], [0, 3], [0, 3, 4], [3, 4], [0, 1]]),
    ("k8-s351", 6, [[0, 1], [1, 2], [1, 3], [2, 4], [4, 5]],
     [[1, 3], [3], [1, 2], [2, 4, 5], [5], [2, 4, 5], [2, 4], [0, 1, 3]]),
    ("k12-s40", 8, [[0, 1], [0, 2], [0, 6], [1, 3], [1, 7], [3, 4], [4, 5]],
     [[0, 1, 3], [1, 7], [1, 3, 4], [3], [7], [1, 7], [1, 3, 4, 5, 7], [3, 4],
      [0, 1], [0, 2, 6]]),
    ("k12-s145", 7, [[0, 1], [0, 3], [1, 2], [2, 4], [3, 5], [4, 6]],
     [[0, 1, 2], [2, 4, 6], [0, 1], [2, 4], [3, 5], [0, 1, 2, 4], [2],
      [0, 1, 2, 3], [0, 1, 3, 5]]),
    ("k12-s161", 4, [[0, 1], [0, 3], [1, 2]],
     [[1, 2], [1, 2], [0, 1], [0, 3], [0, 3], [0, 3]]),
    ("k12-s273", 4, [[0, 1], [1, 2], [2, 3]],
     [[1, 2], [0, 1], [0, 1], [3], [1, 2], [2, 3], [1], [1, 2], [1, 2], [2, 3]]),
    ("pool-1021", 6, [[0, 1], [0, 2], [1, 3], [3, 4], [4, 5]],
     [[3, 4, 5], [0, 2], [0, 1, 3], [0, 1, 2], [3, 4, 5]]),
    ("pool-1586", 4, [[0, 1], [0, 2], [1, 3]],
     [[1, 3], [0, 1], [1, 3], [0, 2], [0, 2]]),
    ("pool-2106", 6, [[0, 1], [0, 2], [1, 3], [3, 4], [4, 5]],
     [[4], [0, 2], [0, 1, 3], [3, 4, 5], [1, 3, 4, 5], [0, 2]]),
    ("pool-2635", 8, [[0, 1], [0, 2], [0, 3], [2, 4], [3, 5], [1, 6], [2, 7]],
     [[0, 1], [0, 1], [2, 4], [1, 6], [0, 1], [0, 2, 3, 5, 7], [0, 2, 3, 5, 7]]),
    ("pool-3798", 8, [[0, 1], [1, 2], [2, 3], [0, 4], [0, 5], [1, 6], [5, 7]],
     [[1, 2, 3], [0, 1], [1, 2, 3, 6], [0, 4, 5], [7], [0, 4, 5, 7]]),
    ("pool-3898", 6, [[0, 1], [1, 2], [1, 3], [0, 4], [0, 5]],
     [[0, 4, 5], [2], [3], [0, 5], [1, 3], [1, 2, 3], [0, 1]]),
]

# random_convex_spec(random.Random(133), max_x=16, max_y=16): sigma is 3, but
# no root candidate and neither tie-break finds an anchor for every set.
OPEN_FAULT = (7, [[0, 1], [0, 2], [1, 3], [1, 4], [2, 5], [2, 6]],
              [[0, 1, 3], [6], [0, 1, 2, 4, 5], [0, 1, 2, 3, 6], [0, 2, 5],
               [0, 1, 2, 5], [0, 1, 4], [0], [0, 1, 2, 3], [0, 2, 6]])


class TestAttachRule:
    @pytest.mark.parametrize("n_y,tau,sigma", [row[1:] for row in REPAIRED_FAULTS],
                             ids=[row[0] for row in REPAIRED_FAULTS])
    def test_repaired_fault(self, n_y, tau, sigma):
        inst = validate_instance(n_y, tau, sigma)
        assert_all_cycles_length_four(inst, construct_tree(inst))

    @pytest.mark.xfail(strict=True, raises=ValidationError, reason="open defect of the attach rule")
    def test_open_fault(self):
        construct_tree(validate_instance(*OPEN_FAULT))

    def test_needs_ties_toward_the_end(self):
        # random_convex_spec(random.Random(1166), max_x=20, max_y=20): with
        # anchor ties toward the path's start, no root candidate finishes.
        inst = validate_instance(
            8,
            [[0, 1], [0, 2], [0, 7], [1, 3], [1, 6], [2, 4], [3, 5]],
            [[0, 1, 3, 7], [0, 1, 2, 3], [3, 5], [3], [1, 3], [0, 1], [0, 1, 3],
             [0, 7], [1], [0, 1, 2], [0, 1, 7], [0, 1, 3, 7], [0], [0], [6],
             [0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 6, 7], [0, 1, 2, 3, 4, 5]],
        )
        assert_all_cycles_length_four(inst, construct_tree(inst))

    def test_seeded_sweep(self):
        """Covers anchors that need the second tie-break or a later root."""
        cyclic, failed = 0, []
        for k in (8, 12, 16):
            for seed in range(300):
                inst = random_convex_spec(random.Random(seed), max_x=k, max_y=k).instance
                if inst.graph.m == inst.graph.n - 1:
                    continue
                cyclic += 1
                try:
                    tree = construct_tree(inst)
                except ValidationError:
                    failed.append((k, seed))
                    continue
                assert_all_cycles_length_four(inst, tree)
        assert cyclic == 662
        assert failed == [(16, 133)]


class TestInstanceJson:
    def test_round_trip(self):
        inst = overlapping_windows()
        data = instance_to_json(inst)
        assert data["n_y"] == 5
        back = instance_from_json(data)
        assert back == inst

    def test_n_y_inferred_when_missing(self):
        data = {"tau_edges": [[0, 1], [1, 2]], "sigma": [[0, 1], [1, 2]]}
        inst = instance_from_json(data)
        assert inst.n_y == 3

    def test_malformed(self):
        with pytest.raises(ValidationError):
            instance_from_json({"sigma": [[0]]})
        with pytest.raises(ValidationError):
            instance_from_json({"tau_edges": [[0]], "sigma": [[0]]})
