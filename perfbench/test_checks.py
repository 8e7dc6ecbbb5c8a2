"""Each checker of the benchmark must accept a right answer and reject a
corrupted one. The answers here are written out by hand."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
from checks import CheckError

# rect(3,3): sigma 3. All vertical edges plus the middle row is optimal; all
# vertical edges plus the top row leaves the bottom corners 5 apart.
N, EDGES = inputs.rect_grid(3, 3)
VERTICAL = [(0, 3), (3, 6), (1, 4), (4, 7), (2, 5), (5, 8)]
GOOD_TREE = VERTICAL + [(3, 4), (4, 5)]
COMB_TREE = VERTICAL + [(0, 1), (1, 2)]


def solve_report(sigma=3, tree=GOOD_TREE):
    return {"n": N, "m": len(EDGES), "sigma": sigma, "optimal_tree": [list(p) for p in tree]}


def test_right_solve_report_passes():
    checks.verify_solve(N, EDGES, 3, solve_report())


@pytest.mark.parametrize("tree", [
    GOOD_TREE[:-1],                      # too few edges
    GOOD_TREE[:-1] + [(0, 1)],           # a cycle 0-1-4-3, vertex 5 cut off
    GOOD_TREE[:-1] + [(0, 4)],           # not an edge of the grid
    GOOD_TREE[:-1] + [(3, 4)],           # repeated edge
])
def test_edge_set_that_is_not_a_spanning_tree_is_rejected(tree):
    with pytest.raises(CheckError):
        checks.verify_solve(N, EDGES, 3, solve_report(tree=tree))


def test_tree_whose_stretch_exceeds_sigma_is_rejected():
    assert max(checks.tree_distances(N, EDGES, COMB_TREE)) == 5
    with pytest.raises(CheckError, match="stretch 5"):
        checks.verify_solve(N, EDGES, 3, solve_report(tree=COMB_TREE))


@pytest.mark.parametrize("sigma", [2, 4])
def test_sigma_off_by_one_is_rejected(sigma):
    with pytest.raises(CheckError):
        checks.verify_solve(N, EDGES, 3, solve_report(sigma=sigma))


def test_construct_report_checks_formula_bounds_and_tree():
    expect = {"sigma": 3, "girth_lb": 3, "level_lb": 3}
    report = {"sigma_formula": 3, "sigma_measured": 3, "lower_bound_girth": 3,
              "lower_bound_level": 3, "tree": GOOD_TREE}
    checks.verify_construct(N, EDGES, expect, report)
    for key, value in [("sigma_formula", 4), ("sigma_measured", 2),
                       ("lower_bound_girth", 2), ("lower_bound_level", 4),
                       ("tree", COMB_TREE)]:
        with pytest.raises(CheckError):
            checks.verify_construct(N, EDGES, expect, {**report, key: value})


K4 = inputs.complete(4)
K4_STAR = [(0, 1), (0, 2), (0, 3)]


def test_tree_counts_off_by_one_are_rejected():
    checks.verify_count(*K4, 2, 16, 2, 16, 16, K4_STAR)
    with pytest.raises(CheckError, match="enumerated"):
        checks.verify_count(*K4, 2, 16, 2, 17, 16, K4_STAR)
    with pytest.raises(CheckError, match="Kirchhoff"):
        checks.verify_count(*K4, 2, 16, 2, 16, 15, K4_STAR)


def test_closed_form_tree_counts():
    assert checks.tree_count_complete(4) == 16
    assert checks.tree_count_complete(7) == 16807
    assert checks.tree_count_bipartite(3, 4) == 432
    assert checks.tree_count_bipartite(2, 2) == 4  # the 4-cycle


# Triangle 0-1-2 plus y=3 on {0, 1}: vertex 0 sees it, sigma 2. Adding y=4 on
# {1, 2} and y=5 on {0, 2} leaves every clique vertex missing one: sigma 3.
SPLIT2 = (4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], [0, 1, 2], [3])
SPLIT3 = (6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)],
          [0, 1, 2], [3, 4, 5])


def test_split_rule():
    assert checks.sigma_split(*SPLIT2) == 2
    assert checks.sigma_split(*SPLIT3) == 3


def test_wrong_split_class_is_rejected():
    star = [(0, 1), (0, 2), (0, 3)]
    checks.verify_split(*SPLIT2, 2, 2, star)
    with pytest.raises(CheckError, match="classify_split"):
        checks.verify_split(*SPLIT2, 3, 2, star)
    with pytest.raises(CheckError, match="sigma_exact"):
        checks.verify_split(*SPLIT2, 2, 3, star)


def test_convex_tree_must_close_only_four_cycles():
    # Y = path 0-1-2; X sets {0,1}, {1,2}, {0,1,2}: vertices x0..x2 = 0..2, y = 3..5.
    n, edges = inputs.bipartite(3, [[0, 1], [1, 2], [0, 1, 2]])
    good = [(2, 3), (2, 4), (2, 5), (0, 3), (1, 5)]
    checks.verify_convex(n, edges, good, 3, good)
    long = [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5)]  # a path: x2-y0 closes a 6-cycle
    with pytest.raises(CheckError, match="longer than 4"):
        checks.verify_convex(n, edges, long, 3, good)


def test_closed_forms_of_the_grids():
    assert [checks.sigma_rect(m, 9) for m in (2, 3, 4, 5)] == [3, 3, 5, 5]
    assert [checks.sigma_tri(n) for n in (1, 2, 3, 4, 5)] == [2, 3, 3, 4, 5]
    assert checks.sigma_tri_rect(4, 7) == 4
    assert checks.sigma_multipartite((3, 3, 3)) == 3
    assert checks.sigma_multipartite((1, 4, 5)) == 2
    assert checks.sigma_multipartite((3, 4)) == 3


def test_family_builders_match_the_definitions():
    assert len(inputs.rect_grid(3, 5)[1]) == 3 * 4 + 5 * 2
    assert len(inputs.tri_grid(4)[1]) == 3 * 4 * 5 // 2
    assert len(inputs.tri_rect_grid(3, 4)[1]) == 3 * 3 + 4 * 2 + 2 * 3
    assert len(inputs.petersen()[1]) == 15
    assert len(inputs.multipartite((3, 3, 3))[1]) == 27
    assert len(inputs.chain(2, 3, (2, 3))[1]) == 5


def test_convex_instances_are_valid_and_small():
    for i in range(50):
        n_y, tau, sigma = inputs.random_convex(random.Random(i))
        n, edges = inputs.bipartite(n_y, sigma)
        assert len(sigma) <= 8 and 1 <= len(edges) - n + 1 <= 6
        assert inputs.convex_is_valid(n_y, sigma)
    for _, _, n_y, _, sigma in inputs.KNOWN_FAULTS:
        assert inputs.convex_is_valid(n_y, sigma)
    for i, n_y, tau, sigma in inputs.POOL_FAULTS:
        assert inputs.random_convex(random.Random(i)) == (n_y, [tuple(e) for e in tau], sigma)


def test_laminar_condition_rejects_crossing_sets():
    # Host tree: a star on centre 0. Y_1 = {0, 4} is maximal; Y_2 = 1-0-2 and
    # Y_3 = 2-0-3 both meet it and stick out of it as {1, 2} and {2, 3}.
    assert not inputs.convex_is_valid(5, [[0, 4], [0, 1, 2], [0, 2, 3]])
    assert inputs.convex_is_valid(5, [[0, 4], [0, 1, 2], [0, 1]])


def test_inputs_depend_only_on_the_seed():
    a = [inputs.random_split(random.Random(7), 4, 3) for _ in range(2)]
    assert a[0] == a[1]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({}))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
