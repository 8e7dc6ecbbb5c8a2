"""Command-line interface: subcommands, exit codes, and deterministic output."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import treestretch
from treestretch import families, planar
from treestretch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def strip_runtime(report):
    return {k: v for k, v in report.items() if k != "runtime_s"}


class TestGenerate:
    def test_cycle(self, capsys):
        data = run_json(capsys, "generate", "cycle", "5")
        assert data["n"] == 5
        assert len(data["edges"]) == 5
        assert data["meta"]["family"] == "cycle"

    def test_split_params(self, capsys):
        data = run_json(capsys, "generate", "split", "3", "0,1", "1,2")
        assert data["n"] == 5 and len(data["edges"]) == 7

    def test_seeded_generation_is_reproducible(self, capsys):
        a = run_cli(capsys, "generate", "random-split", "--seed", "9")
        b = run_cli(capsys, "generate", "random-split", "--seed", "9")
        assert a == b
        data = json.loads(a[1])
        assert data["meta"]["family"] == "split"

    def test_random_blocks(self, capsys):
        data = run_json(capsys, "generate", "random-blocks", "--seed", "4")
        assert data["meta"]["family"] == "random-blocks"

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "rect-grid", "2", "3", "--dot")
        assert code == 0
        assert out.startswith("graph")
        assert "--" in out

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "generate", "moebius", "5")
        assert code == 1
        assert "error:" in err

    def test_bad_parameters(self, capsys):
        code, _, err = run_cli(capsys, "generate", "cycle", "2")
        assert code == 1

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "generate")
        assert code == 1

    @pytest.mark.parametrize(
        "words",
        [
            ["complete", "100000"],
            ["cycle", "1000000000"],
            ["wheel", "1000000"],
            ["diamond", "1000000"],
            ["complete-bipartite", "1001", "1000"],
            ["complete-multipartite", "1000", "1000", "1000"],
            ["split", "2000", "0"],
            ["chain", "1", "1000001", "1000001"],
            ["rect-grid", "1000", "1000"],
            ["tri-grid", "1000"],
            ["tri-rect-grid", "1000", "1000"],
        ],
        ids=lambda words: words[0],
    )
    def test_oversized_family_refused(self, capsys, words):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "generate", *words)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert f"above the limit of {families.MAX_EDGES}" in err
        assert "Traceback" not in err


class TestConstruct:
    def test_rect_grid_report(self, capsys):
        report = run_json(capsys, "construct", "rect-grid", "4", "5")
        assert report["schema"] == 1
        assert report["sigma_formula"] == 5
        assert report["sigma_measured"] == 5
        assert report["lower_bound_level"] == 5
        assert report["lower_bound_girth"] == 3
        assert not report["degenerate"]

    def test_verify_adds_exact(self, capsys):
        report = run_json(capsys, "construct", "rect-grid", "2", "3", "--verify")
        assert report["sigma_exact"] == 3
        assert report["trees_enumerated"] >= 1
        assert report["sigma_exact"] == report["sigma_formula"] == report["sigma_measured"]

    def test_determinism_modulo_runtime(self, capsys):
        a = run_json(capsys, "construct", "tri-grid", "3")
        b = run_json(capsys, "construct", "tri-grid", "3")
        assert strip_runtime(a) == strip_runtime(b)

    def test_petersen(self, capsys):
        report = run_json(capsys, "construct", "petersen")
        assert report["sigma_formula"] == 4
        assert report["lower_bound_girth"] == 4

    @pytest.mark.parametrize(
        "argv,girth_bound",
        [
            (["construct", "rect-grid", "30", "30"], 3),
            (["construct", "tri-grid", "41"], 2),
            (["construct", "tri-rect-grid", "30", "30"], 2),
            (["levels", "tri-grid", "4"], None),
        ],
        ids=["rect-grid", "tri-grid", "tri-rect-grid", "levels-tri-grid"],
    )
    def test_large_grid_bounds_with_one_embedding(self, capsys, monkeypatch, argv, girth_bound):
        builds, embeddings, cells = [], [], []
        make_graph, make_plane_graph = planar.make_graph, families.make_plane_graph

        def counted_build(*args, **kwargs):
            builds.append(args[0])
            return make_graph(*args, **kwargs)

        def counted_embedding(*args, **kwargs):
            embeddings.append(args[0])
            return make_plane_graph(*args, **kwargs)

        def counted_cells(fam):
            def cells_of(spec):
                cells.append(fam.name)
                return fam.cells(spec)

            return dataclasses.replace(fam, cells=cells_of)

        monkeypatch.setattr(planar, "make_graph", counted_build)
        monkeypatch.setattr(families, "make_plane_graph", counted_embedding)
        monkeypatch.setattr(
            families, "FAMILIES", tuple(counted_cells(f) if f.cells else f for f in families.FAMILIES)
        )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(builds) == 1
        assert len(embeddings) == 1
        assert cells == [argv[1]]
        if girth_bound is not None:
            report = json.loads(out)
            assert report["lower_bound_girth"] == girth_bound
            assert report["lower_bound_level"] == report["sigma_formula"] == report["sigma_measured"]


class TestSolve:
    def make_graph_file(self, tmp_path, capsys, *gen_args):
        code, out, _ = run_cli(capsys, "generate", *gen_args)
        assert code == 0
        path = tmp_path / "graph.json"
        path.write_text(out)
        return str(path)

    def test_petersen_exact(self, capsys, tmp_path):
        path = self.make_graph_file(tmp_path, capsys, "petersen")
        report = run_json(capsys, "solve", path, "--no-prune")
        assert report["sigma"] == 4
        assert report["trees_enumerated"] == 2000
        assert report["pruned"] is False
        assert len(report["optimal_tree"]) == 9

    def test_budget_exit_code(self, capsys, tmp_path):
        path = self.make_graph_file(tmp_path, capsys, "complete", "5")
        code, out, err = run_cli(capsys, "solve", path, "--no-prune", "--max-nodes", "10")
        assert code == 2
        assert out == ""
        assert err == "error: search-node budget of 10 exceeded\n"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1

    # Every command with --max-nodes refuses a budget below 1 before it prints
    # anything, whether or not it would run the search.
    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize(
        "words",
        [
            pytest.param(["solve", "-"], id="solve"),
            pytest.param(["construct", "rect-grid", "3", "3"], id="construct"),
            pytest.param(["construct", "rect-grid", "3", "3", "--verify"], id="construct-verify"),
        ],
    )
    def test_budget_below_one_refused(self, capsys, monkeypatch, words, budget):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}'))
        code, out, err = run_cli(capsys, *words, "--max-nodes", budget)
        assert code == 1
        assert out == ""
        assert err == f"error: the search-node budget must be at least 1, got {budget}\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/graph.json")
        assert code == 1

    def test_huge_edgeless_graph_refused(self, capsys, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"n": 10**6, "edges": []}))
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert "requires a connected graph" in err

    # More than a thousand edges: a search that recursed once per edge would pass
    # Python's recursion limit on both.
    @pytest.mark.parametrize(
        "family, sigma",
        [
            pytest.param(["wheel", "1001"], 2, id="W_1001"),
            pytest.param(["cycle", "1200"], 1199, id="C_1200"),
        ],
    )
    def test_deep_graph_piped_into_solve(self, capsys, monkeypatch, family, sigma):
        code, generated, _ = run_cli(capsys, "generate", *family)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(generated))
        code, out, err = run_cli(capsys, "solve", "-")
        assert code == 0, err
        assert json.loads(out)["sigma"] == sigma
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, keep",
    [
        pytest.param(["construct", "rect-grid", "60", "60"], 300, id="128KB-report"),
        pytest.param(["levels", "rect-grid", "2", "2"], 0, id="buffered-report"),
    ],
)
def test_closed_stdout_exits_quietly(argv, keep):
    """The reader takes ``keep`` bytes and closes the pipe, as ``| head -c`` does.

    The 128 KB report outgrows the pipe buffer and fails while printing. The short one,
    with stdout block-buffered, would fail only at the interpreter's shutdown flush.
    """
    src = str(Path(treestretch.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "treestretch.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(keep)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert len(head) == keep
    assert "Traceback" not in err
    assert "Exception ignored" not in err


MALFORMED = {
    "n-overflow": ("solve", '{"n": 1e400, "edges": []}'),
    "end-overflow": ("solve", '{"n": 2, "edges": [[0, 1e400]]}'),
    "n-bool": ("solve", '{"n": true, "edges": []}'),
    "n-float": ("solve", '{"n": 2.7, "edges": [[0, 1]]}'),
    "end-float": ("solve", '{"n": 3, "edges": [[0, 2.9], [0, 1]]}'),
    "three-ends": ("solve", '{"n": 2, "edges": [[0, 1, 5]]}'),
    "n_y-string": ("convex", '{"n_y": "x", "tau_edges": [[0, 1]], "sigma": [[0, 1]]}'),
    "n_y-null": ("convex", '{"n_y": null, "tau_edges": [[0, 1]], "sigma": [[0, 1]]}'),
    "n_y-overflow": ("convex", '{"n_y": 1e400, "tau_edges": [[0, 1]], "sigma": [[0, 1]]}'),
    "meta-number": ("convex", '{"meta": 5}'),
    "set-float": ("convex", '{"tau_edges": [[0, 1]], "sigma": [[0, 1.7]]}'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_is_an_error(capsys, monkeypatch, case):
    """Malformed numbers and edges exit 1 with a message, never a traceback or a coercion."""
    command, text = MALFORMED[case]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, command, "-")
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "convex"])
def test_non_utf8_file_is_an_error(capsys, tmp_path, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 2, "edges": [[0, 1]], "meta": {"name": "\xff"}}')
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}:")
    assert "Traceback" not in err


class TestConvex:
    def test_instance_report(self, capsys, tmp_path):
        instance = {
            "tau_edges": [[0, 1], [1, 2], [2, 3], [3, 4]],
            "sigma": [[0, 1, 2], [1, 2, 3], [2, 3, 4]],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        report = run_json(capsys, "convex", str(path))
        assert report["sigma_measured"] == 3
        assert report["root"] == 0
        assert report["levels"] == [[0], [2]]
        assert report["predecessor"] == {"2": 0}
        assert report["discarded"] == {"1": [0, 2]}
        assert not report["degenerate"]

    def test_degenerate_instance(self, capsys, tmp_path):
        instance = {"tau_edges": [[0, 1]], "sigma": [[0, 1]]}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        report = run_json(capsys, "convex", str(path))
        assert report["degenerate"]
        assert report["sigma_measured"] <= 1

    def test_invalid_instance(self, capsys, tmp_path):
        instance = {"tau_edges": [[0, 1], [1, 2]], "sigma": [[0, 2]]}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        code, _, err = run_cli(capsys, "convex", str(path))
        assert code == 1
        assert "does not induce a path" in err


class TestLevels:
    def test_tri_grid_table(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "tri-grid", "2")
        assert code == 0
        assert out == "lambda_max = 2\n1 2 1\n1\n"

    def test_rect_grid_table(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "rect-grid", "4", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda_max = 2"
        assert lines[1:] == ["1 1 1", "1 2 1", "1 1 1"]

    def test_cube(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "cube")
        assert code == 0
        assert "lambda_max = 2" in out

    def test_dual_dot(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "rect-grid", "2", "2", "--dual-dot")
        assert code == 0
        assert "style=dotted" in out

    def test_no_levels_for_cycle(self, capsys):
        code, _, err = run_cli(capsys, "levels", "cycle", "5")
        assert code == 1
