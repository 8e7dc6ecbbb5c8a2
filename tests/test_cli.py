"""Command-line interface: subcommands, exit codes, and deterministic output."""

from __future__ import annotations

import json

import pytest

from treestretch import constructions
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
        "words,girth_bound",
        [(["rect-grid", "30", "30"], 3), (["tri-grid", "41"], 2), (["tri-rect-grid", "30", "30"], 2)],
        ids=["rect-grid", "tri-grid", "tri-rect-grid"],
    )
    def test_large_grid_bounds_with_one_embedding(self, capsys, monkeypatch, words, girth_bound):
        embeddings = []
        make_plane_graph = constructions.make_plane_graph

        def counted(*args, **kwargs):
            embeddings.append(args[3])
            return make_plane_graph(*args, **kwargs)

        monkeypatch.setattr(constructions, "make_plane_graph", counted)
        report = run_json(capsys, "construct", *words)
        assert report["lower_bound_girth"] == girth_bound
        assert report["lower_bound_level"] == report["sigma_formula"] == report["sigma_measured"]
        assert embeddings == [words[0]]


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

    def test_cap_exit_code(self, capsys, tmp_path):
        path = self.make_graph_file(tmp_path, capsys, "complete", "5")
        code, _, err = run_cli(capsys, "solve", path, "--no-prune", "--max-trees", "10")
        assert code == 2
        assert "cap of 10 exceeded" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1

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


class TestReproduce:
    def test_full_table_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 0
        assert "0 disagreement(s)" in out
        assert "Petersen" in out
