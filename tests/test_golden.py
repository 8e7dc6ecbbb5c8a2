"""Byte-for-byte pins of the command-line outputs.

Each case runs ``treestretch.cli.main`` in-process and compares its exit code,
stdout and stderr with the file ``tests/golden/<case>.txt``. The ``runtime_s``
line of a JSON report is dropped before the comparison; nothing else is.

Regenerate the files, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import pytest

from treestretch.cli import main

GOLDEN = Path(__file__).with_name("golden")
RUNTIME = re.compile(r'^  "runtime_s": [^\n]*\n', re.MULTILINE)

FAMILY_WORDS = {
    "complete": ["complete", "5"],
    "cycle": ["cycle", "6"],
    "wheel": ["wheel", "6"],
    "diamond": ["diamond", "5"],
    "complete-bipartite": ["complete-bipartite", "3", "4"],
    "complete-multipartite": ["complete-multipartite", "2", "2", "3"],
    "petersen": ["petersen"],
    "split": ["split", "3", "0,1", "1,2", "0,2"],
    "chain": ["chain", "3", "4", "2", "3", "4"],
    "random-convex": ["random-convex"],
    "rect-grid": ["rect-grid", "4", "5"],
    "tri-grid": ["tri-grid", "5"],
    "tri-rect-grid": ["tri-rect-grid", "4", "6"],
}


@dataclass(frozen=True)
class Stdin:
    """Literal text fed to a case's stdin."""

    text: str


# case name -> (argv, stdin: the name of the case whose stdout is fed to it,
# literal Stdin text, or None)
CASES: dict[str, tuple[list[str], str | Stdin | None]] = {"reproduce": (["reproduce"], None)}
for _name, _words in FAMILY_WORDS.items():
    CASES[f"generate-{_name}"] = (["generate", *_words], None)
    CASES[f"construct-{_name}"] = (["construct", *_words], None)
CASES.update({
    "generate-random-split": (["generate", "random-split"], None),
    "generate-random-split-seed7": (["generate", "random-split", "--seed", "7"], None),
    "generate-random-convex-seed7": (["generate", "random-convex", "--seed", "7"], None),
    "generate-random-blocks-seed7": (["generate", "random-blocks", "--seed", "7"], None),
    "generate-rect-grid-dot": (["generate", "rect-grid", "2", "3", "--dot"], None),
    "construct-random-split-seed7": (["construct", "random-split", "--seed", "7"], None),
    "construct-random-convex-seed7": (["construct", "random-convex", "--seed", "7"], None),
    "construct-split-pair": (["construct", "split", "3", "0,1", "1,2"], None),
    "construct-multipartite-star": (["construct", "complete-multipartite", "1", "2", "2"], None),
    "construct-multipartite-two-parts": (["construct", "complete-multipartite", "2", "3"], None),
    "construct-multipartite-unsorted": (["construct", "complete-multipartite", "2", "1", "2"], None),
    "construct-rect-grid-odd": (["construct", "rect-grid", "5", "7"], None),
    "construct-tri-grid-20": (["construct", "tri-grid", "20"], None),
    "construct-tri-rect-grid-odd": (["construct", "tri-rect-grid", "3", "4"], None),
    "construct-complete-1": (["construct", "complete", "1"], None),
    "construct-complete-2": (["construct", "complete", "2"], None),
    "construct-star-bipartite": (["construct", "complete-bipartite", "1", "3"], None),
    "construct-chain-tree": (["construct", "chain", "1", "3", "3"], None),
    "construct-split-tree": (["construct", "split", "2", "0", "1"], None),
    "construct-verify-rect-grid": (["construct", "rect-grid", "2", "3", "--verify"], None),
    "construct-verify-multipartite": (
        ["construct", "complete-multipartite", "1", "2", "2", "--verify", "--no-prune"], None),
    "levels-rect-grid": (["levels", "rect-grid", "3", "4"], None),
    "levels-tri-grid": (["levels", "tri-grid", "4"], None),
    "levels-tri-rect-grid": (["levels", "tri-rect-grid", "3", "4"], None),
    "levels-cube": (["levels", "cube"], None),
    "levels-tri-grid-dual-dot": (["levels", "tri-grid", "2", "--dual-dot"], None),
    "solve-petersen": (["solve", "-"], "generate-petersen"),
    "solve-petersen-no-prune": (["solve", "-", "--no-prune"], "generate-petersen"),
    "solve-rect-grid-3-4": (["solve", "-"], "generate-rect-grid-3-4"),
    "solve-rect-grid-3-4-no-prune": (["solve", "-", "--no-prune"], "generate-rect-grid-3-4"),
    "generate-rect-grid-3-4": (["generate", "rect-grid", "3", "4"], None),
    "error-unknown-family": (["generate", "moebius", "5"], None),
    "error-bad-parameter": (["generate", "cycle", "2"], None),
    "error-word-parameter": (["construct", "rect-grid", "4", "x"], None),
    "error-parameter-count": (["construct", "complete-bipartite", "3"], None),
    "error-petersen-parameter": (["generate", "petersen", "1"], None),
    "error-split-parameter": (["construct", "split", "3", "0;1"], None),
    "error-chain-parameter": (["construct", "chain", "2", "3"], None),
    "error-random-parameter": (["generate", "random-split", "3"], None),
    "error-random-blocks-parameter": (["generate", "random-blocks", "5", "7"], None),
    "error-levels-non-grid": (["levels", "complete", "4"], None),
    "error-levels-cube-parameter": (["levels", "cube", "1"], None),
    "error-solve-malformed-json": (["solve", "-"], Stdin('{"n": 1e400, "edges": [[0, 1]]}')),
    "error-convex-malformed-json": (
        ["convex", "-"], Stdin('{"n_y": "x", "tau_edges": [[0, 1]], "sigma": [[0, 1]]}')),
})


def run_case(name: str) -> str:
    """Exit code, stdout without ``runtime_s``, and stderr of one case."""
    argv, source = CASES[name]
    stdin = ""
    if isinstance(source, Stdin):
        stdin = source.text
    elif source is not None:
        stdin = run_case(source).split("\n", 1)[1]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    text = f"exit {code}\n{RUNTIME.sub('', out.getvalue())}"
    if err.getvalue():
        text += f"--- stderr\n{err.getvalue()}"
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(name) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.txt").write_text(run_case(case), encoding="utf-8")
