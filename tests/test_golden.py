"""Byte-identical golden reports for every CLI command on a fixed graph set.

Each case runs one command on one committed input graph and compares the
standard output bytes and the exit code with the files under
``tests/golden/``; ``render`` also compares the SVG it writes. Run again with
``--no-json``, each case must exit with the same code. Refactors must
leave every report unchanged, so a golden file changes only with a
deliberate change of the report format.

Regenerate the expected files (and write any input graph that is missing)
with ``PYTHONPATH=src python -m tests.test_golden``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from c3rig import SymGraph, serialize_graph
from c3rig.cli import main
from tests.corpus import (
    PRISM_DOC,
    k3,
    k33,
    perturb_edge_swap,
    prism,
    random_tight_symgraph,
)

GOLDEN = Path(__file__).parent / "golden"
SVG_NAME = "out.svg"


def _perturbed() -> SymGraph:
    rng = random.Random(6)
    return perturb_edge_swap(rng, random_tight_symgraph(rng, 12))


# Input graph name -> builder; used only to write a missing input file.
INPUTS = {
    "k3": lambda: serialize_graph(k3()),
    "prism": lambda: serialize_graph(prism()),
    "k33": lambda: serialize_graph(k33()),
    "random30": lambda: serialize_graph(random_tight_symgraph(2, 30)),
    "perturbed12": lambda: serialize_graph(_perturbed()),
    "nosym": lambda: {"vertices": 6, "edges": PRISM_DOC["edges"]},
}

# Case name -> CLI arguments after the command's input file.
CASES = {
    "check": ["check"],
    "certify": ["certify"],
    "realize_generic": ["realize", "--method", "generic", "--seed", "0"],
    "realize_frame": ["realize", "--method", "frame"],
    "oracle": ["oracle"],
    "render": ["render", "--out", SVG_NAME],
}


def _argv(graph: str, case: str, extra: tuple[str, ...]) -> list[str]:
    command, *flags = CASES[case]
    return [command, str(GOLDEN / f"{graph}.json"), *flags, *extra]


def _run(
    graph: str, case: str, workdir: Path, extra: tuple[str, ...] = ()
) -> tuple[bytes, int, bytes | None]:
    """Stdout bytes, exit code and SVG bytes (None when none was written)
    of the case run with ``extra`` flags added."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(_argv(graph, case, extra))
    finally:
        os.chdir(cwd)
    svg_path = workdir / SVG_NAME
    svg = svg_path.read_bytes() if svg_path.exists() else None
    return out.getvalue().encode("utf-8"), code, svg


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("graph", sorted(INPUTS))
def test_golden_report(graph, case, tmp_path):
    stdout, code, svg = _run(graph, case, tmp_path)
    stem = f"{graph}.{case}"
    assert stdout == (GOLDEN / f"{stem}.stdout").read_bytes()
    assert code == _exit_codes()[stem]
    golden_svg = GOLDEN / f"{stem}.svg"
    assert svg == (golden_svg.read_bytes() if golden_svg.exists() else None)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("graph", sorted(INPUTS))
def test_summary_mode_exits_with_the_golden_code(graph, case, tmp_path):
    # --no-json changes only what a report prints: the exit code is the
    # golden one, and an error is still written as its golden JSON object
    stdout, code, _ = _run(graph, case, tmp_path, ("--no-json",))
    stem = f"{graph}.{case}"
    assert code == _exit_codes()[stem]
    golden = (GOLDEN / f"{stem}.stdout").read_bytes()
    if "error" in json.loads(golden):
        assert stdout == golden
    else:
        assert stdout.count(b"\n") == 1 and not stdout.startswith(b"{")


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for graph, build in INPUTS.items():
        path = GOLDEN / f"{graph}.json"
        if not path.exists():
            path.write_text(json.dumps(build()) + "\n", encoding="utf-8")
    codes = {}
    for graph in sorted(INPUTS):
        for case in sorted(CASES):
            stem = f"{graph}.{case}"
            with tempfile.TemporaryDirectory() as tmp:
                stdout, codes[stem], svg = _run(graph, case, Path(tmp))
            (GOLDEN / f"{stem}.stdout").write_bytes(stdout)
            if svg is not None:
                (GOLDEN / f"{stem}.svg").write_bytes(svg)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    regenerate()
