"""Command-line surface: check | certify | realize | oracle | render.

Every command reads one graph document, prints a JSON report to standard
output (unless --no-json asks for a short text summary) and exits with
0 when the graph is isostatic, 1 when it is not, and 2 on any error.
Reports are deterministic for a fixed (input, flags, seed, version).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .certify import C3Verdict, ConstructionSequence, _c3_verdict, _decide, extract_sequence
from .errors import C3RigError, NotIsostatic, SchemaError
from .geometry import (
    Placement,
    _cartesian_terms,
    _float_point,
    frame_from_partition,
    framework_from_frame,
    numeric_isostatic_check,
    pull_apart_fully,
    symmetric_generic_positions,
)
from .graphs import SymGraph, count_fixed, parse_graph
from .pebble import SparsityReport, brute_force_laman, laman_check, pebble_sparsity
from .render import render_svg
from .trees import (
    TreePartition,
    build_tree_partition,
    relabel_partition,
    verify_tree_partition,
)


def _dump(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte.

    With an indent, ``json`` never reaches its C encoder and walks the
    report through its pure-Python generator encoder instead; this writer
    makes one pass, appending to one list that it joins once. Keys must be
    strings: any other key raises ``TypeError`` where ``json`` would
    convert it.
    """
    out: list[str] = []
    _write(report, out.append, "\n")
    return "".join(out)


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# json's text of a scalar, by its exact type; a subclass of str, int or
# float takes the slower way through ``_write``.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write(value, emit, newline: str) -> None:
    """Emit ``value`` as ``json`` does with indent 2, its items on lines that
    start with ``newline`` plus two spaces. A module-level function, not a
    closure calling itself: that would be a reference cycle, keeping every
    report's fragments alive until the next cyclic garbage collection."""
    if isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                emit(separator)
                _write(item, emit, inner)
            else:
                emit(separator + text(item))
            separator = "," + inner
        emit(newline + "]")
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = separator + encode_basestring_ascii(key) + ": "
            item = value[key]
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                emit(head)
                _write(item, emit, inner)
            else:
                emit(head + text(item))
            separator = "," + inner
        emit(newline + "}")
    else:
        text = _SCALAR_TEXT.get(type(value))
        if text is None:
            if isinstance(value, str):
                text = encode_basestring_ascii
            elif isinstance(value, int):
                text = int.__repr__
            elif isinstance(value, float):
                text = _float_text
            else:
                raise TypeError(
                    f"Object of type {type(value).__name__} is not JSON serializable"
                )
        emit(text(value))


def _emit(report: dict, as_json: bool, summary: str) -> None:
    if as_json:
        print(_dump(report))
    else:
        print(summary)


def _read_graph(path: str) -> tuple[bytes, SymGraph]:
    """The input's bytes and its graph. The bytes are decoded as strict
    UTF-8, not sniffed as ``json`` sniffs bytes, so a byte-order mark is
    still refused."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not UTF-8: {exc}") from exc
    return data, parse_graph(text)


def _base_report(command: str, data: bytes) -> dict:
    return {
        "command": command,
        "input_digest": hashlib.sha256(data).hexdigest(),
        "version": __version__,
    }


def _placement_json(placement: Placement) -> dict:
    """Each point's Cartesian coordinates, exactly and as floats, written
    straight from its (1, w) pair: x = a - b/2 and y = (b/2)*sqrt(3), each
    as the fractions {"a", "b"} of a rational plus a multiple of sqrt 3."""
    exact, floats = [], []
    for p in placement.positions:
        terms = _cartesian_terms(p)
        xn, xd, yn, yd = terms
        exact.append(
            {"x": {"a": f"{xn}/{xd}", "b": "0/1"}, "y": {"a": "0/1", "b": f"{yn}/{yd}"}}
        )
        floats.append(_float_point(terms))
    return {
        "exact": exact,
        "float_view": {"note": "non-authoritative", "positions": floats},
    }


def _sparsity_json(report) -> dict:
    return {
        "is_sparse": report.is_sparse,
        "is_tight": report.is_tight,
        "edge_count": report.edge_count,
        "target": report.target,
        "witness": list(report.witness) if report.witness is not None else None,
    }


def _verdict_json(verdict) -> dict:
    witness = verdict.witness
    if isinstance(witness, tuple):
        witness = list(witness)
    return {
        "isostatic": verdict.isostatic,
        "reasons": list(verdict.reasons),
        "witness": witness,
    }


def cmd_check(args) -> int:
    data, sg = _read_graph(args.file)
    report = _base_report("check", data)
    sparsity = pebble_sparsity(sg.graph)
    report["n"] = sg.graph.n
    report["m"] = sg.graph.m
    report["sparsity"] = _sparsity_json(sparsity)
    if sg.action is not None:
        fixed = count_fixed(sg)
        verdict = _c3_verdict(sg.action, sparsity)
        report["fixed_counts"] = {"j": fixed.j, "b": fixed.b}
        report["c3_verdict"] = _verdict_json(verdict)
        isostatic = verdict.isostatic
    else:
        isostatic = sparsity.is_tight
    _emit(report, args.json, f"isostatic: {isostatic}")
    return 0 if isostatic else 1


def cmd_certify(args) -> int:
    data, sg = _read_graph(args.file)
    report = _base_report("certify", data)
    try:
        seq, partition, sparsity = _certificates(sg)
    except NotIsostatic as exc:
        report["c3_verdict"] = _verdict_json(exc.verdict)
        _emit(report, args.json, f"not isostatic: {', '.join(exc.verdict.reasons)}")
        return 1
    report["c3_verdict"] = _verdict_json(C3Verdict(True, (), None))
    checks = verify_tree_partition(sg, partition, sparsity)
    report["sequence"] = seq.as_json_dict()
    report["partition"] = partition.as_json_dict()
    report["partition_checks"] = checks.as_json_dict()
    # extract_sequence has verified the replay round trip or raised.
    report["round_trip"] = True
    _emit(
        report,
        args.json,
        f"certified: {len(seq.moves)} moves, partition ok: {checks.ok}",
    )
    return 0 if checks.ok else 2


def _certificates(sg: SymGraph) -> tuple[ConstructionSequence, TreePartition, SparsityReport]:
    """The construction sequence, its partition in the input's labels, and
    the input's sparsity report. That report's game is the only one run:
    the extraction keeps it live, and the partition's properness reads it."""
    _, sparsity = _decide(sg)
    seq = extract_sequence(sg, sparsity)
    partition = relabel_partition(build_tree_partition(seq), seq.relabeling)
    return seq, partition, sparsity


def _realize(sg: SymGraph, method: str, seed: int) -> tuple[Placement, dict]:
    extra: dict = {}
    if method == "generic":
        placement = symmetric_generic_positions(sg, seed)
    else:
        _, partition, sparsity = _certificates(sg)
        frame = frame_from_partition(sg, partition, sparsity)
        frame, rounds = pull_apart_fully(sg, partition, frame)
        placement = framework_from_frame(sg, frame)
        extra["pull_apart_rounds"] = rounds
    return placement, extra


def cmd_realize(args) -> int:
    data, sg = _read_graph(args.file)
    report = _base_report("realize", data)
    placement, extra = _realize(sg, args.method, args.seed)
    rank = numeric_isostatic_check(sg, placement)
    report["method"] = args.method
    report["seed"] = args.seed
    report["placement"] = _placement_json(placement)
    report["rank_verdict"] = rank.as_json_dict()
    report.update(extra)
    _emit(report, args.json, f"rank {rank.rank}/{rank.target}, isostatic: {rank.isostatic}")
    return 0 if rank.isostatic else 1


def cmd_oracle(args) -> int:
    data, sg = _read_graph(args.file)
    report = _base_report("oracle", data)
    brute = brute_force_laman(sg.graph)
    pebble = laman_check(sg.graph)
    report["brute_force"] = brute
    report["pebble"] = pebble
    report["agree"] = brute == pebble
    _emit(report, args.json, f"brute={brute} pebble={pebble} agree={brute == pebble}")
    return 0 if brute == pebble else 2


def cmd_render(args) -> int:
    data, sg = _read_graph(args.file)
    report = _base_report("render", data)
    _, partition, _ = _certificates(sg)
    placement, _ = _realize(sg, "generic", args.seed)
    svg = render_svg(sg, placement, partition)
    Path(args.out).write_text(svg, encoding="utf-8")
    report["out"] = args.out
    report["seed"] = args.seed
    report["joints"] = sg.graph.n
    report["bars"] = sg.graph.m
    _emit(report, args.json, f"wrote {args.out}")
    return 0


# One parser per process: building it costs about a millisecond, and
# parsing never changes it, so every caller can share it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c3rig",
        description="Decide and certify 3-fold-symmetric generic isostaticity.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="graph document (JSON)")
        p.add_argument(
            "--json",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="emit a JSON report (default) or a one-line summary",
        )

    p = sub.add_parser("check", help="count conditions and fixed-vertex test")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("certify", help="construction sequence and tree partition")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("realize", help="exact symmetric placement with rank check")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("generic", "frame"), default="generic")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("oracle", help="brute-force count check against the pebble game")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render", help="draw the realized framework as SVG")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotIsostatic as exc:
        print(_dump({"command": args.command, "error": type(exc).__name__, "message": str(exc)}))
        return 1
    except (C3RigError, OSError, ZeroDivisionError) as exc:
        print(_dump({"command": args.command, "error": type(exc).__name__, "message": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=None))
