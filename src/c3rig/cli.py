"""Command-line surface: check | certify | realize | oracle | render.

Each command is a function ``cmd_x(args, sg) -> (fields, summary, exit_code)``
of the parsed graph; it reads no file and prints nothing. ``main`` is the
one report path: it reads the graph document, runs the command, adds the
header keys ``command``, ``input_digest`` and ``version`` to the fields and
prints the JSON report once (the one-line summary under --no-json). The
exit code is 0 when the graph is isostatic, 1 when it is not, 2 on any
error, and 3 when ``realize`` drew a placement whose rank mod P falls short
of the graph's matroid rank, which decides nothing (an inconclusive
``rank_verdict``); ``oracle`` exits 0 when its two checks agree and 2 when
they do not. An error is always written as one JSON object. Reports are
deterministic for a fixed (input, flags, seed, version).
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
from .certify import ConstructionSequence, check_c3_isostatic, extract_sequence
from .errors import C3RigError, NotIsostatic, SchemaError
from .geometry import (
    Placement,
    RankVerdict,
    _cartesian_terms,
    _float_point,
    numeric_isostatic_check,
    pull_apart_fully,
    symmetric_generic_positions,
)
from .graphs import SymGraph, count_fixed, parse_graph
from .pebble import brute_force_laman, laman_check
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
    makes one pass, appending to one list that it joins once. Values must
    be of exact JSON types (str, int, float, bool, None, list, tuple, dict)
    and keys strings: anything else raises ``TypeError``, also where
    ``json`` would convert it, as it does a key or a subclass of str.
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


# json's text of a scalar, by its exact type; ``_write`` refuses any other
# type, a subclass of str, int or float too.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write(value, emit, newline: str) -> None:
    """Emit ``value`` as ``json`` does with indent 2, its items on lines that
    start with ``newline`` plus two spaces. An item that is a list or tuple
    of exactly two ``int`` (not bool), as every edge of a report is, is
    written in one piece, with no call. A module-level function, not a
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
            if text is not None:
                emit(separator + text(item))
            elif (
                isinstance(item, (list, tuple))
                and len(item) == 2
                and type(item[0]) is int
                and type(item[1]) is int
            ):
                emit(f"{separator}[{inner}  {item[0]},{inner}  {item[1]}{inner}]")
            else:
                emit(separator)
                _write(item, emit, inner)
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


def _placement_json(placement: Placement) -> dict:
    """Each point's Cartesian coordinates, exactly and as floats, written
    straight from its integer (1, w) pair over the scale D:
    x = (a - b/2) / D and y = (b/2D)*sqrt(3), each as the fractions
    {"a", "b"} of a rational plus a multiple of sqrt 3."""
    exact, floats = [], []
    scale = placement.scale
    for p in placement.positions:
        terms = _cartesian_terms(p, scale)
        xn, xd, yn, yd = terms
        exact.append(
            {"x": {"a": f"{xn}/{xd}", "b": "0/1"}, "y": {"a": "0/1", "b": f"{yn}/{yd}"}}
        )
        floats.append(_float_point(terms))
    return {
        "exact": exact,
        "float_view": {"note": "non-authoritative", "positions": floats},
    }


def cmd_check(args, sg: SymGraph) -> tuple[dict, str, int]:
    sparsity = sg.graph.sparsity
    fields = {"n": sg.graph.n, "m": sg.graph.m, "sparsity": sparsity.as_json_dict()}
    isostatic = sparsity.is_tight
    if sg.action is not None:
        counts = count_fixed(sg)
        verdict = check_c3_isostatic(sg)
        fields["fixed_counts"] = {"j": counts.j, "b": counts.b}
        fields["c3_verdict"] = verdict.as_json_dict()
        isostatic = verdict.isostatic
    return fields, f"isostatic: {isostatic}", 0 if isostatic else 1


def cmd_certify(args, sg: SymGraph) -> tuple[dict, str, int]:
    verdict = check_c3_isostatic(sg)
    fields = {"c3_verdict": verdict.as_json_dict()}
    if not verdict.isostatic:
        return fields, f"not isostatic: {', '.join(verdict.reasons)}", 1
    seq, partition = _certificates(sg)
    checks = verify_tree_partition(sg, partition)
    fields["sequence"] = seq.as_json_dict()
    fields["partition"] = partition.as_json_dict()
    fields["partition_checks"] = checks.as_json_dict()
    # extract_sequence has verified the replay round trip or raised.
    fields["round_trip"] = True
    summary = f"certified: {len(seq.moves)} moves, partition ok: {checks.ok}"
    return fields, summary, 0 if checks.ok else 2


def _certificates(sg: SymGraph) -> tuple[ConstructionSequence, TreePartition]:
    """The construction sequence and its partition in the input's labels.
    The input's game (``Graph.sparsity``) is the only one run: the
    extraction reduces a copy of it, and the partition's properness reads
    it."""
    seq = extract_sequence(sg)
    partition = relabel_partition(build_tree_partition(seq), seq.relabeling)
    return seq, partition


def _realize(sg: SymGraph, method: str, seed: int) -> tuple[Placement, RankVerdict, dict]:
    if method == "generic":
        placement = symmetric_generic_positions(sg, seed)
        return placement, numeric_isostatic_check(sg, placement), {}
    _, partition = _certificates(sg)
    placement, rounds = pull_apart_fully(sg, partition)
    # The placement's rigidity matrix is the last round's generalized one
    # with each row times its edge's nonzero scalar, and pull_apart_fully
    # has proven that one at full row rank: nothing ranks it again.
    rank = RankVerdict.of(sg.graph, sg.graph.m)
    return placement, rank, {"pull_apart_rounds": rounds}


def cmd_realize(args, sg: SymGraph) -> tuple[dict, str, int]:
    placement, rank, fields = _realize(sg, args.method, args.seed)
    fields["method"] = args.method
    fields["seed"] = args.seed
    fields["placement"] = _placement_json(placement)
    fields["rank_verdict"] = rank.as_json_dict()
    if rank.inconclusive:
        return fields, f"inconclusive: rank mod P {rank.rank_mod_p} below {rank.ceiling}", 3
    summary = f"rank {rank.rank}/{rank.target}, isostatic: {rank.isostatic}"
    return fields, summary, 0 if rank.isostatic else 1


def cmd_oracle(args, sg: SymGraph) -> tuple[dict, str, int]:
    brute = brute_force_laman(sg.graph)
    pebble = laman_check(sg.graph)
    agree = brute == pebble
    fields = {"brute_force": brute, "pebble": pebble, "agree": agree}
    return fields, f"brute={brute} pebble={pebble} agree={agree}", 0 if agree else 2


def cmd_render(args, sg: SymGraph) -> tuple[dict, str, int]:
    _, partition = _certificates(sg)
    svg = render_svg(sg, symmetric_generic_positions(sg, args.seed), partition)
    Path(args.out).write_text(svg, encoding="utf-8")
    fields = {"out": args.out, "seed": args.seed, "joints": sg.graph.n, "bars": sg.graph.m}
    return fields, f"wrote {args.out}", 0


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
    """Read the graph, run the command on it, add the header keys and write
    the report once. An error is reported as one JSON object whatever
    --json says: exit 1 for ``NotIsostatic``, 2 for any other."""
    args = build_parser().parse_args(argv)
    try:
        data, sg = _read_graph(args.file)
        report, summary, code = args.func(args, sg)
        report["command"] = args.command
        report["input_digest"] = hashlib.sha256(data).hexdigest()
        report["version"] = __version__
        _emit(report, args.json, summary)
        return code
    except (C3RigError, OSError) as exc:
        print(_dump({"command": args.command, "error": type(exc).__name__, "message": str(exc)}))
        return 1 if isinstance(exc, NotIsostatic) else 2


if __name__ == "__main__":
    sys.exit(main(argv=None))
