"""Outside-in tracing of c3rig's layers, from the benchmark's own files.

``Tracer.install`` replaces each public name listed in ``BOUNDARIES`` in the
module where its caller looks it up (``c3rig.certify.laman_check`` is what
the extractor calls, ``c3rig.geometry.exact_rank`` what the geometry layer
calls), so no file of the program changes. A name that is missing, because
a later version removed or renamed it, is skipped and listed in
``Tracer.missing``.

Each wrapped call records a span: name, start, end, parent span and op id.
Spans stay in memory and are written out at the end of the run. Counts that
need the call's argument or result (matrix size and coefficient bits of a
rank call, moves of an extracted sequence) are taken after the op ends,
outside every span. A span's self time is its duration minus the time its
child spans cover; every span belongs to the layer named before the dot of
its name, so the layers' self times add up to the op's time.

``Tracer.finish_op`` turns one op's spans into figures: ``<layer>.<x>_s`` is
the time of the outermost spans at boundary x, children included;
``_self_s`` leaves the children out; ``<layer>.self_s`` and
``<layer>.share`` are the layer's self time and its share of the op; counts
are per op, and a ratio reads 0 where its base is 0.
"""
from __future__ import annotations

import json
import time

# (module under c3rig, public name, span name); the layer is the prefix.
BOUNDARIES = (
    ("cli", "parse_graph", "graphs.parse"),
    ("cli", "relabel_symgraph", "graphs.relabel"),
    ("certify", "relabel_symgraph", "graphs.relabel"),
    ("cli", "count_fixed", "graphs.count_fixed"),
    ("certify", "count_fixed", "graphs.count_fixed"),
    ("cli", "pebble_sparsity", "pebble.game"),
    ("certify", "pebble_sparsity", "pebble.game"),
    ("certify", "laman_check", "pebble.game"),
    ("trees", "pebble_sparsity", "pebble.game"),
    ("cli", "check_c3_isostatic", "certify.check"),
    ("certify", "check_c3_isostatic", "certify.check"),
    ("cli", "extract_sequence", "certify.extract"),
    ("cli", "replay_sequence", "certify.replay"),
    ("certify", "replay_sequence", "certify.replay"),
    ("certify", "apply_move", "certify.move"),
    ("trees", "apply_move", "certify.move"),
    ("cli", "build_tree_partition", "trees.build"),
    ("cli", "relabel_partition", "trees.relabel"),
    ("cli", "verify_tree_partition", "trees.verify"),
    ("geometry", "verify_tree_partition", "trees.verify"),
    ("cli", "symmetric_generic_positions", "geometry.placement"),
    ("cli", "frame_from_partition", "geometry.placement"),
    ("geometry", "rigidity_matrix", "geometry.matrix_build"),
    ("geometry", "generalized_rigidity_matrix", "geometry.matrix_build"),
    ("cli", "pull_apart_fully", "geometry.pull_apart"),
    ("geometry", "pull_apart", "geometry.pull_apart_round"),
    ("cli", "framework_from_frame", "geometry.framework"),
    ("cli", "numeric_isostatic_check", "geometry.rank_check"),
    ("geometry", "exact_rank", "field.rank"),
)

LAYERS = ("graphs", "pebble", "certify", "trees", "geometry", "field", "cli")

ROOT = "cli.main"

# Spans whose argument (index 0) or result (index 1) is kept until the op
# ends, when it is replaced by the counts taken from it.
_PAYLOAD = {"field.rank": 0, "certify.extract": 1}

# Span fields; a span is a list, so the wrapper can fill in its end.
NAME, START, END, PARENT, OP, PAYLOAD = range(6)


def _coeff_bits(matrix) -> int:
    best = 0
    for row in getattr(matrix, "entries", ()):
        for x in row:
            for q in (x.a, x.b):
                best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    """Wraps c3rig's layer boundaries and keeps the spans of traced ops."""

    def __init__(self, package: dict):
        """``package`` maps module names under c3rig to module objects."""
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._first = 0
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = _PAYLOAD.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep is not None:
                span[PAYLOAD] = args[0] if keep == 0 else result
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in BOUNDARIES:
            mod = self.package.get(module)
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._patches.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        self.missing.clear()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as one traced op under a root ``cli.main`` span."""
        self._op = op_id
        self._first = len(self.spans)
        root = self._wrap(fn, ROOT)
        return root(*args)

    def finish_op(self, report_bytes: int) -> dict:
        """Aggregate the last op's spans into per-layer figures."""
        spans = self.spans[self._first:]
        base = self._first
        n = len(spans)
        child = [0.0] * n
        for s in spans:
            if s[PARENT] >= base:
                child[s[PARENT] - base] += s[END] - s[START]

        def inside(i, name):
            # True when an ancestor span of span i has this name.
            p = spans[i][PARENT]
            while p >= base:
                if spans[p - base][NAME] == name:
                    return True
                p = spans[p - base][PARENT]
            return False

        layer_self = dict.fromkeys(LAYERS, 0.0)
        incl: dict[str, float] = {}
        self_by: dict[str, float] = {}
        calls: dict[str, int] = {}
        cells = bits = moves = round_ranks = 0
        for i, s in enumerate(spans):
            name = s[NAME]
            dur = s[END] - s[START]
            own = dur - child[i]
            layer_self[name.split(".", 1)[0]] += own
            self_by[name] = self_by.get(name, 0.0) + own
            if not inside(i, name):
                incl[name] = incl.get(name, 0.0) + dur
                calls[name] = calls.get(name, 0) + 1
            payload = s[PAYLOAD]
            if name == "field.rank":
                count = {
                    "cells": getattr(payload, "rows", 0) * getattr(payload, "cols", 0),
                    "coeff_bits": _coeff_bits(payload),
                }
                cells += count["cells"]
                bits = max(bits, count["coeff_bits"])
                round_ranks += inside(i, "geometry.pull_apart_round")
                s[PAYLOAD] = count
            elif name == "certify.extract":
                s[PAYLOAD] = {"moves": len(getattr(payload, "moves", ()))}
                moves += s[PAYLOAD]["moves"]
        op_s = incl.get(ROOT, 0.0)
        games = calls.get("pebble.game", 0)
        rounds = calls.get("geometry.pull_apart_round", 0)
        figures = {
            "graphs.parse_s": incl.get("graphs.parse", 0.0),
            "graphs.relabel_s": incl.get("graphs.relabel", 0.0),
            "pebble.games": games,
            "pebble.games_per_move": games / moves if moves else 0.0,
            "certify.extract_s": incl.get("certify.extract", 0.0),
            "certify.extract_self_s": self_by.get("certify.extract", 0.0),
            "certify.replay_s": incl.get("certify.replay", 0.0),
            "certify.check_s": incl.get("certify.check", 0.0),
            "certify.moves": calls.get("certify.move", 0),
            "certify.sequence_moves": moves,
            "trees.build_s": incl.get("trees.build", 0.0),
            "trees.verify_s": incl.get("trees.verify", 0.0),
            "geometry.placement_s": incl.get("geometry.placement", 0.0),
            "geometry.matrix_build_s": incl.get("geometry.matrix_build", 0.0),
            "geometry.pull_apart_self_s": self_by.get("geometry.pull_apart", 0.0)
            + self_by.get("geometry.pull_apart_round", 0.0),
            "geometry.pull_apart_rounds": rounds,
            "geometry.rank_calls_per_round": round_ranks / rounds if rounds else 0.0,
            "geometry.framework_s": incl.get("geometry.framework", 0.0),
            "field.rank_calls": calls.get("field.rank", 0),
            "field.rank_s": incl.get("field.rank", 0.0),
            "field.rank_matrix_cells": cells,
            "field.rank_coeff_bits_max": bits,
            "cli.report_bytes": report_bytes,
        }
        for layer in LAYERS:
            figures[f"{layer}.self_s"] = layer_self[layer]
            figures[f"{layer}.share"] = layer_self[layer] / op_s if op_s else 0.0
        return figures

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "op": s[OP], "id": i, "parent": s[PARENT], "name": s[NAME],
                    "start": s[START], "end": s[END], "counts": s[PAYLOAD],
                }) + "\n")
