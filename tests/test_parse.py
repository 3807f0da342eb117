"""parse_graph checks an edge list in whole passes and keeps a sorted one's
order; these tests hold it to the item-by-item scan it falls back on."""
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from c3rig import graphs, parse_graph, serialize_graph
from c3rig.errors import LoopOrDuplicateEdge, NotAPermutation, SchemaError
from tests.corpus import acceptance_corpus, k13_hub

DOCS = [serialize_graph(sg) for sg in acceptance_corpus()[::20] + (k13_hub(),)]
DOCS.append({"vertices": 7, "edges": [[0, 1], [2, 3], [2, 6], [4, 5]]})


def _shuffled_and_flipped(rng, doc):
    pairs = [p[::-1] if rng.random() < 0.5 else p for p in doc["edges"]]
    rng.shuffle(pairs)
    return pairs


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOCS), st.randoms(use_true_random=False))
def test_any_order_and_orientation_parses_as_the_sorted_document(doc, rng):
    want = parse_graph(json.dumps(doc))
    pairs = _shuffled_and_flipped(rng, doc)
    text = json.dumps({**doc, "edges": pairs})
    decoded = {**doc, "edges": [tuple(p) for p in pairs]}
    # a valid document never needs the item scan
    with mock.patch.object(graphs, "_scanned_edges", side_effect=AssertionError):
        for document in (text, decoded):
            sg = parse_graph(document)
            assert sg == want
            assert sg.graph.sorted_edges == want.graph.sorted_edges == tuple(sorted(sg.graph.edges))


def _bad_edge(rng, kind, pairs, n):
    """A malformed item of the given kind, and the error the scan names it by."""
    u, v = pairs[rng.randrange(len(pairs))]
    bad = {
        "non-pair": rng.choice([u, "0 1", None, {"u": u}]),
        "triple": [u, v, u],
        "single": [u],
        "bool": [True, v] if rng.random() < 0.5 else [u, False],
        "float": [float(u), v] if rng.random() < 0.5 else [u, float(v)],
        "negative": [-1 - u, v] if rng.random() < 0.5 else [u, -1],
        "too large": [n + u, v] if rng.random() < 0.5 else [u, n],
        "loop": [v, v],
        "duplicate": [u, v],
        "reversed duplicate": [v, u],
    }[kind]
    if kind in ("negative", "too large"):
        return bad, SchemaError, f"edge {bad!r} out of range for n={n}"
    if kind == "loop":
        return bad, LoopOrDuplicateEdge, f"loop at vertex {v}"
    if kind.endswith("duplicate"):
        return bad, LoopOrDuplicateEdge, f"edge {[u, v]} appears twice"
    return bad, SchemaError, f"edge entry {bad!r} is not a pair of integers"


EDGE_FAULTS = [
    "non-pair", "triple", "single", "bool", "float", "negative", "too large",
    "loop", "duplicate", "reversed duplicate",
]


@pytest.mark.parametrize("kind", EDGE_FAULTS)
def test_a_bad_edge_anywhere_raises_what_the_scan_names(kind):
    rng = random.Random(kind)
    for doc in DOCS:
        n, pairs = doc["vertices"], doc["edges"]
        for _ in range(5):
            bad, error, message = _bad_edge(rng, kind, pairs, n)
            edges = list(pairs)
            edges.insert(rng.randint(0, len(edges)), bad)
            for document in (json.dumps({**doc, "edges": edges}), {**doc, "edges": edges}):
                with pytest.raises(error) as info:
                    parse_graph(document)
                assert type(info.value) is error and str(info.value) == message


C3_FAULTS = ["bool", "float", "string", "negative", "too large", "repeated"]


@pytest.mark.parametrize("kind", C3_FAULTS)
def test_a_bad_rotation_entry_anywhere_raises_the_pinned_error(kind):
    rng = random.Random(kind)
    for doc in DOCS:
        if "c3" not in doc:
            continue
        n, c3 = doc["vertices"], list(doc["c3"])
        for _ in range(5):
            i = rng.randrange(n)
            x = c3[i]
            c3_bad = list(c3)
            c3_bad[i] = {
                "bool": bool(x % 2),
                "float": float(x),
                "string": str(x),
                "negative": -1 - x,
                "too large": n + x,
                "repeated": c3[(i + 1) % n],
            }[kind]
            error, message = NotAPermutation, f"{c3_bad} is not a permutation of 0..{n - 1}"
            if kind in ("bool", "float", "string"):
                error, message = SchemaError, "'c3' must be a list of integers"
            with pytest.raises(error) as info:
                parse_graph(json.dumps({**doc, "c3": c3_bad}))
            assert type(info.value) is error and str(info.value) == message
