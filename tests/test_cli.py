import gc
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from c3rig import certify, cli, geometry, parse_graph, pebble, serialize_graph
from c3rig.cli import main
from c3rig.geometry import Placement
from tests.corpus import PRISM_DOC, fast_tight_symgraph

K3_DOC = {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]], "c3": [1, 2, 0]}
K4_DOC = {
    "vertices": 4,
    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
    "c3": [1, 2, 0, 3],
}
HUB_DOC = {"vertices": 4, "edges": [[3, 0], [3, 1], [3, 2]], "c3": [1, 2, 0, 3]}


@pytest.fixture
def write(tmp_path):
    def _write(doc, name="g.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_check_prism(write, capsys):
    code, out = run(capsys, ["check", write(PRISM_DOC)])
    report = json.loads(out)
    assert code == 0
    assert report["command"] == "check"
    assert report["c3_verdict"]["isostatic"] is True
    assert report["fixed_counts"] == {"j": 0, "b": 0}
    assert report["sparsity"]["is_tight"] is True
    assert len(report["input_digest"]) == 64


def test_check_k4_reasons(write, capsys):
    code, out = run(capsys, ["check", write(K4_DOC)])
    report = json.loads(out)
    assert code == 1
    reasons = report["c3_verdict"]["reasons"]
    assert "count" in reasons
    assert "subgraph_sparsity" in reasons


def test_check_without_action(write, capsys):
    doc = {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
    code, out = run(capsys, ["check", write(doc)])
    report = json.loads(out)
    assert code == 0
    assert "c3_verdict" not in report


@pytest.mark.parametrize("vertices", [10**100, 3_000_000], ids=["googol", "three_million"])
def test_check_costs_what_the_edges_cost_however_many_vertices(write, capsys, vertices):
    # The game holds only the vertices on an edge: with 3,000,000 vertices
    # and no edge it used to allocate them all, and 10**100 escaped main
    # with an OverflowError.
    code, out = run(capsys, ["check", write({"vertices": vertices, "edges": []})])
    assert code == 1
    assert json.loads(out)["sparsity"] == {
        "edge_count": 0,
        "is_sparse": True,
        "is_tight": False,
        "target": 2 * vertices - 3,
        "witness": None,
    }
    # a K4 among isolated vertices: its witness comes back in input labels
    k4 = [3, 10, 20, vertices - 1]
    doc = {"vertices": vertices, "edges": [[a, b] for i, a in enumerate(k4) for b in k4[i + 1 :]]}
    code, out = run(capsys, ["check", write(doc)])
    assert code == 1
    assert json.loads(out)["sparsity"]["witness"] == k4
    report = pebble.pebble_sparsity(parse_graph(doc).graph)
    assert (report.witness, len(report.game.pebbles)) == (tuple(k4), 4)


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, out = run(capsys, ["check", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "SchemaError"


@pytest.mark.parametrize("command", ["check", "certify", "realize", "oracle", "render"])
def test_undecodable_or_deeply_nested_input_is_a_schema_error(tmp_path, capsys, command):
    text = json.dumps(K3_DOC)
    inputs = {
        "utf16.json": b"\xff\xfe" + text.encode("utf-16-le"),
        "bom.json": b"\xef\xbb\xbf" + text.encode(),
        "nested.json": b"[" * 100000,
    }
    for name, data in inputs.items():
        path = tmp_path / name
        path.write_bytes(data)
        extra = ["--out", str(tmp_path / "g.svg")] if command == "render" else []
        code, out = run(capsys, [command, str(path), *extra])
        assert code == 2, name
        assert json.loads(out)["error"] == "SchemaError", name


def test_certify_prism(write, capsys):
    code, out = run(capsys, ["certify", write(PRISM_DOC)])
    report = json.loads(out)
    assert code == 0
    assert report["round_trip"] is True
    assert report["partition_checks"]["ok"] is True
    moves = report["sequence"]["moves"]
    assert moves == [{"kind": "DeltaExtension", "anchors": [0], "new": [3, 4, 5]}]
    assert set(report["partition"]) == {"T0", "T1", "T2"}
    got = sorted(tuple(e) for tree in report["partition"].values() for e in tree)
    assert got == sorted(tuple(sorted(e)) for e in PRISM_DOC["edges"])


def test_certify_k3_empty_sequence(write, capsys):
    code, out = run(capsys, ["certify", write(K3_DOC)])
    report = json.loads(out)
    assert code == 0
    assert report["sequence"]["moves"] == []


def test_certify_rejects_k4(write, capsys):
    code, out = run(capsys, ["certify", write(K4_DOC)])
    assert code == 1
    assert json.loads(out)["c3_verdict"]["isostatic"] is False


def test_certify_decides_the_input_with_one_game(write, capsys, monkeypatch):
    # count the from-scratch games run on the parsed input graph itself,
    # through every name the verdict paths look up, check that the
    # reduction keeps that game live, and count every game constructed
    parsed = []
    games = []
    parse = cli.parse_graph

    def parse_and_keep(text):
        parsed.append(parse(text))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_graph", parse_and_keep)
    for module in (cli, certify):
        for name in ("pebble_sparsity", "laman_check"):
            game = getattr(module, name, None)
            if game is None:
                continue

            def counted(g, game=game):
                result = game(g)
                if g is parsed[0].graph:
                    games.append((game.__name__, result))
                return result

            monkeypatch.setattr(module, name, counted)
    engines = []
    init = pebble.PebbleGame.__init__

    def counted_engine(self, *args):
        engines.append(self)
        init(self, *args)

    monkeypatch.setattr(pebble.PebbleGame, "__init__", counted_engine)
    reduced_with = []
    reduce_step = certify._reduce_step

    def step(act, adj, alive, game, low):
        reduced_with.append(game)
        return reduce_step(act, adj, alive, game, low)

    monkeypatch.setattr(certify, "_reduce_step", step)
    code, _ = run(capsys, ["certify", write(PRISM_DOC)])
    assert code == 0
    assert [name for name, _ in games] == ["pebble_sparsity"]
    decided = games[0][1].game
    assert reduced_with and all(game is decided for game in reduced_with)
    # the input's game also carries the partition's properness, and the
    # round trip's replay runs none
    assert len(engines) == 1 and engines[0] is decided


def test_realize_frame_decides_the_input_with_one_game(write, capsys, monkeypatch):
    engines = []
    init = pebble.PebbleGame.__init__

    def counted_engine(self, *args):
        engines.append(self)
        init(self, *args)

    monkeypatch.setattr(pebble.PebbleGame, "__init__", counted_engine)
    code, _ = run(capsys, ["realize", write(PRISM_DOC), "--method", "frame"])
    assert code == 0
    assert len(engines) == 1


def test_realize_frame_ranks_its_placement_once(write, capsys, monkeypatch):
    ranks_after_separation = []
    separated = []
    pull_apart_fully = cli.pull_apart_fully
    exact_rank = geometry.exact_rank

    def pull_then_mark(*args):
        result = pull_apart_fully(*args)
        separated.append(True)
        return result

    def counted_rank(matrix, *ceiling):
        if separated:
            ranks_after_separation.append(matrix.rows)
        return exact_rank(matrix, *ceiling)

    monkeypatch.setattr(cli, "pull_apart_fully", pull_then_mark)
    monkeypatch.setattr(geometry, "exact_rank", counted_rank)
    code, _ = run(capsys, ["realize", write(PRISM_DOC), "--method", "frame"])
    assert code == 0
    assert ranks_after_separation == [9]


def test_realize_frame_finds_a_parameter_past_the_first_fifty(write, capsys):
    # A round of this graph's separation rejects more than fifty parameters
    # for collisions, so a fixed list of fifty candidates ran out here.
    doc = serialize_graph(fast_tight_symgraph(1, 270))
    code, out = run(capsys, ["realize", write(doc), "--method", "frame"])
    report = json.loads(out)
    assert code == 0
    assert report["rank_verdict"]["isostatic"] is True
    assert report["rank_verdict"]["rank"] == 537


def test_certify_needs_the_symmetry(write, capsys):
    doc = {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
    code, out = run(capsys, ["certify", write(doc)])
    assert code == 2
    assert json.loads(out)["error"] == "MissingAction"


def test_realize_generic(write, capsys):
    code, out = run(capsys, ["realize", write(PRISM_DOC), "--seed", "7"])
    report = json.loads(out)
    assert code == 0
    assert report["rank_verdict"]["isostatic"] is True
    assert report["rank_verdict"]["rank"] == 9
    assert len(report["placement"]["exact"]) == 6
    coord = report["placement"]["exact"][0]["x"]
    assert "/" in coord["a"] and "/" in coord["b"]
    assert report["placement"]["float_view"]["note"] == "non-authoritative"


def test_realize_frame_method(write, capsys):
    code, out = run(capsys, ["realize", write(PRISM_DOC), "--method", "frame"])
    report = json.loads(out)
    assert code == 0
    assert report["rank_verdict"]["isostatic"] is True
    assert report["pull_apart_rounds"] >= 1


def test_realize_fixed_hub_fails(write, capsys):
    code, out = run(capsys, ["realize", write(HUB_DOC)])
    assert code == 2
    assert json.loads(out)["error"] == "FixedVertexPresent"


def test_realize_overbraced_exits_one(write, capsys):
    # no fixed vertex, but twelve edges against nine degrees of freedom
    octa = {
        "vertices": 6,
        "edges": [
            [u, v]
            for u in range(6)
            for v in range(u + 1, 6)
            if v - u != 3
        ],
        "c3": [1, 2, 0, 4, 5, 3],
    }
    code, out = run(capsys, ["realize", write(octa)])
    assert code == 1
    assert json.loads(out)["rank_verdict"]["isostatic"] is False


def test_oracle_agrees(write, capsys):
    code, out = run(capsys, ["oracle", write(PRISM_DOC)])
    report = json.loads(out)
    assert code == 0
    assert report["brute_force"] is True
    assert report["pebble"] is True
    assert report["agree"] is True


def test_oracle_k4_both_false(write, capsys):
    code, out = run(capsys, ["oracle", write(K4_DOC)])
    report = json.loads(out)
    assert code == 0
    assert report["brute_force"] is False and report["pebble"] is False


def test_oracle_too_large(write, capsys):
    doc = {"vertices": 20, "edges": [[0, 1]]}
    code, out = run(capsys, ["oracle", write(doc)])
    assert code == 2
    assert json.loads(out)["error"] == "TooLarge"


def test_reports_are_deterministic(write, capsys):
    path = write(PRISM_DOC)
    _, first = run(capsys, ["check", path])
    _, second = run(capsys, ["check", path])
    assert first == second
    _, r1 = run(capsys, ["realize", path, "--seed", "5"])
    _, r2 = run(capsys, ["realize", path, "--seed", "5"])
    assert r1 == r2


def test_render_prism(write, capsys, tmp_path):
    out_path = tmp_path / "prism.svg"
    code, out = run(capsys, ["render", write(PRISM_DOC), "--out", str(out_path)])
    assert code == 0
    svg = out_path.read_text()
    assert svg.count("<circle") == 6
    assert svg.count("<line") == 9
    for cls in ("t0", "t1", "t2"):
        assert svg.count(f'class="{cls}"') == 3
    code2, _ = run(capsys, ["render", write(PRISM_DOC), "--out", str(out_path)])
    assert out_path.read_text() == svg


def test_render_k3(write, capsys, tmp_path):
    out_path = tmp_path / "k3.svg"
    code, _ = run(capsys, ["render", write(K3_DOC), "--out", str(out_path)])
    assert code == 0
    svg = out_path.read_text()
    assert svg.count("<circle") == 3
    assert svg.count("<line") == 3


def test_render_unwritable_path(write, capsys, tmp_path):
    code, out = run(
        capsys,
        ["render", write(PRISM_DOC), "--out", str(tmp_path / "no" / "dir" / "x.svg")],
    )
    assert code == 2


def test_missing_file(capsys):
    code, out = run(capsys, ["check", "/does/not/exist.json"])
    assert code == 2


def test_summary_mode(write, capsys):
    code, out = run(capsys, ["check", write(PRISM_DOC), "--no-json"])
    assert code == 0
    assert out.strip() == "isostatic: True"


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
    | st.text()
    | st.text(alphabet='"\\\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


@given(_JSON_VALUES)
@example({"": [], "b": {}, "a": ((), [{}], "\u00e9\"\\\x01"), "z": [2**70, -(2**64)]})
def test_dump_writes_the_bytes_of_json_dumps(value):
    assert cli._dump(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1: 2}, {None: 0}, [{"a": {(1, 2): 3}}], {1.5}, b"x"])
def test_dump_refuses_what_json_would_convert_or_refuse(value):
    with pytest.raises(TypeError):
        cli._dump(value)


_BIG = 2**31
_PAIRS = [
    (0, 0),
    (3, -5),
    (-7, 4),
    (_BIG, -_BIG),
    (-_BIG, _BIG - 1),
    (Fraction(0), Fraction(0)),
    (Fraction(1, 3), Fraction(2, 5)),
    (Fraction(-7, 6), Fraction(-3, 4)),
    (Fraction(5, 2), Fraction(5)),
    (Fraction(_BIG + 1, 3), Fraction(-_BIG - 3, _BIG - 1)),
]


def _assert_report_point_is_the_qsqrt3_point(pair):
    # the report's exact and float views, written straight from the pair,
    # are those of the Q(sqrt 3) point x = a - b/2, y = (b/2)*sqrt(3)
    a, b = map(Fraction, pair)
    x, y = a - b / 2, b / 2
    placement = Placement((pair,))
    view = cli._placement_json(placement)
    assert view["exact"] == [
        {
            "x": {"a": f"{x.numerator}/{x.denominator}", "b": "0/1"},
            "y": {"a": "0/1", "b": f"{y.numerator}/{y.denominator}"},
        }
    ]
    floats = view["float_view"]["positions"]
    assert floats == placement.float_positions()
    assert [tuple(map(repr, p)) for p in floats] == [
        (repr(float(x)), repr(float(y) * math.sqrt(3)))
    ]


@pytest.mark.parametrize("pair", _PAIRS)
def test_report_coordinates_match_the_qsqrt3_point(pair):
    _assert_report_point_is_the_qsqrt3_point(pair)


@given(
    st.tuples(
        st.integers(min_value=-(2**40), max_value=2**40)
        | st.fractions(max_denominator=2**33),
        st.integers(min_value=-(2**40), max_value=2**40)
        | st.fractions(max_denominator=2**33),
    )
)
def test_report_coordinates_match_the_qsqrt3_point_for_any_pair(pair):
    _assert_report_point_is_the_qsqrt3_point(pair)


def test_dump_of_a_realize_report_leaves_no_garbage_cycles(write, capsys, monkeypatch):
    # a writer that refers to itself through a cell would keep each
    # report's fragments alive until the next cyclic collection
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, *_: reports.append(report))
    assert main(["realize", write(PRISM_DOC)]) == 0
    gc.collect()
    gc.disable()
    try:
        cli._dump(reports[0])
        assert gc.collect() == 0
    finally:
        gc.enable()
