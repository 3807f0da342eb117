import dataclasses
import gc
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from c3rig import __version__, certify, cli, geometry, parse_graph, pebble, serialize_graph, trees
from c3rig.cli import main
from c3rig.geometry import Placement
from tests.corpus import PRISM_DOC, fast_tight_symgraph, span_key
from tests.test_geometry import _CONCURRENT

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


@pytest.mark.parametrize(
    "argv, games",
    [
        (["check"], 1),
        (["certify"], 1),
        (["realize", "--method", "frame"], 1),
        (["render"], 1),
        (["realize", "--method", "generic", "--seed", "0"], 0),
    ],
    ids=["check", "certify", "realize_frame", "render", "realize_generic"],
)
def test_a_command_decides_the_input_with_one_game_at_most(
    write, capsys, monkeypatch, tmp_path, argv, games
):
    # count the from-scratch games played on the parsed input graph itself;
    # every verdict path reads them through Graph.sparsity
    parsed, played = [], []
    parse, play = cli.parse_graph, pebble.pebble_sparsity

    def parse_and_keep(text):
        parsed.append(parse(text))
        return parsed[-1]

    def counted(g):
        if g is parsed[0].graph:
            played.append(g)
        return play(g)

    monkeypatch.setattr(cli, "parse_graph", parse_and_keep)
    monkeypatch.setattr(pebble, "pebble_sparsity", counted)
    out = ["--out", str(tmp_path / "g.svg")] if argv[0] == "render" else []
    code, _ = run(capsys, [argv[0], write(PRISM_DOC), *argv[1:], *out])
    assert code == 0
    assert len(played) == games


def test_certify_decides_the_input_with_one_game(write, capsys, monkeypatch):
    # the reduction plays on a copy of the game that decided the input, so
    # the graph's own game keeps every edge; the round trip's replay runs
    # no game, and no other game is constructed
    parsed, copies, reduced_with, engines = [], [], [], []
    parse, copy, reduce_step = cli.parse_graph, pebble.PebbleGame.copy, certify._reduce_step
    init = pebble.PebbleGame.__init__

    def parse_and_keep(text):
        parsed.append(parse(text))
        return parsed[-1]

    def counted_copy(self):
        copies.append((self, copy(self)))
        return copies[-1][1]

    def step(act, adj, game, low):
        reduced_with.append(game)
        return reduce_step(act, adj, game, low)

    def counted_engine(self, *args):
        engines.append(self)
        init(self, *args)

    monkeypatch.setattr(cli, "parse_graph", parse_and_keep)
    monkeypatch.setattr(pebble.PebbleGame, "copy", counted_copy)
    monkeypatch.setattr(certify, "_reduce_step", step)
    monkeypatch.setattr(pebble.PebbleGame, "__init__", counted_engine)
    code, _ = run(capsys, ["certify", write(PRISM_DOC)])
    assert code == 0
    g = parsed[0].graph
    decided = g.sparsity.game
    assert sum(map(len, decided.out)) == g.m
    [(source, reduced)] = copies
    assert source is decided and reduced is not decided
    assert reduced_with and all(game is reduced for game in reduced_with)
    assert engines == [decided, reduced]


@pytest.mark.parametrize(
    "argv", [["certify"], ["realize", "--method", "frame"]], ids=["certify", "realize_frame"]
)
def test_a_command_checks_each_move_of_its_sequence_once(write, capsys, monkeypatch, argv):
    # the round trip's replay and the partition read one walk of the sequence
    sg = fast_tight_symgraph(3, 45)
    checked = []
    move_spokes = certify.move_spokes

    def counted(move, gamma, has_edge):
        checked.append(move)
        return move_spokes(move, gamma, has_edge)

    for module in (certify, trees):
        if hasattr(module, "move_spokes"):
            monkeypatch.setattr(module, "move_spokes", counted)
    code, _ = run(capsys, [argv[0], write(serialize_graph(sg)), *argv[1:]])
    assert code == 0
    # a sequence adds one orbit per move to the triangle
    assert len(checked) == sg.graph.n // 3 - 1 == len(set(checked))


def test_realize_frame_ranks_its_finished_framework_once(write, capsys, monkeypatch):
    # The separation's last offline pass proves the rows of its last round,
    # which span the finished framework's rows, and nothing ranks them
    # again once it returns: the report's rank is that proof.
    ranked, finished = [], []
    pull_apart_fully = cli.pull_apart_fully
    exact_rank = geometry.exact_rank

    def pull_then_mark(sg, tp):
        result = pull_apart_fully(sg, tp)
        finished.append(span_key(geometry.rigidity_matrix(sg.graph, result[0], sg.action)))
        return result

    def counted_rank(matrix, *ceiling):
        # each matrix as the span mod P of its orbit blocks
        ranked.append(None if finished else span_key(matrix))
        return exact_rank(matrix, *ceiling)

    monkeypatch.setattr(cli, "pull_apart_fully", pull_then_mark)
    monkeypatch.setattr(geometry, "exact_rank", counted_rank)
    code, out = run(capsys, ["realize", write(PRISM_DOC), "--method", "frame"])
    assert code == 0
    assert json.loads(out)["rank_verdict"]["rank"] == 9
    assert None not in ranked
    assert ranked.count(finished[0]) == 1 and ranked[-1] == finished[0]


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


_RANK_KEYS = {"isostatic", "independent", "rank", "edge_count", "target", "flex_dim"}


def test_realize_special_placement_is_inconclusive(write, capsys, monkeypatch):
    # A placement whose bars are concurrent has rank 8, short of the prism's
    # matroid rank 9. That proves nothing about the graph: the verdict is
    # inconclusive, exit 3, and only this path adds its three keys.
    code, out = run(capsys, ["realize", write(PRISM_DOC)])
    assert code == 0 and set(json.loads(out)["rank_verdict"]) == _RANK_KEYS
    monkeypatch.setattr(cli, "symmetric_generic_positions", lambda sg, seed: _CONCURRENT)
    code, out = run(capsys, ["realize", write(PRISM_DOC)])
    assert code == 3
    verdict = json.loads(out)["rank_verdict"]
    assert set(verdict) == _RANK_KEYS | {"inconclusive", "rank_mod_p", "ceiling"}
    assert verdict["inconclusive"] is True and verdict["isostatic"] is None
    assert (verdict["rank_mod_p"], verdict["ceiling"], verdict["rank"]) == (8, 9, None)
    code, out = run(capsys, ["realize", write(PRISM_DOC), "--no-json"])
    assert code == 3 and out.startswith("inconclusive")


def test_realize_frame_gives_up_when_every_round_is_short_mod_p(write, capsys, monkeypatch):
    # If P divided every coefficient of every minor, every round would fall
    # short mod P: the route runs out of parameters with ExhaustedT, exit 2,
    # and gives no verdict.
    monkeypatch.setattr(geometry, "exact_rank", lambda matrix: None)
    code, out = run(capsys, ["realize", write(PRISM_DOC), "--method", "frame"])
    assert code == 2
    assert json.loads(out)["error"] == "ExhaustedT"


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


# Each command as the goldens run it, with "--out" added for render.
_COMMANDS = {
    "check": ["check"],
    "certify": ["certify"],
    "realize_generic": ["realize", "--method", "generic"],
    "realize_frame": ["realize", "--method", "frame"],
    "oracle": ["oracle"],
    "render": ["render"],
}


def _argv(case, path, tmp_path):
    command, *flags = _COMMANDS[case]
    out = ["--out", str(tmp_path / "g.svg")] if command == "render" else []
    return [command, path, *flags, *out]


def _recorded_emits(monkeypatch):
    emitted = []
    monkeypatch.setattr(cli, "_emit", lambda *args: emitted.append(args))
    return emitted


@pytest.mark.parametrize("case", sorted(_COMMANDS))
def test_a_command_writes_its_report_once(write, capsys, monkeypatch, tmp_path, case):
    # main reads the graph, adds the header keys and writes the report once;
    # the command itself prints nothing
    emitted = _recorded_emits(monkeypatch)
    path = write(PRISM_DOC)
    assert main(_argv(case, path, tmp_path)) == 0
    assert capsys.readouterr().out == ""
    [(report, as_json, summary)] = emitted
    assert report["command"] == _COMMANDS[case][0]
    assert report["input_digest"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert report["version"] == __version__
    assert as_json is True and summary


# An input on which each command raises a C3RigError, with its exit code:
# NotIsostatic gives 1, every other error 2.
_REFUSED = {
    "check": ({"vertices": 1, "edges": []}, "TooFewVertices", 2),
    "certify": ({"vertices": 6, "edges": PRISM_DOC["edges"]}, "MissingAction", 2),
    "realize_generic": (HUB_DOC, "FixedVertexPresent", 2),
    "realize_frame": (K4_DOC, "NotIsostatic", 1),
    "oracle": ({"vertices": 20, "edges": [[0, 1]]}, "TooLarge", 2),
    "render": (K4_DOC, "NotIsostatic", 1),
}


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "no_json"])
@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_an_error_is_one_json_object_and_no_report(
    write, capsys, monkeypatch, tmp_path, case, as_json
):
    emitted = _recorded_emits(monkeypatch)
    doc, error, code = _REFUSED[case]
    flag = [] if as_json else ["--no-json"]
    assert main([*_argv(case, write(doc), tmp_path), *flag]) == code
    assert emitted == []
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"command", "error", "message"}
    assert (report["command"], report["error"]) == (_COMMANDS[case][0], error)


def test_verdicts_pass_their_witness_through():
    # a JSON dict refers to the witness tuple; it does not copy it, which
    # costs milliseconds on a witness of thousands of vertices
    sg = parse_graph(K4_DOC)
    verdict = certify.check_c3_isostatic(sg)
    sparsity = sg.graph.sparsity
    assert isinstance(verdict.witness, tuple) and isinstance(sparsity.witness, tuple)
    assert verdict.as_json_dict()["witness"] is verdict.witness
    assert sparsity.as_json_dict()["witness"] is sparsity.witness
    keys = {"is_sparse", "is_tight", "edge_count", "target", "witness"}
    assert set(sparsity.as_json_dict()) == keys


def test_a_partition_report_follows_its_field_order():
    names = [f.name for f in dataclasses.fields(trees.PartitionReport)]
    assert trees.PartitionReport(*[True] * len(names)).failures() == ()
    for failed in ([names[0], names[-1]], names[1:4], names):
        report = trees.PartitionReport(*[name not in failed for name in names])
        assert report.failures() == tuple(failed)
        doc = report.as_json_dict()
        assert list(doc) == [*names, "ok"]
        assert doc["ok"] is report.ok is False


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
# a list or tuple of two ints is written in one piece, only as an item
@example([[0, 1], (2, 3), [-4, 5]])
@example(((0, 1), [2, 3]))
@example([[True, 1], [1, False], [None, 1]])
@example([[1, 2.0], [1.0, 2], [1, "2"]])
@example([[2**70, -1], (-(2**64), 0)])
@example([[[1, 2]], [[1, 2], [3, 4]]])
@example({"edge": [1, 2], "tuple": (3, 4), "in": {"pair": [5, 6]}})
@example([[1], [1, 2, 3], (4,), (5, 6, 7)])
def test_dump_writes_the_bytes_of_json_dumps(value):
    assert cli._dump(value) == json.dumps(value, indent=2, sort_keys=True)


class _Text(str):
    pass


@pytest.mark.parametrize(
    "value",
    [{1: 2}, {None: 0}, [{"a": {(1, 2): 3}}], {1.5}, b"x", _Text("subclass"), {"a": [_Text("x")]}],
)
def test_dump_refuses_what_json_would_convert_or_refuse(value):
    with pytest.raises(TypeError):
        cli._dump(value)


_BIG = 2**31
# (integer pair, scale): the point pair / scale
_PAIRS = [
    ((0, 0), 1),
    ((3, -5), 1),
    ((-7, 4), 1),
    ((_BIG, -_BIG), 1),
    ((-_BIG, _BIG - 1), 1),
    ((0, 0), 7),
    ((5, 6), 15),
    ((-14, -9), 12),
    ((5, 10), 2),
    (((_BIG + 1) * (_BIG - 1), -3 * (_BIG + 3)), 3 * (_BIG - 1)),
]


def _assert_report_point_is_the_qsqrt3_point(pair, scale):
    # the report's exact and float views, written straight from the pair,
    # are those of the Q(sqrt 3) point x = (a - b/2)/D, y = (b/2D)*sqrt(3)
    a, b = (Fraction(c, scale) for c in pair)
    x, y = a - b / 2, b / 2
    placement = Placement((pair,), scale)
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
    _assert_report_point_is_the_qsqrt3_point(*pair)


@given(
    st.tuples(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=-(2**40), max_value=2**40),
    ),
    st.integers(min_value=1, max_value=2**33),
)
def test_report_coordinates_match_the_qsqrt3_point_for_any_pair(pair, scale):
    _assert_report_point_is_the_qsqrt3_point(pair, scale)


def test_points_are_integer_pairs_over_a_positive_scale():
    with pytest.raises(TypeError):
        Placement(((Fraction(1, 2), 0),))
    with pytest.raises(TypeError):
        Placement(((1, 0),), 0)
    with pytest.raises(TypeError):
        Placement(((0, 0), (True, 0)))


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
