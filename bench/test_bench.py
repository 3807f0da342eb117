"""Tests of the benchmark itself: tiny smoke runs, tamper cases, input digests.

Run from the root of a checkout with ``python3 -m pytest -q bench``.
"""
from __future__ import annotations

import dataclasses
import json
import random

import pytest

import checker
import gen
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "check": dataclasses.replace(run.WORKLOADS["check"], n=30, graphs_per_kind=1),
    "certify": dataclasses.replace(run.WORKLOADS["certify"], n=24, graphs_per_kind=2),
    "realize_generic": dataclasses.replace(run.WORKLOADS["realize_generic"], n=15, graphs_per_kind=2),
    "realize_frame": dataclasses.replace(run.WORKLOADS["realize_frame"], n=15, graphs_per_kind=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace):
    out = run.run_benchmark(f"tiny_{name}", TINY[name], seed=3, seconds=0.0, trace=trace)
    result = out["result"]
    assert result["correct"], out["notes"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    for spec in BENCHMARK[section]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_layer_self_times_add_up_to_the_op():
    out = run.run_benchmark("tiny_frame", TINY["realize_frame"], seed=5, seconds=0.0, trace=True)
    metrics = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    shares = sum(metrics[f"{layer}.share"] for layer in run.spans.LAYERS)
    assert shares == pytest.approx(1.0)
    assert metrics["geometry.pull_apart_rounds"] >= 1
    assert metrics["field.rank_calls"] >= metrics["geometry.pull_apart_rounds"]


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in run.WORKLOADS.values()]


def test_input_digests_match_the_record():
    table = json.loads(run.DIGESTS.read_text())
    for name, wl in run.WORKLOADS.items():
        for seed in ("0", "1"):
            _, digest = run.make_ops(name, wl, int(seed), run.WORK / f"digest_{name}")
            assert digest == table[name][seed], f"input drift in {name} seed {seed}"


@pytest.mark.parametrize("kind", gen.KINDS)
def test_generated_counts_hold_by_construction(kind):
    rng = random.Random(kind)
    for n in (12, 30, 90):
        doc = gen.make_graph(rng, kind, n)
        gamma = doc["c3"]
        edges = {tuple(e) for e in doc["edges"]}
        assert all(gamma[x] != x for x in range(n))
        assert {gen.pair(gamma[u], gamma[v]) for u, v in edges} == edges


def test_primes_are_11_mod_12_with_a_square_root_of_3():
    for p in checker.PRIMES:
        assert p % 12 == 11 and checker._is_probable_prime(p)
        s = checker._sqrt3_mod(p)
        assert s * s % p == 3


def _report(name: str, kind: str):
    wl = dataclasses.replace(TINY[name], kinds=(kind,), graphs_per_kind=1)
    package = run.load_c3rig()
    ops, _ = run.make_ops(f"tamper_{name}", wl, 7, run.WORK / f"tamper_{name}")
    op = ops[0]
    _, rc, out = run.call(package["cli"].main, op.argv)
    assert checker.check_report(op, rc, out) == []
    return op, rc, json.loads(out)


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def test_tamper_flipped_exit_code():
    op, rc, report = _report("check", "tight")
    assert "exit_code" in checker.check_report(op, 1 - rc, _dump(report))


def test_tamper_shrunken_witness():
    op, rc, report = _report("check", "over")
    report["sparsity"]["witness"] = report["sparsity"]["witness"][:2]
    assert "witness_too_sparse" in checker.check_report(op, rc, _dump(report))


def test_tamper_dropped_partition_edge():
    op, rc, report = _report("certify", "tight")
    report["partition"]["T0"].pop(0)
    assert "partition_edges" in checker.check_report(op, rc, _dump(report))


def test_tamper_nudged_coordinate():
    op, rc, report = _report("realize_generic", "tight")
    x = report["placement"]["exact"][0]["x"]
    num, den = map(int, x["a"].split("/"))
    x["a"] = f"{num + 1}/{den}"
    assert "rotation_not_exact" in checker.check_report(op, rc, _dump(report))


def test_tamper_permuted_relabeling():
    op, rc, report = _report("certify", "tight")
    relabeling = report["sequence"]["relabeling"]
    relabeling[0], relabeling[-1] = relabeling[-1], relabeling[0]
    assert "replay_mismatch" in checker.check_report(op, rc, _dump(report))


def test_rank_mod_p_sees_a_deficient_matrix():
    p = checker.PRIMES[0]
    assert checker.rank_mod_p([[1, 2, 3], [2, 4, 6], [0, 1, 1]], p) == 2


@pytest.mark.parametrize("pool", [16, 24, 40, 48])
def test_tail_falls_on_the_same_op_whatever_the_pass_count(pool):
    pct = run.tail_percentile(pool)
    costs = [float(i) for i in range(pool)]
    tails = {run.percentile(sorted(costs * passes), pct) for passes in range(run.min_passes(pool), 9)}
    assert len(tails) == 1


def test_scaled_time_reads_as_at_the_reference_speed():
    assert run.scaled(1.0, run.REFERENCE_S, run.REFERENCE_S) == pytest.approx(1.0)
    assert run.scaled(1.0, 2 * run.REFERENCE_S, 2 * run.REFERENCE_S) == pytest.approx(0.5)
