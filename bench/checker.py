"""Output checker for the benchmark, independent of c3rig's own verifiers.

``check_report`` reads one CLI report together with the graph document it
was run on and returns the names of the properties that fail; an empty list
means the report is accepted. Nothing here imports c3rig:

* every exit code and verdict must match the kind the graph was built as;
* every rejection witness must induce at least 2|V| - 2 edges;
* a ``certify`` report's sequence is replayed with the generator's own move
  table and, through its relabeling (which must be a permutation), must
  rebuild the input; its partition must split the input edges into three
  trees, put every vertex in exactly two of them, and be cycled by the
  rotation;
* a ``realize`` report must claim rank 2n - 3, its exact coordinates must
  satisfy the rotation exactly, and the rigidity matrix at those
  coordinates must reach rank 2n - 3 modulo a prime p = 11 (mod 12). The
  map a + b*sqrt(3) -> a + b*s (mod p), with s^2 = 3 (mod p), is a ring
  homomorphism, so the rank mod p never exceeds the exact rank: reaching
  2n - 3 proves full rank with no floating point anywhere.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import gen


def _is_probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3.3e24 with these bases.
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_11_mod_12(start: int, count: int) -> list[int]:
    primes = []
    p = start - (start - 11) % 12
    while len(primes) < count:
        if _is_probable_prime(p):
            primes.append(p)
        p -= 12
    return primes


# Two primes, so an unlucky one (a coordinate denominator divisible by it,
# or a minor that happens to vanish mod p) falls back to the other.
PRIMES = _primes_11_mod_12(2**61, 2)


def _sqrt3_mod(p: int) -> int:
    # p = 3 (mod 4), so a square root of a quadratic residue is r^((p+1)/4).
    s = pow(3, (p + 1) // 4, p)
    if s * s % p != 3:
        raise ValueError(f"3 is not a square modulo {p}")
    return s


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                f = f * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def _check_witness(doc: dict, witness, expect: bool, label: str) -> list[str]:
    if not expect:
        return [] if witness is None else [f"unexpected_{label}"]
    n = doc["vertices"]
    if (
        not isinstance(witness, list)
        or not all(type(x) is int and 0 <= x < n for x in witness)
        or len(set(witness)) != len(witness)
    ):
        return [f"missing_{label}"]
    edges = [tuple(e) for e in doc["edges"]]
    if gen.induced_edge_count(edges, witness) < 2 * len(witness) - 2:
        return ["witness_too_sparse"]
    return []


def _check_verdict(report: dict, doc: dict, kind: str) -> list[str]:
    failures = []
    _, reasons = gen.EXPECTED[kind]
    verdict = report.get("c3_verdict") or {}
    if verdict.get("isostatic") != (kind == "tight") or verdict.get("reasons") != reasons:
        failures.append("verdict")
    if report.get("command") == "check":
        sparsity = report.get("sparsity") or {}
        if (
            report.get("n") != doc["vertices"]
            or report.get("m") != len(doc["edges"])
            or sparsity.get("is_sparse") != (kind in ("tight", "short"))
            or sparsity.get("is_tight") != (kind == "tight")
            or report.get("fixed_counts") != {"j": 0, "b": 0}
        ):
            failures.append("counts")
        dense = kind in ("over", "planted")
        failures += _check_witness(doc, sparsity.get("witness"), dense, "sparsity_witness")
        failures += _check_witness(doc, verdict.get("witness"), dense, "verdict_witness")
    return failures


def _replay(sequence: dict) -> tuple[set, list] | None:
    """Rebuild the graph of a sequence with the generator's move table."""
    base = sequence.get("base") or {}
    if base != {"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]], "c3": [1, 2, 0]}:
        return None
    edges = {(0, 1), (0, 2), (1, 2)}
    gamma = [1, 2, 0]
    for move in sequence.get("moves", []):
        n = len(gamma)
        kind, anchors = move.get("kind"), move.get("anchors")
        if (
            move.get("new") != [n, n + 1, n + 2]
            or kind not in gen.ANCHOR_COUNT
            or not isinstance(anchors, list)
            or len(anchors) != gen.ANCHOR_COUNT[kind]
            or not all(type(x) is int and 0 <= x < n for x in anchors)
            or len(set(anchors)) != len(anchors)
        ):
            return None
        removed, added = gen.move_edges(gamma, kind, anchors)
        if len(set(removed)) != len(removed) or not edges.issuperset(removed):
            return None
        edges.difference_update(removed)
        if len(set(added)) != len(added) or not edges.isdisjoint(added):
            return None
        edges.update(added)
        gamma.extend((n + 1, n + 2, n))
    return edges, gamma


def _is_tree(edges: set) -> bool:
    vertices = {x for e in edges for x in e}
    if not edges or len(edges) != len(vertices) - 1:
        return False
    root = {v: v for v in vertices}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return True


def _check_certificate(report: dict, doc: dict) -> list[str]:
    failures = []
    n = doc["vertices"]
    gamma = doc["c3"]
    edges = {tuple(e) for e in doc["edges"]}
    if report.get("round_trip") is not True or not (report.get("partition_checks") or {}).get("ok"):
        failures.append("self_check_flags")

    sequence = report.get("sequence") or {}
    relabeling = sequence.get("relabeling")
    if not isinstance(relabeling, list) or sorted(relabeling) != list(range(n)):
        failures.append("relabeling_not_permutation")
    else:
        replayed = _replay(sequence)
        if replayed is None:
            failures.append("replay_invalid")
        else:
            r_edges, r_gamma = replayed
            rho = relabeling
            same_edges = {gen.pair(rho[u], rho[v]) for u, v in r_edges} == edges
            same_action = len(r_gamma) == n and all(
                rho[r_gamma[x]] == gamma[rho[x]] for x in range(n)
            )
            if not (same_edges and same_action):
                failures.append("replay_mismatch")

    part = report.get("partition") or {}
    trees = []
    for i in range(3):
        raw = part.get(f"T{i}")
        if not isinstance(raw, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in raw
        ):
            return failures + ["partition_malformed"]
        trees.append({gen.pair(*e) for e in raw})
    if sum(len(t) for t in trees) != len(edges) or set().union(*trees) != edges:
        failures.append("partition_edges")
    if not all(_is_tree(t) for t in trees):
        failures.append("partition_not_trees")
    spans = [{x for e in t for x in e} for t in trees]
    if any(sum(v in s for s in spans) != 2 for v in range(n)):
        failures.append("vertex_not_in_two_trees")
    if any({gen.pair(gamma[u], gamma[v]) for u, v in trees[i]} != trees[(i + 1) % 3] for i in range(3)):
        failures.append("rotation_does_not_cycle_trees")
    return failures


# A number a + b*sqrt(3) is held as the pair (a, b) of Fractions.

def _parse_q(obj) -> tuple[Fraction, Fraction]:
    return Fraction(obj["a"]), Fraction(obj["b"])


def _rotate(p):
    """Rotation by 120 degrees: (x, y) -> (-x/2 - (sqrt3/2) y, (sqrt3/2) x - y/2)."""
    (xa, xb), (ya, yb) = p
    half = Fraction(1, 2)
    return (
        (-half * xa - 3 * half * yb, -half * xb - half * ya),
        (3 * half * xb - half * ya, half * xa - half * yb),
    )


def _rank_mod_p_full(edges, pos, target: int) -> bool:
    for p in PRIMES:
        s = _sqrt3_mod(p)

        def image(q):
            (a, b) = q
            dens = a.denominator * b.denominator
            if dens % p == 0:
                raise ZeroDivisionError
            return (a.numerator * pow(a.denominator, -1, p) + b.numerator * pow(b.denominator, -1, p) * s) % p

        try:
            coords = [(image(x), image(y)) for x, y in pos]
        except ZeroDivisionError:
            continue
        n = len(pos)
        rows = []
        for u, v in sorted(edges):
            dx = (coords[u][0] - coords[v][0]) % p
            dy = (coords[u][1] - coords[v][1]) % p
            row = [0] * (2 * n)
            row[2 * u], row[2 * u + 1] = dx, dy
            row[2 * v], row[2 * v + 1] = -dx % p, -dy % p
            rows.append(row)
        if rank_mod_p(rows, p) == target:
            return True
    return False


def _check_realization(report: dict, doc: dict, method: str) -> list[str]:
    failures = []
    n = doc["vertices"]
    target = 2 * n - 3
    rank = report.get("rank_verdict") or {}
    if (
        report.get("method") != method
        or rank.get("isostatic") is not True
        or rank.get("rank") != target
        or rank.get("target") != target
        or rank.get("edge_count") != len(doc["edges"])
    ):
        failures.append("rank_verdict")
    try:
        pos = [(_parse_q(p["x"]), _parse_q(p["y"])) for p in report["placement"]["exact"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return failures + ["coordinates_malformed"]
    if len(pos) != n:
        return failures + ["coordinates_malformed"]
    gamma = doc["c3"]
    if any(pos[gamma[v]] != _rotate(pos[v]) for v in range(n)):
        failures.append("rotation_not_exact")
    if not _rank_mod_p_full([tuple(e) for e in doc["edges"]], pos, target):
        failures.append("rank_mod_p_deficient")
    return failures


def check_report(op, rc, out: str) -> list[str]:
    """Names of the properties one CLI report fails; empty when accepted.

    ``op`` carries the graph document (``doc``), the kind it was built as
    (``kind``), the command, the realize method and the file bytes.
    """
    failures = []
    expected_rc, _ = gen.EXPECTED[op.kind]
    if rc != expected_rc:
        failures.append("exit_code")
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return failures + ["report_not_json"]
    if not isinstance(report, dict):
        return failures + ["report_not_json"]
    if report.get("command") != op.command or report.get("input_digest") != hashlib.sha256(op.data).hexdigest():
        failures.append("report_header")
    if op.command in ("check", "certify"):
        failures += _check_verdict(report, op.doc, op.kind)
    if op.command == "certify":
        failures += _check_certificate(report, op.doc)
    if op.command == "realize":
        failures += _check_realization(report, op.doc, op.method)
    return failures
