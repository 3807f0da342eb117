"""Benchmark of c3rig's verdict paths, end to end and layer by layer.

Usage, from the root of a checkout (stdlib only, nothing to build):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload calls ``c3rig.cli.main(argv)`` in this process, with standard
output captured, as a closed loop with one caller and one thread: the next
op starts when the previous one returns. One op is one CLI command on one
graph file. The files are generated at set-up from ``--seed`` (the same
seed gives the same bytes; their digest is printed, and compared with
``bench/digests.json`` where that lists the seed). The loop makes whole
passes over the files, at least ``MIN_SAMPLES`` ops, until a pass ends after
``--seconds`` seconds; outputs are checked after it, outside the timed
region, by ``checker.py``. An op fails on an exception, a wrong exit code, a
checker rejection, or report bytes that differ from the first repetition of
the same op.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
``SETUP_REPEATS`` fresh imports plus input generations), completed ops per
second, median and tail latency, the share of ops that did not fail, and
peak memory. The tail is the highest whole percentile with at least ten
samples above it in the fewest passes over the workload's files that make
``MIN_SAMPLES`` ops; its percentile and the sample count are printed above
the result line.

The times of ``--trace 0`` are scaled to a fixed host speed. On a shared
host the same loop runs at anything from two thirds of its speed to full
speed, changing every few seconds, which would move a run's median by more
than any bound a benchmark can keep. So a calibration kernel (``calibrate``:
pure-Python container work and big-integer arithmetic, the two kinds of work
in c3rig, and none of c3rig's code) is timed before and after every op and
every set-up, and each wall time is multiplied by ``REFERENCE_S`` over the
mean of the two kernel times around it: a time reads as it would at the
speed where the kernel takes ``REFERENCE_S``. The unscaled wall-clock
figures and the host speed are printed above the result line.

``--trace 1`` runs each op twice in turn, untraced and then traced through
``spans.py``, for the same number of seconds, fails any op whose two
reports differ, and prints the per-layer metrics: per-op means over the
traced ops, plus the tracing overhead against the untraced runs. The spans
are written to ``bench/_work/<workload>/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

To refresh the digest table after a deliberate change to the generator:

    python3 -c "import sys; sys.path.insert(0, 'bench'); import run; run.write_digests(range(10))"
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checker
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 9
MIN_SAMPLES = 48

# Duration of one ``calibrate`` kernel at the reference speed: its median on
# a 2-vCPU x86-64 VM with Python 3.11 at that VM's full speed.
REFERENCE_S = 0.0036
_BIG_A = 3**4000 + 17
_BIG_B = 7**3500 + 3


def calibrate() -> float:
    """Time one calibration kernel: the geometric mean of its two parts."""
    start = time.perf_counter()
    total, table, items, seen = 0, {}, [], set()
    for i in range(12000):
        total += i * i % 7
        table[i & 511] = total
        items.append(i)
        seen.add(i & 255)
        if len(items) > 64:
            items.clear()
    middle = time.perf_counter()
    a = _BIG_A
    for i in range(20):
        a = (a * _BIG_B) % _BIG_A + i
        math.gcd(a, _BIG_B)
    end = time.perf_counter()
    return math.sqrt((middle - start) * (end - middle))


def scaled(wall: float, before: float, after: float) -> float:
    """A wall time at the reference speed, from the kernel times around it."""
    return wall * REFERENCE_S * 2 / (before + after)


@dataclass(frozen=True)
class Workload:
    command: str
    n: int
    kinds: tuple[str, ...]
    graphs_per_kind: int
    method: str | None = None
    # Draw the graphs from a corpus fixed per workload and let --seed pick
    # only the placement seeds (see realize_generic below).
    fixed_graphs: bool = False
    why: str = ""


# Sizes are chosen so that one 20-second run completes at least about fifty
# ops on a 2-core machine; pools are large enough that the spread over seeds
# stays small (realize_frame's cost varies about 16 % from graph to graph and
# as much with the vertex order of one graph, so its median needs 48 graphs).
# ``why`` is copied into BENCHMARK.json.
WORKLOADS = {
    "check": Workload(
        "check", 3000, gen.KINDS, 6,
        why="decision path alone: parse and from-scratch pebble games at n=3000 on "
        "tight, short, over-braced and planted graphs; no extraction, no rank",
    ),
    "certify": Workload(
        "certify", 240, ("tight",), 16,
        why="extraction, replay and the pebble games inside them at n=240; "
        "no rank, so a rank change should not move it",
    ),
    # The exact-rank cost of one graph varies about 15-fold with its vertex
    # order (fill-in of the elimination), but only about 10 % with the
    # placement, so graphs drawn per seed would make the spread measure the
    # draw rather than the program.
    "realize_generic": Workload(
        "realize", 48, ("tight",), 40, method="generic", fixed_graphs=True,
        why="exact rank of one large matrix with big random-rational coefficients at "
        "n=48; no pebble game or extraction; fixed graphs, seeded placements",
    ),
    "realize_frame": Workload(
        "realize", 45, ("tight",), 48, method="frame",
        why="frame pull-apart at n=45: many rank calls on small-coefficient "
        "matrices plus a small extraction",
    ),
}


@dataclass(frozen=True)
class Op:
    argv: list[str]
    kind: str
    command: str
    method: str | None
    doc: dict
    data: bytes


def make_ops(name: str, wl: Workload, seed: int, workdir: Path) -> tuple[list[Op], str]:
    """Write the workload's graph files; return its ops and their digest."""
    rng = random.Random(f"{name}:{seed}")
    graph_rng = random.Random(f"{name}:corpus") if wl.fixed_graphs else rng
    workdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    ops = []
    for i in range(wl.graphs_per_kind):
        for kind in wl.kinds:
            doc = gen.make_graph(graph_rng, kind, wl.n)
            data = gen.dump(doc)
            path = workdir / f"g{i}_{kind}.json"
            path.write_bytes(data)
            flags = []
            if wl.method is not None:
                flags = ["--method", wl.method, "--seed", str(rng.randrange(10**6))]
            digest.update(json.dumps([wl.command, path.name] + flags).encode())
            digest.update(data)
            ops.append(Op([wl.command, str(path)] + flags, kind, wl.command, wl.method, doc, data))
    return ops, digest.hexdigest()


def load_c3rig() -> dict:
    """Import c3rig afresh from the checkout; map submodule names to modules."""
    for mod in [m for m in sys.modules if m == "c3rig" or m.startswith("c3rig.")]:
        del sys.modules[mod]
    cli = importlib.import_module("c3rig.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"c3rig came from {cli.__file__}, not from this checkout")
    return {
        m.split(".", 1)[1]: sys.modules[m] for m in sys.modules if m.startswith("c3rig.")
    }


def setup(name: str, wl: Workload, seed: int, repeats: int = SETUP_REPEATS):
    """Import plus input generation, ``repeats`` times; returns the last set.

    The time is the median over the repeats, scaled to the reference speed.
    """
    times, digests = [], set()
    calibrate()  # warm-up
    before = calibrate()
    for _ in range(repeats):
        start = time.perf_counter()
        package = load_c3rig()
        ops, digest = make_ops(name, wl, seed, WORK / name)
        wall = time.perf_counter() - start
        after = calibrate()
        times.append(scaled(wall, before, after))
        before = after
        digests.add(digest)
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic for one seed")
    # Keep the benchmark's own objects out of the program's garbage collections.
    gc.collect()
    gc.freeze()
    return package, ops, digest, statistics.median(times)


def call(fn, *args) -> tuple[float, object, str]:
    """Time one CLI call with its standard output captured."""
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = fn(*args)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the loop must go on; the op is counted as failed
            rc = "exception"
            error = traceback.format_exc()
        end = time.perf_counter()
    if error is not None:
        print(error, file=sys.stderr)
    return end - start, rc, buf.getvalue()


class Judge:
    """Keeps each op's first report and fails ops by the rules above."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.first: dict[int, tuple[object, str]] = {}
        self.records: list[tuple[int, object, bool]] = []

    def add(self, idx: int, rc, out: str) -> None:
        first = self.first.setdefault(idx, (rc, out))
        self.records.append((idx, rc, out == first[1]))

    def failures(self) -> Counter:
        rejected = {
            idx: checker.check_report(self.ops[idx], rc, out)
            for idx, (rc, out) in self.first.items()
        }
        reasons: Counter = Counter()
        for idx, rc, same in self.records:
            expected, _ = gen.EXPECTED[self.ops[idx].kind]
            why = list(rejected[idx])
            if rc != expected and "exit_code" not in why:
                why.append("exit_code")
            if not same:
                why.append("report_bytes_differ")
            for reason in why:
                reasons[reason] += 1
            reasons["failed_ops"] += bool(why)
        return reasons


def min_passes(pool: int) -> int:
    return math.ceil(MIN_SAMPLES / pool)


def tail_percentile(pool: int) -> int:
    """Highest whole percentile with at least ten samples above it in min_passes(pool).

    Every op runs once a pass, so a percentile fixed per pool falls on the
    same op of the pool however many passes a run makes; one chosen per run
    would move to another op whenever the host's speed changes the number
    of passes.
    """
    n = min_passes(pool) * pool
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 100


def percentile(sorted_lat: list[float], p: int) -> float:
    return sorted_lat[math.ceil(p * len(sorted_lat) / 100) - 1]


def whole_passes(count: int, deadline: float):
    """Op indices, pass after pass over the pool, until a pass ends past the deadline.

    Only whole passes run, so every op carries the same weight in the
    latency figures whatever the run length; at least min_passes(count) run.
    """
    for passes in itertools.count(1):
        yield from range(count)
        if passes >= min_passes(count) and time.perf_counter() >= deadline:
            return


def run_plain(package: dict, ops: list[Op], seconds: float):
    """The timed closed loop, with a calibration kernel between ops.

    Returns the judge, the wall and the scaled latencies, the kernel times
    and the peak RSS.
    """
    main = package["cli"].main
    judge = Judge(ops)
    walls, latencies = [], []
    kernel = [calibrate()]
    for idx in whole_passes(len(ops), time.perf_counter() + seconds):
        lat, rc, out = call(main, ops[idx].argv)
        kernel.append(calibrate())
        walls.append(lat)
        latencies.append(scaled(lat, kernel[-2], kernel[-1]))
        judge.add(idx, rc, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return judge, len(ops), walls, latencies, kernel, peak_rss_mb


def end_to_end(pool, walls, latencies, kernel, peak_rss_mb, setup_s, failed) -> tuple[dict, list[str]]:
    """Metrics from the scaled latencies; notes with the wall-clock figures.

    A closed loop completes one op per op latency, so ops per second is the
    completed ops over the summed latencies.
    """
    lat = sorted(latencies)
    ok = len(lat) - failed
    pct = tail_percentile(pool)
    tail = percentile(lat, pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "ok_ratio": (ok / len(lat), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = sorted(walls)
    notes = [
        f"latency_tail_s is p{pct} of {len(lat)} samples, "
        f"{len(lat) - math.ceil(pct * len(lat) / 100)} above it",
        f"host speed {REFERENCE_S / statistics.median(kernel):.3f} of the reference "
        f"(kernel {min(kernel) * 1e3:.2f} to {max(kernel) * 1e3:.2f} ms)",
        f"wall clock: ops_per_s {ok / sum(wall):.6g}, latency_p50_s "
        f"{statistics.median(wall):.6g}, latency_tail_s {percentile(wall, pct):.6g}",
    ]
    return metrics, notes


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_per_move", "_per_round")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def run_traced(package: dict, ops: list[Op], seconds: float, name: str) -> tuple[Judge, dict, str]:
    main = package["cli"].main
    judge = Judge(ops)
    tracer = spans.Tracer(package)
    plain, traced, figures = [], [], []
    for i, idx in enumerate(whole_passes(len(ops), time.perf_counter() + seconds)):
        lat, rc, out = call(main, ops[idx].argv)
        plain.append(lat)
        judge.add(idx, rc, out)
        tracer.install()
        missing = list(tracer.missing)
        try:
            lat, rc, out = call(tracer.run_op, i, main, ops[idx].argv)
        finally:
            tracer.uninstall()
        traced.append(lat)
        judge.add(idx, rc, out)
        figures.append(tracer.finish_op(len(out.encode())))
    out_dir = WORK / name
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / "spans.jsonl")
    metrics = {}
    for key in figures[0]:
        values = [f[key] for f in figures]
        value = max(values) if key.endswith("_max") else statistics.fmean(values)
        metrics[key] = (value, layer_unit(key))
    mean_plain, mean_traced = statistics.fmean(plain), statistics.fmean(traced)
    metrics["op.traced_s"] = (mean_traced, "s")
    metrics["op.untraced_s"] = (mean_plain, "s")
    metrics["trace.overhead_s"] = (mean_traced - mean_plain, "s")
    metrics["trace.overhead_share"] = ((mean_traced - mean_plain) / mean_plain, "ratio")
    note = f"{len(traced)} traced ops"
    if missing:
        note += "; boundaries not found: " + ", ".join(missing)
    return judge, metrics, note


def expected_digest(name: str, seed: int) -> str | None:
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def write_digests(seeds) -> None:
    table = {}
    for name, wl in WORKLOADS.items():
        table[name] = {str(s): make_ops(name, wl, s, WORK / name)[1] for s in seeds}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_benchmark(name: str, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    package, ops, digest, setup_s = setup(name, wl, seed)
    notes = [f"{name} seed={seed} inputs={len(ops)} ops, digest {digest}"]
    drift = False
    want = expected_digest(name, seed)
    if want is not None and want != digest:
        notes.append(f"INPUT DRIFT: digests.json records {want}")
        drift = True
    if trace:
        judge, metrics, note = run_traced(package, ops, seconds, name)
    else:
        judge, *timing = run_plain(package, ops, seconds)
    reasons = judge.failures()
    failed = reasons.pop("failed_ops")
    if trace:
        notes.append(note)
    else:
        metrics, more = end_to_end(*timing, setup_s, failed)
        notes.extend(more)
    if reasons:
        notes.append("failures: " + ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())))
    return {
        "notes": notes,
        "result": {
            "correct": failed == 0 and not drift,
            "attempted": len(judge.records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    out = run_benchmark(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    for line in out["notes"]:
        print("#", line)
    for key, metric in out["result"]["metrics"].items():
        print(f"# {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
