"""The benchmark's ops, run in this process and pinned by one record.

Every op that ``bench/run.py``'s ``make_ops`` makes for each workload at
seeds 0-5 (768 ops) goes through ``c3rig.cli.main`` once, its standard
output captured. The exit-code counts, and one sha256 over each op's
workload, seed, file name, exit code and standard output in that order,
must equal ``tests/bench_ops.json``; a changed verdict or report byte on
any benchmark graph shows up here. Run from the root of a checkout:

    PYTHONPATH=src python -m tests.bench_ops

and, after a deliberate change of a report, regenerate the record with

    PYTHONPATH=src python -m tests.bench_ops --write
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "bench_ops.json"
SEEDS = range(6)


def record() -> dict:
    """The exit-code counts and the digest of every op, in order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    from c3rig.cli import main

    codes: Counter = Counter()
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in run.WORKLOADS.items():
            for seed in SEEDS:
                ops, _ = run.make_ops(name, workload, seed, Path(tmp) / name)
                for op in ops:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(op.argv)
                    codes[code] += 1
                    head = [name, seed, Path(op.argv[1]).name, code]
                    digest.update(json.dumps(head).encode())
                    digest.update(out.getvalue().encode())
    return {
        "ops": sum(codes.values()),
        "exit_codes": {str(code): count for code, count in sorted(codes.items())},
        "sha256": digest.hexdigest(),
    }


def main(argv: list[str]) -> int:
    found = record()
    if argv == ["--write"]:
        RECORD.write_text(json.dumps(found, indent=2) + "\n")
        return 0
    pinned = json.loads(RECORD.read_text())
    print(json.dumps(found))
    if found != pinned:
        print(f"the benchmark's ops differ from {RECORD.name}: {json.dumps(pinned)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
