"""Smoke test for the benchmark itself.

Runs every workload once at tiny n, untraced and traced, and checks that each
emits exactly the metrics BENCHMARK.json names with zero failures; then
checks that a corrupted analyze CSV row trips the correctness gate.  The
negative control runs inside every benchmark run, so it is exercised too.

Usage (from the repository root): python3 perfbench/selftest.py
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 5


class SelfTestFailure(AssertionError):
    pass


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestFailure(message)


def check_workloads(spec: dict) -> None:
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            record = run.run_benchmark(workload["name"], SEED, 0.05, bool(trace), workloads.TINY)
            label = f"{workload['name']} trace={trace}"
            _check(record["failed"] == 0 and record["correct"], f"{label}: {record['problems']}")
            emitted = set(record["metrics"])
            wanted = layers if trace else e2e
            _check(emitted == wanted, f"{label}: missing {sorted(wanted - emitted)}, "
                                      f"undeclared {sorted(emitted - wanted)}")
            print(f"ok  {label}: {len(emitted)} metrics, {record['attempted']} commands")


def check_gate_catches_corruption() -> None:
    import gate
    from pbindex.cli import main as cli_main

    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        cmd = workloads.build("analyze-all", SEED, Path(tmp), workloads.TINY)[0]
        cmd.sample = list(cmd.subsets)
        _check(cli_main(cmd.argv) == 0, "tiny analyze failed")
        _check(gate.check(cmd) == [], f"clean output rejected: {gate.check(cmd)}")
        with open(cmd.out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        subset, index, value = rows[6]
        rows[6][2] = repr(float(value) * (1 + 1e-6) + 1e-6)
        with open(cmd.out, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        _check(gate.check(cmd) != [], "corrupted CSV row passed the gate")
        print(f"ok  corrupted {index} row of {subset} tripped the gate")


def main() -> int:
    if not (run.SRC / "pbindex" / "cli.py").is_file():
        print(f"error: no pbindex sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        check_workloads(spec)
        check_gate_catches_corruption()
    except SelfTestFailure as exc:
        print(f"FAIL  {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
