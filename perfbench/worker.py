"""Child process: run one workload's CLI commands in a closed loop and time them.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json  (with src/ on PYTHONPATH)

The plan lists the commands as ``pbindex.cli.main`` argument vectors.  One
iteration runs them back to back, each after the previous one returns;
iterations repeat until the plan's seconds are used (at least one).  Only
the ``cli.main`` calls are timed.  After each iteration the output files are
hashed, so the parent can gate one copy and compare the rest.

With tracing on, untraced and traced iterations alternate (the untraced ones
give the baseline for ``trace.overhead_ratio``); spans are written to the
plan's ``spans`` path at the end.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _digest(path: str):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def run_loop(main, commands, seconds, tracer=None):
    """Repeat the session for ``seconds`` (at least once per mode).

    With a tracer, iterations alternate untraced and traced, so slow drift in
    machine speed affects both halves of ``trace.overhead_ratio`` alike.
    Returns the untraced and traced iteration records and, per traced
    iteration, its slice of ``tracer.spans``.
    """
    untraced, traced, bounds = [], [], []
    began = time.perf_counter()
    modes = 2 if tracer else 1
    while len(untraced) + len(traced) < modes or time.perf_counter() - began < seconds:
        gc.collect()
        on = tracer is not None and len(untraced) > len(traced)
        if on:
            tracer.enable()
        elif tracer:
            tracer.disable()
        first_span = len(tracer.spans) if on else 0
        record = []
        for cmd in commands:
            call = tracer.root(f"command.{cmd['kind']}") if on else None
            start = time.perf_counter()
            try:
                rc = call(main, cmd["argv"]) if call else main(cmd["argv"])
            except Exception:  # a crash counts as a failed command, the loop goes on
                traceback.print_exc()
                rc = -1
            wall = time.perf_counter() - start
            record.append({"kind": cmd["kind"], "rc": rc, "wall": wall})
        for cmd, rec in zip(commands, record):
            rec["digest"] = _digest(cmd["out"])
        if on:
            traced.append(record)
            bounds.append((first_span, len(tracer.spans)))
        else:
            untraced.append(record)
    if tracer:
        tracer.disable()
    return untraced, traced, bounds


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    from pbindex.cli import main as cli_main

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
    untraced, traced, bounds = run_loop(cli_main, plan["commands"], plan["seconds"], tracer)
    result = {
        "untraced": untraced,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(bounds)
        tracer.dump(plan["spans"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
