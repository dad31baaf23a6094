"""pbindex benchmark: time CLI sessions end to end, or trace them per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-all --seed 11 --seconds 20 --trace 0

All inputs are generated from ``--seed`` under ``.perfbench-work/``.  The
steps of one run:

1. Negative control (untimed): ``verify --inject-fault`` on the verify-battery
   n=12 game in a fresh process.  If it does not exit 2 the gate is dead and
   the run aborts without a result.
2. A fresh worker process runs the workload's commands in a closed loop for
   ``--seconds`` (see worker.py); with ``--trace 1`` every other iteration
   is traced.
3. Correctness gate (untimed, see gate.py) on the outputs.
4. ``setup_s``: the time from process start until ``pbindex.cli`` is
   imported, in fresh interpreters started before step 2 and after step 3.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment record.  A fuller record, with fail_ratio and per-iteration
times, is written to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 11
HOLDOUT_SEED = 2027  # kept back for checking claims; never used while tuning
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120
E2E_UNITS = {
    "wall_s": "s",
    "analyze_s": "s",
    "approximate_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkAborted(RuntimeError):
    """The run cannot produce a trustworthy result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv, **kwargs) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkAborted(f"child timed out after {CHILD_TIMEOUT_S} s: {argv[:3]}") from exc


def negative_control(cmd) -> None:
    proc = _run_child([sys.executable, "-m", "pbindex.cli", *cmd.argv],
                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if proc.returncode != 2:
        raise BenchmarkAborted(
            f"negative control exited {proc.returncode}, not 2: the correctness gate is dead"
        )


def measure_setup(repeats: int) -> list:
    """Seconds from process start until ``pbindex.cli`` is imported, per fresh process.

    Both clocks are CLOCK_MONOTONIC, so the child's post-import reading and
    the parent's pre-spawn reading share one time base.
    """
    code = ("import time, pbindex.cli; "
            "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")
    samples = []
    for _ in range(repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = _run_child([sys.executable, "-c", code], capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchmarkAborted(f"importing pbindex.cli failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip()) - start)
    return samples


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out.stdout) if out.stdout.strip().isdigit() else None


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, else the env setting."""
    import ctypes
    import glob
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "pbindex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gib": round(pages / 2**30, 2),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def _walls(iterations, kind=None) -> list:
    """Per-iteration seconds spent in commands of ``kind`` (all commands if None)."""
    return [sum(c["wall"] for c in it if kind is None or c["kind"] == kind) for it in iterations]


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes=workloads.FULL) -> dict:
    """One benchmark run; returns the full record (result fields plus detail)."""
    import gate

    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        commands = workloads.build(workload, seed, workdir, sizes)
        negative_control(workloads.negative_control(seed, workdir, sizes))
        # Setup samples are split around the timed loop, so that a slow spell
        # of the host at either end does not decide them all.
        setup = measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)

        plan = {
            "seconds": seconds,
            "trace": bool(trace),
            "spans": str(WORK / f"spans-{workload}.jsonl"),
            "commands": [{"kind": c.kind, "argv": c.argv, "out": str(c.out)} for c in commands],
        }
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        proc = _run_child([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)])
        if proc.returncode != 0 or not result_path.exists():
            raise BenchmarkAborted(f"worker exited {proc.returncode}")
        measured = json.loads(result_path.read_text(encoding="utf-8"))

        # Gate the outputs the last iteration left; a command passes only if it
        # exited 0 and its output is byte-identical to a gated, passing output.
        problems = [gate.check(c) for c in commands]
        final = [hashlib.sha256(c.out.read_bytes()).hexdigest() if c.out.exists() else None
                 for c in commands]
        runs = measured["untraced"] + measured["traced"]
        attempted = sum(len(it) for it in runs)
        failed = sum(
            rec["rc"] != 0 or rec["digest"] != final[i] or bool(problems[i])
            for it in runs for i, rec in enumerate(it)
        )
        setup += measure_setup(SETUP_REPEATS // 2)
        iterations = measured["untraced"]
        times = {"wall_s": _walls(iterations), "setup_s": setup}
        for kind in ("analyze", "approximate", "verify"):
            times[f"{kind}_s"] = _walls(iterations, kind)
        if trace:
            metrics = dict(measured["layers"])
            metrics["trace.overhead_ratio"] = (statistics.median(_walls(measured["traced"]))
                                               / statistics.median(times["wall_s"]))
        else:
            metrics = {name: statistics.median(times[name]) for name in E2E_UNITS if name in times}
            metrics["peak_rss_mb"] = measured["peak_rss_mb"]
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "fail_ratio": failed / attempted,
            "problems": [p for ps in problems for p in ps],
            "samples": times,
            "iterations": runs,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pbindex" / "cli.py").is_file():
        print(f"error: no pbindex sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans

    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    units = spans.metric_units() if args.trace else E2E_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()}
    env = environment()
    for problem in record["problems"]:
        print(f"gate: {problem}", file=sys.stderr)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **record, "metrics": metrics}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")

    print(json.dumps({"env": env, "fail_ratio": record["fail_ratio"]}))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
