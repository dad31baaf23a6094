"""The benchmark's hooks into the package resolve and its gate passes.

``perfbench/gate.py`` imports pbindex functions, and ``perfbench/spans.py``
wraps pbindex functions by name.  Renaming or deleting one of them would
break only the traced benchmark run; these tests make it fail here too.
The gate checks ``analyze`` against other routes (r through
``measure.variance``), ``approximate`` against ``oracle.lsq_normal_equations``
and ``approx.residual_norm``, and ``verify`` by its PASS lines, so a change
the gate would refuse fails here before the benchmark runs; so does one that
lets ``verify --inject-fault``, the benchmark's negative control, pass.
"""

import importlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_gate_imports_resolve(monkeypatch):
    gate = _load(monkeypatch, "gate")
    assert callable(gate.check_analyze)


def test_tracer_wraps_every_target_and_restores_it(monkeypatch, tmp_path):
    spans = _load(monkeypatch, "spans")
    from pbindex import cli
    from pbindex import games

    original = cli.write_rows
    game = tmp_path / "or.json"
    game.write_text(json.dumps({"version": 1, "n": 2, "values": [0, 1, 1, 1]}))
    tracer = spans.Tracer()
    try:
        tracer.enable()
        assert cli.write_rows is not original
        assert games.parse_game is cli.parse_game
        assert cli.main(["analyze", str(game), "--out", str(tmp_path / "out.csv")]) == 0
    finally:
        tracer.disable()
    assert cli.write_rows is original
    # analyze writes its report inside a span of its own
    assert "cli.write_rows" in {name for _, name, _, _, _ in tracer.spans}
    # one parse_game span per game file read: it opens the file in its own body
    names = [name for _, name, _, _, _ in tracer.spans]
    assert [names.count(f"cli.{f}") for f in ("parse_game", "parse_profile", "parse_subsets")] == [1, 1, 1]


def test_gate_passes_approximate_and_reports_a_corrupt_value(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "workloads")
    gate = _load(monkeypatch, "gate")
    from pbindex import cli

    game = workloads.make_game(2027, "hooks", 6, tmp_path)
    cmd = workloads._approximate(game, 0b101101, tmp_path / "approx.csv")
    assert cli.main(cmd.argv) == 0
    assert gate.check_approximate(cmd) == []

    lines = cmd.out.read_text().splitlines()
    head, value = lines[-1].rsplit(",", 1)
    assert head.endswith(",residual")
    lines[-1] = f"{head},{float(value) * (1 + 1e-6) + 1e-6!r}"
    cmd.out.write_text("\n".join(lines) + "\n")
    problems = gate.check_approximate(cmd)
    assert len(problems) == 1 and problems[0].startswith("residual{0b101101}")


def test_gate_passes_approximate_on_the_empty_and_the_grand_coalition(monkeypatch, tmp_path):
    # S = 0 and S = N: the lattice of the keys is a single constant, or every mask
    workloads = _load(monkeypatch, "workloads")
    gate = _load(monkeypatch, "gate")
    from pbindex import cli

    game = workloads.make_game(2027, "hooks", 6, tmp_path)
    for S in (0, 0b111111):
        cmd = workloads._approximate(game, S, tmp_path / f"approx-{S}.csv")
        assert cli.main(cmd.argv) == 0
        assert gate.check_approximate(cmd) == []


def test_negative_control_exits_two_in_a_fresh_process(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "workloads")
    run = _load(monkeypatch, "run")

    game = workloads.make_game(2027, "hooks", 6, tmp_path)
    cmd = workloads._verify(game, 11, tmp_path / "control.txt", inject_fault=True)
    # the child run.negative_control starts: python -m pbindex.cli, src on PYTHONPATH
    proc = run._run_child([sys.executable, "-m", "pbindex.cli", *cmd.argv], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert cmd.out.read_text().splitlines()[-1] == "verification failed: four-way-influence"


def test_gate_passes_analyze_on_both_routes_and_reports_a_corrupt_r(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "workloads")
    gate = _load(monkeypatch, "gate")
    from pbindex import cli

    game = workloads.make_game(2027, "hooks", 6, tmp_path)
    sample = [0b000001, 0b010110, 0b111111]
    # at most n subsets take the per-subset route, more the whole-lattice tables
    for subsets, selector in ((sample, "1;2,3,5;1,2,3,4,5,6"), (list(range(1 << 6)), "all")):
        cmd = workloads._analyze(game, subsets, selector, tmp_path / f"analyze-{len(subsets)}.csv", sample)
        assert cli.main(cmd.argv) == 0
        assert gate.check_analyze(cmd) == []

    lines = cmd.out.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith('"{2,3,5}",r,'))
    head, value = lines[k].rsplit(",", 1)
    lines[k] = f"{head},{float(value) * (1 + 1e-6) + 1e-6!r}"
    cmd.out.write_text("\n".join(lines) + "\n")
    problems = gate.check_analyze(cmd)
    assert len(problems) == 1 and problems[0].startswith("r{0b10110}")


def test_gate_passes_verify(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "workloads")
    gate = _load(monkeypatch, "gate")
    from pbindex import cli

    game = workloads.make_game(2027, "hooks", 6, tmp_path)
    cmd = workloads._verify(game, 11, tmp_path / "verify.txt")
    assert cli.main(cmd.argv) == 0
    assert gate.check_verify(cmd) == []
