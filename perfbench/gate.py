"""Correctness gate: check CLI outputs against routes the CLI did not use.

Runs outside the timed region.  Each check returns a list of problems; an
empty list means the output passed.  Values are compared with the tolerance
1e-9 * max(1, |ref|), which holds the 12 significant digits the CLI prints.

* ``analyze`` rows, on a seeded sample of subsets: I_B against
  E[Delta_S f], Phi_B against the marginal-average influence route, Phi_Sh
  against Gauss-Legendre quadrature of the influence index, and r against
  Phi / (sigma_f * sigma(g_S)), since cov(f, g_S) = Phi.
* ``approximate`` coefficients, I_B and residual against the
  normal-equations projection.
* ``verify``: no FAIL line and the closing "all checks passed".
"""

from __future__ import annotations

import csv
import math
from typing import Dict, List, Tuple

from pbindex import oracle
from pbindex.approx import residual_norm
from pbindex.core import PseudoBooleanFunction, s_difference, subsets_of
from pbindex.indices import banzhaf_influence, g_std
from pbindex.measure import ProbabilityProfile, expectation, variance

from workloads import Command

REL_TOL = 1e-9


def _mask(cell: str) -> int:
    inner = cell.strip("{}")
    return sum(1 << (int(tok) - 1) for tok in inner.split(",")) if inner else 0


def _read_rows(path) -> List[Tuple[int, str, float]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["subset", "index", "value"]:
        raise ValueError("missing CSV header 'subset,index,value'")
    return [(_mask(subset), index, float(value)) for subset, index, value in rows[1:]]


def _compare(problems: List[str], what: str, got: float, ref: float) -> None:
    if not abs(got - ref) <= REL_TOL * max(1.0, abs(ref)):
        problems.append(f"{what}: got {got!r}, reference {ref!r}")


def check_analyze(cmd: Command) -> List[str]:
    try:
        rows = _read_rows(cmd.out)
    except (OSError, ValueError) as exc:
        return [f"analyze output unreadable: {exc}"]
    expected = [
        (S, name) for S in cmd.subsets for name in ("I_B", "Phi_B", "Phi_Sh", "r") if S or name != "r"
    ]
    if [(S, name) for S, name, _ in rows] != expected:
        return [f"analyze rows do not match the requested subsets ({len(rows)} rows, expected {len(expected)})"]
    values: Dict[Tuple[int, str], float] = {(S, name): v for S, name, v in rows}
    f = PseudoBooleanFunction(cmd.game.n, cmd.game.values)
    profile = ProbabilityProfile(cmd.game.p)
    sigma_f = math.sqrt(variance(profile, f))
    problems: List[str] = []
    for S in cmd.sample:
        phi = banzhaf_influence(f, S, profile, method="average")
        _compare(problems, f"I_B{{{S:#b}}}", values[S, "I_B"], expectation(profile, s_difference(f, S)))
        _compare(problems, f"Phi_B{{{S:#b}}}", values[S, "Phi_B"], phi)
        _compare(problems, f"Phi_Sh{{{S:#b}}}", values[S, "Phi_Sh"], oracle.diagonal_quadrature(f, S))
        if S:
            _compare(problems, f"r{{{S:#b}}}", values[S, "r"], phi / (sigma_f * g_std(S, profile)))
    return problems


def check_approximate(cmd: Command) -> List[str]:
    try:
        rows = _read_rows(cmd.out)
    except (OSError, ValueError) as exc:
        return [f"approximate output unreadable: {exc}"]
    (S,) = cmd.subsets
    expected = [(T, "coeff") for T in subsets_of(S)] + [(S, "I_B"), (S, "residual")]
    if [(T, name) for T, name, _ in rows] != expected:
        return ["approximate rows do not match the subsets of S"]
    f = PseudoBooleanFunction(cmd.game.n, cmd.game.values)
    profile = ProbabilityProfile(cmd.game.p)
    ref = oracle.lsq_normal_equations(f, S, profile)
    coeffs = ref.multilinear.coeffs
    refs = [float(coeffs[T]) for T in subsets_of(S)] + [float(coeffs[S]), residual_norm(f, ref, profile)]
    problems: List[str] = []
    for (T, name, got), want in zip(rows, refs):
        _compare(problems, f"{name}{{{T:#b}}}", got, want)
    return problems


def check_verify(cmd: Command) -> List[str]:
    try:
        with open(cmd.out, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        return [f"verify output unreadable: {exc}"]
    problems = [line for line in lines if line.startswith("FAIL")]
    if not lines or lines[-1] != "all checks passed":
        problems.append("verify output does not end with 'all checks passed'")
    return problems


CHECKS = {"analyze": check_analyze, "approximate": check_approximate, "verify": check_verify}


def check(cmd: Command) -> List[str]:
    return CHECKS[cmd.kind](cmd)
