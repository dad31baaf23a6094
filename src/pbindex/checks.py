"""The ``verify`` battery: the package's routes against each other and its oracles.

:func:`run` runs five checks on one game and profile: the four influence
routes agree, the basis v_{T,p} is orthonormal, Parseval holds for the
Fourier table, Monte Carlo and CDF sampling match the closed forms, and
quadrature over p matches the Shapley generalized value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import approx as approx_mod
from . import indices, measure, oracle
from .core import PseudoBooleanFunction, product_table
from .measure import ProbabilityProfile


@dataclass
class CheckResult:
    name: str
    passed: bool
    deviation: float


def _check_four_way(game, profile, rng, trials, inject_fault) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        S = int(rng.integers(0, 1 << game.n))
        vals = [
            indices.banzhaf_influence(game, S, profile, method=m)
            for m in indices.INFLUENCE_METHODS
        ]
        if inject_fault:
            vals[indices.INFLUENCE_METHODS.index("projection")] += 1e-3
        worst = max(worst, max(vals) - min(vals))
    return CheckResult("four-way-influence", worst <= 1e-9, worst)


# the orthonormality Gram is multiplied over groups of ORTHO_CHUNK_BITS
# players, ORTHO_ROW_BLOCK of its rows at a time
ORTHO_CHUNK_BITS = 16
ORTHO_ROW_BLOCK = 16


def _orthonormality_gram(profile: ProbabilityProfile, picks: np.ndarray) -> np.ndarray:
    """Gram matrix <v_S, v_T> of the basis tables v_{T,p}, T in ``picks``.

    They and the weights are products of per-player factors, so the Gram is
    the entrywise product of the Grams over groups of players (one group,
    the dense Gram, at n <= 16).  A group's rows are filled into one table,
    and their weighted copy is made ORTHO_ROW_BLOCK rows at a time; OpenBLAS
    gives a block the bits of one 64-row product (checked for 8 to 32 rows).
    """
    pairs = [measure._basis_pairs(profile, int(T)) for T in picks]
    gram = np.ones((len(picks), len(picks)))
    for lo in range(0, profile.n, ORTHO_CHUNK_BITS):
        hi = min(lo + ORTHO_CHUNK_BITS, profile.n)
        rows = np.empty((len(picks), 1 << (hi - lo)))
        for row, pair in zip(rows, pairs):
            row[:] = product_table(pair[lo:hi])
        w = ProbabilityProfile(profile.p[lo:hi]).weights()
        for r in range(0, len(picks), ORTHO_ROW_BLOCK):
            gram[r : r + ORTHO_ROW_BLOCK] *= (rows[r : r + ORTHO_ROW_BLOCK] * w) @ rows.T
    return gram


def _check_orthonormality(game, profile, rng) -> CheckResult:
    size = 1 << game.n
    if size <= 64:
        picks = np.arange(size)
    else:
        picks = rng.choice(size, size=64, replace=False)
    gram = _orthonormality_gram(profile, picks)
    worst = float(np.max(np.abs(gram - np.eye(len(picks)))))
    return CheckResult("orthonormality", worst <= 1e-10, worst)


def _check_parseval(game, profile) -> CheckResult:
    # on the game / 2**e, so no square overflows; the floor 2**-2e is 1 unscaled
    scale = math.ldexp(1.0, -measure._scale_exponent(game.values))
    game = PseudoBooleanFunction(game.n, game.values * scale)
    total = measure.inner_product(profile, game, game)
    coeffs = approx_mod.fourier_table(game, profile)
    dev = abs(measure._fsum(coeffs * coeffs) - total)
    rel = dev / max(total, scale * scale)
    return CheckResult("parseval", rel <= 1e-9, rel)


def _check_monte_carlo(game, profile, rng, samples, seed) -> CheckResult:
    S = int(rng.integers(1, 1 << game.n))
    closed = {
        "identity": measure.expectation(profile, game),
        "sigma": indices.banzhaf_influence(game, S, profile),
        "delta": indices.banzhaf_interaction(game, S, profile),
    }
    worst = 0.0
    ok = True
    for transform, truth in closed.items():
        est = oracle.mc_expectation(game, transform, S, profile, samples, seed)
        gap = abs(est.mean - truth)
        ok = ok and gap <= 5.0 * est.std_error + 1e-12
        worst = max(worst, gap)
    cdf = oracle.cdf_integral_check(game, S, profile, max(samples, 1000), seed)
    gap = abs(cdf.mean - closed["sigma"])
    ok = ok and gap <= 5.0 * cdf.std_error + 1e-12
    worst = max(worst, gap)
    return CheckResult("monte-carlo", ok, worst)


def _check_quadrature(game, rng) -> CheckResult:
    S = int(rng.integers(0, 1 << game.n))
    dev_diag = abs(oracle.diagonal_quadrature(game, S) - indices.shapley_generalized_value(game, S))
    uniform = ProbabilityProfile.uniform(game.n)
    dev_cube = abs(oracle.cube_average(game, S) - indices.banzhaf_influence(game, S, uniform))
    passed = dev_diag <= 1e-10 and dev_cube <= 1e-12
    return CheckResult("quadrature", passed, max(dev_diag, dev_cube))


def run(game, profile, trials, samples, seed, inject_fault) -> list[CheckResult]:
    """The five checks, in report order, on one rng seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    return [
        _check_four_way(game, profile, rng, trials, inject_fault),
        _check_orthonormality(game, profile, rng),
        _check_parseval(game, profile),
        _check_monte_carlo(game, profile, rng, samples, seed),
        _check_quadrature(game, rng),
    ]
