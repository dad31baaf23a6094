"""Acceptance battery: one test per criterion, at the stated tolerance.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
on success; failures surface through pytest either way).
"""

import contextlib
import csv
import io
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from pbindex import (
    GeneralizedValueCoefficients,
    PseudoBooleanFunction,
    ProbabilityProfile,
    banzhaf_influence,
    banzhaf_interaction,
    basis_function,
    ben_or_linial_influence,
    best_k_approximation,
    best_s_approximation,
    cdf_integral_check,
    cube_average,
    diagonal_quadrature,
    expectation,
    g_function,
    g_std,
    gv_p_to_q,
    gv_q_to_p,
    influence_value_coefficients,
    inner_product,
    interaction_table,
    lsq_normal_equations,
    mc_expectation,
    normalized_influence,
    s_difference,
    shapley_generalized_value,
    sigma_s,
    subsets_of,
    taylor_reconstruct,
    variance,
)
from pbindex.indices import INFLUENCE_METHODS
from helpers import dense_table, monotone_game, random_game, random_profile

REPO = Path(__file__).resolve().parent.parent
GAMES = REPO / "games"


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:2d} FAIL: {label}")
        raise
    print(f"[acceptance] criterion {num:2d} PASS: {label}")


def random_subset(rng, n, max_size=None):
    size = int(rng.integers(0, (n if max_size is None else min(n, max_size)) + 1))
    players = rng.choice(n, size=size, replace=False)
    mask = 0
    for i in players:
        mask |= 1 << int(i)
    return mask


def test_c01_four_way_influence_equivalence():
    with criterion(1, "four-way influence equivalence (200 triples, 1e-9, <30s)"):
        rng = np.random.default_rng(1001)
        start = time.monotonic()
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 11))
            f = random_game(rng, n)  # values scaled to |f| <= 1
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            vals = [banzhaf_influence(f, S, p, method=m) for m in INFLUENCE_METHODS]
            worst = max(worst, max(vals) - min(vals))
        elapsed = time.monotonic() - start
        assert worst <= 1e-9, f"max pairwise deviation {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_c02_projection_vs_normal_equations():
    with criterion(2, "projection agrees with normal equations (100 cases, 1e-8)"):
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 9))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = random_subset(rng, n, max_size=6)
            gap = np.max(
                np.abs(
                    best_s_approximation(f, S, p).multilinear.coeffs
                    - lsq_normal_equations(f, S, p).multilinear.coeffs
                )
            )
            worst = max(worst, gap)
        assert worst <= 1e-8, f"max coefficient gap {worst:.3e}"


def test_c03_orthonormality_and_parseval():
    with criterion(3, "orthonormality 1e-10 and Parseval 1e-9 (50 profiles)"):
        rng = np.random.default_rng(1003)
        worst_gram = 0.0
        worst_parseval = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = random_profile(rng, n)
            tables = np.stack([basis_function(p, T).values for T in range(1 << n)])
            gram = (tables * p.weights()) @ tables.T
            worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(1 << n)))))
            for _ in range(10):  # spot-check the scalar operation as well
                T, R = (int(x) for x in rng.integers(0, 1 << n, size=2))
                got = inner_product(p, basis_function(p, T), basis_function(p, R))
                worst_gram = max(worst_gram, abs(got - (1.0 if T == R else 0.0)))
            f = random_game(rng, n)
            total = inner_product(p, f, f)
            energy = math.fsum(
                inner_product(p, f, basis_function(p, T)) ** 2 for T in range(1 << n)
            )
            worst_parseval = max(worst_parseval, abs(energy - total) / abs(total))
        assert worst_gram <= 1e-10, f"orthonormality deviation {worst_gram:.3e}"
        assert worst_parseval <= 1e-9, f"Parseval residual {worst_parseval:.3e}"


def test_c04_leading_coefficient_identities():
    with criterion(4, "leading coefficient equals the interaction index (1e-9)"):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            lead = best_s_approximation(f, S, p).multilinear.coeffs[S]
            worst = max(worst, abs(lead - banzhaf_interaction(f, S, p)))
        for _ in range(20):  # uniform case: degree-|S| approximation
            n = int(rng.integers(2, 8))
            f = random_game(rng, n)
            uniform = ProbabilityProfile.uniform(n)
            S = int(rng.integers(0, 1 << n))
            lead = best_k_approximation(f, S.bit_count(), uniform).multilinear.coeffs[S]
            worst = max(worst, abs(lead - banzhaf_interaction(f, S, uniform)))
        assert worst <= 1e-9, f"max gap {worst:.3e}"


def test_c05_expectation_identities():
    with criterion(5, "influence/interaction as expectations of sigma/Delta (1e-10)"):
        rng = np.random.default_rng(1005)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(2, 11))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            worst = max(
                worst,
                abs(banzhaf_influence(f, S, p) - expectation(p, sigma_s(f, S))),
                abs(banzhaf_interaction(f, S, p) - expectation(p, s_difference(f, S))),
            )
        assert worst <= 1e-10, f"max gap {worst:.3e}"


def test_c06_probability_integrals():
    with criterion(6, "cube average (1e-12) and diagonal quadrature (1e-10)"):
        rng = np.random.default_rng(1006)
        worst_cube = 0.0
        worst_diag = 0.0
        for _ in range(30):
            n = int(rng.integers(2, 11))
            f = random_game(rng, n)
            S = int(rng.integers(0, 1 << n))
            uniform = ProbabilityProfile.uniform(n)
            worst_cube = max(
                worst_cube, abs(cube_average(f, S) - banzhaf_influence(f, S, uniform))
            )
            worst_diag = max(
                worst_diag,
                abs(diagonal_quadrature(f, S) - shapley_generalized_value(f, S)),
            )
        assert worst_cube <= 1e-12, f"cube-average gap {worst_cube:.3e}"
        assert worst_diag <= 1e-10, f"quadrature gap {worst_diag:.3e}"


def test_c07_monte_carlo_consistency():
    with criterion(7, "Monte Carlo battery: >= 97/100 seeds inside 3 SE"):
        rng = np.random.default_rng(1007)
        n = 6
        f = random_game(rng, n)
        p = random_profile(rng, n, lo=0.2, hi=0.8)
        S = 0b011010
        samples = 100_000
        truth = {
            "identity": expectation(p, f),
            "sigma": banzhaf_influence(f, S, p),
            "delta": banzhaf_interaction(f, S, p),
        }
        good = 0
        for seed in range(100):
            ok = True
            for transform, want in truth.items():
                est = mc_expectation(f, transform, S, p, samples, seed=seed)
                ok = ok and abs(est.mean - want) <= 3.0 * est.std_error
            est = cdf_integral_check(f, S, p, samples, seed=seed)
            ok = ok and abs(est.mean - truth["sigma"]) <= 3.0 * est.std_error
            good += ok
        assert good >= 97, f"only {good}/100 seeds inside 3 standard errors"


def test_c08_structural_identities():
    with criterion(8, "structural identities of the influence index"):
        rng = np.random.default_rng(1008)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            for method in INFLUENCE_METHODS:  # empty subset: exact zero
                assert banzhaf_influence(f, 0, p, method=method) == 0.0
            i = int(rng.integers(0, n))  # singleton influence = singleton interaction
            gap = abs(banzhaf_influence(f, 1 << i, p) - banzhaf_interaction(f, 1 << i, p))
            assert gap <= 1e-12
            uniform = ProbabilityProfile.uniform(n)  # uniform pairwise additivity
            j = int((i + 1) % n)
            pair = banzhaf_influence(f, (1 << i) | (1 << j), uniform)
            split = banzhaf_influence(f, 1 << i, uniform) + banzhaf_influence(
                f, 1 << j, uniform
            )
            assert abs(pair - split) <= 1e-12
            S = int(rng.integers(0, 1 << n))  # generalized-value weights are a distribution
            coeffs = influence_value_coefficients(S, p).table[list(subsets_of(((1 << n) - 1) & ~S))]
            assert min(coeffs) >= 0.0
            assert abs(math.fsum(coeffs) - 1.0) <= 1e-12
            if S:  # perturbing p inside S changes nothing
                tweaked = p.p.copy()
                for b in range(n):
                    if S >> b & 1:
                        tweaked[b] = rng.uniform(0.1, 0.9)
                p2 = ProbabilityProfile(tweaked)
                assert abs(banzhaf_influence(f, S, p) - banzhaf_influence(f, S, p2)) <= 1e-10


def test_c09_normalized_index():
    with criterion(9, "normalized index: bounds, invariance, equality cases"):
        rng = np.random.default_rng(1009)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(1, 1 << n))
            assert abs(normalized_influence(f, S, p)) <= 1.0
        for _ in range(20):
            n = int(rng.integers(2, 7))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(1, 1 << n))
            base = normalized_influence(f, S, p)
            for a in (0.5, 3.0):
                for b in (-2.0, 5.0):
                    scaled = PseudoBooleanFunction(n, a * f.values + b)
                    assert abs(normalized_influence(scaled, S, p) - base) <= 1e-10
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = random_profile(rng, n, lo=0.2, hi=0.8)
            S = int(rng.integers(1, 1 << n))
            g = g_function(S, p)
            c = float(rng.uniform(-3, 3))
            plus = PseudoBooleanFunction(n, g.values + c)
            minus = PseudoBooleanFunction(n, -g.values + c)
            assert abs(normalized_influence(plus, S, p) - 1.0) <= 1e-9
            assert abs(normalized_influence(minus, S, p) + 1.0) <= 1e-9
            sampled = math.sqrt(variance(p, g))  # closed-form standard deviation
            assert abs(sampled - g_std(S, p)) <= 1e-10 * max(1.0, g_std(S, p))


def test_c10_taylor_roundtrip():
    with criterion(10, "reconstruction from the full interaction table (1e-9)"):
        rng = np.random.default_rng(1010)
        worst = 0.0
        for n in (2, 5, 8, 10):
            f = random_game(rng, n)
            p = random_profile(rng, n)
            rebuilt = taylor_reconstruct(interaction_table(f, p), p)
            worst = max(worst, float(np.max(np.abs(rebuilt.values - f.values))))
        assert worst <= 1e-9, f"max entry gap {worst:.3e}"


def test_c11_generalized_value_conversions():
    with criterion(11, "generalized-value p/q conversions are inverse (1e-10)"):
        rng = np.random.default_rng(1011)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(2, 9))
            S = int(rng.integers(1, 1 << n))
            comp = ((1 << n) - 1) & ~S
            p_table = {T: float(rng.uniform(-1, 1)) for T in subsets_of(comp)}
            p_form = GeneralizedValueCoefficients(n, S, "p", dense_table(n, p_table))
            p_back = gv_q_to_p(gv_p_to_q(p_form))
            worst = max(worst, max(abs(p_table[T] - p_back.table[T]) for T in p_table))
            class_values = {D: float(rng.uniform(-1, 1)) for D in subsets_of(comp)}
            q_table = {
                D | E: class_values[D] for D in subsets_of(comp) for E in subsets_of(S) if E
            }
            q_form = GeneralizedValueCoefficients(n, S, "q", dense_table(n, q_table))
            q_back = gv_p_to_q(gv_q_to_p(q_form))
            worst = max(worst, max(abs(q_table[R] - q_back.table[R]) for R in q_table))
        assert worst <= 1e-10, f"max roundtrip gap {worst:.3e}"


def test_c12_monotone_ben_or_linial():
    with criterion(12, "Ben-Or-Linial = uniform influence on monotone games (1e-12)"):
        rng = np.random.default_rng(1012)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 9))
            f = monotone_game(rng, n)
            S = int(rng.integers(0, 1 << n))
            uniform = ProbabilityProfile.uniform(n)
            worst = max(
                worst, abs(ben_or_linial_influence(f, S) - banzhaf_influence(f, S, uniform))
            )
        assert worst <= 1e-12, f"max gap {worst:.3e}"


def test_c13_cli_end_to_end():
    with criterion(13, "CLI verify under 10s and exact analyze rows"):
        or_game = GAMES / "or.json"
        random_game_file = GAMES / "random10.json"
        assert or_game.exists() and random_game_file.exists()
        for path in (or_game, random_game_file):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-m", "pbindex.cli", "verify", str(path)],
                capture_output=True,
                text=True,
                cwd=REPO,
            )
            elapsed = time.monotonic() - start
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert elapsed < 10.0, f"verify took {elapsed:.1f}s on {path.name}"
        proc = subprocess.run(
            [sys.executable, "-m", "pbindex.cli", "analyze", str(or_game)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        rows = {
            (subset, index): value
            for subset, index, value in csv.reader(io.StringIO(proc.stdout.split("\n", 1)[1]))
        }
        assert rows[("{1}", "Phi_B")] == "0.5"
        assert rows[("{2}", "Phi_B")] == "0.5"
        assert float(rows[("{1,2}", "Phi_B")]) == 1.0
