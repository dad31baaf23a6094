import math
import warnings

import numpy as np
import pytest

from pbindex import (
    MobiusRepresentation,
    PseudoBooleanFunction,
    ProbabilityProfile,
    SingularSystem,
    ValidationError,
    banzhaf_influence,
    banzhaf_interaction,
    basis_function,
    best_s_approximation,
    cdf_integral_check,
    cube_average,
    diagonal_quadrature,
    expectation,
    inner_product,
    lsq_normal_equations,
    mc_expectation,
    mobius,
    sample_coalitions,
    shapley_generalized_value,
    sigma_s,
    unanimity_game,
)
from pbindex import oracle
from pbindex.measure import multilinear_expectation
from pbindex.oracle import SAMPLE_CHUNK, _eval_extension_batch
from helpers import random_game, random_profile

OR = PseudoBooleanFunction(2, [0, 1, 1, 1])
UNIFORM2 = ProbabilityProfile.uniform(2)

# chi-square critical value, df=15, significance 0.001
CHI2_DF15_P999 = 37.697


class TestNormalEquations:
    def test_recovers_unanimity_games_exactly(self):
        rng = np.random.default_rng(80)
        n, S = 5, 0b01101
        p = random_profile(rng, n)
        for T in (0, 0b00100, S):
            approx = lsq_normal_equations(unanimity_game(n, T), S, p)
            want = np.zeros(1 << n)
            want[T] = 1.0
            assert np.max(np.abs(approx.multilinear.coeffs - want)) <= 1e-10

    def test_or_game_coefficients(self):
        approx = lsq_normal_equations(OR, 0b01, UNIFORM2)
        assert approx.multilinear.coeffs[0] == pytest.approx(0.5, abs=1e-12)
        assert approx.multilinear.coeffs[1] == pytest.approx(0.5, abs=1e-12)

    def test_agrees_with_projection_route(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            direct = lsq_normal_equations(f, S, p)
            projected = best_s_approximation(f, S, p)
            gap = np.max(np.abs(direct.multilinear.coeffs - projected.multilinear.coeffs))
            assert gap <= 1e-8

    def test_fourier_is_consistent_with_the_solution(self):
        rng = np.random.default_rng(82)
        f = random_game(rng, 5)
        p = random_profile(rng, 5)
        approx = lsq_normal_equations(f, 0b10110, p)
        table = approx.table()
        for T, c in zip(approx.keys.tolist(), approx.fourier.tolist()):
            assert c == pytest.approx(inner_product(p, table, basis_function(p, T)), abs=1e-10)

    def test_gram_system_near_the_interior_bound_is_singular(self):
        # positive definite in exact arithmetic, but LU meets a zero pivot here
        f = random_game(np.random.default_rng(84), 7)
        p = ProbabilityProfile.constant(7, 1.0 - 1e-9)
        with pytest.raises(SingularSystem, match="Gram system for S=0b11 is singular"):
            lsq_normal_equations(f, 0b11, p)

    def test_oversized_subset_rejected(self):
        rng = np.random.default_rng(83)
        f = random_game(rng, 18)  # keep the table small enough to build quickly
        p = random_profile(rng, 18)
        with pytest.raises(ValidationError):
            lsq_normal_equations(f, (1 << 17) - 1, p)


class TestSampling:
    def test_tiny_probabilities_give_empty_coalitions(self):
        p = ProbabilityProfile(np.full(8, 1e-9))
        rng = np.random.default_rng(84)
        assert not sample_coalitions(p, rng, 1000).any()

    def test_inclusion_frequencies(self):
        rng = np.random.default_rng(85)
        p = ProbabilityProfile([0.15, 0.5, 0.9])
        draws = 20_000
        masks = sample_coalitions(p, rng, draws)
        counts = [int(np.sum(masks >> i & 1)) for i in range(3)]
        for i in range(3):
            se = math.sqrt(p.p[i] * (1 - p.p[i]) / draws)
            assert abs(counts[i] / draws - p.p[i]) <= 3 * se

    def test_uniform_masks_pass_chi_square(self):
        p = ProbabilityProfile.uniform(4)
        draws = sample_coalitions(p, np.random.default_rng(86), 100_000)
        observed = np.bincount(draws, minlength=16)
        expected = len(draws) / 16
        stat = np.sum((observed - expected) ** 2 / expected)
        assert stat <= CHI2_DF15_P999

    @pytest.mark.parametrize("n", [1, 6, 24])
    def test_chunked_batch_equals_one_shot_draws(self, n):
        p = random_profile(np.random.default_rng(88), n)
        powers = 1 << np.arange(n, dtype=np.int64)
        for size in (0, 1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 7):
            want = (np.random.default_rng(size).random((size, n)) < p.p) @ powers
            assert np.array_equal(sample_coalitions(p, np.random.default_rng(size), size), want)

    def test_batch_matches_profile_marginals(self):
        rng = np.random.default_rng(87)
        p = random_profile(rng, 6, lo=0.2, hi=0.8)
        draws = sample_coalitions(p, rng, 50_000)
        for i in range(6):
            freq = np.mean(draws >> i & 1)
            se = math.sqrt(p.p[i] * (1 - p.p[i]) / 50_000)
            assert abs(freq - p.p[i]) <= 4 * se


def test_standard_errors_scale_exactly_with_the_worths():
    # the spread is taken at a power-of-two scale, so no square overflows
    rng = np.random.default_rng(97)
    f, p = random_game(rng, 12), random_profile(rng, 12)
    big = PseudoBooleanFunction(12, np.ldexp(f.values, 600))
    estimators = [
        lambda g: mc_expectation(g, "sigma", 0b101, p, 1000, seed=7),
        lambda g: cdf_integral_check(g, 0b101, p, 1000, seed=7),
    ]
    for estimate in estimators:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = estimate(big)
        assert scaled.std_error == math.ldexp(estimate(f).std_error, 600)


class TestMcExpectation:
    def test_constant_game_is_exact(self):
        p = random_profile(np.random.default_rng(88), 4)
        f = PseudoBooleanFunction(4, np.full(16, 5.0))
        est = mc_expectation(f, "identity", 0, p, 1024, seed=1)
        assert est.mean == 5.0
        assert est.std_error == 0.0

    def test_or_game_switch_estimate(self):
        p = ProbabilityProfile([0.3, 0.8])
        est = mc_expectation(OR, "sigma", 0b01, p, 100_000, seed=2)
        assert abs(est.mean - 0.2) <= 3 * est.std_error

    def test_delta_estimates_the_interaction_index(self):
        rng = np.random.default_rng(89)
        f = random_game(rng, 6)
        p = random_profile(rng, 6)
        S = 0b010101
        est = mc_expectation(f, "delta", S, p, 100_000, seed=3)
        assert abs(est.mean - banzhaf_interaction(f, S, p)) <= 3 * est.std_error

    def test_mean_of_worths_near_the_float_range_stays_finite(self):
        # the mean is taken at the power-of-two scale of the spread, so its sum cannot overflow
        rng = np.random.default_rng(31)
        f = PseudoBooleanFunction(6, rng.uniform(0.0, 1.0, 64) * 1e306)
        p = ProbabilityProfile.uniform(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mc_expectation(f, "identity", 0, p, 10000, seed=1)
        assert math.isfinite(est.mean)
        assert abs(est.mean - expectation(p, f)) <= 5 * est.std_error

    def test_validation(self):
        with pytest.raises(ValidationError):
            mc_expectation(OR, "identity", 0, UNIFORM2, 10, seed=0)
        with pytest.raises(ValidationError):
            mc_expectation(OR, "fourier", 0, UNIFORM2, 1000, seed=0)


class TestDiagonalQuadrature:
    def test_unanimity_integrand_is_constant_one(self):
        u = unanimity_game(4, 0b0110)
        assert diagonal_quadrature(u, 0b0110) == pytest.approx(1.0, abs=1e-12)

    def test_or_game_first_player(self):
        assert diagonal_quadrature(OR, 0b01) == pytest.approx(0.5, abs=1e-12)

    def test_empty_subset(self):
        f = random_game(np.random.default_rng(90), 3)
        assert diagonal_quadrature(f, 0) == 0.0

    def test_matches_shapley_generalized_value(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            f = random_game(rng, n)
            S = int(rng.integers(0, 1 << n))
            gap = abs(diagonal_quadrature(f, S) - shapley_generalized_value(f, S))
            assert gap <= 1e-10


class TestCubeAverage:
    def test_or_game_first_player(self):
        assert cube_average(OR, 0b01) == pytest.approx(0.5, abs=1e-15)

    def test_unanimity_own_subset(self):
        u = unanimity_game(5, 0b00110)
        assert cube_average(u, 0b00110) == pytest.approx(1.0, abs=1e-15)

    def test_constant_game(self):
        f = PseudoBooleanFunction(3, np.full(8, 9.5))
        assert cube_average(f, 0b101) == 0.0

    def test_equals_uniform_influence(self):
        # the average and inner-product routes share no arithmetic with the cube average
        rng = np.random.default_rng(92)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            f = random_game(rng, n)
            S = int(rng.integers(0, 1 << n))
            uniform = ProbabilityProfile.uniform(n)
            for method in ("mobius", "average", "inner-product"):
                influence = banzhaf_influence(f, S, uniform, method=method)
                assert abs(cube_average(f, S) - influence) <= 1e-12


class TestCdfIntegral:
    def test_constant_game_is_exactly_zero(self):
        p = random_profile(np.random.default_rng(93), 3)
        f = PseudoBooleanFunction(3, np.full(8, 2.0))
        est = cdf_integral_check(f, 0b011, p, 1000, seed=4)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_or_game_beta_family(self):
        p = ProbabilityProfile([0.5, 0.25])
        est = cdf_integral_check(OR, 0b01, p, 100_000, seed=5)
        assert abs(est.mean - 0.75) <= 3 * est.std_error

    def test_point_family_is_degenerate(self):
        # the point mass at p integrates sigma_S fbar to its value at p, the influence index
        rng = np.random.default_rng(94)
        f = random_game(rng, 5)
        p = random_profile(rng, 5)
        S = 0b00101
        assert abs(multilinear_expectation(p, sigma_s(f, S)) - banzhaf_influence(f, S, p)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 6, 12])
    def test_chunked_draws_equal_one_shot_draws(self, n, monkeypatch):
        # beta variates drawn in chunks of rows take the same PCG64 stream as
        # one draw of every row, so the estimate is bitwise the same.  The
        # reference keeps the entries of sigma_S f's Mobius table at the masks
        # with no bit of S and evaluates them on the columns outside S; at
        # n = 1 no column is left, and at n = 12 (11 columns) the extension
        # bounds the chunks to 2**8 >> 6 = 4 rows
        monkeypatch.setattr(oracle, "SAMPLE_CHUNK", 7)
        monkeypatch.setattr(oracle, "EXTENSION_CHUNK", 1 << 8)
        rng = np.random.default_rng(95 + n)
        f, p = random_game(rng, n), random_profile(rng, n)
        S = 1
        masks = np.arange(1 << n)
        restricted = mobius(sigma_s(f, S)).coeffs[(masks & S) == 0]
        outside = [i for i in range(n) if not S >> i & 1]
        for samples in (1000, 1001, 1006):
            points = np.random.default_rng(samples).beta(2 * p.p, 2 * (1 - p.p), size=(samples, n))
            if outside:
                a = MobiusRepresentation(len(outside), restricted)
                draws = _eval_extension_batch(a, points[:, outside])
            else:
                draws = np.full(samples, restricted[0])
            want = oracle._make_estimate(draws)
            assert cdf_integral_check(f, S, p, samples, seed=samples) == want

    @pytest.mark.parametrize("n", range(1, 15))
    def test_identical_points_give_identical_values(self, n):
        # each draw must depend on its point only, not on where its row sits
        rng = np.random.default_rng(96 + n)
        a = MobiusRepresentation(n, rng.normal(size=1 << n))
        x = rng.random(n)
        for m in (1, 3, 17, 1025, 4099):
            values = _eval_extension_batch(a, np.broadcast_to(x, (m, n)).copy())
            assert np.all(values == values[0])

    @pytest.mark.parametrize("S", [0b01, 0b11])
    def test_switch_past_the_float_range_fails_validation(self, S):
        # f(D | S) - f(D) overflows; at S = N its one value is checked on its own
        f = PseudoBooleanFunction(2, [-1e308, 1e308, -1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValidationError):
                cdf_integral_check(f, S, UNIFORM2, 1000, seed=0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            cdf_integral_check(OR, 0b01, UNIFORM2, 100, seed=0)


class TestSeedBattery:
    def test_estimates_stay_inside_three_standard_errors(self):
        rng = np.random.default_rng(95)
        n = 6
        f = random_game(rng, n)
        p = random_profile(rng, n, lo=0.2, hi=0.8)
        S = 0b011010
        truth = {
            "identity": expectation(p, f),
            "sigma": banzhaf_influence(f, S, p),
            "delta": banzhaf_interaction(f, S, p),
        }
        failures = 0
        for seed in range(100):
            ok = True
            for transform, want in truth.items():
                est = mc_expectation(f, transform, S, p, 10_000, seed=seed)
                ok = ok and abs(est.mean - want) <= 3 * est.std_error
            est = cdf_integral_check(f, S, p, 10_000, seed=seed)
            ok = ok and abs(est.mean - truth["sigma"]) <= 3 * est.std_error
            failures += not ok
        assert failures <= 3
