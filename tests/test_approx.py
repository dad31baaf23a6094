import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from pbindex import (
    Approximation,
    DimensionError,
    PseudoBooleanFunction,
    ProbabilityProfile,
    ValidationError,
    banzhaf_influence,
    banzhaf_interaction,
    basis_function,
    best_k_approximation,
    best_s_approximation,
    expectation,
    inner_product,
    lsq_normal_equations,
    residual_norm,
    unanimity_game,
    zeta,
)
from pbindex import approx as approx_mod
from pbindex.approx import _expand_fourier
from pbindex.errors import PbindexError
from pbindex.measure import _fsum, _weighted_product_sum
from pbindex.core import submasks
from helpers import random_game, random_profile

OR = PseudoBooleanFunction(2, [0, 1, 1, 1])
UNIFORM2 = ProbabilityProfile.uniform(2)
UNIFORM3 = ProbabilityProfile.uniform(3)


def weighted_sq_dist(profile, f, g_values):
    diff = f.values - g_values
    return math.fsum((profile.weights() * diff * diff).tolist())


class TestBestSApproximation:
    def test_projection_is_identity_on_the_subspace(self):
        rng = np.random.default_rng(20)
        n, S = 5, 0b01011
        p = random_profile(rng, n)
        for T in (0, 0b00010, S):
            u = unanimity_game(n, T)
            approx = best_s_approximation(u, S, p)
            assert np.max(np.abs(approx.table().values - u.values)) <= 1e-12

    def test_or_game_on_first_player(self):
        approx = best_s_approximation(OR, 0b01, UNIFORM2)
        assert approx.fourier[0] == pytest.approx(0.75, abs=1e-12)
        assert approx.fourier[1] == pytest.approx(0.25, abs=1e-12)
        # f_S = 1/2 + (1/2) x1
        assert approx.multilinear.coeffs.tolist() == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)

    def test_empty_subset_gives_expectation(self):
        rng = np.random.default_rng(21)
        f = random_game(rng, 4)
        p = random_profile(rng, 4)
        approx = best_s_approximation(f, 0, p)
        assert np.all(approx.table().values == approx.table().values[0])
        assert approx.table().values[0] == pytest.approx(expectation(p, f), abs=1e-12)

    def test_fourier_keys_are_exactly_the_subsets(self):
        approx = best_s_approximation(OR, 0b11, UNIFORM2)
        assert approx.keys.tolist() == [0, 1, 2, 3]

    def test_multilinear_vanishes_outside_subspace(self):
        rng = np.random.default_rng(22)
        f = random_game(rng, 5)
        p = random_profile(rng, 5)
        S = 0b10010
        approx = best_s_approximation(f, S, p)
        outside = [T for T in range(32) if T & ~S]
        assert all(approx.multilinear.coeffs[T] == 0.0 for T in outside)


class TestBestKApproximation:
    def test_full_degree_reproduces_the_game(self):
        rng = np.random.default_rng(23)
        f = random_game(rng, 5)
        p = random_profile(rng, 5)
        approx = best_k_approximation(f, 5, p)
        assert np.max(np.abs(approx.table().values - f.values)) <= 1e-10

    def test_degree_zero_is_the_expectation(self):
        rng = np.random.default_rng(24)
        f = random_game(rng, 4)
        p = random_profile(rng, 4)
        approx = best_k_approximation(f, 0, p)
        assert approx.table().values[0] == pytest.approx(expectation(p, f), abs=1e-12)

    def test_or_game_degree_one_leading_coefficient(self):
        approx = best_k_approximation(OR, 1, UNIFORM2)
        assert approx.multilinear.coeffs[0b01] == pytest.approx(0.5, abs=1e-12)
        assert approx.keys.tolist() == [0, 1, 2]


class TestToMultilinear:
    def test_uniform_singleton_expansion(self):
        out = _expand_fourier(0b01, np.array([0.0, 0.25]), UNIFORM2)
        # (1/4) v_{1} = (1/2) x1 - 1/4, on the submasks 0 and {1}
        assert out.tolist() == pytest.approx([-0.25, 0.5], abs=1e-15)

    def test_empty_series_expands_to_zero(self):
        p = ProbabilityProfile([0.3, 0.6, 0.9])
        for S in (0, 0b101, 0b111):
            out = _expand_fourier(S, np.zeros(1 << S.bit_count()), p)
            assert out.tolist() == [0.0] * (1 << S.bit_count())

    def test_coefficients_outside_the_union_of_keys_stay_zero(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            p = random_profile(rng, n)
            keys = rng.integers(0, 1 << n, size=int(rng.integers(1, 5))).tolist()
            # the series over the whole lattice, zero off the keys; its
            # expansion stays zero off the subsets of the keys, so off their union
            packed = np.zeros(1 << n)
            packed[keys] = rng.normal(size=len(keys))
            out = _expand_fourier((1 << n) - 1, packed, p)
            outside = np.ones(1 << n, dtype=bool)
            for T in keys:
                outside[submasks(T)] = False
            assert np.all(out[outside] == 0.0)

    def test_expansion_reconstructs_the_fourier_series(self):
        rng = np.random.default_rng(26)
        f = random_game(rng, 5)
        p = random_profile(rng, 5)
        approx = best_s_approximation(f, 0b11010, p)
        series = np.zeros(32)
        for T, c in zip(approx.keys.tolist(), approx.fourier.tolist()):
            series += c * basis_function(p, T).values
        assert np.max(np.abs(zeta(approx.multilinear).values - series)) <= 1e-10

    def test_leading_coefficient_is_the_interaction_index(self):
        rng = np.random.default_rng(27)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            approx = best_s_approximation(f, S, p)
            lead = approx.multilinear.coeffs[S]
            assert lead == pytest.approx(banzhaf_interaction(f, S, p), abs=1e-9)


class TestResidual:
    def test_zero_on_the_subspace(self):
        p = random_profile(np.random.default_rng(28), 4)
        u = unanimity_game(4, 0b0101)
        approx = best_s_approximation(u, 0b0111, p)
        assert residual_norm(u, approx, p) <= 1e-12

    def test_zero_for_the_grand_subset(self):
        rng = np.random.default_rng(29)
        f = random_game(rng, 4)
        p = random_profile(rng, 4)
        approx = best_s_approximation(f, 0b1111, p)
        assert residual_norm(f, approx, p) <= 1e-12

    def test_or_game_value(self):
        approx = best_s_approximation(OR, 0b01, UNIFORM2)
        assert residual_norm(OR, approx, UNIFORM2) == pytest.approx(0.125, abs=1e-12)

    def test_huge_worths_keep_a_finite_residual(self):
        n = 15
        f = PseudoBooleanFunction(n, unanimity_game(n, (1 << n) - 1).values * 1e155)
        p = ProbabilityProfile.uniform(n)
        got = residual_norm(f, best_s_approximation(f, 0, p), p)
        # the projection on S = 0 is E[f], so the residual is the variance
        assert got == pytest.approx(1e155 * (1e155 * 2.0**-15 * (1 - 2.0**-15)), rel=1e-12)

    def test_scaling_keeps_the_bits_of_the_plain_sum(self):
        rng = np.random.default_rng(37)
        for scale in (1e-3, 1.0, 3.0, 1e6, 1e100):
            n = int(rng.integers(1, 9))
            f = PseudoBooleanFunction(n, rng.uniform(-1, 1, 1 << n) * scale)
            p = random_profile(rng, n)
            approx = best_s_approximation(f, int(rng.integers(0, 1 << n)), p)
            diff = f.values - approx.table().values
            assert residual_norm(f, approx, p) == _fsum(p.weights() * diff * diff)

    def test_parseval_form(self):
        rng = np.random.default_rng(30)
        f = random_game(rng, 6)
        p = random_profile(rng, 6)
        approx = best_s_approximation(f, 0b011011, p)
        energy = inner_product(p, f, f) - math.fsum(c * c for c in approx.fourier.tolist())
        assert residual_norm(f, approx, p) == pytest.approx(energy, abs=1e-9)

    def test_an_approximation_of_another_n_is_an_error(self):
        f = random_game(np.random.default_rng(31), 3)
        with pytest.raises(DimensionError) as info:
            residual_norm(f, best_s_approximation(OR, 0b01, UNIFORM2), ProbabilityProfile.uniform(3))
        assert str(info.value) == "approximation has n=2 but game has n=3"


class TestOptimality:
    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            approx = best_s_approximation(f, S, p)
            best = weighted_sq_dist(p, f, approx.table().values)
            for _ in range(40):
                noisy = [
                    c + rng.uniform(-1, 1) * 10.0 ** rng.integers(-6, 1)
                    for c in approx.fourier.tolist()
                ]
                unanimity = _expand_fourier(S, np.array(noisy), p)
                g = Approximation(n, approx.keys, np.array(noisy), unanimity).table()
                assert best <= weighted_sq_dist(p, f, g.values) + 1e-12

    def test_residual_is_orthogonal_to_the_subspace(self):
        rng = np.random.default_rng(32)
        f = random_game(rng, 6)
        p = random_profile(rng, 6)
        S = 0b101101
        approx = best_s_approximation(f, S, p)
        resid = PseudoBooleanFunction(6, f.values - approx.table().values)
        from pbindex import subsets_of

        for T in subsets_of(S):
            assert abs(inner_product(p, resid, basis_function(p, T))) <= 1e-10

    def test_residual_shrinks_as_the_subset_grows(self):
        rng = np.random.default_rng(33)
        f = random_game(rng, 6)
        p = random_profile(rng, 6)
        chain = [0, 0b000100, 0b001100, 0b101101, 0b111111]
        residuals = [
            residual_norm(f, best_s_approximation(f, S, p), p) for S in chain
        ]
        for smaller, larger in zip(residuals, residuals[1:]):
            assert larger <= smaller + 1e-12

    def test_uniform_fourier_interaction_relation(self):
        # at p = 1/2 the interaction index is 2^|S| times the basis coefficient
        rng = np.random.default_rng(34)
        n = 6
        f = random_game(rng, n)
        p = ProbabilityProfile.uniform(n)
        for S in (0b000001, 0b001010, 0b110111):
            approx = best_s_approximation(f, S, p)
            expected = 2.0 ** S.bit_count() * approx.fourier[-1]  # keys ascend to S
            assert banzhaf_interaction(f, S, p) == pytest.approx(expected, abs=1e-12)


class TestContainers:
    def test_keys_and_fourier_are_aligned_read_only_arrays(self):
        rng = np.random.default_rng(36)
        f = random_game(rng, 5)
        p = random_profile(rng, 5)
        S = 0b10110
        for approx in (
            best_s_approximation(f, S, p),
            best_k_approximation(f, 2, p),
            lsq_normal_equations(f, S, p),
        ):
            assert approx.keys.dtype == np.int64 and approx.fourier.dtype == np.float64
            assert approx.unanimity.dtype == np.float64
            assert approx.keys.shape == approx.fourier.shape == approx.unanimity.shape
            assert np.all(np.diff(approx.keys) > 0)
            for column in (approx.keys, approx.fourier, approx.unanimity):
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = 0

    def test_unanimity_is_the_dense_view_at_the_keys(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            for approx in (
                best_s_approximation(f, S, p),
                best_k_approximation(f, int(rng.integers(0, n + 1)), p),
                lsq_normal_equations(f, S, p),
            ):
                dense = approx.multilinear.coeffs
                assert dense[approx.keys].tobytes() == approx.unanimity.tobytes()
                off = np.ones(1 << n, dtype=bool)
                off[approx.keys] = False
                assert np.all(dense[off] == 0.0)


class TestExpansionOverflow:
    # worths of +-1.7e308 and p_1 = 1e-9: dividing by s_1 ~ 3e-5 leaves the float range
    GAME = PseudoBooleanFunction(3, np.array([1, -1, -1, 1, -1, 1, -1, 1]) * 1.7e308)
    PROFILE = ProbabilityProfile([1e-9, 0.5, 1 - 1e-9])

    @pytest.mark.parametrize("route", ["best_s", "best_k", "projection"])
    def test_raises_the_mobius_table_error_without_warnings(self, route):
        f, p = self.GAME, self.PROFILE
        call = {
            "best_s": lambda: best_s_approximation(f, 0b101, p),
            "best_k": lambda: best_k_approximation(f, 2, p),
            "projection": lambda: banzhaf_influence(f, 0b101, p, "projection"),
        }[route]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^Mobius table contains non-finite entries$"):
                call()


def _outcome(call):
    # the bits of a float result, or the type and message of what it raised
    try:
        return np.asarray(call(), dtype=np.float64).tobytes()
    except PbindexError as exc:
        return type(exc), str(exc)


def _lattice_case(rng, k):
    # case k: an n-player game of one of four kinds at one of three scales, and a profile
    n = 1 + k % 12
    size = 1 << n
    values = [
        rng.random(size),
        rng.standard_normal(size),
        rng.standard_normal(size) * (rng.random(size) < 0.25),
        unanimity_game(n, int(rng.integers(0, size))).values,
    ][k // 12 % 4] * (1.0, 1e-300, 1e300)[k // 48 % 3]
    p = [
        rng.uniform(1e-9, 1.0 - 1e-9, n),
        np.full(n, 0.5),
        rng.choice([1e-9, 1.0 - 1e-9, rng.uniform(0.05, 0.95)], n),
    ][k // 144 % 3]
    return PseudoBooleanFunction(n, values), ProbabilityProfile(p)


class TestLatticeEvaluation:
    # the approximant on the lattice of U, broadcast, against a dense zeta of
    # its coefficients over all 2**n masks, as table() was computed before

    def test_matches_the_dense_zeta_bit_for_bit(self):
        rng = np.random.default_rng(41)
        cases = 0
        for k in range(432):
            f, p = _lattice_case(rng, k)
            n = f.n
            for S in (0, (1 << n) - 1, int(rng.integers(0, 1 << n))):
                built = [
                    lambda: best_s_approximation(f, S, p),
                    lambda: best_k_approximation(f, int(rng.integers(0, n + 1)), p),
                ]
                if S.bit_count() <= 6:  # its Gram system has 2**|S| rows
                    built.append(lambda: lsq_normal_equations(f, S, p))
                for make in built:
                    try:
                        approx = make()
                    except PbindexError:  # an expansion past the float range, or a singular Gram system
                        continue
                    cases += 1

                    def dense():
                        return zeta(approx.multilinear).values

                    def dense_residual():
                        diff = f.values - dense()
                        return _weighted_product_sum(p, diff, diff, "the residual")

                    assert _outcome(lambda: approx.table().values) == _outcome(dense)
                    assert _outcome(lambda: residual_norm(f, approx, p)) == _outcome(dense_residual)

                def dense_projection():
                    table = zeta(best_s_approximation(f, S, p).multilinear).values
                    return float(table[S] - table[0])

                projection = _outcome(lambda: banzhaf_influence(f, S, p, "projection"))
                assert projection == _outcome(dense_projection)
        assert cases >= 1000

    def test_a_lattice_past_the_float_range_raises_the_game_table_error(self):
        # each coefficient is finite, their sum at {1,2} is not
        approx = Approximation(3, submasks(0b011), np.zeros(4), np.array([0.0, 1.5e308, 1.5e308, 0.0]))
        f = PseudoBooleanFunction(3, np.zeros(8))
        for call in (approx.lattice_values, approx.table, lambda: residual_norm(f, approx, UNIFORM3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match="^game table contains non-finite entries$"):
                    call()

    def test_lattice_values_cover_the_submasks_of_the_union_of_keys(self):
        rng = np.random.default_rng(42)
        f, p = random_game(rng, 6), random_profile(rng, 6)
        # best_k at k = 2 and ``sparse`` leave submasks of U out of their keys:
        # U = N, and U = {2,3,5}
        sparse = Approximation(6, np.array([0, 0b10, 0b10100]), np.zeros(3), np.array([1.0, 2.0, -4.0]))
        for approx, size in (
            (best_s_approximation(f, 0b100101, p), 8),
            (best_s_approximation(f, 0, p), 1),
            (best_k_approximation(f, 0, p), 1),
            (best_k_approximation(f, 2, p), 64),
            (sparse, 8),
        ):
            values = approx.lattice_values()
            assert values.size == size
            U = int(np.bitwise_or.reduce(approx.keys))
            assert values.tobytes() == approx.table().values[submasks(U)].tobytes()
            assert approx.table().values.tobytes() == zeta(approx.multilinear).values.tobytes()
        assert sparse.lattice_values().tolist() == [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, -3.0, -1.0]


class TestApproximationInvariants:
    def test_degree_bounds_validated(self):
        with pytest.raises(Exception):
            best_k_approximation(OR, 3, UNIFORM2)

    def test_degree_keys(self):
        rng = np.random.default_rng(35)
        f = random_game(rng, 4)
        p = random_profile(rng, 4)
        approx = best_k_approximation(f, 2, p)
        assert approx.keys.tolist() == [T for T in range(16) if bin(T).count("1") <= 2]


def _modules_matching(pattern):
    return [
        path.name
        for path in sorted(Path(approx_mod.__file__).parent.glob("*.py"))
        if re.search(pattern, path.read_text(encoding="utf-8"))
    ]


def test_no_module_reads_the_dense_view():
    # an approximation is n, keys, fourier and unanimity; its dense 2**n
    # view is built on access, and no route reads it
    assert _modules_matching(r"\.multilinear\b") == []


def test_only_approx_and_core_run_zeta():
    # an approximation is evaluated by approx alone, on the lattice of its keys
    assert _modules_matching(r"\bzeta\(") == ["approx.py", "core.py"]


def test_only_core_names_the_butterfly():
    # other modules transform through core.mobius and core.zeta
    assert _modules_matching(r"\b_butterfly_inplace\b") == ["core.py"]
