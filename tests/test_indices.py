import math
import re
import warnings

import numpy as np
import pytest

from pbindex import (
    DegenerateFunction,
    EmptySubset,
    GeneralizedValueCoefficients,
    IncompleteTable,
    InvalidCoefficients,
    PbindexError,
    PseudoBooleanFunction,
    ProbabilityProfile,
    ValidationError,
    banzhaf_influence,
    banzhaf_interaction,
    ben_or_linial_influence,
    expectation,
    g_function,
    g_std,
    gv_p_to_q,
    gv_q_to_p,
    index_report,
    influence_interaction_expansion,
    influence_value_coefficients,
    interaction_table,
    normalized_influence,
    s_difference,
    sample_coalitions,
    shapley_generalized_value,
    sigma_s,
    taylor_reconstruct,
    unanimity_game,
)
from pbindex import indices
from pbindex.core import submasks
from pbindex.indices import INFLUENCE_METHODS
from helpers import (
    bits_of,
    brute_influence,
    brute_interaction,
    dense_table,
    monotone_game,
    random_game,
    random_profile,
)

OR = PseudoBooleanFunction(2, [0, 1, 1, 1])
UNIFORM2 = ProbabilityProfile.uniform(2)


class TestInteraction:
    def test_or_game_first_player(self):
        for p2 in (0.2, 0.5, 0.9):
            p = ProbabilityProfile([0.4, p2])
            assert banzhaf_interaction(OR, 0b01, p) == pytest.approx(1 - p2, abs=1e-12)

    def test_unanimity_own_subset_is_one(self):
        rng = np.random.default_rng(40)
        p = random_profile(rng, 5)
        for S in (0b00001, 0b10110):
            assert banzhaf_interaction(unanimity_game(5, S), S, p) == pytest.approx(1.0, abs=1e-12)

    def test_empty_subset_is_the_mean_worth(self):
        rng = np.random.default_rng(41)
        f = random_game(rng, 5)
        p = random_profile(rng, 5)
        assert banzhaf_interaction(f, 0, p) == pytest.approx(expectation(p, f), abs=1e-12)

    def test_against_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            assert banzhaf_interaction(f, S, p) == pytest.approx(
                brute_interaction(f, S, p), abs=1e-11
            )

    def test_expected_discrete_derivative_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            lhs = banzhaf_interaction(f, S, p)
            assert abs(lhs - expectation(p, s_difference(f, S))) <= 1e-10

    def test_bool_subset_rejected(self):
        with pytest.raises(ValidationError):
            banzhaf_interaction(OR, True, UNIFORM2)


class TestInfluence:
    def test_empty_subset_is_exactly_zero_for_every_method(self):
        rng = np.random.default_rng(44)
        f = random_game(rng, 5)
        p = random_profile(rng, 5)
        for method in INFLUENCE_METHODS:
            assert banzhaf_influence(f, 0, p, method=method) == 0.0

    def test_or_game_first_player(self):
        for p2 in (0.25, 0.8):
            p = ProbabilityProfile([0.6, p2])
            assert banzhaf_influence(OR, 0b01, p) == pytest.approx(1 - p2, abs=1e-12)

    def test_or_game_grand_coalition_is_one_for_any_profile(self):
        for p in ([0.1, 0.9], [0.5, 0.5], [0.33, 0.71]):
            got = banzhaf_influence(OR, 0b11, ProbabilityProfile(p))
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_uniform_singleton_is_the_banzhaf_power_index(self):
        rng = np.random.default_rng(45)
        n = 5
        f = random_game(rng, n)
        p = ProbabilityProfile.uniform(n)
        for i in range(n):
            power = math.fsum(
                f.values[T | (1 << i)] - f.values[T]
                for T in range(1 << n)
                if not T >> i & 1
            ) / 2 ** (n - 1)
            assert banzhaf_influence(f, 1 << i, p) == pytest.approx(power, abs=1e-12)

    def test_four_routes_agree(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            vals = [banzhaf_influence(f, S, p, method=m) for m in INFLUENCE_METHODS]
            assert max(vals) - min(vals) <= 1e-9

    def test_against_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            assert banzhaf_influence(f, S, p) == pytest.approx(
                brute_influence(f, S, p), abs=1e-11
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            banzhaf_influence(OR, 1, UNIFORM2, method="telepathy")

    def test_switch_expectation_identity(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            lhs = banzhaf_influence(f, S, p)
            assert abs(lhs - expectation(p, sigma_s(f, S))) <= 1e-10

    def test_weighted_sum_form_over_raw_values(self):
        # Phi = sum_x f(x) (g(x)/2^|S|-style contrast) prod over complement only
        rng = np.random.default_rng(49)
        n = 5
        f = random_game(rng, n)
        p = random_profile(rng, n)
        S = 0b01101
        acc = 0.0
        for x in range(1 << n):
            if x & S == S:
                contrast = 1.0
            elif x & S == 0:
                contrast = -1.0
            else:
                continue
            outer = math.prod(
                p.p[i] if x >> i & 1 else 1.0 - p.p[i] for i in range(n) if not S >> i & 1
            )
            acc += f.values[x] * contrast * outer
        assert banzhaf_influence(f, S, p) == pytest.approx(acc, abs=1e-12)


class TestInteractionExpansion:
    def test_empty_subset(self):
        rng = np.random.default_rng(50)
        f = random_game(rng, 4)
        p = random_profile(rng, 4)
        assert influence_interaction_expansion(f, 0, p) == 0.0

    def test_matches_influence(self):
        rng = np.random.default_rng(51)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            lhs = influence_interaction_expansion(f, S, p)
            assert abs(lhs - banzhaf_influence(f, S, p)) <= 1e-9

    def test_uniform_case_reduces_to_odd_subsets(self):
        rng = np.random.default_rng(52)
        n = 5
        f = random_game(rng, n)
        p = ProbabilityProfile.uniform(n)
        S = 0b11011
        odd_sum = math.fsum(
            0.5 ** (len(bits_of(T, n)) - 1) * banzhaf_interaction(f, T, p)
            for T in range(1 << n)
            if T & S == T and len(bits_of(T, n)) % 2 == 1
        )
        assert influence_interaction_expansion(f, S, p) == pytest.approx(odd_sum, abs=1e-12)
        assert banzhaf_influence(f, S, p) == pytest.approx(odd_sum, abs=1e-12)

    def test_or_game_grand_coalition_uniform(self):
        assert influence_interaction_expansion(OR, 0b11, UNIFORM2) == pytest.approx(1.0, abs=1e-12)


class TestShapleyGeneralizedValue:
    def test_unanimity_own_subset(self):
        for n, S in ((3, 0b101), (5, 0b00001)):
            assert shapley_generalized_value(unanimity_game(n, S), S) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_or_game_first_player(self):
        assert shapley_generalized_value(OR, 0b01) == pytest.approx(0.5, abs=1e-12)

    def test_empty_subset(self):
        f = random_game(np.random.default_rng(53), 4)
        assert shapley_generalized_value(f, 0) == 0.0


class TestBenOrLinial:
    def test_or_game_first_player(self):
        assert ben_or_linial_influence(OR, 0b01) == pytest.approx(0.5, abs=1e-12)

    def test_constant_game(self):
        f = PseudoBooleanFunction(3, np.full(8, 4.25))
        assert ben_or_linial_influence(f, 0b011) == 0.0

    def test_monotone_games_match_uniform_influence(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            f = monotone_game(rng, n)
            p = ProbabilityProfile.uniform(n)
            S = int(rng.integers(0, 1 << n))
            gap = abs(ben_or_linial_influence(f, S) - banzhaf_influence(f, S, p))
            assert gap <= 1e-12

    def test_differs_from_influence_when_not_monotone(self):
        # spread is always nonnegative; the signed influence of this game is not
        f = PseudoBooleanFunction(2, [0, 1, 1, 0])
        assert ben_or_linial_influence(f, 0b11) == 1.0
        assert banzhaf_influence(f, 0b11, UNIFORM2) == pytest.approx(0.0, abs=1e-12)


class TestGeneralizedValueCoefficients:
    def test_influence_coefficients_are_a_distribution(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            p = random_profile(rng, n)
            S = int(rng.integers(0, 1 << n))
            coeffs = influence_value_coefficients(S, p)
            vals = coeffs.table[submasks(((1 << n) - 1) & ~S)].tolist()
            assert min(vals) >= 0.0
            assert abs(math.fsum(vals) - 1.0) <= 1e-12

    def test_coefficients_estimate_sandwich_probabilities(self):
        rng = np.random.default_rng(56)
        n = 6
        p = random_profile(rng, n, lo=0.2, hi=0.8)
        S = 0b010010
        T = 0b001001
        want = influence_value_coefficients(S, p).table[T]
        draws = sample_coalitions(p, np.random.default_rng(123), 100_000)
        hits = np.mean((draws & T == T) & (draws & ~(S | T) == 0))
        se = math.sqrt(want * (1 - want) / 100_000)
        assert abs(hits - want) <= 3 * se

    def test_two_player_example(self):
        p2 = 0.8
        p = ProbabilityProfile([0.6, p2])
        pc = influence_value_coefficients(0b01, p)
        assert pc.table[0] == pytest.approx(1 - p2, abs=1e-15)
        assert pc.table[0b10] == pytest.approx(p2, abs=1e-15)
        qc = gv_p_to_q(pc)
        assert qc.table[0b01] == pytest.approx(1.0, abs=1e-12)
        assert qc.table[0b11] == pytest.approx(p2, abs=1e-12)

    def test_zero_table_maps_to_zero(self):
        n, S = 3, 0b001
        zeros = GeneralizedValueCoefficients(n, S, "p", np.zeros(8))
        q = gv_p_to_q(zeros)
        assert np.all(q.table == 0.0)

    def test_influence_q_form_is_the_product_of_probabilities(self):
        rng = np.random.default_rng(57)
        n = 5
        p = random_profile(rng, n)
        S = 0b00110
        q = gv_p_to_q(influence_value_coefficients(S, p))
        for R in range(1 << n):
            if not R & S:
                continue
            val = q.table[R]
            want = math.prod(p.p[i] for i in bits_of(R & ~S, n))
            assert val == pytest.approx(want, abs=1e-12)

    def test_roundtrip_both_ways(self):
        rng = np.random.default_rng(58)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            S = int(rng.integers(1, 1 << n))
            comp = ((1 << n) - 1) & ~S
            # build a valid q-form: one free value per class R - S
            from pbindex import subsets_of

            class_values = {D: rng.uniform(-1, 1) for D in subsets_of(comp)}
            table = {}
            for D in subsets_of(comp):
                for E in subsets_of(S):
                    if E:
                        table[D | E] = class_values[D]
            q = GeneralizedValueCoefficients(n, S, "q", dense_table(n, table))
            p_form = gv_q_to_p(q)
            q_back = gv_p_to_q(p_form)
            assert max(abs(q.table[k] - q_back.table[k]) for k in table) <= 1e-10
            p_back = gv_q_to_p(q_back)
            assert max(abs(p_form.table[k] - p_back.table[k]) for k in subsets_of(comp)) <= 1e-10

    def test_constant_q_form_against_direct_alternating_sum(self):
        n, S = 4, 0b0011
        comp = 0b1100
        from pbindex import subsets_of

        table = {D | E: 1.0 for D in subsets_of(comp) for E in subsets_of(S) if E}
        p_form = gv_q_to_p(GeneralizedValueCoefficients(n, S, "q", dense_table(n, table)))
        for T in subsets_of(comp):
            direct = math.fsum(
                (-1.0) ** (len(bits_of(R, n)) - len(bits_of(T, n)))
                for R in subsets_of(comp)
                if R & T == T
            )
            assert p_form.table[T] == pytest.approx(direct, abs=1e-12)

    def test_dependence_violation_is_rejected(self):
        n, S = 3, 0b011
        from pbindex import subsets_of

        table = {D | E: 1.0 for D in subsets_of(0b100) for E in subsets_of(S) if E}
        table[0b001] = 1.0 + 1e-6  # breaks the R - S dependence
        with pytest.raises(InvalidCoefficients):
            gv_q_to_p(GeneralizedValueCoefficients(n, S, "q", dense_table(n, table)))

    def test_kind_and_key_validation(self):
        with pytest.raises(ValidationError):
            GeneralizedValueCoefficients(2, 0b01, "x", np.zeros(4))
        with pytest.raises(ValidationError):
            GeneralizedValueCoefficients(2, 0b01, "p", dense_table(2, {0b01: 1.0}))
        pc = influence_value_coefficients(0b01, UNIFORM2)
        with pytest.raises(ValidationError):
            gv_q_to_p(pc)
        with pytest.raises(ValidationError):
            gv_p_to_q(gv_p_to_q(pc))
        with pytest.raises(EmptySubset):
            gv_p_to_q(influence_value_coefficients(0, UNIFORM2))


class TestTableContainers:
    def test_interaction_table_is_a_read_only_array_indexed_by_mask(self):
        table = interaction_table(OR, UNIFORM2)
        assert table.dtype == np.float64 and table.shape == (4,)
        assert not table.flags.writeable

    def test_generalized_value_tables_are_read_only_and_zero_off_support(self):
        n, S = 5, 0b00101
        p = random_profile(np.random.default_rng(59), n)
        meets = (np.arange(1 << n) & S) != 0
        p_form = influence_value_coefficients(S, p)
        q_form = gv_p_to_q(p_form)
        for coeffs, off in ((p_form, meets), (q_form, ~meets), (gv_q_to_p(q_form), meets)):
            assert coeffs.table.dtype == np.float64 and coeffs.table.shape == (1 << n,)
            assert not coeffs.table.flags.writeable
            assert np.all(coeffs.table[off] == 0.0)

    def test_off_support_entries_and_malformed_tables_are_rejected(self):
        with pytest.raises(ValidationError, match="holds 1.0 at 0b1: .* 0.0 off the support"):
            GeneralizedValueCoefficients(2, 0b01, "p", np.array([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValidationError, match="holds 1.0 at 0b10: .* 0.0 off the support"):
            GeneralizedValueCoefficients(2, 0b01, "q", np.array([0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValidationError, match="holds nan at 0b0: entries must be finite"):
            GeneralizedValueCoefficients(2, 0b01, "p", np.array([np.nan, 0.0, 0.0, 0.0]))
        for bad in ({0: 1.0, 0b10: 0.0}, [1.0, 0.0, 0.0, 0.0], np.zeros(3), np.zeros(4, dtype=np.int64)):
            with pytest.raises(ValidationError, match="needs a float64 array of 2\\*\\*2"):
                GeneralizedValueCoefficients(2, 0b01, "p", bad)

    def test_q_to_p_names_the_first_broken_class(self):
        n, S = 3, 0b011
        table = {D | E: 1.0 for D in (0, 0b100) for E in (1, 2, 3)}
        table[0b001] = 1.0 + 1e-6  # class R - S = 0
        table[0b101] = 1.0 + 1e-3  # class R - S = {3}, the wider spread
        with pytest.raises(InvalidCoefficients) as caught:
            gv_q_to_p(GeneralizedValueCoefficients(n, S, "q", dense_table(n, table)))
        assert str(caught.value) == "q values for R-S=0b0 spread by 1.000e-06 > 1e-12"
        table[0b001] = 1.0
        with pytest.raises(InvalidCoefficients) as caught:
            gv_q_to_p(GeneralizedValueCoefficients(n, S, "q", dense_table(n, table)))
        assert str(caught.value) == "q values for R-S=0b100 spread by 1.000e-03 > 1e-12"


class TestContrastFunction:
    def test_uniform_singleton_is_twice_the_basis(self):
        p = ProbabilityProfile.uniform(3)
        g = g_function(0b001, p)
        masks = np.arange(8)
        expected = 2.0 * (2.0 * (masks & 1) - 1.0)
        assert np.array_equal(g.values, expected)

    def test_uniform_pair_additivity(self):
        p = ProbabilityProfile.uniform(4)
        lhs = g_function(0b0011, p).values
        rhs = g_function(0b0001, p).values + g_function(0b0010, p).values
        assert np.array_equal(lhs, rhs)

    def test_zero_mean(self):
        rng = np.random.default_rng(59)
        p = random_profile(rng, 6)
        for S in (0b000001, 0b010101, 0b111111):
            assert abs(expectation(p, g_function(S, p))) <= 1e-12

    def test_empty_subset_vanishes(self):
        p = random_profile(np.random.default_rng(60), 3)
        assert np.all(g_function(0, p).values == 0.0)

    def test_uniform_singleton_std_is_two(self):
        assert g_std(0b01, UNIFORM2) == 2.0


class TestNormalizedInfluence:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(61)
        p = random_profile(rng, 5, lo=0.2, hi=0.8)
        S = 0b01100
        g = g_function(S, p)
        assert normalized_influence(g, S, p) == pytest.approx(1.0, abs=1e-9)

    def test_negative_affine_image(self):
        rng = np.random.default_rng(62)
        p = random_profile(rng, 4, lo=0.2, hi=0.8)
        S = 0b1010
        g = g_function(S, p)
        f = PseudoBooleanFunction(4, -3.0 * g.values + 7.0)
        assert normalized_influence(f, S, p) == pytest.approx(-1.0, abs=1e-9)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            S = int(rng.integers(1, 1 << n))
            assert abs(normalized_influence(f, S, p)) <= 1.0

    def test_interval_scale_invariance(self):
        rng = np.random.default_rng(64)
        f = random_game(rng, 5)
        p = random_profile(rng, 5)
        S = 0b00110
        base = normalized_influence(f, S, p)
        for a, b in ((0.5, -2.0), (3.0, 5.0)):
            scaled = PseudoBooleanFunction(5, a * f.values + b)
            assert normalized_influence(scaled, S, p) == pytest.approx(base, abs=1e-10)

    def test_rejects_degenerate_and_empty(self):
        p = ProbabilityProfile.uniform(3)
        constant = PseudoBooleanFunction(3, np.full(8, 1.5))
        with pytest.raises(DegenerateFunction):
            normalized_influence(constant, 0b001, p)
        f = random_game(np.random.default_rng(65), 3)
        with pytest.raises(EmptySubset):
            normalized_influence(f, 0, p)


class TestTaylorReconstruct:
    def test_top_unanimity_roundtrip(self):
        n = 4
        u = unanimity_game(n, (1 << n) - 1)
        p = ProbabilityProfile.uniform(n)
        rebuilt = taylor_reconstruct(interaction_table(u, p), p)
        assert np.max(np.abs(rebuilt.values - u.values)) <= 1e-12

    def test_or_game_example(self):
        table = [0.75, 0.5, 0.5, -1.0]
        rebuilt = taylor_reconstruct(table, UNIFORM2)
        assert rebuilt.values.tolist() == pytest.approx([0, 1, 1, 1], abs=1e-12)

    def test_zero_table(self):
        p = random_profile(np.random.default_rng(66), 3)
        rebuilt = taylor_reconstruct(np.zeros(8), p)
        assert np.all(rebuilt.values == 0.0)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(67)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            rebuilt = taylor_reconstruct(interaction_table(f, p), p)
            assert np.max(np.abs(rebuilt.values - f.values)) <= 1e-9

    def test_missing_subset_rejected(self):
        table = {0b00: 0.75, 0b01: 0.5, 0b10: 0.5}
        with pytest.raises(IncompleteTable):
            taylor_reconstruct(table, UNIFORM2)
        with pytest.raises(IncompleteTable):
            taylor_reconstruct(np.zeros(3), UNIFORM2)

    def test_dicts_and_non_numeric_tables_raise_incomplete_table(self):
        complete = {0b00: 0.75, 0b01: 0.5, 0b10: 0.5, 0b11: -1.0}
        for bad in (complete, [[0.75, 0.5, 0.5, -1.0]], "abcd", 1.0, [object()] * 4):
            with pytest.raises(IncompleteTable):
                taylor_reconstruct(bad, UNIFORM2)


class TestStructuralIdentities:
    def test_indexes_ignore_probabilities_inside_s(self):
        rng = np.random.default_rng(68)
        n, S = 6, 0b010110
        f = random_game(rng, n)
        base = rng.uniform(0.1, 0.9, n)
        p1 = ProbabilityProfile(base)
        tweaked = base.copy()
        for i in bits_of(S, n):
            tweaked[i] = rng.uniform(0.1, 0.9)
        p2 = ProbabilityProfile(tweaked)
        assert abs(banzhaf_influence(f, S, p1) - banzhaf_influence(f, S, p2)) <= 1e-10
        assert abs(banzhaf_interaction(f, S, p1) - banzhaf_interaction(f, S, p2)) <= 1e-10
        gap = abs(
            banzhaf_influence(f, S, p1, method="projection")
            - banzhaf_influence(f, S, p2, method="projection")
        )
        assert gap <= 1e-10

    def test_singletons_coincide(self):
        rng = np.random.default_rng(69)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            f = random_game(rng, n)
            p = random_profile(rng, n)
            i = int(rng.integers(0, n))
            gap = abs(banzhaf_influence(f, 1 << i, p) - banzhaf_interaction(f, 1 << i, p))
            assert gap <= 1e-12

    def test_uniform_pairwise_additivity(self):
        rng = np.random.default_rng(70)
        n = 6
        f = random_game(rng, n)
        p = ProbabilityProfile.uniform(n)
        for i, j in ((0, 1), (2, 5)):
            pair = banzhaf_influence(f, (1 << i) | (1 << j), p)
            split = banzhaf_influence(f, 1 << i, p) + banzhaf_influence(f, 1 << j, p)
            assert abs(pair - split) <= 1e-12

    def test_singleton_index_ignores_additive_noise_without_the_variable(self):
        # adding any h with Delta_i h = 0 leaves the singleton influence alone
        rng = np.random.default_rng(71)
        n, i = 5, 2
        f = random_game(rng, n)
        p = random_profile(rng, n)
        half = rng.uniform(-5, 5, 1 << n)
        bit = 1 << i
        h = np.array([half[m & ~bit] for m in range(1 << n)])
        assert np.max(np.abs(s_difference(PseudoBooleanFunction(n, h), bit).values)) == 0.0
        noisy = PseudoBooleanFunction(n, f.values + h)
        gap = abs(banzhaf_influence(noisy, bit, p) - banzhaf_influence(f, bit, p))
        assert gap <= 1e-10


class TestIndexReport:
    def test_report_contents(self):
        report = index_report(OR, UNIFORM2, [0, 0b01, 0b10, 0b11])
        assert report.influence[0] == 0.0
        assert np.isnan(report.correlation[0])
        assert report.influence[1] == pytest.approx(0.5, abs=1e-12)
        assert report.shapley[3] == pytest.approx(1.0, abs=1e-12)
        assert not np.isnan(report.correlation[1])

    def test_constant_game_has_no_correlations(self):
        f = PseudoBooleanFunction(2, [3, 3, 3, 3])
        report = index_report(f, UNIFORM2, [0b01])
        assert np.isnan(report.correlation).tolist() == [True]
        # the table route (more distinct subsets than n) agrees
        report = index_report(f, UNIFORM2, [0, 0b01, 0b10])
        assert np.isnan(report.correlation).tolist() == [True, True, True]

    def test_columns_follow_the_request_order_with_repeats(self):
        f = random_game(np.random.default_rng(73), 2)
        subsets = [0b11, 0b01, 0b11, 0b10, 0]
        report = index_report(f, UNIFORM2, subsets)
        assert report.subsets.tolist() == subsets
        for column in (report.interaction, report.influence, report.shapley, report.correlation):
            assert column[0] == column[2]

    def test_correlation_of_a_nearly_constant_game_on_both_routes(self):
        # sigma_f = 5e-10; the Mobius route's Phi({1}) is 1.1e-16 here against
        # a true 7.0e-19, which puts r({1}) off by 1.1e-7
        f = PseudoBooleanFunction(3, [0.0] + [0.703125] * 7)
        p = ProbabilityProfile([0.5, 0.9999999989999999, 0.9999999989999999])
        per_subset = index_report(f, p, [0b001, 0b010, 0b011])
        tables = index_report(f, p, list(range(8)))
        for k, S in enumerate(per_subset.subsets.tolist()):
            assert per_subset.influence[k] == pytest.approx(tables.influence[S], rel=1e-9, abs=1e-30)
            assert per_subset.correlation[k] == pytest.approx(
                tables.correlation[S], rel=1e-9, abs=1e-15
            )

    def test_columns_are_frozen_float64_copies(self):
        f = random_game(np.random.default_rng(74), 3)
        p = ProbabilityProfile([0.2, 0.5, 0.7])
        for subsets in ([0b101, 0, 0b011], list(range(8)) + [0b101, 0]):  # both routes
            report = index_report(f, p, subsets)
            assert report.subsets.dtype == np.int64
            assert report.subsets.tolist() == subsets
            columns = (report.interaction, report.influence, report.shapley, report.correlation)
            for column in (report.subsets, *columns):
                assert column.shape == (len(subsets),) and not column.flags.writeable
            assert all(column.dtype == np.float64 for column in columns)
            assert np.isnan(report.correlation).tolist() == [S == 0 for S in subsets]
            request = np.array(subsets)
            index_report(f, p, request)
            assert request.flags.writeable  # the report froze its own copy

    def test_overflowing_indexes_fail_validation_on_both_routes(self):
        big = 1.7e308
        f = PseudoBooleanFunction(3, [-big, big, big, -big, big, -big, -big, big])
        uniform = ProbabilityProfile.uniform(3)
        with np.errstate(all="ignore"):
            # tables: I({1}) is NaN and Shapley({1}) infinite
            with pytest.raises(ValidationError, match=r"indexes of subset 0b1 are not finite"):
                index_report(f, uniform, list(range(8)))
            # the first non-finite subset in request order is named
            with pytest.raises(ValidationError, match=r"indexes of subset 0b100 are not finite"):
                index_report(f, uniform, [0, 0b110, 0b100, 0b001])
            with pytest.raises(ValidationError, match="non-finite"):
                index_report(f, uniform, [1, 2])  # per subset

    def test_correlations_do_not_depend_on_a_power_of_two_scale(self):
        rng = np.random.default_rng(77)
        f = random_game(rng, 3)
        p = ProbabilityProfile([0.2, 0.5, 0.7])

        def normalized(g, subsets):
            return np.array([normalized_influence(g, S, p) if S else np.nan for S in subsets])

        for correlations in (lambda g, subsets: index_report(g, p, subsets).correlation, normalized):
            for subsets in ([0b101, 0b011], list(range(8))):  # both routes of the report
                plain = correlations(f, subsets)
                for e in (40, 600, 1000):
                    scaled = PseudoBooleanFunction(3, np.ldexp(f.values, e))
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")  # no overflow in sigma_f
                        r = correlations(scaled, subsets)
                    assert np.array_equal(r, plain, equal_nan=True)

    def test_integer_arrays_are_checked_without_iteration(self):
        class Opaque(np.ndarray):
            def __iter__(self):
                raise AssertionError("iterated over the masks")

        for dtype in (np.int64, np.int32, np.uint16):
            masks = np.array([5, 0, 7, 5], dtype=dtype).view(Opaque)
            out = indices._mask_array(masks, 3)
            assert out.dtype == np.int64 and out.tolist() == [5, 0, 7, 5]
            assert not np.shares_memory(out, masks)
        assert indices._mask_array(np.zeros(0, dtype=np.int64), 3).size == 0
        for masks, bad in (([1, 8, 9], 8), ([2, -1], -1)):
            with pytest.raises(ValidationError, match=re.escape(f"mask np.int64({bad}) is not")):
                indices._mask_array(np.array(masks, dtype=np.int64), 3)

    def test_bad_masks_are_named_in_request_order(self):
        f = random_game(np.random.default_rng(75), 3)
        p = ProbabilityProfile([0.2, 0.5, 0.7])
        for bad in (1 << 70, 8, -1, True, 2.0, np.uint64(2**64 - 1), np.bool_(True)):
            for subsets in ([1, bad, 3], [1, 2, 3, 4, bad, 1 << 70]):  # both routes
                with pytest.raises(ValidationError, match=re.escape(f"mask {bad!r} is not")):
                    index_report(f, p, subsets)

    def test_numpy_integer_masks_match_plain_ints(self):
        f = random_game(np.random.default_rng(76), 3)
        p = ProbabilityProfile([0.2, 0.5, 0.7])
        for subsets in ([0b101, 0, 0b011], list(range(8)) + [0b101, 0]):  # both routes
            plain = index_report(f, p, subsets)
            for request in (np.array(subsets), [np.int64(S) for S in subsets]):
                report = index_report(f, p, request)
                assert report.subsets.tolist() == subsets
                for name in ("interaction", "influence", "shapley", "correlation"):
                    assert np.array_equal(
                        getattr(report, name), getattr(plain, name), equal_nan=True
                    )

    def test_correlation_bound_is_checked_then_clamped(self):
        ones = np.ones(3)
        r = indices._correlations(np.array([0.5, 1.0 + 1e-13, -1.0 - 1e-13]), 1.0, ones)
        assert r.tolist() == [0.5, 1.0, -1.0]
        with pytest.raises(PbindexError, match=r"\|r\| = 1\.5 > 1 \+ 1e-12"):
            indices._correlations(np.array([0.5, -1.5, 2.0]), 1.0, ones)


class TestInteractionTable:
    def test_or_game_values(self):
        assert interaction_table(OR, UNIFORM2).tolist() == [0.75, 0.5, 0.5, -1.0]
