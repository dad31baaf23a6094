import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pbindex import (
    DomainError,
    MobiusRepresentation,
    ProbabilityProfile,
    PseudoBooleanFunction,
    SumOverflow,
    ValidationError,
    banzhaf_influence,
    banzhaf_interaction,
    basis_function,
    ben_or_linial_influence,
    cube_average,
    eval_multilinear_extension,
    gv_p_to_q,
    gv_q_to_p,
    index_report,
    influence_value_coefficients,
    mobius,
    s_difference,
    shapley_generalized_value,
    sigma_s,
    subsets_of,
    unanimity_game,
    weighted_voting_game,
    zeta,
)
from pbindex import core
from pbindex.core import axis_map, product_table, submasks, subset_products
from pbindex.indices import INFLUENCE_METHODS, _comp_weights
from pbindex.oracle import _point_products
from helpers import brute_mobius, brute_zeta, random_game

OR_VALUES = [0.0, 1.0, 1.0, 1.0]


class TestMobius:
    def test_unanimity_is_its_own_basis_element(self):
        f = PseudoBooleanFunction(2, [0, 0, 0, 1])
        a = mobius(f)
        assert a.coeffs.tolist() == [0, 0, 0, 1]

    def test_or_game_against_brute_force(self):
        f = PseudoBooleanFunction(2, OR_VALUES)
        a = mobius(f)
        assert a.coeffs.tolist() == brute_mobius(np.array(OR_VALUES), 2).tolist()
        assert a.coeffs.tolist() == [0, 1, 1, -1]

    def test_constant_game(self):
        c = 3.5
        f = PseudoBooleanFunction(3, np.full(8, c))
        a = mobius(f)
        assert a.coeffs[0] == c
        assert np.all(a.coeffs[1:] == 0)

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 6):
            f = random_game(rng, n)
            assert np.allclose(mobius(f).coeffs, brute_mobius(f.values, n), atol=1e-12)

    def test_cached_per_game(self):
        f = random_game(np.random.default_rng(0), 4)
        assert mobius(f) is mobius(f)

    def test_overflow_fails_validation_without_a_warning(self):
        f = PseudoBooleanFunction(2, [1.7e308, -1.7e308, 1.7e308, -1.7e308])
        with warnings.catch_warnings(), pytest.raises(ValidationError, match="Mobius table contains non-finite"):
            warnings.simplefilter("error")
            mobius(f)


class TestZeta:
    def test_unanimity_coefficient(self):
        a = MobiusRepresentation(2, [0, 0, 0, 1])
        assert zeta(a).values.tolist() == [0, 0, 0, 1]

    def test_constant_coefficient(self):
        a = MobiusRepresentation(2, [5, 0, 0, 0])
        assert zeta(a).values.tolist() == [5, 5, 5, 5]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        a = MobiusRepresentation(5, rng.uniform(-1, 1, 32))
        assert np.allclose(zeta(a).values, brute_zeta(a.coeffs, 5), atol=1e-12)

    def test_overflow_fails_validation_without_a_warning(self):
        a = MobiusRepresentation(2, np.full(4, 1.7e308))
        with warnings.catch_warnings(), pytest.raises(ValidationError, match="game table contains non-finite"):
            warnings.simplefilter("error")
            zeta(a)


class TestRoundtrips:
    @pytest.mark.parametrize("n", [2, 8, 12])
    def test_zeta_mobius_identity_relative(self, n):
        rng = np.random.default_rng(n)
        scale = 1e6
        f = random_game(rng, n, -scale, scale)
        back = zeta(mobius(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-10 * scale
        a = MobiusRepresentation(n, rng.uniform(-scale, scale, 1 << n))
        back_a = mobius(zeta(a))
        assert np.max(np.abs(back_a.coeffs - a.coeffs)) <= 1e-10 * scale

    def test_roundtrip_tight_at_unit_scale(self):
        f = random_game(np.random.default_rng(3), 8)
        assert np.max(np.abs(zeta(mobius(f)).values - f.values)) <= 1e-12


class TestSubmasks:
    def test_matches_the_generator_order(self):
        for mask in (0, 0b1, 0b1000, 0b10110, 0b111111, 1 << 23 | 1 << 17 | 0b1001, np.int64(0b1101)):
            arr = submasks(mask)
            assert arr.dtype == np.int64
            assert arr.tolist() == list(subsets_of(int(mask)))


class TestSplitView:
    # row r, column d of the grid: R_r | D_d, the ascending submasks of S and of N - S

    @pytest.mark.parametrize("n", range(1, 11))
    def test_grid_of_the_masks_is_the_split_of_the_lattice(self, n):
        full = (1 << n) - 1
        for S in (0, full, 1, 1 << (n - 1), int(np.random.default_rng(n).integers(1 << n))):
            D = submasks(full & ~S)
            grid = core.split_view(np.arange(1 << n), S).reshape(1 << S.bit_count(), -1)
            want = submasks(S)[:, None] | D
            assert grid.shape == want.shape
            assert (grid == want).all()
            assert (core._grid(np.arange(1 << n), S) == want).all()
            assert core._face(np.arange(1 << n), S, 0).ravel().tolist() == D.tolist()
            assert core._face(np.arange(1 << n), S, 1).ravel().tolist() == (D | S).tolist()
            assert (np.bitwise_count(np.arange(D.size)) == np.bitwise_count(D)).all()  # |D_d|

    def test_shares_memory_and_writes_through(self):
        v = np.zeros(1 << 6)
        S = 0b100110
        view = core.split_view(v, S)
        assert np.shares_memory(view, v)
        view[1, 1, 1] = 1.0  # the face R = S
        assert np.flatnonzero(v).tolist() == [T for T in range(1 << 6) if T & S == S]
        core._face(v, S, 0)[...] = 2.0
        assert np.flatnonzero(v == 2.0).tolist() == [T for T in range(1 << 6) if T & S == 0]

    @pytest.mark.parametrize("S", [0, 0b1, 0b11000000, 0xFF, 0b10010110])
    def test_the_grid_is_a_fresh_copy(self, S):
        v = np.arange(1 << 8)
        grid = core._grid(v, S)
        assert grid.flags.c_contiguous and grid.flags.writeable and not np.shares_memory(grid, v)

    def test_routes_at_the_top_player_leave_the_frozen_tables_intact(self):
        # at S = {n} a face is a contiguous half of the frozen table itself
        n = 8
        S = 1 << (n - 1)
        f = random_game(np.random.default_rng(8), n)
        p = ProbabilityProfile(np.random.default_rng(9).uniform(0.05, 0.95, n))
        for bit in (0, 1):
            face = core._face(f.values, S, bit)
            assert face.flags.c_contiguous and np.shares_memory(face, f.values)
        q_form = gv_p_to_q(influence_value_coefficients(S, p))
        kept = [t.copy() for t in (f.values, mobius(f).coeffs, p.weights(), q_form.table)]
        banzhaf_interaction(f, S, p)
        for method in INFLUENCE_METHODS:
            banzhaf_influence(f, S, p, method)
        shapley_generalized_value(f, S)
        ben_or_linial_influence(f, S)
        cube_average(f, S)
        sigma_s(f, S)
        s_difference(f, S)
        gv_q_to_p(q_form)
        index_report(f, p, [S, 0])
        now = (f.values, mobius(f).coeffs, p.weights(), q_form.table)
        assert [t.tobytes() for t in now] == [t.tobytes() for t in kept]


# The doubling loops that product_table replaced, kept as references.
def _ref_subset_products(x):
    prods = np.ones(1)
    for xi in x:
        prods = np.concatenate([prods, prods * xi])
    return prods


def _ref_weights(profile):
    w = np.ones(1)
    for pi in profile.p:
        w = np.concatenate([w * (1.0 - pi), w * pi])
    return w


def _ref_basis_function(profile, T):
    vals = np.ones(1)
    for i, pi in enumerate(profile.p):
        if T >> i & 1:
            s = math.sqrt(pi * (1.0 - pi))
            vals = np.concatenate([vals * (-pi / s), vals * ((1.0 - pi) / s)])
        else:
            vals = np.concatenate([vals, vals])
    return vals


def _ref_comp_weights(S, profile):
    coeff = np.ones(1)
    for i in range(profile.n):
        if not S >> i & 1:
            coeff = np.concatenate([coeff * (1.0 - profile.p[i]), coeff * profile.p[i]])
    return coeff


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestUnanimityGame:
    def test_has_the_bits_of_the_superset_mask_formula(self):
        rng = np.random.default_rng(21)
        for n in range(1, 13):
            masks = np.arange(1 << n)
            picks = range(1 << n) if n <= 8 else rng.integers(0, 1 << n, size=50).tolist()
            for T in picks:
                want = ((masks & T) == T).astype(np.float64)
                assert _bitwise_equal(unanimity_game(n, T).values, want)


class TestProductTable:
    def _profiles(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 5, 9, 12):
            for _ in range(4):
                p = rng.uniform(0.05, 0.95, n)
                # the interior bound on either side, on some players
                p[rng.random(n) < 0.3] = 1e-9
                p[rng.random(n) < 0.3] = 1.0 - 1e-9
                yield rng, ProbabilityProfile(p)

    def test_entry_is_the_product_in_bit_order(self):
        pairs = [(2.0, 3.0), (5.0, 7.0), (11.0, 13.0)]
        assert product_table(pairs).tolist() == [
            2 * 5 * 11, 3 * 5 * 11, 2 * 7 * 11, 3 * 7 * 11,
            2 * 5 * 13, 3 * 5 * 13, 2 * 7 * 13, 3 * 7 * 13,
        ]
        assert product_table([]).tolist() == [1.0]

    def test_bitwise_equal_to_the_doubling_loops(self):
        for rng, profile in self._profiles():
            n = profile.n
            assert _bitwise_equal(subset_products(profile.p), _ref_subset_products(profile.p))
            inv = [1.0 / (1.0 - pi) for pi in profile.p]
            assert _bitwise_equal(subset_products(inv), _ref_subset_products(inv))
            assert _bitwise_equal(profile.weights(), _ref_weights(profile))
            for T in (0, (1 << n) - 1, *rng.integers(0, 1 << n, 3).tolist()):
                assert _bitwise_equal(
                    basis_function(profile, T).values, _ref_basis_function(profile, T)
                )
                assert _bitwise_equal(_comp_weights(T, profile), _ref_comp_weights(T, profile))

    def test_rows_bitwise_equal_to_the_oracle_point_products(self):
        rng = np.random.default_rng(19)
        for k in (0, 1, 4, 10):
            x = rng.random((6, k))
            x[0] = 1e-9
            x[1] = 1.0 - 1e-9
            table = _point_products(x)
            for j in range(x.shape[0]):
                assert _bitwise_equal(product_table([(1.0, xi) for xi in x[j]]), table[j])


class TestAxisMap:
    def test_matches_explicit_pairs_on_each_axis(self):
        rng = np.random.default_rng(3)
        n = 4
        values = rng.uniform(-1, 1, 1 << n)
        maps = [tuple(rng.uniform(-2, 2, 4)) for _ in range(n)]
        expected = values.copy()
        for i, (m00, m01, m10, m11) in enumerate(maps):
            nxt = expected.copy()
            for mask in range(1 << n):
                if not mask >> i & 1:
                    v0, v1 = expected[mask], expected[mask | 1 << i]
                    nxt[mask] = m00 * v0 + m01 * v1
                    nxt[mask | 1 << i] = m10 * v0 + m11 * v1
            expected = nxt
        assert np.max(np.abs(axis_map(values, maps) - expected)) <= 1e-14

    def test_mobius_is_the_difference_map(self):
        f = random_game(np.random.default_rng(5), 5)
        assert np.array_equal(axis_map(f.values, [(1.0, 0.0, -1.0, 1.0)] * 5), mobius(f).coeffs)

    def test_rejects_tables_of_the_wrong_size(self):
        with pytest.raises(ValidationError):
            axis_map(np.zeros(8), [(1.0, 0.0, 0.0, 1.0)] * 2)
        with pytest.raises(ValidationError):
            axis_map(np.zeros(16)[::2], [(1.0, 0.0, 0.0, 1.0)] * 3)
        with pytest.raises(ValidationError):
            axis_map(np.zeros(8), [(1.0, 0.0)] * 2)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("pattern", ["first", "last", "every", "none"])
    def test_a_fold_is_the_full_map_at_the_kept_submasks(self, n, pattern):
        rng = np.random.default_rng(7 + n)
        values = rng.uniform(-1e3, 1e3, 1 << n)
        maps = [tuple(rng.uniform(-2, 2, 4).tolist()) for _ in range(n)]
        folded = {"first": 1, "last": 1 << (n - 1), "every": (1 << n) - 1, "none": 0}[pattern]
        kept = ((1 << n) - 1) & ~folded
        mixed = [m[:2] if folded >> i & 1 else m for i, m in enumerate(maps)]
        got = axis_map(values, mixed)
        assert got.shape == (1 << kept.bit_count(),)
        assert got.tobytes() == axis_map(values, maps)[submasks(kept)].tobytes()

    def test_leaves_its_input_unchanged(self):
        f = random_game(np.random.default_rng(9), 6)
        work = f.values.copy()
        before = work.tobytes()
        maps = [(0.3, 0.7, -0.5, 0.5)] * 3 + [(0.3, 0.7)] * 3
        for table in (work, f.values):  # a writeable copy and the read-only table
            got = axis_map(table, maps)
            assert got.tobytes() == axis_map(f.values, maps).tobytes()
            assert not np.shares_memory(got, table)
        assert work.tobytes() == before
        assert not f.values.flags.writeable
        single = np.array([2.5])  # no axes: still a new array
        assert axis_map(single, []) is not single


class TestMultilinearExtension:
    def test_or_game_at_top_vertex(self):
        a = mobius(PseudoBooleanFunction(2, OR_VALUES))
        assert eval_multilinear_extension(a, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_or_game_interior_formula(self):
        a = mobius(PseudoBooleanFunction(2, OR_VALUES))
        p1, p2 = 0.3, 0.8
        expected = p1 + p2 - p1 * p2
        assert eval_multilinear_extension(a, [p1, p2]) == pytest.approx(expected, abs=1e-14)

    def test_interpolates_table_at_vertices(self):
        f = random_game(np.random.default_rng(4), 6)
        a = mobius(f)
        for mask in range(64):
            x = [(mask >> i) & 1 for i in range(6)]
            assert eval_multilinear_extension(a, x) == pytest.approx(
                f.values[mask], abs=1e-12
            )

    def test_rejects_points_outside_cube(self):
        a = mobius(PseudoBooleanFunction(2, OR_VALUES))
        with pytest.raises(DomainError):
            eval_multilinear_extension(a, [1.2, 0.5])
        with pytest.raises(DomainError):
            eval_multilinear_extension(a, [-0.1, 0.5])
        with pytest.raises(DomainError):
            eval_multilinear_extension(a, [0.5])

    def test_overflowing_sum_is_a_typed_validation_error(self):
        a = MobiusRepresentation(2, [1.5e308, 1.5e308, 0, 0])
        with pytest.raises(SumOverflow, match="exact sum of 4 terms passes the float range"):
            eval_multilinear_extension(a, [1.0, 1.0])

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300, 1e307])
    def test_sum_has_the_bits_of_fsum_over_the_list_of_terms(self, scale):
        # signed zeros included (float.hex keeps the sign); where that fsum
        # overflows, the extension raises SumOverflow
        rng = np.random.default_rng(17)
        for n in range(1, 13):
            coeff_tables = [
                rng.normal(size=1 << n) * scale,
                np.where(rng.random(1 << n) < 0.5, -0.0, 0.0),
                np.repeat([scale, -scale], 1 << (n - 1)),
            ]
            points = [
                np.zeros(n),
                np.ones(n),
                np.full(n, 1e-9),
                rng.random(n),
                rng.choice([0.0, 1.0, 1e-9, 0.5], size=n),
            ]
            for coeffs in coeff_tables:
                a = MobiusRepresentation(n, coeffs)
                for x in points:
                    terms = a.coeffs * subset_products(x)
                    try:
                        want = math.fsum(terms.tolist()).hex()
                    except OverflowError:
                        with pytest.raises(SumOverflow):
                            eval_multilinear_extension(a, x)
                        continue
                    assert eval_multilinear_extension(a, x).hex() == want


class TestSDifference:
    def test_empty_difference_is_identity(self):
        f = random_game(np.random.default_rng(5), 4)
        assert np.array_equal(s_difference(f, 0).values, f.values)

    def test_or_game_single_variable(self):
        f = PseudoBooleanFunction(2, OR_VALUES)
        d = s_difference(f, 0b01)
        # rows keyed by T - S: T={} -> f({1})-f({}) = 1, T={2} -> f({1,2})-f({2}) = 0
        assert d.values[0b00] == 1.0
        assert d.values[0b10] == 0.0
        # stored with the S-coordinate zeroed
        assert d.values[0b01] == d.values[0b00]
        assert d.values[0b11] == d.values[0b10]

    def test_grand_difference_of_top_unanimity(self):
        n = 5
        u = unanimity_game(n, (1 << n) - 1)
        d = s_difference(u, (1 << n) - 1)
        assert np.all(d.values == 1.0)

    def test_composes_over_disjoint_subsets(self):
        f = random_game(np.random.default_rng(6), 6)
        S, Sp = 0b000101, 0b110000
        left = s_difference(s_difference(f, S), Sp)
        right = s_difference(f, S | Sp)
        assert np.max(np.abs(left.values - right.values)) <= 1e-12

    def test_annihilates_functions_without_the_variable(self):
        # span{u_T : T inside S}: differencing on i outside S gives 0
        rng = np.random.default_rng(7)
        n, S = 5, 0b00111
        coeffs = np.zeros(1 << n)
        for T in subsets_of(S):
            coeffs[T] = rng.uniform(-1, 1)
        f = zeta(MobiusRepresentation(n, coeffs))
        for i in (3, 4):
            d = s_difference(f, 1 << i)
            assert np.max(np.abs(d.values)) <= 1e-12

    def test_matches_the_per_axis_loop_bit_for_bit(self):
        # the reference differences each bit of S, lowest first, and writes
        # the difference into both halves; -0.0 entries and worths near the
        # ends of the float range keep their bits
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            values = rng.uniform(-1, 1, 1 << n) * 10.0 ** int(rng.choice([-300, 0, 300]))
            values[rng.random(1 << n) < 0.2] = -0.0
            S = int(rng.integers(0, 1 << n))
            want = values.copy()
            for i in range(n):
                if S >> i & 1:
                    pairs = want.reshape(-1, 2, 1 << i)
                    pairs[:, 0, :] = pairs[:, 1, :] = pairs[:, 1, :] - pairs[:, 0, :]
            got = s_difference(PseudoBooleanFunction(n, values), S).values
            assert got.tobytes() == want.tobytes()


class TestSigma:
    def test_on_unanimity_games(self):
        n = 4
        for T in (0b0011, 0b1000, 0b1111):
            for S in (0b0001, 0b0110, 0b0000):
                got = sigma_s(unanimity_game(n, T), S)
                if S & T:
                    expected = unanimity_game(n, T & ~S).values
                else:
                    expected = np.zeros(1 << n)
                assert np.array_equal(got.values, expected)

    def test_empty_subset_gives_zero(self):
        f = random_game(np.random.default_rng(8), 4)
        assert np.all(sigma_s(f, 0).values == 0.0)

    def test_or_game_rows(self):
        f = PseudoBooleanFunction(2, OR_VALUES)
        g = sigma_s(f, 0b01)
        assert g.values.tolist() == [1, 1, 0, 0]

    def test_linearity(self):
        rng = np.random.default_rng(9)
        f, g = random_game(rng, 5), random_game(rng, 5)
        alpha, beta = 2.5, -0.75
        combined = PseudoBooleanFunction(5, alpha * f.values + beta * g.values)
        lhs = sigma_s(combined, 0b10101).values
        rhs = alpha * sigma_s(f, 0b10101).values + beta * sigma_s(g, 0b10101).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestUnanimity:
    def test_pair_game(self):
        assert unanimity_game(2, 0b11).values.tolist() == [0, 0, 0, 1]

    def test_empty_subset_is_constant_one(self):
        assert unanimity_game(2, 0).values.tolist() == [1, 1, 1, 1]

    def test_singleton_over_three_players(self):
        u = unanimity_game(3, 0b010)
        hits = [m for m in range(8) if u.values[m] == 1.0]
        assert hits == [0b010, 0b011, 0b110, 0b111]


class TestWeightedVoting:
    def test_quota_threshold(self):
        game = weighted_voting_game(3, [2, 2, 1])
        wins = [m for m in range(8) if game.values[m] == 1.0]
        assert wins == [0b011, 0b101, 0b110, 0b111]

    def test_rejects_non_finite_weights(self):
        with pytest.raises(ValidationError):
            weighted_voting_game(1, [np.inf, 1.0])

    def test_chunks_keep_every_tie(self, monkeypatch):
        # quotas at exact subset sums of fractional weights: each coalition's
        # sum must be the one a single product over all coalitions gives
        monkeypatch.setattr(core, "VOTING_CHUNK", 1 << 5)
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            w = rng.choice([0.1, 0.2, 0.3, 0.7, 1.1, 1 / 3, 2 / 7], size=n) * rng.choice([1, 3.7])
            member = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
            sums = member @ w
            quota = float(sums[int(rng.integers(0, 1 << n))])
            want = (sums >= quota).astype(np.float64)
            assert np.array_equal(weighted_voting_game(quota, w).values, want)

    def test_memory_stays_bounded_at_twenty_players(self):
        w = np.random.default_rng(42).random(20)
        tracemalloc.start()
        try:
            weighted_voting_game(float(w.sum() / 2), w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20


class TestValidation:
    def test_rejects_oversized_player_count(self):
        with pytest.raises(ValidationError):
            PseudoBooleanFunction(25, [0.0])  # n is checked before the table

    def test_rejects_bool_player_count(self):
        with pytest.raises(ValidationError):
            PseudoBooleanFunction(True, [0, 1])
        with pytest.raises(ValidationError):
            unanimity_game(False, 0)
        assert PseudoBooleanFunction(1, [0, 1]).n == 1

    def test_rejects_wrong_table_length(self):
        with pytest.raises(ValidationError):
            PseudoBooleanFunction(2, [0, 1, 1])

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValidationError):
            PseudoBooleanFunction(2, [0, 1, np.nan, 1])
        with pytest.raises(ValidationError):
            MobiusRepresentation(2, [0, np.inf, 0, 0])

    def test_rejects_mask_outside_lattice(self):
        f = PseudoBooleanFunction(2, OR_VALUES)
        with pytest.raises(ValidationError):
            sigma_s(f, 0b100)

    def test_rejects_bool_masks(self):
        f = PseudoBooleanFunction(2, OR_VALUES)
        for op in (sigma_s, s_difference):
            with pytest.raises(ValidationError):
                op(f, True)
            op(f, np.int64(1))  # numpy integers stay valid masks

    def test_tables_are_frozen(self):
        f = PseudoBooleanFunction(2, OR_VALUES)
        with pytest.raises(ValueError):
            f.values[0] = 9.0
