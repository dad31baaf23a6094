import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbindex import (
    DimensionError,
    PseudoBooleanFunction,
    ProbabilityProfile,
    SumOverflow,
    ValidationError,
    basis_function,
    best_s_approximation,
    covariance,
    expectation,
    g_function,
    g_std,
    inner_product,
    mobius,
    residual_norm,
    unanimity_game,
    variance,
)
from pbindex.measure import eval_multilinear_extension
from pbindex import measure
from pbindex.measure import FSUM_CHUNK, FSUM_SMALL, _fsum, multilinear_expectation
from helpers import brute_weight, random_game, random_profile

OR = PseudoBooleanFunction(2, [0, 1, 1, 1])


class TestProfile:
    def test_uniform_and_constant_builders(self):
        assert ProbabilityProfile.uniform(3).p.tolist() == [0.5, 0.5, 0.5]
        assert ProbabilityProfile.constant(2, 0.25).p.tolist() == [0.25, 0.25]

    def test_rejects_boundary_probabilities(self):
        for bad in ([0.0, 0.5], [0.5, 1.0], [-0.1, 0.5], [0.5, 1e-10]):
            with pytest.raises(ValidationError):
                ProbabilityProfile(bad)
        ProbabilityProfile([1e-9, 1 - 1e-9])  # the closed interval ends are fine

    def test_rejects_a_nan_entry(self):
        with pytest.raises(ValidationError) as info:
            ProbabilityProfile([0.5, math.nan])
        assert str(info.value) == "profile contains non-finite entries"

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            ProbabilityProfile(np.full((2, 2), 0.5))
        with pytest.raises(ValidationError):
            ProbabilityProfile(np.full(25, 0.5))

    def test_player_cap_follows_max_players(self, monkeypatch):
        monkeypatch.setattr(measure, "MAX_PLAYERS", 3)
        ProbabilityProfile(np.full(3, 0.5))
        with pytest.raises(ValidationError, match="3-player cap"):
            ProbabilityProfile(np.full(4, 0.5))

    def test_weights_cached_and_frozen(self):
        p = random_profile(np.random.default_rng(0), 5)
        w = p.weights()
        assert w is p.weights()
        with pytest.raises(ValueError):
            w[0] = 1.0


class TestCoalitionWeight:
    def test_uniform_profile_is_flat(self):
        p = ProbabilityProfile.uniform(4)
        for T in range(16):
            assert p.weights()[T] == 0.5**4

    def test_two_player_product(self):
        p = ProbabilityProfile([0.3, 0.8])
        assert p.weights()[0b01] == pytest.approx(0.3 * 0.2, abs=1e-15)

    def test_weights_sum_to_one(self):
        p = random_profile(np.random.default_rng(1), 10)
        w = p.weights()
        assert np.all(w >= 0)
        assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-12

    def test_scalar_matches_table(self):
        p = random_profile(np.random.default_rng(2), 6)
        w = p.weights()
        for T in range(64):
            assert w[T] == pytest.approx(brute_weight(p.p, T, 6), abs=1e-15)


class TestInnerProduct:
    def test_against_constant_one_is_expectation(self):
        rng = np.random.default_rng(3)
        f = random_game(rng, 5)
        p = random_profile(rng, 5)
        ones = PseudoBooleanFunction(5, np.ones(32))
        assert inner_product(p, f, ones) == expectation(p, f)

    def test_uniform_singleton_basis_is_normed(self):
        p = ProbabilityProfile.uniform(2)
        v1 = basis_function(p, 0b01)
        assert inner_product(p, v1, v1) == pytest.approx(1.0, abs=1e-14)

    def test_orthonormality_at_random_profiles(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 8):
            p = random_profile(rng, n)
            for _ in range(30):
                T, R = rng.integers(0, 1 << n, size=2)
                v_t = basis_function(p, int(T))
                v_r = basis_function(p, int(R))
                want = 1.0 if T == R else 0.0
                assert inner_product(p, v_t, v_r) == pytest.approx(want, abs=1e-10)

    def test_dimension_mismatch(self):
        p = ProbabilityProfile.uniform(3)
        with pytest.raises(DimensionError):
            inner_product(p, OR, OR)


class TestBasisFunction:
    def test_empty_subset_is_constant_one(self):
        p = random_profile(np.random.default_rng(5), 4)
        assert np.all(basis_function(p, 0).values == 1.0)

    def test_uniform_single_player(self):
        p = ProbabilityProfile.uniform(1)
        assert basis_function(p, 0b1).values.tolist() == [-1.0, 1.0]

    def test_normed_for_every_subset(self):
        rng = np.random.default_rng(6)
        p = random_profile(rng, 6)
        for T in range(64):
            v = basis_function(p, T)
            assert inner_product(p, v, v) == pytest.approx(1.0, abs=1e-10)


class TestExpectation:
    def test_or_game_closed_form(self):
        p = ProbabilityProfile([0.3, 0.8])
        assert expectation(p, OR) == pytest.approx(0.3 + 0.8 - 0.24, abs=1e-14)

    def test_constant_game(self):
        p = random_profile(np.random.default_rng(7), 4)
        f = PseudoBooleanFunction(4, np.full(16, -2.25))
        assert expectation(p, f) == pytest.approx(-2.25, abs=1e-13)

    def test_unanimity_games(self):
        rng = np.random.default_rng(8)
        p = random_profile(rng, 5)
        for T in (0, 0b00101, 0b11111):
            want = math.prod(p.p[i] for i in range(5) if T >> i & 1)
            assert expectation(p, unanimity_game(5, T)) == pytest.approx(want, abs=1e-14)

    def test_agrees_with_multilinear_extension(self):
        rng = np.random.default_rng(9)
        for n in (3, 7):
            f = random_game(rng, n)
            p = random_profile(rng, n)
            via_mle = eval_multilinear_extension(mobius(f), p.p)
            assert abs(expectation(p, f) - via_mle) <= 1e-10
            assert multilinear_expectation(p, f) == via_mle

    def test_multilinear_route_overflow_is_typed(self):
        # worths within range, but the Mobius terms 0.9e308 + 0.9e308 - 0.81e308 overflow midway
        f = PseudoBooleanFunction(2, [0.0, 1e308, 1e308, 1e308])
        with pytest.raises(SumOverflow, match="exact sum of 4 terms passes the float range"):
            multilinear_expectation(ProbabilityProfile.constant(2, 0.9), f)


class TestCovariance:
    def test_constant_is_uncorrelated(self):
        rng = np.random.default_rng(10)
        f = random_game(rng, 4)
        p = random_profile(rng, 4)
        ones = PseudoBooleanFunction(4, np.full(16, 7.0))
        assert abs(covariance(p, f, ones)) <= 1e-12

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_game(rng, 5)
            p = random_profile(rng, 5)
            assert variance(p, f) >= 0.0

    def test_variance_of_contrast_function_closed_form(self):
        rng = np.random.default_rng(12)
        p = random_profile(rng, 6, lo=0.1, hi=0.9)
        for S in (0b000001, 0b001101, 0b111111):
            g = g_function(S, p)
            assert covariance(p, g, g) == pytest.approx(g_std(S, p) ** 2, rel=1e-10)


class TestPowerOfTwoScale:
    def test_sums_of_products_scale_exactly_or_fail_validation(self):
        rng = np.random.default_rng(14)
        f = random_game(rng, 3)
        p = ProbabilityProfile([0.2, 0.5, 0.7])
        sums = {
            "variance": lambda g: variance(p, g),
            "inner product": lambda g: inner_product(p, g, g),
            "residual": lambda g: residual_norm(g, best_s_approximation(g, 0b001, p), p),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, of in sums.items():
                plain = of(f)
                # at k = 512 the squares pass 2**1023, so the sum is taken scaled
                for k in (40, 300, 512):
                    assert of(PseudoBooleanFunction(3, np.ldexp(f.values, k))) == math.ldexp(plain, 2 * k)
                with pytest.raises(ValidationError, match=f"the {name} is beyond the float range"):
                    of(PseudoBooleanFunction(3, np.ldexp(f.values, 1000)))


class TestParseval:
    def test_energy_identity(self):
        rng = np.random.default_rng(13)
        for n in (3, 6, 8):
            f = random_game(rng, n)
            p = random_profile(rng, n)
            total = inner_product(p, f, f)
            coeffs = [inner_product(p, f, basis_function(p, T)) for T in range(1 << n)]
            assert math.fsum(c * c for c in coeffs) == pytest.approx(total, rel=1e-9)


def _float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_sum(terms: np.ndarray) -> None:
    """_fsum(terms) has the bits of math.fsum(terms.tolist()) (sign of zero and
    nan included), or both raise the same exception type."""
    try:
        want = math.fsum(terms.tolist())
    except (OverflowError, ValueError) as exc:  # intermediate overflow, inf - inf
        with pytest.raises(type(exc)):
            _fsum(terms)
        return
    assert _float_bits(_fsum(terms)) == _float_bits(want)


# sizes around the extraction threshold and the block boundaries
SIZES = [
    FSUM_SMALL - 1, FSUM_SMALL, FSUM_SMALL + 1,
    FSUM_CHUNK - 1, FSUM_CHUNK, FSUM_CHUNK + 1,
    FSUM_CHUNK + FSUM_SMALL + 1,
    2 * FSUM_CHUNK - 1, 2 * FSUM_CHUNK, 2 * FSUM_CHUNK + 1, 6 * FSUM_CHUNK + 7,
]
SPECIALS = [math.inf, -math.inf, math.nan, 1e308, -1e308, 1.7976931348623157e308, 5e-324, -0.0]


class TestChunkedFsum:
    @pytest.mark.parametrize("size", SIZES)
    def test_bitwise_equal_to_one_list(self, size):
        rng = np.random.default_rng(size)
        assert_same_sum(rng.random(size))
        assert_same_sum(rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size))

    @pytest.mark.parametrize("size", SIZES)
    def test_exponents_over_the_whole_range(self, size):
        rng = np.random.default_rng(size + 1)
        for lo, hi in ((-1074, 1025), (-1074, -1000), (-1030, -1010), (1000, 1025)):
            # mantissas in (-1, 1) times 2**e, subnormals up to the top binade;
            # the sums overflow in math.fsum, or not, alike
            assert_same_sum(np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(lo, hi, size)))
        assert_same_sum(np.full(size, 5e-324))
        assert_same_sum(np.resize([1e308, -1e308, 1e308], size))
        assert_same_sum(np.resize([1e308, 1e308, -1e308], size))

    @pytest.mark.parametrize("special", SPECIALS)
    def test_special_values(self, special):
        rng = np.random.default_rng(7)
        for size in (FSUM_SMALL + 1, 2 * FSUM_CHUNK + 3):
            terms = rng.standard_normal(size)
            for at in (0, size // 2, size - 1):
                spiked = terms.copy()
                spiked[at] = special
                assert_same_sum(spiked)
        assert_same_sum(np.resize([math.inf, -math.inf], FSUM_CHUNK + 2))  # inf - inf
        assert_same_sum(np.full(FSUM_SMALL + 1, -0.0))
        assert_same_sum(np.zeros(2 * FSUM_CHUNK))

    @pytest.mark.parametrize("size", [3, FSUM_SMALL + 1, 2 * FSUM_CHUNK + 1])
    def test_overflow_is_a_typed_validation_error(self, size):
        with pytest.raises(SumOverflow, match=f"exact sum of {size} terms passes the float range"):
            _fsum(np.full(size, 1e308))
        assert issubclass(SumOverflow, ValidationError) and issubclass(SumOverflow, OverflowError)

    def test_cancellation_across_a_chunk_boundary(self):
        terms = np.zeros(FSUM_CHUNK + 2)
        terms[FSUM_CHUNK - 1] = 1e100
        terms[FSUM_CHUNK] = 1.0
        terms[FSUM_CHUNK + 1] = -1e100
        assert _fsum(terms) == math.fsum(terms.tolist()) == 1.0
        rng = np.random.default_rng(9)
        half = rng.standard_normal(FSUM_CHUNK + FSUM_SMALL) * 10.0 ** rng.integers(-30, 30)
        terms = np.concatenate([half, -half[::-1]])
        assert _float_bits(_fsum(terms)) == _float_bits(0.0)
        terms[FSUM_CHUNK] += 2.0**-60  # a last bit that only an exact sum keeps
        assert_same_sum(terms)

    def test_empty_and_strided_input(self):
        assert _fsum(np.zeros(0)) == 0.0
        terms = np.random.default_rng(1).standard_normal(2 * FSUM_CHUNK + 3)[::2]
        assert _fsum(terms) == math.fsum(terms.tolist())
        rng = np.random.default_rng(8)
        terms = np.ldexp(rng.uniform(-1.0, 1.0, 3 * FSUM_CHUNK), rng.integers(-1074, 1000, 3 * FSUM_CHUNK))
        for view in (terms[1::3], terms[::-1], terms[::-7]):
            assert_same_sum(view)

    def test_extraction_leaves_few_terms_for_math_fsum(self):
        block = np.random.default_rng(10).random(FSUM_CHUNK)
        parts = measure._extract(block)
        assert len(parts) <= FSUM_SMALL + 8
        assert math.fsum(parts) == math.fsum(block.tolist())

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.sampled_from(SIZES) | st.integers(0, 3 * FSUM_CHUNK),
        exponents=st.tuples(st.integers(-1074, 1024), st.integers(-1074, 1024)),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(SPECIALS)), max_size=3),
        mirrored=st.booleans(),
        step=st.sampled_from([1, 1, 2, 3, -1]),
    )
    def test_property_same_bits_as_math_fsum(self, size, exponents, seed, specials, mirrored, step):
        rng = np.random.default_rng(seed)
        lo, hi = sorted(exponents)
        terms = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(lo, hi + 1, size))
        if mirrored:  # cancels exactly, across a block boundary when large
            terms = np.concatenate([terms, -terms[::-1]])
        for where, value in specials:
            if terms.size:
                terms[min(int(where * terms.size), terms.size - 1)] = value
        assert_same_sum(terms[::step])


def test_math_fsum_is_called_in_measure_only():
    # one exact-sum path: every other module sums through measure._fsum
    users = [
        path.name
        for path in sorted(Path(measure.__file__).parent.glob("*.py"))
        if re.search(r"\bfsum\b", path.read_text(encoding="utf-8"))
    ]
    assert users == ["measure.py"]
