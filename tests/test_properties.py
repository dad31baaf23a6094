"""Property tests: the whole-lattice index tables against the per-subset routes,
the four influence routes against each other, the inner-product route
against the dense inner product, the projections against
the dense basis, the Monte Carlo oracle's batched multilinear extension
against the exact-sum evaluation at one point, and the sums over the masks
meeting S against the whole-lattice selection of those masks.

Games have n <= 9 players and worths in [-100, 100]; profiles range over the
whole admissible interval [1e-9, 1 - 1e-9].  Values are compared with the
tolerance 1e-9 * max(1, |ref|) that the benchmark gate and the CLI's 12
printed digits use, or 1e-9 * max(1, max |f|) where the reference is a
difference or a coefficient and so may be far smaller than the game.
The extension property draws Mobius tables with n <= 10 and coefficients in
[-1e4, 1e4] and compares within 1e-12 * max(1, sum |a|).  The meeting-S sums
draw n <= 11 and worths up to 1e308 and must match bit for bit.  The CDF
oracle's table of sigma_S f over the players outside S draws n <= 10 and
worths in [-100, 100] times 10^-6, 1 or 10^6: it must equal the entries of
the whole-lattice table bit for bit, and its estimate must match the
whole-lattice evaluation of the same draws within 1e-12 * max(1, sum |a|).
The best S-approximation, which folds the axes outside S away, draws n <= 10
and worths u times 10^-6 or 10^6, or 1e6 + 1e-6 u, with u in [-1, 1]: its
coefficients and the projection route's influence must have the bits of the
whole-lattice Fourier table and of the approximant's whole table.
"""

import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pbindex import (
    DegenerateFunction,
    MobiusRepresentation,
    PseudoBooleanFunction,
    ProbabilityProfile,
    ValidationError,
    banzhaf_influence,
    banzhaf_interaction,
    basis_function,
    best_k_approximation,
    best_s_approximation,
    eval_multilinear_extension,
    g_function,
    index_report,
    inner_product,
    interaction_table,
    normalized_influence,
    shapley_generalized_value,
    sigma_s,
    subsets_of,
)
from pbindex import indices, oracle
from pbindex.approx import fourier_table
from pbindex.core import mobius, submasks, subset_products
from pbindex.measure import INTERIOR_EPS

REL_TOL = 1e-9
MAX_N = 9
TABLE_BUILDERS = ("_interaction_values", "_influence_values", "_shapley_values")

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def games(draw):
    n = draw(st.integers(1, MAX_N))
    worths = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    values = draw(arrays(np.float64, 1 << n, elements=worths))
    probs = st.floats(INTERIOR_EPS, 1.0 - INTERIOR_EPS, allow_nan=False)
    p = draw(arrays(np.float64, n, elements=probs))
    return PseudoBooleanFunction(n, values), ProbabilityProfile(p)


def _masks(n):
    return st.integers(0, (1 << n) - 1)


def _close(got, ref):
    return abs(got - ref) <= REL_TOL * max(1.0, abs(ref))


def _game_tol(f):
    return REL_TOL * max(1.0, float(np.max(np.abs(f.values))))


def _agrees_on_prefix(a, b):
    # b's first len(a) subsets and their NaN correlations are a's, and every other value is close
    k = a.subsets.size
    if b.subsets[:k].tolist() != a.subsets.tolist():
        return False
    if np.isnan(b.correlation[:k]).tolist() != np.isnan(a.correlation).tolist():
        return False
    return all(
        _close(x, y)
        for name in ("interaction", "influence", "shapley", "correlation")
        for x, y in zip(getattr(a, name).tolist(), getattr(b, name)[:k].tolist())
        if not np.isnan(x)
    )


@SETTINGS
@given(data=st.data(), game=games())
def test_table_route_matches_per_subset_references(data, game):
    f, p = game
    subsets = data.draw(st.lists(_masks(f.n), max_size=12))
    # every mask of the lattice: 2**n > n distinct subsets takes the tables
    report = index_report(f, p, list(range(1 << f.n)))
    for S in subsets:
        assert _close(report.interaction[S], banzhaf_interaction(f, S, p))
        assert _close(report.influence[S], banzhaf_influence(f, S, p, method="average"))
        assert _close(report.shapley[S], shapley_generalized_value(f, S))
        r = report.correlation[S]
        if S == 0:
            assert report.influence[S] == 0.0 and np.isnan(r)
            continue
        try:
            ref = normalized_influence(f, S, p)
        except DegenerateFunction:
            assert np.isnan(r)
        else:
            assert _close(r, ref)


@SETTINGS
@given(data=st.data(), game=games())
def test_report_agrees_across_the_routing_threshold(data, game):
    f, p = game
    subsets = data.draw(st.lists(_masks(f.n), min_size=f.n + 1, max_size=f.n + 1, unique=True))
    with mock.patch.object(indices, "_shapley_values", wraps=indices._shapley_values) as spy:
        below = index_report(f, p, subsets[:-1])  # n subsets: per subset
        assert spy.call_count == 0
        above = index_report(f, p, subsets)  # n + 1 subsets: tables
        assert spy.call_count == 1
    assert _agrees_on_prefix(below, above)


@SETTINGS
@given(game=games())
def test_interaction_table_matches_every_subset(game):
    f, p = game
    table = interaction_table(f, p)
    assert table.shape == (1 << f.n,)
    for S, value in enumerate(table.tolist()):
        assert _close(value, banzhaf_interaction(f, S, p))


@SETTINGS
@given(data=st.data(), game=games())
def test_bad_masks_raise_before_any_table(data, game):
    f, p = game
    subsets = data.draw(st.lists(_masks(f.n), min_size=f.n + 1, max_size=f.n + 4))
    bad = data.draw(st.one_of(st.integers(1 << f.n, 1 << 30), st.integers(-(1 << 30), -1), st.just(True)))
    subsets.insert(data.draw(st.integers(0, len(subsets))), bad)
    with mock.patch.multiple(
        indices, **{name: mock.DEFAULT for name in TABLE_BUILDERS}
    ) as builders:
        with pytest.raises(ValidationError):
            index_report(f, p, subsets)
    assert all(builder.call_count == 0 for builder in builders.values())


@SETTINGS
@given(data=st.data(), game=games())
def test_influence_routes_agree(data, game):
    f, p = game
    S = data.draw(_masks(f.n))
    vals = [banzhaf_influence(f, S, p, method=m) for m in indices.INFLUENCE_METHODS]
    assert max(vals) - min(vals) <= _game_tol(f)


@SETTINGS
@given(data=st.data(), game=games())
def test_inner_product_route_sums_the_support_of_g_exactly(data, game):
    # the terms left out are exact zeros, so the fsum is bitwise the dense one
    f, p = game
    S = data.draw(_masks(f.n))
    got = banzhaf_influence(f, S, p, method="inner-product")
    assert got == inner_product(p, f, g_function(S, p))


@SETTINGS
@given(data=st.data(), game=games())
def test_projection_coefficients_are_basis_inner_products(data, game):
    f, p = game
    S = data.draw(_masks(f.n))
    approx = best_s_approximation(f, S, p)
    assert approx.keys.tolist() == list(subsets_of(S))
    for T, c in zip(approx.keys.tolist(), approx.fourier.tolist()):
        assert abs(c - inner_product(p, f, basis_function(p, T))) <= _game_tol(f)


@SETTINGS
@given(game=games())
def test_full_degree_projection_reproduces_the_game(game):
    f, p = game
    table = best_k_approximation(f, f.n, p).table().values
    assert np.max(np.abs(table - f.values)) <= _game_tol(f)


@SETTINGS
@given(data=st.data(), n=st.integers(1, 10))
def test_batched_extension_matches_the_pointwise_sum(data, n):
    coeff = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    a = MobiusRepresentation(n, data.draw(arrays(np.float64, 1 << n, elements=coeff)))
    m = data.draw(st.integers(1, 8))
    interior = data.draw(arrays(np.float64, (m, n), elements=st.floats(0.0, 1.0)))
    corners = data.draw(arrays(np.float64, (m, n), elements=st.sampled_from([0.0, 1.0])))
    points = np.vstack([interior, corners])
    got = oracle._eval_extension_batch(a, points)
    want = [eval_multilinear_extension(a, x) for x in points]
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.sum(np.abs(a.coeffs))))


def _outcome(call):
    # the value's bits (signed zeros count) or the exception's type
    try:
        return float.hex(call())
    except OverflowError:  # math.fsum's own, or the package's SumOverflow
        return "OverflowError"
    except Exception as exc:  # the type is what is compared
        return type(exc).__name__


def _lattice_sum(name, f, S, p):
    """The selection these sums used before the lattice split: every mask of the
    lattice that meets S, in ascending order, summed by math.fsum."""
    a = mobius(f).coeffs
    masks = np.arange(1 << f.n)
    sel = (masks & S) != 0
    outside = np.bitwise_count((masks & ~S)[sel].astype(np.uint32)).astype(np.float64)
    if name == "mobius":
        prods = subset_products([1.0 if S >> i & 1 else p.p[i] for i in range(f.n)])
        terms = a[sel] * prods[sel]
    elif name == "shapley":
        terms = a[sel] / (outside + 1.0)
    else:
        terms = a[sel] * 0.5**outside
    return math.fsum(terms.tolist())


SPLIT_SUMS = {
    "mobius": lambda f, S, p: banzhaf_influence(f, S, p, method="mobius"),
    "shapley": lambda f, S, p: shapley_generalized_value(f, S),
    "cube": lambda f, S, p: oracle.cube_average(f, S),
}


@SETTINGS
@given(data=st.data(), n=st.integers(1, 11), seed=st.integers(0, 2**32 - 1))
def test_meeting_sums_equal_the_whole_lattice_selection(data, n, seed):
    rng = np.random.default_rng(seed)
    scale = data.draw(st.sampled_from([1e-300, 1.0, 1e6, 1e300, 1e306]))
    f = PseudoBooleanFunction(n, rng.uniform(-100.0, 100.0, 1 << n) * scale)
    edge = st.sampled_from([INTERIOR_EPS, 1.0 - INTERIOR_EPS])
    probs = st.one_of(edge, st.floats(INTERIOR_EPS, 1.0 - INTERIOR_EPS))
    p = ProbabilityProfile(data.draw(arrays(np.float64, n, elements=probs)))
    S = data.draw(st.one_of(st.just(0), st.just((1 << n) - 1), _masks(n)))
    for name, call in SPLIT_SUMS.items():
        assert _outcome(lambda: call(f, S, p)) == _outcome(lambda: _lattice_sum(name, f, S, p))


def test_meeting_sums_take_the_ascending_order_where_it_matters():
    # near the float range math.fsum's intermediate overflow depends on the
    # order of the terms: listed row by row (D, then R) these overflow, while
    # in ascending mask order, as the lattice selection lists them, they sum
    f = PseudoBooleanFunction(3, [
        7.769797738230004e307, 2.6298303452323337e307, -2.8727090724685714e307,
        5.656488011398597e306, -5.469992086352729e307, 5.550882477634107e307,
        -6.59842996770267e307, 1.5439589797318142e307,
    ])
    S = 0b101
    D, R = np.array([0, 2]), np.array([1, 4, 5])
    halves = 0.5 ** np.bitwise_count(D).astype(np.float64)
    with pytest.raises(OverflowError):
        math.fsum((mobius(f).coeffs[D[:, None] | R] * halves[:, None]).ravel().tolist())
    assert oracle.cube_average(f, S) == _lattice_sum("cube", f, S, ProbabilityProfile.uniform(3))


@SETTINGS
@given(data=st.data(), n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_cdf_oracle_table_is_the_whole_lattice_table_outside_s(data, n, seed):
    rng = np.random.default_rng(seed)
    scale = data.draw(st.sampled_from([1e-6, 1.0, 1e6]))
    f = PseudoBooleanFunction(n, rng.uniform(-100.0, 100.0, 1 << n) * scale)
    edge = st.sampled_from([INTERIOR_EPS, 1.0 - INTERIOR_EPS])
    probs = st.one_of(edge, st.floats(INTERIOR_EPS, 1.0 - INTERIOR_EPS))
    p = ProbabilityProfile(data.draw(arrays(np.float64, n, elements=probs)))
    one_bit = st.integers(0, n - 1).map(lambda i: 1 << i)
    S = data.draw(st.one_of(one_bit, _masks(n), st.just((1 << n) - 1)))

    whole = mobius(sigma_s(f, S)).coeffs
    meets = (np.arange(1 << n) & S) != 0
    assert not whole[meets].any()
    assert whole[~meets].tobytes() == oracle._switch_mobius(f, S).tobytes()

    samples = 1000
    points = np.random.default_rng(seed).beta(2.0 * p.p, 2.0 * (1.0 - p.p), size=(samples, n))
    draws = oracle._eval_extension_batch(MobiusRepresentation(n, whole), points)
    want = oracle._make_estimate(draws).mean
    got = oracle.cdf_integral_check(f, S, p, samples, seed).mean
    assert abs(got - want) <= 1e-12 * max(1.0, float(np.sum(np.abs(whole))))


WORTHS = {
    "tiny": lambda u: u * 1e-6,
    "huge": lambda u: u * 1e6,
    "nearly constant": lambda u: 1e6 + 1e-6 * u,
}


@SETTINGS
@given(data=st.data(), n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_folded_projection_has_the_bits_of_the_whole_lattice(data, n, seed):
    rng = np.random.default_rng(seed)
    worths = WORTHS[data.draw(st.sampled_from(sorted(WORTHS)))]
    f = PseudoBooleanFunction(n, worths(rng.uniform(-1.0, 1.0, 1 << n)))
    edge = st.sampled_from([INTERIOR_EPS, 1.0 - INTERIOR_EPS])
    probs = st.one_of(edge, st.floats(INTERIOR_EPS, 1.0 - INTERIOR_EPS))
    p = ProbabilityProfile(data.draw(arrays(np.float64, n, elements=probs)))
    one_bit = st.integers(0, n - 1).map(lambda i: 1 << i)
    S = data.draw(st.one_of(st.just(0), one_bit, _masks(n), st.just((1 << n) - 1)))

    approx = best_s_approximation(f, S, p)
    assert approx.fourier.tobytes() == fourier_table(f, p)[submasks(S)].tobytes()
    t = approx.table().values
    got = banzhaf_influence(f, S, p, method="projection")
    assert np.float64(got).tobytes() == np.float64(t[S] - t[0]).tobytes()
