"""Banzhaf-type power, interaction and influence indexes.

For a game f, a coalition S and a profile p, the two central quantities are

    interaction   I_{B,p}(f,S)   = sum_{T superseteq S} a(T) prod_{i in T-S} p_i
    influence     Phi_{B,p}(f,S) = sum_{T : T meets S} a(T) prod_{i in T-S} p_i

where a is the Mobius transform of f.  The influence index equals the endpoint
gap f_{S,p}(S) - f_{S,p}(0) of the best S-approximation, the expectation of the
switch operator E[(sigma_S f)(C)], the inner product <f, g_{S,p}>, and a
generalized value sum_{T subseteq N-S} p_T^S (f(T u S) - f(T)); all four routes
are implemented and kept as first-class methods because their agreement is the
whole point of the construction.  Every per-subset sum lists its terms
T = D | R, D inside N - S and R inside S, by ``core.split_submasks``.

Also here: the Shapley generalized value, the Ben-Or-Linial influence, the
conversions between the two coefficient forms of a generalized value, the
normalized (correlation) influence index, reconstruction of a game from its
full interaction table, and whole-lattice tables that give I, Phi and the
Shapley value of all 2**n subsets from per-axis maps of the game table, for
reports over many subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .approx import best_s_approximation
from .core import (
    Coalition,
    PseudoBooleanFunction,
    axis_map_inplace,
    check_mask,
    mobius,
    product_table,
    split_submasks,
    submasks,
    subset_products,
)
from .errors import (
    DegenerateFunction,
    EmptySubset,
    IncompleteTable,
    InvalidCoefficients,
    PbindexError,
    ValidationError,
)
from .measure import (
    ProbabilityProfile,
    _check_same_n,
    _fsum,
    _fsum_split,
    _scale_exponent,
    _weighted_product_sum,
    covariance,
    expectation,
    variance,
)

INFLUENCE_METHODS = ("mobius", "projection", "average", "inner-product")

# sigma(f) at or below this is treated as a constant function
DEGENERACY_EPS = 1e-12


def _comp_weights(S: Coalition, profile: ProbabilityProfile) -> np.ndarray:
    """Pr(C - S = D) = prod_{i in D} p_i prod_{i in N-S-D} (1-p_i), D as in ``split_submasks``."""
    p = profile.p.tolist()
    return product_table([(1.0 - p[i], p[i]) for i in range(profile.n) if not S >> i & 1])


def banzhaf_interaction(
    f: PseudoBooleanFunction, S: Coalition, profile: ProbabilityProfile
) -> float:
    """Weighted Banzhaf interaction index, via the Mobius transform of f.

    Equals E[(Delta_S f)(C)] and the leading (u_S) coefficient of the best
    S-approximation.  For S = 0 it degenerates to E[f(C)].
    """
    _check_same_n(profile, f)
    check_mask(S, f.n)
    D, _ = split_submasks(S, f.n)
    terms = mobius(f).coeffs[D | S]  # gathered before the products: a table less at the peak
    terms *= subset_products([pi for i, pi in enumerate(profile.p.tolist()) if not S >> i & 1])
    return _fsum(terms)


def g_function(S: Coalition, profile: ProbabilityProfile) -> PseudoBooleanFunction:
    """The contrast function g_{S,p}(x) = prod_{i in S} x_i/p_i - prod_{i in S} (1-x_i)/(1-p_i).

    Representer of the influence index: Phi_{B,p}(f,S) = <f, g_{S,p}>.  Its
    expectation under C is 0, and g_{S,p} vanishes identically for S = 0.
    """
    check_mask(S, profile.n)
    return PseudoBooleanFunction(profile.n, _g_values(S, profile, np.arange(1 << profile.n)))


def _g_levels(S: Coalition, profile: ProbabilityProfile):
    """(prod_{i in S} 1/p_i, prod_{i in S} 1/(1-p_i)): g_{S,p} is the first on
    T superseteq S, minus the second on T disjoint from S, and 0 elsewhere."""
    bits = [i for i in range(profile.n) if S >> i & 1]
    inv_p = math.prod(1.0 / profile.p[i] for i in bits)
    inv_q = math.prod(1.0 / (1.0 - profile.p[i]) for i in bits)
    return inv_p, inv_q


def _g_values(S: Coalition, profile: ProbabilityProfile, masks: np.ndarray) -> np.ndarray:
    inv_p, inv_q = _g_levels(S, profile)
    return ((masks & S) == S) * inv_p - ((masks & S) == 0) * inv_q


def _influence_mobius(f, S, profile):
    # sum over T = D | R meeting S (R != 0) of a(T) prod_{i in D} p_i, as in banzhaf_interaction
    D, R = split_submasks(S, f.n)
    prods = subset_products([pi for i, pi in enumerate(profile.p.tolist()) if not S >> i & 1])
    return _fsum_split(mobius(f).coeffs.take(D[:, None] | R[1:]) * prods[:, None], D, R[1:])


def _influence_projection(f, S, profile):
    tab = best_s_approximation(f, S, profile).table().values
    return float(tab[S] - tab[0])


def _influence_average(f, S, profile):
    D, _ = split_submasks(S, f.n)
    return _fsum(_comp_weights(S, profile) * (f.values[D | S] - f.values[D]))


def _influence_inner_product(f, S, profile):
    # <f, g_{S,p}> over the support of g_{S,p} only: the T that contain S or
    # miss it.  The dropped terms are exact zeros, which leave the correctly
    # rounded sum unchanged, so this equals the dense inner product bitwise.
    D, _ = split_submasks(S, f.n)
    T = np.concatenate([D | S, D])
    return _fsum(profile.weights()[T] * f.values[T] * _g_values(S, profile, T))


_INFLUENCE_DISPATCH = {
    "mobius": _influence_mobius,
    "projection": _influence_projection,
    "average": _influence_average,
    "inner-product": _influence_inner_product,
}


def banzhaf_influence(
    f: PseudoBooleanFunction,
    S: Coalition,
    profile: ProbabilityProfile,
    method: str = "mobius",
) -> float:
    """Weighted Banzhaf influence index Phi_{B,p}(f,S).

    The four methods are mathematically equivalent and agree to rounding:

    * ``mobius``         sum over T meeting S of a(T) prod_{i in T-S} p_i
    * ``projection``     f_{S,p}(S) - f_{S,p}(0) from the best S-approximation
    * ``average``        weighted average of marginal contributions f(T u S)-f(T)
    * ``inner-product``  <f, g_{S,p}>

    ``mobius`` is the default (cheapest); the others stay public because the
    equivalence is load-bearing and exercised by the verification suite.
    """
    _check_same_n(profile, f)
    check_mask(S, f.n)
    try:
        route = _INFLUENCE_DISPATCH[method]
    except KeyError:
        raise ValidationError(
            f"unknown method {method!r}, expected one of {INFLUENCE_METHODS}"
        ) from None
    return route(f, S, profile)


def influence_interaction_expansion(
    f: PseudoBooleanFunction, S: Coalition, profile: ProbabilityProfile
) -> float:
    """Influence written as a combination of interaction indexes over T inside S.

    Phi_{B,p}(f,S) = sum_{T subseteq S} I_{B,p}(f,T)
                     * (prod_{i in T}(1-p_i) - (-1)^{|T|} prod_{i in T} p_i).

    At the uniform profile every even-|T| weight vanishes and the odd ones
    become (1/2)^(|T|-1).
    """
    _check_same_n(profile, f)
    check_mask(S, f.n)
    # weights of the submasks T of S, ascending; negated p_i flip the sign exactly
    p = [pi for i, pi in enumerate(profile.p.tolist()) if S >> i & 1]
    weights = product_table([(1.0, 1.0 - pi) for pi in p]) - product_table([(1.0, -pi) for pi in p])
    interactions = np.array([banzhaf_interaction(f, T, profile) for T in submasks(S).tolist()])
    return math.fsum((interactions * weights).tolist())


def shapley_generalized_value(f: PseudoBooleanFunction, S: Coalition) -> float:
    """Shapley generalized value sum_{T meets S} a(T) / (|T - S| + 1).

    Also the average over p in (0,1) of the influence index at the constant
    profile (p, ..., p).
    """
    check_mask(S, f.n)
    D, R = split_submasks(S, f.n)
    divisors = np.bitwise_count(D) + 1.0  # |T - S| + 1, float64
    return _fsum_split(mobius(f).coeffs.take(D[:, None] | R[1:]) / divisors[:, None], D, R[1:])


def ben_or_linial_influence(f: PseudoBooleanFunction, S: Coalition) -> float:
    """Expected max-minus-min spread of f over assignments to S.

    (1/2^(n-|S|)) sum_{T subseteq N-S} (max_{R subseteq S} f(T u R)
                                        - min_{R subseteq S} f(T u R)).
    For games nondecreasing in every variable this equals the influence index
    at the uniform profile.
    """
    check_mask(S, f.n)
    D, R = split_submasks(S, f.n)
    grid = f.values[D[:, None] | R]
    spread = grid.max(axis=1) - grid.min(axis=1)
    return _fsum(spread) / float(len(D))


# ---------------------------------------------------------------------------
# generalized-value coefficient tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeneralizedValueCoefficients:
    """Coefficients of a generalized value G(f,S), in one of two forms.

    ``table`` is a read-only float64 array over all 2**n masks, 0.0 off the
    support of its form.  ``kind="p"``: T subseteq N-S, with
        G(f,S) = sum_T p_T^S (f(T u S) - f(T)).
    ``kind="q"``: R meeting S, with G(f,S) = sum_R q_R^S a(R).
    A q-form comes from a p-form iff its values depend only on R - S.
    """

    n: int
    subset: Coalition
    kind: str
    table: np.ndarray

    def __post_init__(self):
        check_mask(self.subset, self.n)
        if self.kind not in ("p", "q"):
            raise ValidationError(f"kind must be 'p' or 'q', got {self.kind!r}")
        t = self.table
        if not (isinstance(t, np.ndarray) and t.dtype == np.float64 and t.shape == (1 << self.n,)):
            raise ValidationError(f"{self.kind}-form table needs a float64 array of 2**{self.n}")
        meets = (np.arange(1 << self.n) & self.subset) != 0
        bad = ~np.isfinite(t) | ((meets if self.kind == "p" else ~meets) & (t != 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(
                f"{self.kind}-form table for S={self.subset:#b} holds {float(t[k])!r} at {k:#b}: "
                "entries must be finite, and 0.0 off the support"
            )
        t.setflags(write=False)


def influence_value_coefficients(
    S: Coalition, profile: ProbabilityProfile
) -> GeneralizedValueCoefficients:
    """The p-form coefficients realizing the influence index as a generalized value.

    p_T^S = prod_{i in T} p_i * prod_{i in N-(S u T)} (1-p_i)
          = Pr(T subseteq C subseteq S u T).

    Nonnegative and summing to 1 over T subseteq N-S.
    """
    check_mask(S, profile.n)
    table = np.zeros(1 << profile.n)
    table[split_submasks(S, profile.n)[0]] = _comp_weights(S, profile)
    return GeneralizedValueCoefficients(profile.n, S, "p", table)


def _conversion_input(coeffs: GeneralizedValueCoefficients, kind: str, name: str):
    # n, S and the split_submasks D and R of S, after checking the form and S
    if coeffs.kind != kind:
        raise ValidationError(f"{name} expects a {kind}-form table")
    if coeffs.subset == 0:
        raise EmptySubset("generalized-value conversion needs a nonempty S")
    return (coeffs.n, coeffs.subset, *split_submasks(coeffs.subset, coeffs.n))


def gv_p_to_q(coeffs: GeneralizedValueCoefficients) -> GeneralizedValueCoefficients:
    """Convert p-form to q-form: q_R^S = sum_{T : R-S subseteq T subseteq N-S} p_T^S."""
    n, S, D, R = _conversion_input(coeffs, "p", "gv_p_to_q")
    packed = coeffs.table[D]
    # superset sums over the complement lattice
    axis_map_inplace(packed, [(1.0, 1.0, 0.0, 1.0)] * (n - S.bit_count()))
    table = np.zeros(1 << n)
    table[D[:, None] | R[1:]] = packed[:, None]  # row D: D | R for every R != 0
    return GeneralizedValueCoefficients(n, S, "q", table)


def gv_q_to_p(
    coeffs: GeneralizedValueCoefficients, tol: float = 1e-12
) -> GeneralizedValueCoefficients:
    """Convert q-form back: p_T^S = sum_{R : T subseteq R subseteq N-S} (-1)^(|R|-|T|) q_{R u S}^S.

    The q-form must depend only on R - S; a spread above ``tol`` within a
    class raises :class:`InvalidCoefficients` for the first such class.
    """
    n, S, D, R = _conversion_input(coeffs, "q", "gv_q_to_p")
    grid = coeffs.table[D[:, None] | R[1:]]  # row D: D | R for every R != 0
    spread = grid.max(axis=1) - grid.min(axis=1)
    k = int(np.argmax(spread > tol))
    if spread[k] > tol:
        raise InvalidCoefficients(
            f"q values for R-S={int(D[k]):#b} spread by {spread[k]:.3e} > {tol}"
        )
    rep = grid[:, -1].copy()  # q at R = D u S
    # superset Mobius inversion over the complement lattice
    axis_map_inplace(rep, [(1.0, -1.0, 0.0, 1.0)] * (n - S.bit_count()))
    table = np.zeros(1 << n)
    table[D] = rep
    return GeneralizedValueCoefficients(n, S, "p", table)


# ---------------------------------------------------------------------------
# normalized index and reconstruction
# ---------------------------------------------------------------------------

def g_std(S: Coalition, profile: ProbabilityProfile) -> float:
    """Closed-form standard deviation of g_{S,p} for nonempty S.

    sigma(g_{S,p}) = sqrt(prod_{i in S} 1/p_i + prod_{i in S} 1/(1-p_i)).
    """
    check_mask(S, profile.n)
    if S == 0:
        raise EmptySubset("g_{S,p} is identically zero for S = 0")
    inv_p, inv_q = _g_levels(S, profile)
    return math.sqrt(inv_p + inv_q)


def _correlations(cov: np.ndarray, sigma_f: float, sigma_g: np.ndarray) -> np.ndarray:
    # r = cov(f, g_{S,p}) / (sigma_f sigma(g_{S,p})), checked and clamped to [-1, 1]
    r = cov / (sigma_f * sigma_g)
    over = np.abs(r) > 1.0 + 1e-12
    if over.any():
        bad = abs(float(r[over][0]))
        raise PbindexError(f"correlation bound violated: |r| = {bad!r} > 1 + 1e-12")
    return np.clip(r, -1.0, 1.0)


def normalized_influence(
    f: PseudoBooleanFunction, S: Coalition, profile: ProbabilityProfile
) -> float:
    """Pearson correlation r(f,S) = cov(f, g_{S,p}) / (sigma(f) sigma(g_{S,p})).

    Scale- and shift-invariant in f, bounded by 1 in absolute value, with
    |r| = 1 exactly for f = a g_{S,p} + b.  Raises for S = 0 and for
    (numerically) constant f.  Taken for f / 2**e, with the scale of
    f - E[f] as in :func:`index_report`, so huge worths keep their r.
    """
    _check_same_n(profile, f)
    check_mask(S, f.n)
    if S == 0:
        raise EmptySubset("the normalized influence index needs a nonempty S")
    scale = math.ldexp(1.0, -_scale_exponent(f.values - expectation(profile, f)))
    scaled = PseudoBooleanFunction(f.n, f.values * scale)
    sigma_f = math.sqrt(variance(profile, scaled))
    if sigma_f <= DEGENERACY_EPS * scale:
        raise DegenerateFunction(f"sigma(f) = {sigma_f / scale:.3e} is numerically zero")
    cov = covariance(profile, scaled, g_function(S, profile))
    return float(_correlations(np.array([cov]), sigma_f, np.array([g_std(S, profile)]))[0])


def taylor_reconstruct(
    interactions: Union[np.ndarray, Sequence[float]], profile: ProbabilityProfile
) -> PseudoBooleanFunction:
    """Rebuild a game from its complete interaction table at profile p.

    f(x) = sum_S I_{B,p}(f,S) prod_{i in S} (x_i - p_i), evaluated on all 0/1
    vertices.  ``interactions`` is an array-like of 2**n numbers, entry S
    being I_{B,p}(f,S), as :func:`interaction_table` returns it; anything
    else raises :class:`IncompleteTable`.
    """
    size = 1 << profile.n
    try:
        work = np.array(interactions, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise IncompleteTable(f"interaction table needs {size} numbers: {exc}") from exc
    if work.shape != (size,):
        raise IncompleteTable(f"interaction table needs {size} entries, got shape {work.shape}")
    # evaluate the shifted-product polynomial on vertices: x_i - p_i is -p_i
    # without player i and 1 - p_i with it
    axis_map_inplace(work, [(1.0, -pi, 1.0, 1.0 - pi) for pi in profile.p.tolist()])
    return PseudoBooleanFunction(profile.n, work)


# ---------------------------------------------------------------------------
# whole-lattice tables
# ---------------------------------------------------------------------------

def _interaction_values(values: np.ndarray, p: Sequence[float]) -> np.ndarray:
    # I(S) = E[(Delta_S f)(C)]: average out axes outside S, difference on S
    work = values.copy()
    axis_map_inplace(work, [(1.0 - pi, pi, -1.0, 1.0) for pi in p])
    return work


def _influence_values(values: np.ndarray, p: Sequence[float]) -> np.ndarray:
    # Phi(S) = E[f(C u S)] - E[f(C - S)].  Both terms are convex averages, and
    # entry 0 of the two runs the same operations, so Phi(0) is exactly 0.0.
    # Their rounding error is about n eps times the average of |values|; for
    # values centered at E[f] Cauchy-Schwarz bounds that by sigma_f
    # sigma(g_{S,p}), so r = Phi / (sigma_f sigma(g_{S,p})) stays accurate
    # however small sigma_f is.
    joined = values.copy()
    axis_map_inplace(joined, [(1.0 - pi, pi, 0.0, 1.0) for pi in p])
    removed = values.copy()
    axis_map_inplace(removed, [(1.0 - pi, pi, 1.0, 0.0) for pi in p])
    joined -= removed
    return joined


def _shapley_values(values: np.ndarray, n: int) -> np.ndarray:
    # Gauss-Legendre over the constant profile (t, ..., t): the influence
    # index is a polynomial of degree at most n - 1 in t, and m nodes
    # integrate degree 2m - 1 exactly
    x, w = np.polynomial.legendre.leggauss((n + 1) // 2 + 2)
    total = np.zeros(1 << n)
    for xj, wj in zip(x.tolist(), w.tolist()):
        total += 0.5 * wj * _influence_values(values, [0.5 * (xj + 1.0)] * n)
    return total


def interaction_table(f: PseudoBooleanFunction, profile: ProbabilityProfile) -> np.ndarray:
    """All 2**n interaction indexes of f at profile p: entry S is I_{B,p}(f,S).

    A read-only float64 array.  One pass of the per-axis map
    (1-p_i, p_i; -1, 1) over the game table: O(n 2**n) in total, against
    O(2**n) per subset for :func:`banzhaf_interaction`.
    """
    _check_same_n(profile, f)
    table = _interaction_values(f.values, profile.p.tolist())
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# batch reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IndexReport:
    """Per-subset index values for one game under one profile, as columns.

    Entry k of each float64 column belongs to the subset ``subsets[k]``
    (int64).  ``correlation`` is NaN where r is undefined: for S = 0 and for
    a constant f.  The arrays are read-only.
    """

    subsets: np.ndarray
    interaction: np.ndarray
    influence: np.ndarray
    shapley: np.ndarray
    correlation: np.ndarray

    def __post_init__(self):
        for column in (self.subsets, self.interaction, self.influence, self.shapley, self.correlation):
            column.setflags(write=False)


def _mask_array(subsets: Union[Sequence[Coalition], np.ndarray], n: int) -> np.ndarray:
    """The masks as a new int64 array, each checked as by :func:`check_mask`.

    An integer ndarray, or a sequence of in-range ints and numpy integers (not
    bools), passes in one vectorized check; any other input goes mask by mask,
    so the error names the first bad one.
    """
    if isinstance(subsets, np.ndarray) and subsets.ndim == 1 and subsets.dtype.kind in "iu":
        if subsets.size == 0 or (subsets.min() >= 0 and subsets.max() < 1 << n):
            return subsets.astype(np.int64)  # a copy: the report freezes it
    elif all(t is int or issubclass(t, np.integer) for t in set(map(type, subsets))):
        try:
            masks = np.array(subsets, dtype=np.int64)  # a copy: the report freezes it
        except OverflowError:
            pass
        else:
            if masks.size == 0 or (masks.min() >= 0 and masks.max() < 1 << n):
                return masks
    for S in subsets:
        check_mask(S, n)
    return np.array(subsets, dtype=np.int64)


def index_report(
    f: PseudoBooleanFunction, profile: ProbabilityProfile, subsets: Sequence[Coalition]
) -> IndexReport:
    """Compute interaction, influence, Shapley value and correlation per subset.

    The report's columns follow ``subsets`` in order, repeats included.
    Every mask is validated before any work starts, and a
    :class:`ValidationError` names the first subset whose I, Phi or Shapley
    value is not finite (worths near the float range overflow), so only an
    undefined r is ever NaN.  The route depends on the input size:

    * more distinct subsets than n: whole-lattice tables.  Per-axis maps over
      the game table give I, Phi and, by Gauss-Legendre over a constant
      profile with ceil(n/2)+2 nodes, the Shapley value for all 2**n subsets
      at once: O(n**2 2**n) numpy work, independent of the subset count.
      The columns are gathered from the tables, with no per-subset Python
      objects.  A fresh ``analyze --subsets all`` process takes about 0.15 s
      and 43 MB peak RSS at n=14, and 0.3 s and 49 MB at n=16 (CSV or
      text, 2-vCPU Xeon guest).
    * otherwise: the per-subset functions (:func:`banzhaf_interaction`,
      :func:`banzhaf_influence` by the inner product with g_{S,p},
      :func:`shapley_generalized_value`), each O(2**n) with Python-level
      exact summation.

    Both routes take r(S) = Phi(S) / (sigma_f sigma(g_{S,p})) with sigma_f
    computed once, since cov(f, g_{S,p}) = Phi(S).  Both compute Phi from the
    game centered at E[f], as a difference of averages with nonnegative
    weights or as <f - E[f], g_{S,p}>, so by Cauchy-Schwarz its rounding
    error stays near n eps sigma_f sigma(g_{S,p}) and r keeps its accuracy
    for nearly constant games (profiles near the interior bound).  The
    default Mobius route cancels there: on games c + a h with c up to 1e6,
    a down to 1e-6 and p_i near 0 or 1 it put r off by up to 2e-2 (random
    sweep, n <= 9).

    Measured crossover (2-vCPU Xeon guest, numpy 2.4, uniform random game,
    best of 3 to 5): the tables take 2.5 ms at n=11, 13 ms at n=14, 0.14 s
    at n=17 and 1.65 s at n=20, as much as 17-31, 23-80, 37-72 and 40-125
    per-subset calls.  A call costs most at |S| = 1 (the low ends) and less
    at |S| near n/2 (the high ends).  The cut at n lies below that
    break-even range at every measured n, so up to the break-even count the
    tables run where the calls would be cheaper.  The cut stays at n: moving
    it would change which route, and so which last bits, such a report gets.
    """
    _check_same_n(profile, f)
    masks = _mask_array(subsets, f.n)
    mean = expectation(profile, f)
    # sigma_f and Phi are taken for f / 2**e, the scale of f - E[f], so no
    # square overflows; r keeps its bits wherever products stay normal
    centered = f.values - mean
    scale = math.ldexp(1.0, -_scale_exponent(centered))
    scaled = centered * scale
    sigma_f = math.sqrt(_weighted_product_sum(profile, scaled, scaled, "the variance"))
    if np.unique(masks).size > f.n:
        p = profile.p.tolist()
        interaction = _interaction_values(f.values, p)
        # Phi and the Shapley value ignore constants; I(0) = E[f] centers f
        centered = f.values - interaction[0]
        influence = _influence_values(centered, p)[masks]
        shapley = _shapley_values(centered, f.n)[masks]
        interaction = interaction[masks]
        # g_std for every S at once, multiplied in the same order
        sigma_g = np.sqrt(
            subset_products([1.0 / pi for pi in p])
            + subset_products([1.0 / (1.0 - pi) for pi in p])
        )[masks]
    else:
        centered = PseudoBooleanFunction(f.n, centered)
        picks = masks.tolist()
        interaction = np.array([banzhaf_interaction(f, S, profile) for S in picks])
        influence = np.array([banzhaf_influence(centered, S, profile, "inner-product") for S in picks])
        shapley = np.array([shapley_generalized_value(f, S) for S in picks])
        sigma_g = np.array([g_std(S, profile) if S else math.nan for S in picks])
    finite = np.isfinite(interaction) & np.isfinite(influence) & np.isfinite(shapley)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValidationError(
            f"indexes of subset {int(masks[k]):#b} are not finite: I = {float(interaction[k])!r}, "
            f"Phi = {float(influence[k])!r}, Shapley = {float(shapley[k])!r} (the worths overflow)"
        )
    correlation = np.full(masks.size, np.nan)
    if sigma_f > DEGENERACY_EPS * scale:
        # cov(f, g_{S,p}) = <f, g_{S,p}> = Phi(S) because E[g_{S,p}] = 0
        nonempty = masks != 0
        correlation[nonempty] = _correlations(
            influence[nonempty] * scale, sigma_f, sigma_g[nonempty]
        )
    return IndexReport(masks, interaction, influence, shapley, correlation)
