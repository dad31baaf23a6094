"""Banzhaf-type power, interaction and influence indexes.

For a game f, a coalition S and a profile p, the two central quantities are

    interaction   I_{B,p}(f,S)   = sum_{T superseteq S} a(T) prod_{i in T-S} p_i
    influence     Phi_{B,p}(f,S) = sum_{T : T meets S} a(T) prod_{i in T-S} p_i

where a is the Mobius transform of f.  The influence index equals the endpoint
gap f_{S,p}(S) - f_{S,p}(0) of the best S-approximation, the expectation of the
switch operator E[(sigma_S f)(C)], the inner product <f, g_{S,p}>, and a
generalized value sum_{T subseteq N-S} p_T^S (f(T u S) - f(T)); all four routes
are implemented and kept as first-class methods because their agreement is the
whole point of the construction.  Every per-subset sum reads its terms
T = R | D, R inside S and D inside N - S, from ``core._face`` or ``core._grid``.

Also here: the Shapley generalized value, the Ben-Or-Linial influence, the
conversions between the two coefficient forms of a generalized value, the
normalized (correlation) influence index, reconstruction of a game from its
full interaction table, and whole-lattice tables that give I, Phi and the
Shapley value of all 2**n subsets from per-axis maps of the game table, for
reports over many subsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .approx import best_s_approximation
from .core import (
    Coalition,
    PseudoBooleanFunction,
    _face,
    _grid,
    axis_map,
    check_mask,
    mobius,
    product_table,
    split_view,
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

# sigma(f) at or below this is treated as a constant function
DEGENERACY_EPS = 1e-12

# largest spread of a q-form's values within a class R - S that gv_q_to_p accepts
Q_FORM_TOL = 1e-12


def _comp_weights(S: Coalition, profile: ProbabilityProfile) -> np.ndarray:
    """Pr(C - S = D) = prod_{i in D} p_i prod_{i in N-S-D} (1-p_i), D as in ``core._face``."""
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
    face = _face(mobius(f).coeffs, S, 1)  # R = S
    terms = subset_products([pi for i, pi in enumerate(profile.p.tolist()) if not S >> i & 1])
    terms = terms.reshape(face.shape)
    terms *= face  # in place: a table less at the peak
    return _fsum(terms.ravel())


def g_function(S: Coalition, profile: ProbabilityProfile) -> PseudoBooleanFunction:
    """The contrast function g_{S,p}(x) = prod_{i in S} x_i/p_i - prod_{i in S} (1-x_i)/(1-p_i).

    Representer of the influence index: Phi_{B,p}(f,S) = <f, g_{S,p}>.  Its
    expectation under C is 0, and g_{S,p} vanishes identically for S = 0.
    """
    check_mask(S, profile.n)
    inv_p, inv_q = _g_levels(S, profile)
    g = np.zeros(1 << profile.n)
    if S:  # at S = 0 both faces are the whole table, where g is 1/p_S - 1/q_S = 0
        _face(g, S, 1)[...] = inv_p
        _face(g, S, 0)[...] = -inv_q
    return PseudoBooleanFunction(profile.n, g)


def _g_levels(S: Coalition, profile: ProbabilityProfile):
    """(prod_{i in S} 1/p_i, prod_{i in S} 1/(1-p_i)): g_{S,p} is the first on
    T superseteq S, minus the second on T disjoint from S, and 0 elsewhere."""
    bits = [i for i in range(profile.n) if S >> i & 1]
    inv_p = math.prod(1.0 / profile.p[i] for i in bits)
    inv_q = math.prod(1.0 / (1.0 - profile.p[i]) for i in bits)
    return inv_p, inv_q


def _influence_mobius(f, S, profile):
    # sum over T = R | D meeting S (R != 0) of a(T) prod_{i in D} p_i, as in banzhaf_interaction
    grid = _grid(mobius(f).coeffs, S)
    grid *= subset_products([pi for i, pi in enumerate(profile.p.tolist()) if not S >> i & 1])
    return _fsum_split(grid, S)


def _influence_projection(f, S, profile):
    # f_{S,p} lives on the lattice of S, from f_{S,p}(0) to f_{S,p}(S)
    values = best_s_approximation(f, S, profile).lattice_values()
    return float(values[-1] - values[0])


def _influence_average(f, S, profile):
    return _fsum(_comp_weights(S, profile) * (_face(f.values, S, 1) - _face(f.values, S, 0)).ravel())


def _influence_inner_product(f, S, profile):
    # <f, g_{S,p}> on the support of g_{S,p} only, 1/p_S on the face R = S and -1/q_S on R = 0:
    # the dropped terms are exact zeros, so this is the dense sum bitwise (S = 0 cancels to 0.0)
    w, (inv_p, inv_q) = profile.weights(), _g_levels(S, profile)
    halves = ((1, inv_p), (0, -inv_q))
    return _fsum(np.concatenate([(_face(w, S, b) * _face(f.values, S, b) * g).ravel() for b, g in halves]))


_INFLUENCE_DISPATCH = {
    "mobius": _influence_mobius,
    "projection": _influence_projection,
    "average": _influence_average,
    "inner-product": _influence_inner_product,
}
INFLUENCE_METHODS = tuple(_INFLUENCE_DISPATCH)


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
    return _fsum(interactions * weights)


def shapley_generalized_value(f: PseudoBooleanFunction, S: Coalition) -> float:
    """Shapley generalized value sum_{T meets S} a(T) / (|T - S| + 1).

    Also the average over p in (0,1) of the influence index at the constant
    profile (p, ..., p).
    """
    check_mask(S, f.n)
    grid = _grid(mobius(f).coeffs, S)
    grid /= np.bitwise_count(np.arange(grid.shape[1])) + 1.0  # |T - S| + 1 = |D_d| + 1
    return _fsum_split(grid, S)


def ben_or_linial_influence(f: PseudoBooleanFunction, S: Coalition) -> float:
    """Expected max-minus-min spread of f over assignments to S.

    (1/2^(n-|S|)) sum_{T subseteq N-S} (max_{R subseteq S} f(T u R)
                                        - min_{R subseteq S} f(T u R)).
    For games nondecreasing in every variable this equals the influence index
    at the uniform profile.
    """
    check_mask(S, f.n)
    spread = np.ptp(_grid(f.values, S), axis=0)
    return _fsum(spread) / float(len(spread))


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
        meets = np.ones(1 << self.n, dtype=bool)
        _face(meets, self.subset, 0)[...] = False
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
    _face(table, S, 0)[...] = _comp_weights(S, profile).reshape((2,) * (profile.n - S.bit_count()))
    return GeneralizedValueCoefficients(profile.n, S, "p", table)


def _conversion_input(coeffs: GeneralizedValueCoefficients, kind: str, name: str):
    # n, S, n - |S| and the table, after checking the form and S
    if coeffs.kind != kind:
        raise ValidationError(f"{name} expects a {kind}-form table")
    if coeffs.subset == 0:
        raise EmptySubset("generalized-value conversion needs a nonempty S")
    return coeffs.n, coeffs.subset, coeffs.n - coeffs.subset.bit_count(), coeffs.table


def gv_p_to_q(coeffs: GeneralizedValueCoefficients) -> GeneralizedValueCoefficients:
    """Convert p-form to q-form: q_R^S = sum_{T : R-S subseteq T subseteq N-S} p_T^S."""
    n, S, m, p_form = _conversion_input(coeffs, "p", "gv_p_to_q")
    # superset sums over the complement lattice, on the face R = 0
    packed = axis_map(_face(p_form, S, 0).ravel(), [(1.0, 1.0, 0.0, 1.0)] * m)
    table = np.empty(1 << n)
    split_view(table, S)[...] = packed.reshape((2,) * m)  # D: R | D for every R
    _face(table, S, 0)[...] = 0.0  # off the support
    return GeneralizedValueCoefficients(n, S, "q", table)


def gv_q_to_p(coeffs: GeneralizedValueCoefficients) -> GeneralizedValueCoefficients:
    """Convert q-form back: p_T^S = sum_{R : T subseteq R subseteq N-S} (-1)^(|R|-|T|) q_{R u S}^S.

    The q-form must depend only on R - S; a spread above ``Q_FORM_TOL``
    within a class raises :class:`InvalidCoefficients` for the first such class.
    """
    n, S, m, q_form = _conversion_input(coeffs, "q", "gv_q_to_p")
    spread = np.ptp(_grid(q_form, S)[1:], axis=0)  # column D: R | D for every R != 0
    d = int(np.argmax(spread > Q_FORM_TOL))
    if spread[d] > Q_FORM_TOL:
        D = int(submasks(((1 << n) - 1) & ~S)[d])
        raise InvalidCoefficients(f"q values for R-S={D:#b} spread by {spread[d]:.3e} > {Q_FORM_TOL}")
    # superset Mobius inversion over the complement lattice of q on the face R = S
    inverted = axis_map(_face(q_form, S, 1).ravel(), [(1.0, -1.0, 0.0, 1.0)] * m)
    table = np.zeros(1 << n)
    _face(table, S, 0)[...] = inverted.reshape((2,) * m)
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
        work = np.asarray(interactions, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise IncompleteTable(f"interaction table needs {size} numbers: {exc}") from exc
    if work.shape != (size,):
        raise IncompleteTable(f"interaction table needs {size} entries, got shape {work.shape}")
    # evaluate the shifted-product polynomial on vertices: x_i - p_i is -p_i
    # without player i and 1 - p_i with it
    maps = [(1.0, -pi, 1.0, 1.0 - pi) for pi in profile.p.tolist()]
    return PseudoBooleanFunction(profile.n, axis_map(np.ascontiguousarray(work), maps))


# ---------------------------------------------------------------------------
# whole-lattice tables
# ---------------------------------------------------------------------------

def _interaction_values(values: np.ndarray, p: Sequence[float]) -> np.ndarray:
    # I(S) = E[(Delta_S f)(C)]: average out axes outside S, difference on S
    return axis_map(values, [(1.0 - pi, pi, -1.0, 1.0) for pi in p])


def _influence_values(values: np.ndarray, p: Sequence[float]) -> np.ndarray:
    # Phi(S) = E[f(C u S)] - E[f(C - S)].  Both terms are convex averages, and
    # entry 0 of the two runs the same operations, so Phi(0) is exactly 0.0.
    # Their rounding error is about n eps times the average of |values|; for
    # values centered at E[f] Cauchy-Schwarz bounds that by sigma_f
    # sigma(g_{S,p}), so r = Phi / (sigma_f sigma(g_{S,p})) stays accurate
    # however small sigma_f is.
    joined = axis_map(values, [(1.0 - pi, pi, 0.0, 1.0) for pi in p])
    joined -= axis_map(values, [(1.0 - pi, pi, 1.0, 0.0) for pi in p])
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


def _check_finite(masks, columns: dict) -> None:
    # a ValidationError naming the first subset, masks[k], where a named column is not finite
    finite = functools.reduce(np.logical_and, [np.isfinite(c) for c in columns.values()])
    if not finite.all():
        k = int(np.argmin(finite))
        values = ", ".join(f"{name} = {float(c[k])!r}" for name, c in columns.items())
        raise ValidationError(
            f"indexes of subset {int(masks[k]):#b} are not finite: {values} (the worths overflow)"
        )


def interaction_table(f: PseudoBooleanFunction, profile: ProbabilityProfile) -> np.ndarray:
    """All 2**n interaction indexes of f at profile p: entry S is I_{B,p}(f,S).

    A read-only float64 array.  One pass of the per-axis map
    (1-p_i, p_i; -1, 1) over the game table: O(n 2**n) in total, against
    O(2**n) per subset for :func:`banzhaf_interaction`.  A
    :class:`ValidationError` names the first subset whose I is not finite.
    """
    _check_same_n(profile, f)
    with np.errstate(over="ignore", invalid="ignore"):
        table = _interaction_values(f.values, profile.p.tolist())
    _check_finite(range(table.size), {"I": table})
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

    An in-range integer ndarray passes in one vectorized check; any other
    input goes mask by mask, so the error names the first bad one.
    """
    if isinstance(subsets, np.ndarray) and subsets.ndim == 1 and subsets.dtype.kind in "iu":
        if subsets.size == 0 or (subsets.min() >= 0 and subsets.max() < 1 << n):
            return subsets.astype(np.int64)  # a copy: the report freezes it
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
      objects.
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
    """
    _check_same_n(profile, f)
    masks = _mask_array(subsets, f.n)
    mean = expectation(profile, f)
    # sigma_f and Phi are taken for f / 2**e, the scale of f - E[f], so no
    # square overflows; r keeps its bits wherever products stay normal.  A
    # difference past the float range fails the variance's check below
    with np.errstate(over="ignore", invalid="ignore"):
        centered = f.values - mean
    scale = math.ldexp(1.0, -_scale_exponent(centered))
    scaled = centered * scale
    sigma_f = math.sqrt(_weighted_product_sum(profile, scaled, scaled, "the variance"))
    if np.unique(masks).size > f.n:
        p = profile.p.tolist()
        # a table past the float range holds inf or nan, which the check below names
        with np.errstate(over="ignore", invalid="ignore"):
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
    _check_finite(masks, {"I": interaction, "Phi": influence, "Shapley": shapley})
    correlation = np.full(masks.size, np.nan)
    if sigma_f > DEGENERACY_EPS * scale:
        # cov(f, g_{S,p}) = <f, g_{S,p}> = Phi(S) because E[g_{S,p}] = 0
        nonempty = masks != 0
        correlation[nonempty] = _correlations(
            influence[nonempty] * scale, sigma_f, sigma_g[nonempty]
        )
    return IndexReport(masks, interaction, influence, shapley, correlation)
