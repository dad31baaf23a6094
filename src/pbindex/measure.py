"""Independent-coalition product measure and the weighted inner product.

A probability profile p in (0,1)^n fixes the distribution of a random
coalition C in which each player joins independently: w(T) = prod_{i in T} p_i
* prod_{i not in T} (1 - p_i).  On top of that measure this module provides
the weighted Euclidean inner product, the orthonormal basis

    v_{T,p}(x) = prod_{i in T} (x_i - p_i) / sqrt(p_i (1 - p_i)),

expectations and covariances of games under C, and the multilinear
extension, which gives E[f(C)] a second way.  Every weighted sum of
products of worths goes through :func:`_weighted_product_sum`: it sums at an
exact power-of-two scale where a product could overflow, and raises
:class:`ValidationError` for a sum past the float range.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    MAX_PLAYERS,
    Coalition,
    MobiusRepresentation,
    PseudoBooleanFunction,
    _grid,
    check_mask,
    mobius,
    product_table,
    subset_products,
)
from .errors import DimensionError, DomainError, SumOverflow, ValidationError

# Profiles must stay strictly interior: the basis divides by sqrt(p(1-p)).
INTERIOR_EPS = 1e-9


class ProbabilityProfile:
    """Per-player inclusion probabilities p_i = Pr(C contains player i+1).

    Entries outside [INTERIOR_EPS, 1 - INTERIOR_EPS] are rejected rather than
    clamped.  The 2**n coalition weights are materialized lazily and cached.
    """

    __slots__ = ("n", "p", "_weights")

    def __init__(self, p):
        arr = np.asarray(p, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError(f"profile must be a 1-d vector, got shape {arr.shape}")
        if arr.size > MAX_PLAYERS:
            raise ValidationError(
                f"profile for {arr.size} players exceeds the {MAX_PLAYERS}-player cap"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("profile contains non-finite entries")
        if np.any(arr < INTERIOR_EPS) or np.any(arr > 1.0 - INTERIOR_EPS):
            raise ValidationError(
                f"profile entries must lie in [{INTERIOR_EPS}, {1 - INTERIOR_EPS}]"
            )
        arr.setflags(write=False)
        self.n = int(arr.size)
        self.p = arr
        self._weights: np.ndarray | None = None

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityProfile":
        """The unweighted case p = (1/2, ..., 1/2)."""
        return cls(np.full(n, 0.5))

    @classmethod
    def constant(cls, n: int, value: float) -> "ProbabilityProfile":
        """A scalar probability replicated to all n players."""
        return cls(np.full(n, float(value)))

    def weights(self) -> np.ndarray:
        """All 2**n coalition weights w(T), in mask order (lazily cached)."""
        if self._weights is None:
            w = product_table([(1.0 - pi, pi) for pi in self.p.tolist()])
            w.setflags(write=False)
            self._weights = w
        return self._weights

    def __repr__(self) -> str:
        return f"ProbabilityProfile({self.p.tolist()!r})"


def _check_same_n(profile: ProbabilityProfile, *fs: PseudoBooleanFunction) -> None:
    for f in fs:
        if f.n != profile.n:
            raise DimensionError(f"game has n={f.n} but profile has n={profile.n}")


# _fsum works on blocks of FSUM_CHUNK terms (at most 2**26, see _extract); it
# hands blocks of at most FSUM_SMALL terms, and what is left of larger ones,
# to math.fsum as they are
FSUM_CHUNK = 1 << 15
FSUM_SMALL = 768
# while len(terms) * max|terms| stays below this, no partial sum of the terms
# or of their extracted parts can overflow, in any order
_FSUM_SAFE = 2.0**1021


def _extract(p: np.ndarray) -> list[float]:
    """Floats whose exact sum is the exact sum of the block p.

    ExtractVector of Rump, Ogita and Oishi ("Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 2008).  With m terms left and
    sigma = 2**k > (m + 2) max|p|, q = (sigma + p) - sigma and p - q are
    exact, every q is a multiple of 2**(k - 53), and for m <= 2**26 every
    partial sum of q is at most sigma in magnitude, so q.sum() is exact in
    any order.  Each pass leaves |p - q| <= 2**(k - 53) and drops the zeros.
    A block that is all zero, or whose sigma would overflow or whose unit
    2**(k - 53) would fall below the normal range, is handed on as it stands.
    """
    parts = []
    while p.size > FSUM_SMALL:
        top = max(p.max(), -p.min())
        k = math.frexp(top)[1] + (p.size + 1).bit_length()
        if top == 0.0 or not -969 <= k <= 1023:
            break
        sigma = math.ldexp(1.0, k)
        q = p + sigma
        q -= sigma
        parts.append(float(q.sum()))
        np.subtract(p, q, out=q)
        p = q[q != 0.0]
    parts += p.tolist()
    return parts


def _fsum(terms: np.ndarray) -> float:
    # The correctly rounded sum of the terms.  Invariants:
    # * the result has the bits of math.fsum(terms.tolist()), sign of zero
    #   included, or the same exception is raised;
    # * math.fsum (Shewchuk's exact partials) is the only place that rounds:
    #   the parts _extract returns for a block sum exactly to the block;
    # * extraction runs only while len(terms) * max|terms| < _FSUM_SAFE, so
    #   no partial sum can overflow whatever the order.  Otherwise, and for
    #   inf or nan, every term reaches math.fsum in order, so non-finite
    #   results and its "intermediate overflow" error are those of the list;
    #   that error is raised as SumOverflow, still an OverflowError;
    # * at most FSUM_CHUNK terms are Python floats at a time.
    # 2**20 terms of a weighted table take about 5 ms instead of 50 ms
    # (2-vCPU Xeon guest, best of 5); below about 700 terms extracting costs
    # more than it saves.
    if terms.size <= FSUM_SMALL:
        parts = terms.tolist()
    else:
        split = _extract
        if not float(max(terms.max(), -terms.min())) * terms.size < _FSUM_SAFE:
            split = np.ndarray.tolist
        parts = itertools.chain.from_iterable(
            split(terms[k : k + FSUM_CHUNK]) for k in range(0, terms.size, FSUM_CHUNK)
        )
    try:
        return math.fsum(parts)
    except OverflowError:
        raise SumOverflow(
            f"an exact sum of {terms.size} terms passes the float range (the worths overflow)"
        ) from None


def _fsum_split(grid: np.ndarray, S: Coalition) -> float:
    # _fsum of the rows R != 0 of a core._grid by S in ascending order of T: the order changes
    # only an intermediate overflow of math.fsum, so the terms are sorted only where one can occur
    terms = grid[1:].ravel()
    if not float(max(terms.max(initial=0.0), -terms.min(initial=0.0))) * terms.size < _FSUM_SAFE:
        terms = terms[np.argsort(_grid(np.arange(grid.size), S)[1:], axis=None)]
    return _fsum(terms)


def _scale_exponent(d: np.ndarray) -> int:
    """The e >= 0 with 2**e just above max|d|, so that d / 2**e lies in (-1, 1)."""
    return max(math.frexp(float(max(d.max(), -d.min())))[1], 0)


def _weighted_product_sum(profile: ProbabilityProfile, a, b, what: str) -> float:
    """sum_x w(x) a(x) b(x) for a / 2**ea and b / 2**eb, scaled back by 2**(ea + eb).

    ea and eb are the :func:`_scale_exponent` of a and b, or 0 where every
    product stays below 2**1022 (the plain sum, bit for bit).  A sum past the
    float range raises :class:`ValidationError` naming ``what``.
    """
    ea, eb = _scale_exponent(a), _scale_exponent(b)
    if ea + eb > 1022:
        a, b = np.ldexp(a, -ea), np.ldexp(b, -eb)
    else:  # |w a b| < 2**1022: the plain sum cannot overflow
        ea = eb = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        terms = profile.weights() * a
        terms *= b
    total = _fsum(terms)
    if math.isfinite(total) and math.frexp(total)[1] + ea + eb <= 1024:
        return math.ldexp(total, ea + eb)
    raise ValidationError(f"{what} is beyond the float range (the worths overflow)")


def inner_product(
    profile: ProbabilityProfile, f: PseudoBooleanFunction, g: PseudoBooleanFunction
) -> float:
    """Weighted inner product sum_x w(x) f(x) g(x), by :func:`_weighted_product_sum`,
    so past the float range it raises :class:`ValidationError`."""
    _check_same_n(profile, f, g)
    return _weighted_product_sum(profile, f.values, g.values, "the inner product")


def _basis_pairs(profile: ProbabilityProfile, T: Coalition) -> list[tuple[float, float]]:
    """The :func:`~pbindex.core.product_table` pairs of v_{T,p}.

    (1, 1) off T and (-p_i / s_i, q_i / s_i) on T, with s_i = sqrt(p_i q_i).
    """
    pairs = []
    for i, pi in enumerate(profile.p.tolist()):
        if T >> i & 1:
            s = math.sqrt(pi * (1.0 - pi))
            pairs.append((-pi / s, (1.0 - pi) / s))
        else:
            pairs.append((1.0, 1.0))
    return pairs


def basis_function(profile: ProbabilityProfile, T: Coalition) -> PseudoBooleanFunction:
    """The orthonormal basis element v_{T,p} as a dense table."""
    check_mask(T, profile.n)
    return PseudoBooleanFunction(profile.n, product_table(_basis_pairs(profile, T)))


def expectation(profile: ProbabilityProfile, f: PseudoBooleanFunction) -> float:
    """E[f(C)] = sum_x w(x) f(x); equals the multilinear extension at p."""
    _check_same_n(profile, f)
    return _fsum(profile.weights() * f.values)


def covariance(
    profile: ProbabilityProfile, f: PseudoBooleanFunction, g: PseudoBooleanFunction
) -> float:
    """cov(f, g) = E[(f - E[f]) (g - E[g])] under the random coalition C.

    Summed after centering.  The textbook <f, g> - E[f] E[g] cancels when f
    or g is nearly constant under C, as for p_i near 0 or 1: for f = (1, 0)
    at p = 1e-9 its variance is off by 3e-8 relative, which pushes the
    normalized influence past |r| = 1.  Summed by :func:`_weighted_product_sum`,
    so past the float range it raises :class:`ValidationError`.
    """
    _check_same_n(profile, f, g)
    df = f.values - expectation(profile, f)
    dg = g.values - expectation(profile, g)
    return _weighted_product_sum(profile, df, dg, "the covariance")


def variance(profile: ProbabilityProfile, f: PseudoBooleanFunction) -> float:
    """var(f) = E[(f - E[f])^2], centered, summed and checked as in :func:`covariance`."""
    _check_same_n(profile, f)
    d = f.values - expectation(profile, f)
    return _weighted_product_sum(profile, d, d, "the variance")


def eval_multilinear_extension(a: MobiusRepresentation, x) -> float:
    """Value of the multilinear extension sum_S a(S) prod_{i in S} x_i.

    The point ``x`` must lie in the unit cube [0, 1]^n; interior points are
    the expectation of the game under independent coalition formation.
    Summed exactly by :func:`_fsum`, so a sum past the float range raises
    :class:`~pbindex.errors.SumOverflow`.
    """
    pt = np.asarray(x, dtype=np.float64)
    if pt.shape != (a.n,):
        raise DomainError(f"point must have {a.n} coordinates, got shape {pt.shape}")
    if np.any(pt < 0.0) or np.any(pt > 1.0):
        raise DomainError(f"point {pt.tolist()} outside the unit cube")
    return _fsum(a.coeffs * subset_products(pt))


def multilinear_expectation(profile: ProbabilityProfile, f: PseudoBooleanFunction) -> float:
    """E[f(C)] computed the other way round, via the multilinear extension."""
    _check_same_n(profile, f)
    return eval_multilinear_extension(mobius(f), profile.p)
