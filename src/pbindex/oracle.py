"""Independent verifiers: brute-force least squares, sampling, quadrature.

Everything here deliberately avoids the fast routes used elsewhere in the
package, so agreement between an oracle and its production counterpart is
meaningful evidence:

* :func:`lsq_normal_equations` solves the weighted projection by assembling
  the Gram system in the unanimity basis, never touching the orthonormal
  basis.
* Monte Carlo estimators draw random coalitions (seeded PCG64 streams) and
  report a standard error with every mean.
* :func:`cdf_integral_check` evaluates the multilinear extension at its
  sample points by splitting every mask into a low and a high half:
  fbar(x) = P_high(x)^T A P_low(x), with A the Mobius table as a matrix and
  P the subset products of x over each half.  It shares no code with the
  butterflies of the production routes; its row-wise subset products
  (``_point_products``) deliberately do not use ``core.product_table``.
* :func:`diagonal_quadrature` and :func:`cube_average` integrate the
  influence index over probability space numerically and in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import Approximation
from .core import (
    Coalition,
    MobiusRepresentation,
    PseudoBooleanFunction,
    check_mask,
    mobius,
    s_difference,
    sigma_s,
    split_submasks,
    submasks,
    subset_products,
    zeta,
)
from .errors import SingularSystem, ValidationError
from .indices import banzhaf_influence
from .measure import (
    ProbabilityProfile,
    _check_same_n,
    _fsum_split,
    _scale_exponent,
    basis_function,
    inner_product,
)


@dataclass(frozen=True)
class SampleEstimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 2:
            raise ValidationError("a sample estimate needs at least 2 samples")


# ---------------------------------------------------------------------------
# direct least squares
# ---------------------------------------------------------------------------

def lsq_normal_equations(
    f: PseudoBooleanFunction, S: Coalition, profile: ProbabilityProfile
) -> Approximation:
    """Best S-approximation by solving the Gram system in the unanimity basis.

    The Gram matrix has entries <u_T, u_R> = prod_{i in T u R} p_i and the
    right-hand side <f, u_T> = sum_{x superseteq T} w(x) f(x).  Solved with
    LU partial pivoting.  The system is positive definite in exact arithmetic,
    but with p_i near 0 or 1 its rows nearly coincide and LU can meet an exact
    zero pivot: then it raises :class:`SingularSystem`, as at p_i = 1 - 1e-9
    for S = {1,2} (n = 7).
    """
    _check_same_n(profile, f)
    check_mask(S, f.n)
    if S.bit_count() > 16:
        raise ValidationError(f"normal-equations system for |S|={S.bit_count()} is too large")
    basis = submasks(S)

    prods = subset_products(profile.p)
    gram = prods[basis[:, None] | basis[None, :]]

    weighted = profile.weights() * f.values
    for i in range(f.n):  # superset sums of w*f over the whole lattice
        pairs = weighted.reshape(-1, 2, 1 << i)
        pairs[:, 0, :] += pairs[:, 1, :]
    rhs = weighted[basis]

    try:
        solution = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Gram system for S={S:#b} is singular: {exc}") from exc

    coeffs = np.zeros(1 << f.n)
    coeffs[basis] = solution
    multilinear = MobiusRepresentation(f.n, coeffs)
    table = zeta(multilinear)
    fourier = np.array(
        [inner_product(profile, table, basis_function(profile, T)) for T in basis.tolist()]
    )
    return Approximation(f.n, profile, basis, fourier, multilinear, subset=S)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_coalition(profile: ProbabilityProfile, rng: np.random.Generator) -> Coalition:
    """Draw one random coalition: player i joins independently with prob p_i."""
    joined = rng.random(profile.n) < profile.p
    return sum(1 << i for i in np.flatnonzero(joined).tolist())


# rows of uniforms or beta variates drawn at a time.  Chunked draws consume
# the PCG64 stream exactly as one draw of all rows does, so every estimate is
# the same; the temporaries stay the same size whatever the sample count, and
# with them their cost, which for one multi-MB array depended on whether
# earlier frees had raised glibc's dynamic mmap threshold above its size.
SAMPLE_CHUNK = 1 << 13


def sample_coalitions(
    profile: ProbabilityProfile, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vectorized batch of :func:`sample_coalition` draws."""
    powers = 1 << np.arange(profile.n, dtype=np.int64)
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, SAMPLE_CHUNK):
        u = rng.random((min(SAMPLE_CHUNK, size - start), profile.n))
        out[start : start + len(u)] = (u < profile.p) @ powers
    return out


def _make_estimate(draws: np.ndarray, samples: int, seed: int) -> SampleEstimate:
    lo, hi = draws.min(), draws.max()
    if lo == hi:  # identical observations: the mean is exact and the spread is zero
        return SampleEstimate(float(lo), 0.0, samples, seed)
    e = _scale_exponent(draws)  # mean and spread of draws / 2**e: no sum or square overflows
    scaled = np.ldexp(draws, -e)
    spread = float(np.std(scaled, ddof=1) / math.sqrt(samples))
    return SampleEstimate(math.ldexp(float(scaled.mean()), e), math.ldexp(spread, e), samples, seed)


TRANSFORMS = ("identity", "sigma", "delta")


def mc_expectation(
    f: PseudoBooleanFunction,
    transform: str,
    S: Coalition,
    profile: ProbabilityProfile,
    samples: int,
    seed: int,
) -> SampleEstimate:
    """Monte Carlo estimate of E[(T f)(C)] for T in {identity, sigma_S, Delta_S}.

    The true values are, respectively, the mean worth, the influence index and
    the interaction index at the profile.
    """
    _check_same_n(profile, f)
    check_mask(S, f.n)
    if samples < 100:
        raise ValidationError(f"need at least 100 samples, got {samples}")
    if transform == "identity":
        g = f
    elif transform == "sigma":
        g = sigma_s(f, S)
    elif transform == "delta":
        g = s_difference(f, S)
    else:
        raise ValidationError(f"unknown transform {transform!r}, expected one of {TRANSFORMS}")
    rng = np.random.default_rng(seed)
    draws = g.values[sample_coalitions(profile, rng, samples)]
    return _make_estimate(draws, samples, seed)


# ---------------------------------------------------------------------------
# integral checks
# ---------------------------------------------------------------------------

def diagonal_quadrature(
    f: PseudoBooleanFunction, S: Coalition, nodes: int | None = None
) -> float:
    """Gauss-Legendre value of the integral over p of Phi_{B,(p,...,p)}(f,S).

    The integrand is a polynomial of degree at most n, so any node count of
    at least ceil((n+1)/2) is exact up to rounding; the default n+2 keeps a
    comfortable margin.  Matches the Shapley generalized value.
    """
    check_mask(S, f.n)
    if nodes is None:
        nodes = f.n + 2
    if nodes < f.n + 1:
        raise ValidationError(f"need at least n+1 = {f.n + 1} nodes, got {nodes}")
    x, w = np.polynomial.legendre.leggauss(nodes)
    terms = [
        0.5 * wj * banzhaf_influence(f, S, ProbabilityProfile.constant(f.n, 0.5 * (xj + 1.0)))
        for xj, wj in zip(x, w)
    ]
    return math.fsum(terms)


def cube_average(f: PseudoBooleanFunction, S: Coalition) -> float:
    """Exact average of Phi_{B,p}(f,S) over p uniform on the cube (0,1)^n.

    Integrating prod_{i in T-S} p_i coordinate-wise turns each product into
    (1/2)^|T-S|, so the average collapses to the influence index at the
    uniform profile.
    """
    check_mask(S, f.n)
    D, R = split_submasks(S, f.n)
    halves = 0.5 ** np.bitwise_count(D).astype(np.float64)
    return _fsum_split(mobius(f).coeffs.take(D[:, None] | R[1:]) * halves[:, None], D, R[1:])


# entries per product table in _eval_extension_batch (8 MB).  2**18 ran the
# extension 10-15% faster at n = 14 and 16, but freeing only 2 MB blocks keeps
# glibc's dynamic mmap threshold low, so the next multi-MB arrays are mapped and
# faulted in afresh: mc_expectation at 10**5 samples, n=6, went from 5.7 to 9 ms.
EXTENSION_CHUNK = 1 << 20


def _point_products(x: np.ndarray) -> np.ndarray:
    """Row j holds prod_{i in T} x[j, i] at column T, for every T, by doubling."""
    m, k = x.shape
    out = np.empty((m, 1 << k))
    out[:, 0] = 1.0
    for i in range(k):
        np.multiply(out[:, : 1 << i], x[:, i : i + 1], out=out[:, 1 << i : 2 << i])
    return out


def _eval_extension_batch(a: MobiusRepresentation, points: np.ndarray) -> np.ndarray:
    """Multilinear extension at many points as P_high(x)^T A P_low(x).

    Splitting each mask into its low = floor(n/2) bits and the rest turns the
    Mobius table into a 2**(n-low) x 2**low matrix A, and fbar(x) into the
    bilinear form of A with the subset products of x over either half.  Each
    point still costs 2**n multiply-adds, now as contiguous dot products.
    ``einsum`` rather than BLAS: its sums depend on a row's values only, so
    identical points give bitwise identical values wherever they sit.  The
    caller bounds the batch: its tables hold rows * 2**(n - low) entries.
    """
    low = a.n // 2
    A = a.coeffs.reshape(-1, 1 << low)
    partial = np.einsum("pl,hl->ph", _point_products(points[:, :low]), A)
    return np.einsum("ph,ph->p", _point_products(points[:, low:]), partial)


CDF_FAMILIES = ("beta", "point")


def cdf_integral_check(
    f: PseudoBooleanFunction,
    S: Coalition,
    profile: ProbabilityProfile,
    samples: int,
    seed: int,
    family: str = "beta",
) -> SampleEstimate:
    """Sample the integral of (sigma_S fbar)(x) under per-player CDFs with mean p_i.

    Any product of distributions on [0,1] whose means match the profile
    integrates to the influence index.  ``beta`` draws x_i from
    Beta(2 p_i, 2 (1-p_i)); ``point`` is the degenerate point mass at p_i,
    for which every draw hits the same value and the standard error is 0.
    """
    _check_same_n(profile, f)
    check_mask(S, f.n)
    if samples < 1000:
        raise ValidationError(f"need at least 1000 samples, got {samples}")
    if family not in CDF_FAMILIES:
        raise ValidationError(f"unknown family {family!r}, expected one of {CDF_FAMILIES}")
    rng = np.random.default_rng(seed)
    a = mobius(sigma_s(f, S))
    draws = np.empty(samples)
    chunk = min(SAMPLE_CHUNK, max(1, EXTENSION_CHUNK >> (f.n - f.n // 2)))
    for start in range(0, samples, chunk):
        shape = (min(chunk, samples - start), profile.n)
        if family == "beta":
            points = rng.beta(2.0 * profile.p, 2.0 * (1.0 - profile.p), size=shape)
        else:
            points = np.broadcast_to(profile.p, shape).copy()
        draws[start : start + shape[0]] = _eval_extension_batch(a, points)
    return _make_estimate(draws, samples, seed)
