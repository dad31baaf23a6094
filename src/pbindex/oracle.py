"""Independent verifiers: brute-force least squares, sampling, quadrature.

Everything here deliberately avoids the fast routes used elsewhere in the
package, so agreement between an oracle and its production counterpart is
meaningful evidence:

* :func:`lsq_normal_equations` solves the weighted projection by assembling
  the Gram system in the unanimity basis, never touching the orthonormal
  basis.
* Monte Carlo estimators draw random coalitions (seeded PCG64 streams) and
  report a standard error with every mean.
* :func:`cdf_integral_check` evaluates the multilinear extension of
  sigma_S f, which depends only on the m = n - |S| players outside S, on the
  2**m table of its worths at the masks with no bit of S.  At each sample
  point it splits every mask into a low and a high half:
  fbar(x) = P_high(x)^T A P_low(x), with A the Mobius table as a matrix and
  P the subset products of x over each half.  It shares no code with the
  butterflies of the production routes: it gathers the masks outside S with
  a scan of the lattice, not ``core.split_view``, and its row-wise
  subset products (``_point_products``) deliberately do not use
  ``core.product_table``.
* :func:`diagonal_quadrature` and :func:`cube_average` integrate the
  influence index over probability space numerically and in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .approx import Approximation
from .core import (
    Coalition,
    MobiusRepresentation,
    PseudoBooleanFunction,
    _grid,
    check_mask,
    mobius,
    s_difference,
    sigma_s,
    submasks,
    subset_products,
)
from .errors import SingularSystem, ValidationError
from .indices import banzhaf_influence
from .measure import (
    ProbabilityProfile,
    _check_same_n,
    _fsum,
    _fsum_split,
    _scale_exponent,
    basis_function,
    inner_product,
)


@dataclass(frozen=True)
class SampleEstimate:
    """A Monte Carlo mean with its standard error (the sample deviation over sqrt(samples))."""

    mean: float
    std_error: float


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

    fit = Approximation(f.n, basis, np.zeros(basis.size), solution)  # fourier filled below
    table = fit.table()
    fourier = [inner_product(profile, table, basis_function(profile, T)) for T in basis.tolist()]
    return replace(fit, fourier=np.array(fourier))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# rows of uniforms or beta variates drawn at a time.  Chunked draws consume
# the PCG64 stream exactly as one draw of all rows does, so every estimate is
# the same; the temporaries stay the same size whatever the sample count, and
# with them their cost, which for one multi-MB array depended on whether
# earlier frees had raised glibc's dynamic mmap threshold above its size.
SAMPLE_CHUNK = 1 << 13


def sample_coalitions(
    profile: ProbabilityProfile, rng: np.random.Generator, size: int
) -> np.ndarray:
    """``size`` random coalitions as int64 masks, player i joining each with probability
    p_i: i is in coalition k iff entry (k, i) of ``rng.random((size, n))`` is below p_i."""
    powers = 1 << np.arange(profile.n, dtype=np.int64)
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, SAMPLE_CHUNK):
        u = rng.random((min(SAMPLE_CHUNK, size - start), profile.n))
        out[start : start + len(u)] = (u < profile.p) @ powers
    return out


def _make_estimate(draws: np.ndarray) -> SampleEstimate:
    lo, hi = draws.min(), draws.max()
    if lo == hi:  # identical observations: the mean is exact and the spread is zero
        return SampleEstimate(float(lo), 0.0)
    e = _scale_exponent(draws)  # mean and spread of draws / 2**e: no sum or square overflows
    scaled = np.ldexp(draws, -e)
    spread = float(np.std(scaled, ddof=1) / math.sqrt(draws.size))
    return SampleEstimate(math.ldexp(float(scaled.mean()), e), math.ldexp(spread, e))


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
    return _make_estimate(draws)


# ---------------------------------------------------------------------------
# integral checks
# ---------------------------------------------------------------------------

def diagonal_quadrature(f: PseudoBooleanFunction, S: Coalition) -> float:
    """Gauss-Legendre value of the integral over p of Phi_{B,(p,...,p)}(f,S).

    The integrand is a polynomial of degree at most n, so any node count of
    at least ceil((n+1)/2) is exact up to rounding; the n+2 nodes used keep
    a comfortable margin.  Matches the Shapley generalized value.
    """
    check_mask(S, f.n)
    x, w = np.polynomial.legendre.leggauss(f.n + 2)
    phi = [banzhaf_influence(f, S, ProbabilityProfile.constant(f.n, 0.5 * (t + 1.0))) for t in x]
    return _fsum(0.5 * w * np.array(phi))


def cube_average(f: PseudoBooleanFunction, S: Coalition) -> float:
    """Exact average of Phi_{B,p}(f,S) over p uniform on the cube (0,1)^n.

    Integrating prod_{i in T-S} p_i coordinate-wise turns each product into
    (1/2)^|T-S|, so the average collapses to the influence index at the
    uniform profile.
    """
    check_mask(S, f.n)
    grid = _grid(mobius(f).coeffs, S)
    grid *= 0.5 ** np.bitwise_count(np.arange(grid.shape[1])).astype(np.float64)  # (1/2)^|D_d|
    return _fsum_split(grid, S)


# entries per product table in _eval_extension_batch (8 MB).  The tables of
# cdf_integral_check hold rows * 2**(m - m//2) entries for the m players
# outside S, so this bounds the rows from m = 15 on and SAMPLE_CHUNK does
# below.  At m = 14 to 16, 2**18 timed the same as 2**20 within the host's
# noise, both for the extension (94-105 ms against 82-130 ms at m = 14, 10**4
# samples) and for an mc_expectation at 10**5 samples, n = 6, run after it
# (4-8 ms either way).
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


def _switch_mobius(f: PseudoBooleanFunction, S: Coalition) -> np.ndarray:
    """Mobius table of sigma_S f on the m = n - |S| players outside S, 2**m entries.

    sigma_S f does not depend on the players in S, so its Mobius table on all
    n players is 0 at every mask meeting S; entry j here is its entry at the
    j-th mask D with no bit of S, the transform of g(D) = f(D | S) - f(D) on
    m bits.  At S = N the one entry is f(N) - f(emptyset).
    """
    D = np.flatnonzero((np.arange(1 << f.n) & S) == 0)
    g = f.values[D | S] - f.values[D]
    if D.size > 1:
        return mobius(PseudoBooleanFunction(f.n - S.bit_count(), g)).coeffs
    if not math.isfinite(g[0]):
        raise ValidationError("f(N) - f(emptyset) lies past the float range")
    return g


def cdf_integral_check(
    f: PseudoBooleanFunction,
    S: Coalition,
    profile: ProbabilityProfile,
    samples: int,
    seed: int,
) -> SampleEstimate:
    """Sample the integral of (sigma_S fbar)(x) under per-player CDFs with mean p_i.

    Any product of distributions on [0,1] whose means match the profile
    integrates to the influence index; x_i is drawn from
    Beta(2 p_i, 2 (1-p_i)).  (The point mass at p gives the influence index
    itself: :func:`~pbindex.measure.multilinear_expectation` of sigma_S f.)

    Each point is drawn for all n players, so S does not change the stream,
    and the extension is evaluated on its m = n - |S| coordinates outside S
    with the 2**m table of :func:`_switch_mobius`.  At S = N every draw is
    f(N) - f(emptyset) and no point is drawn.
    """
    _check_same_n(profile, f)
    check_mask(S, f.n)
    if samples < 1000:
        raise ValidationError(f"need at least 1000 samples, got {samples}")
    coeffs = _switch_mobius(f, S)
    m = f.n - S.bit_count()
    if m == 0:
        return SampleEstimate(float(coeffs[0]), 0.0)
    a = MobiusRepresentation(m, coeffs)
    del coeffs
    outside = [i for i in range(f.n) if not S >> i & 1]
    rng = np.random.default_rng(seed)
    draws = np.empty(samples)
    chunk = min(SAMPLE_CHUNK, max(1, EXTENSION_CHUNK >> (m - m // 2)))
    for start in range(0, samples, chunk):
        rows = min(chunk, samples - start)
        points = rng.beta(2.0 * profile.p, 2.0 * (1.0 - profile.p), size=(rows, f.n))[:, outside]
        draws[start : start + rows] = _eval_extension_batch(a, points)
    return _make_estimate(draws)
