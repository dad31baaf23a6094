"""Best approximations of a game by orthogonal projection.

The best S-approximation of f under the product measure w is the function in
V_S = span{u_T : T subseteq S} minimizing sum_T w(T) (f(T) - g(T))^2.  Because
the v_{T,p} are orthonormal for <.,.>_w, the minimizer is simply

    f_{S,p} = sum_{T subseteq S} <f, v_{T,p}> v_{T,p},

and the best degree-k approximation replaces the index set by {|T| <= k}.
The basis is a tensor product, so every coefficient <f, v_{T,p}> comes out
of one pass of a per-axis 2x2 map over the game table, and a second per-axis
map expands the series in the unanimity basis: O(n 2**n) either way.  A
result holds its index set and its coefficients as two aligned arrays.  The
independent normal-equations route lives in :mod:`pbindex.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Coalition,
    MobiusRepresentation,
    PseudoBooleanFunction,
    axis_map_inplace,
    check_mask,
    submasks,
    zeta,
)
from .errors import DimensionError, ValidationError
from .measure import ProbabilityProfile, _check_same_n, _weighted_product_sum


@dataclass(frozen=True, eq=False)
class Approximation:
    """A projection of a game onto V_S or onto degree <= k.

    ``fourier[j]`` is <f, v_{T,p}> for the included subset T = ``keys[j]``;
    ``keys`` (int64) ascends, and both arrays are read-only.  ``multilinear``
    is the same approximant expanded in the unanimity basis.  Exactly one of
    ``subset`` and ``degree`` is set.
    """

    n: int
    profile: ProbabilityProfile
    keys: np.ndarray
    fourier: np.ndarray
    multilinear: MobiusRepresentation
    subset: Optional[Coalition] = None
    degree: Optional[int] = None

    def __post_init__(self):
        for column in (self.keys, self.fourier):
            column.setflags(write=False)

    def table(self) -> PseudoBooleanFunction:
        """The approximant evaluated on all vertices."""
        return zeta(self.multilinear)


def _expand_fourier(
    keys: np.ndarray, fourier: np.ndarray, profile: ProbabilityProfile
) -> MobiusRepresentation:
    """Distribute sum_T c_T prod_{i in T}(x_i - p_i)/s_i over the unanimity basis.

    c_T is ``fourier[j]`` for T = ``keys[j]``.  Per axis (x_i - p_i)/s_i =
    x_i/s_i - p_i/s_i, so the inverse map sends (c0, c1) to (c0 - p_i c1/s_i,
    c1/s_i).  It runs on the lattice of the union U of the keys only: on every
    other axis it would be the identity on a table that is zero there.
    Coefficients outside the submasks of U stay exactly 0.
    """
    union = int(np.bitwise_or.reduce(keys))
    axes = [i for i in range(profile.n) if union >> i & 1]
    for i in reversed(range(profile.n)):  # squeeze out the bits outside U
        if not union >> i & 1:
            keys = (keys & ((1 << i) - 1)) | ((keys >> 1) & -(1 << i))
    packed = np.zeros(1 << len(axes))
    packed[keys] = fourier
    maps = []
    for pi in profile.p[axes].tolist():
        s = math.sqrt(pi * (1.0 - pi))
        maps.append((1.0, -pi / s, 0.0, 1.0 / s))
    axis_map_inplace(packed, maps)
    coeffs = np.zeros(1 << profile.n)
    coeffs[submasks(union)] = packed
    return MobiusRepresentation(profile.n, coeffs)


def fourier_table(f: PseudoBooleanFunction, profile: ProbabilityProfile) -> np.ndarray:
    """<f, v_{T,p}> for every T, as a table in mask order.

    With q = 1-p and s = sqrt(pq), one pass of the per-axis map
    (f0, f1) -> (q f0 + p f1, s (f1 - f0)), the weighted sums of f against 1
    and against (x_i - p_i)/s, leaves <f, v_{T,p}> at every entry T.
    """
    _check_same_n(profile, f)
    work = f.values.copy()
    maps = []
    for pi in profile.p.tolist():
        s = math.sqrt(pi * (1.0 - pi))
        maps.append((1.0 - pi, pi, -s, s))
    axis_map_inplace(work, maps)
    return work


def _project(
    f: PseudoBooleanFunction, profile: ProbabilityProfile, keys: np.ndarray, **which: int
) -> Approximation:
    """Project f onto span{v_{T,p} : T in ``keys``}; ``which`` sets subset or degree."""
    fourier = fourier_table(f, profile)[keys]
    multilinear = _expand_fourier(keys, fourier, profile)
    return Approximation(f.n, profile, keys, fourier, multilinear, **which)


def best_s_approximation(
    f: PseudoBooleanFunction, S: Coalition, profile: ProbabilityProfile
) -> Approximation:
    """Orthogonal projection of f onto V_S under the product measure."""
    _check_same_n(profile, f)
    check_mask(S, f.n)
    return _project(f, profile, submasks(S), subset=S)


def best_k_approximation(
    f: PseudoBooleanFunction, k: int, profile: ProbabilityProfile
) -> Approximation:
    """Projection of f onto the multilinear polynomials of degree at most k."""
    _check_same_n(profile, f)
    if not 0 <= k <= f.n:
        raise ValidationError(f"degree must lie in 0..{f.n}, got {k}")
    keys = np.flatnonzero(np.bitwise_count(np.arange(1 << f.n)) <= k)
    return _project(f, profile, keys, degree=k)


def residual_norm(
    f: PseudoBooleanFunction, approx: Approximation, profile: ProbabilityProfile
) -> float:
    """Squared weighted distance sum_T w(T) (f(T) - g(T))^2 to the approximant.

    Summed by :func:`~pbindex.measure._weighted_product_sum`, so no square
    overflows; a residual past the float range raises :class:`ValidationError`.
    """
    _check_same_n(profile, f)
    if approx.n != f.n:
        raise DimensionError(f"approximation has n={approx.n} but game has n={f.n}")
    diff = f.values - approx.table().values
    return _weighted_product_sum(profile, diff, diff, "the residual")
