"""Best approximations of a game by orthogonal projection.

The best S-approximation of f under the product measure w is the function in
V_S = span{u_T : T subseteq S} minimizing sum_T w(T) (f(T) - g(T))^2.  Because
the v_{T,p} are orthonormal for <.,.>_w, the minimizer is simply

    f_{S,p} = sum_{T subseteq S} <f, v_{T,p}> v_{T,p},

and the best degree-k approximation replaces the index set by {|T| <= k}.
The basis is a tensor product, so one pass of ``core.axis_map`` over the
game table gives every <f, v_{T,p}>: for V_S it folds the axes outside S
away, leaving 2**|S| entries.  Its inverse on the lattice of S expands the
series in the unanimity basis.  A result holds its index set and coefficients
as aligned arrays; the normal-equations route lives in :mod:`pbindex.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Coalition,
    MobiusRepresentation,
    PseudoBooleanFunction,
    axis_map,
    check_mask,
    full_mask,
    submasks,
    zeta,
)
from .errors import DimensionError, ValidationError
from .measure import ProbabilityProfile, _check_same_n, _weighted_product_sum


@dataclass(frozen=True, eq=False)
class Approximation:
    """A projection of a game onto V_S or onto degree <= k.

    Aligned read-only arrays: for T = ``keys[j]``, ``fourier[j]`` is <f, v_{T,p}>
    and ``unanimity[j]`` the coefficient of u_T (a non-finite one raises
    :class:`ValidationError`).  ``keys`` (int64) ascends: the submasks of S, or
    the masks of at most k players.  Its values depend on the players of U, the
    union of ``keys``, only.  ``multilinear`` is the dense view over all 2**n
    masks, 0.0 off ``keys``, built on each access; no route reads it.
    """

    n: int
    keys: np.ndarray
    fourier: np.ndarray
    unanimity: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.unanimity)):
            raise ValidationError("Mobius table contains non-finite entries")
        for column in (self.keys, self.fourier, self.unanimity):
            column.setflags(write=False)

    @property
    def multilinear(self) -> MobiusRepresentation:
        coeffs = np.zeros(1 << self.n)
        coeffs[self.keys] = self.unanimity
        return MobiusRepresentation(self.n, coeffs)

    def lattice_values(self) -> np.ndarray:
        """The approximant on the ascending submasks of U, by one zeta there.

        A value past the float range raises :class:`ValidationError`.
        """
        return self._broadcastable().reshape(-1)

    def _broadcastable(self) -> np.ndarray:
        # the lattice values as a (2,) * n table (axis 0 the highest player), extent 1 off U
        U = int(np.bitwise_or.reduce(self.keys))
        values = self.unanimity  # U = 0: the constant
        if U:
            if values.size < 1 << U.bit_count():  # 0.0 on the submasks of U that are not keys
                values = np.zeros(1 << U.bit_count())
                low = U == values.size - 1  # U of low bits, as N: a key is its own position
                values[self.keys if low else np.searchsorted(submasks(U), self.keys)] = self.unanimity
            values = MobiusRepresentation(U.bit_count(), values)  # the scatter is freed before the zeta
            values = zeta(values).values
        return values.reshape([2 if U >> i & 1 else 1 for i in reversed(range(self.n))])

    def table(self) -> PseudoBooleanFunction:
        """The approximant on all vertices: :meth:`lattice_values` broadcast over N - U.

        Off the lattice it adds 0.0 (-0.0 becomes 0.0), as a dense zeta of ``multilinear`` does.
        """
        lattice = self._broadcastable()
        values = np.empty((2,) * self.n)
        index = [slice(None)] * self.n
        for axis in np.flatnonzero(np.array(lattice.shape) == 1).tolist():
            index[axis] = slice(1, 2)  # this player outside U in, the ones before it out
            np.add(lattice, 0.0, out=values[tuple(index)])
            index[axis] = slice(0, 1)
        values[tuple(index)] = lattice  # on the lattice: every player outside U out
        return PseudoBooleanFunction(self.n, values.reshape(-1))


def _expand_fourier(
    S: Coalition, packed: np.ndarray, profile: ProbabilityProfile
) -> np.ndarray:
    """Distribute sum_{T subseteq S} c_T prod_{i in T}(x_i - p_i)/s_i over the unanimity basis.

    c_T is ``packed[j]`` for T = ``submasks(S)[j]``, and u_T's coefficient comes
    back at j.  Per axis (x_i - p_i)/s_i = x_i/s_i - p_i/s_i, so the inverse map
    sends (c0, c1) to (c0 - p_i c1/s_i, c1/s_i) on the lattice of S.  An overflow
    is left to :class:`Approximation`'s finiteness check, so numpy's warning is silenced.
    """
    maps = []
    for i, pi in enumerate(profile.p.tolist()):
        if S >> i & 1:
            s = math.sqrt(pi * (1.0 - pi))
            maps.append((1.0, -pi / s, 0.0, 1.0 / s))
    with np.errstate(over="ignore", invalid="ignore"):
        return axis_map(packed, maps)


def _fourier_maps(profile: ProbabilityProfile, keep: Coalition) -> list[tuple[float, ...]]:
    # fourier_table's map on the axes of ``keep``; the others fold to q f0 + p f1
    maps = []
    for i, pi in enumerate(profile.p.tolist()):
        s = math.sqrt(pi * (1.0 - pi))
        maps.append((1.0 - pi, pi, -s, s) if keep >> i & 1 else (1.0 - pi, pi))
    return maps


def fourier_table(f: PseudoBooleanFunction, profile: ProbabilityProfile) -> np.ndarray:
    """<f, v_{T,p}> for every T, as a table in mask order.

    With q = 1-p and s = sqrt(pq), one pass of the per-axis map
    (f0, f1) -> (q f0 + p f1, s (f1 - f0)), the weighted sums of f against 1
    and against (x_i - p_i)/s, leaves <f, v_{T,p}> at every entry T.
    """
    _check_same_n(profile, f)
    return axis_map(f.values, _fourier_maps(profile, full_mask(f.n)))


def best_s_approximation(
    f: PseudoBooleanFunction, S: Coalition, profile: ProbabilityProfile
) -> Approximation:
    """Orthogonal projection of f onto V_S under the product measure.

    :func:`fourier_table`'s map on the axes of S, the others folded to their
    weighted sums, leaves its bits at the T inside S on 2**|S| entries.
    """
    _check_same_n(profile, f)
    check_mask(S, f.n)
    fourier = axis_map(f.values, _fourier_maps(profile, S))
    return Approximation(f.n, submasks(S), fourier, _expand_fourier(S, fourier, profile))


def best_k_approximation(
    f: PseudoBooleanFunction, k: int, profile: ProbabilityProfile
) -> Approximation:
    """Projection of f onto the multilinear polynomials of degree at most k."""
    _check_same_n(profile, f)
    if not 0 <= k <= f.n:
        raise ValidationError(f"degree must lie in 0..{f.n}, got {k}")
    table = fourier_table(f, profile)
    kept = np.bitwise_count(np.arange(1 << f.n)) <= k
    table[~kept] = 0.0
    expanded = _expand_fourier(full_mask(f.n), table, profile)
    keys = np.flatnonzero(kept)
    return Approximation(f.n, keys, table[keys], expanded[keys])


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
    # the only dense table (a zero's sign off U squares away); an overflow fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.subtract(f.values.reshape((2,) * f.n), approx._broadcastable()).reshape(-1)
    return _weighted_product_sum(profile, diff, diff, "the residual")
