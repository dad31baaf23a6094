"""Dense pseudo-Boolean functions and exact transforms on the subset lattice.

A pseudo-Boolean function assigns a real worth f(T) to every coalition T of
the player set N = {1, ..., n}.  Coalitions are bitmasks: bit i set means
player i+1 belongs to T, so the whole function is a table of 2**n float64
values indexed by mask.  This module holds the combinatorial workhorses the
rest of the package builds on: the Mobius and zeta (subset-sum) transforms,
discrete S-derivatives, the switch operator sigma_S, unanimity games, the
multilinear extension, and :func:`split_submasks`, the lattice split by a
coalition S behind every per-subset index sum.

All objects are immutable after construction and every function is pure, so
the module is safe for concurrent reads without locking.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ValidationError

# Dense 2**n float64 tables stay under ~135 MB at this cap.
MAX_PLAYERS = 24

# A coalition is a plain int bitmask; bit i <=> player i+1.
Coalition = int


# ---------------------------------------------------------------------------
# bitmask helpers
# ---------------------------------------------------------------------------

def full_mask(n: int) -> Coalition:
    """Mask of the grand coalition N."""
    return (1 << n) - 1


def check_players(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_PLAYERS:
        raise ValidationError(
            f"player count must be an integer in [1, {MAX_PLAYERS}], got {n!r}"
        )


def check_mask(mask: Coalition, n: int) -> None:
    if (
        not isinstance(mask, (int, np.integer))
        or isinstance(mask, bool)
        or not 0 <= mask < (1 << n)
    ):
        raise ValidationError(f"coalition mask {mask!r} is not a subset of N for n={n}")


def mask_from_players(players: Iterable[int], n: int) -> Coalition:
    """Bitmask for a coalition given as 1-based player labels."""
    mask = 0
    for i in players:
        if not 1 <= int(i) <= n:
            raise ValidationError(f"player {i!r} outside 1..{n}")
        mask |= 1 << (int(i) - 1)
    return mask


def players_from_mask(mask: Coalition) -> list[int]:
    """Sorted 1-based player labels of a coalition mask."""
    return [i + 1 for i in range(int(mask).bit_length()) if mask >> i & 1]


def subsets_of(mask: Coalition) -> Iterator[Coalition]:
    """All submasks of ``mask`` in increasing numeric order."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def submasks(mask: Coalition) -> np.ndarray:
    """All submasks of ``mask`` as an int64 array, in the order of :func:`subsets_of`.

    Each bit of ``mask``, lowest first, fills the next block: the ones before, with that bit set.
    """
    bits = [i for i in range(int(mask).bit_length()) if mask >> i & 1]
    out = np.zeros(1 << len(bits), dtype=np.int64)
    for j, i in enumerate(bits):
        np.bitwise_or(out[: 1 << j], 1 << i, out=out[1 << j : 2 << j])
    return out


def split_submasks(S: Coalition, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(D, R): the ascending submasks of N - S and of S.  T = D | R meets S iff R != 0."""
    return submasks(full_mask(n) & ~S), submasks(S)


def product_table(pairs: Sequence[tuple[float, float]]) -> np.ndarray:
    """Table over all masks T of prod_i (b_i if bit i is in T else a_i).

    ``pairs[i] = (a_i, b_i)``.  Entry T starts from 1.0 and multiplies its
    factors in increasing bit order, so exact 1.0 factors change no bit.
    Built by doubling into one preallocated array.
    """
    out = np.empty(1 << len(pairs))
    out[0] = 1.0
    for i, (a, b) in enumerate(pairs):
        low = out[: 1 << i]
        np.multiply(low, b, out=out[1 << i : 2 << i])
        low *= a
    return out


def subset_products(x: Sequence[float]) -> np.ndarray:
    """Table of prod_{i in T} x_i for every mask T: :func:`product_table` of (1, x_i)."""
    return product_table([(1.0, xi) for xi in x])


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def _as_table(values, n: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.float64).copy()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} needs numeric entries: {exc}") from exc
    if arr.shape != (1 << n,):
        raise ValidationError(
            f"{what} needs exactly 2**{n} = {1 << n} entries, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


class PseudoBooleanFunction:
    """Worth table of a game: ``values[mask]`` is f(T) for the coalition T.

    The table is copied and frozen at construction; the Mobius transform is
    computed once on first request and cached on the instance.
    """

    __slots__ = ("n", "values", "_mobius_cache")

    def __init__(self, n: int, values):
        check_players(n)
        self.n = n
        self.values = _as_table(values, n, "game table")
        self._mobius_cache: MobiusRepresentation | None = None

    def __repr__(self) -> str:
        return f"PseudoBooleanFunction(n={self.n}, values={self.values.tolist()!r})"


class MobiusRepresentation:
    """Mobius coefficients a(T): the game equals sum_T a(T) * u_T."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        check_players(n)
        self.n = n
        self.coeffs = _as_table(coeffs, n, "Mobius table")

    def __repr__(self) -> str:
        return f"MobiusRepresentation(n={self.n}, coeffs={self.coeffs.tolist()!r})"


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _zeta_inplace(v: np.ndarray, n: int) -> None:
    # butterfly schedule: axis i pairs masks differing in bit i
    for i in range(n):
        pairs = v.reshape(-1, 2, 1 << i)
        pairs[:, 1, :] += pairs[:, 0, :]


def _mobius_inplace(v: np.ndarray, n: int) -> None:
    for i in range(n):
        pairs = v.reshape(-1, 2, 1 << i)
        pairs[:, 1, :] -= pairs[:, 0, :]


def axis_map_inplace(
    v: np.ndarray, maps: Sequence[tuple[float, float, float, float]]
) -> None:
    """Apply a 2x2 map on every axis of a contiguous 2**n table, in place.

    ``maps[i] = (m00, m01, m10, m11)`` sends each pair (v0, v1) of entries
    whose masks differ only in bit i to (m00 v0 + m01 v1, m10 v0 + m11 v1).
    The n maps act on different axes and so commute; the whole pass costs
    O(n 2**n).  Row 0 of the product is the value at masks without bit i,
    row 1 at masks with it.
    """
    if v.shape != (1 << len(maps),) or not v.flags.c_contiguous:
        raise ValidationError(
            f"axis map needs a contiguous table of 2**{len(maps)} entries, got shape {v.shape}"
        )
    for i, (m00, m01, m10, m11) in enumerate(maps):
        pairs = v.reshape(-1, 2, 1 << i)
        v0 = pairs[:, 0, :]
        v1 = pairs[:, 1, :]
        row0 = m00 * v0
        row0 += m01 * v1
        v1 *= m11
        v1 += m10 * v0
        v0[...] = row0


def mobius(f: PseudoBooleanFunction) -> MobiusRepresentation:
    """Mobius transform a(S) = sum_{T subseteq S} (-1)^(|S|-|T|) f(T).

    Runs the in-place subset-sum butterfly in O(n 2**n).  The result is
    cached on ``f``, so repeated index queries share one transform.
    """
    if f._mobius_cache is None:
        work = f.values.copy()
        _mobius_inplace(work, f.n)
        f._mobius_cache = MobiusRepresentation(f.n, work)
    return f._mobius_cache


def zeta(a: MobiusRepresentation) -> PseudoBooleanFunction:
    """Inverse of :func:`mobius`: f(S) = sum_{T subseteq S} a(T)."""
    work = a.coeffs.copy()
    _zeta_inplace(work, a.n)
    return PseudoBooleanFunction(a.n, work)


def eval_multilinear_extension(a: MobiusRepresentation, x) -> float:
    """Value of the multilinear extension sum_S a(S) prod_{i in S} x_i.

    The point ``x`` must lie in the unit cube [0, 1]^n; interior points are
    the expectation of the game under independent coalition formation.
    """
    pt = np.asarray(x, dtype=np.float64)
    if pt.shape != (a.n,):
        raise DomainError(f"point must have {a.n} coordinates, got shape {pt.shape}")
    if np.any(pt < 0.0) or np.any(pt > 1.0):
        raise DomainError(f"point {pt.tolist()} outside the unit cube")
    prods = subset_products(pt)
    return math.fsum((a.coeffs * prods).tolist())


# ---------------------------------------------------------------------------
# difference and switch operators
# ---------------------------------------------------------------------------

def s_difference(f: PseudoBooleanFunction, S: Coalition) -> PseudoBooleanFunction:
    """Discrete S-derivative Delta_S f by iterated single-variable differences.

    The result no longer depends on the coordinates in S; it is stored as a
    full table with those coordinates zeroed, i.e. g(T) = g(T minus S).
    """
    check_mask(S, f.n)
    work = f.values.copy()
    for i in range(f.n):
        if S >> i & 1:
            pairs = work.reshape(-1, 2, 1 << i)
            diff = pairs[:, 1, :] - pairs[:, 0, :]
            pairs[:, 0, :] = diff
            pairs[:, 1, :] = diff
    return PseudoBooleanFunction(f.n, work)


def sigma_s(f: PseudoBooleanFunction, S: Coalition) -> PseudoBooleanFunction:
    """Switch operator: (sigma_S f)(x) = f(x | x_i=1 on S) - f(x | x_i=0 on S).

    Constant in the S-coordinates; stored with the same zeroed convention as
    :func:`s_difference`.
    """
    check_mask(S, f.n)
    base = np.arange(1 << f.n) & ~S
    work = f.values[base | S] - f.values[base]
    return PseudoBooleanFunction(f.n, work)


def unanimity_game(n: int, T: Coalition) -> PseudoBooleanFunction:
    """u_T: worth 1 exactly on supersets of T (u_emptyset is the constant 1)."""
    check_players(n)
    check_mask(T, n)
    masks = np.arange(1 << n)
    return PseudoBooleanFunction(n, ((masks & T) == T).astype(np.float64))


# coalitions weighted_voting_game sums at a time, a power of two: OpenBLAS
# sums a product's leftover rows in another order (7-row chunks flipped ties)
VOTING_CHUNK = 1 << 16


def weighted_voting_game(quota: float, weights: Sequence[float]) -> PseudoBooleanFunction:
    """Simple game [quota; w_1, ..., w_n]: a coalition wins iff its weight meets the quota."""
    wvec = np.asarray(weights, dtype=np.float64)
    check_players(wvec.size)
    if not np.all(np.isfinite(wvec)) or not np.isfinite(quota):
        raise ValidationError("quota and weights must be finite")
    n = int(wvec.size)
    wins = np.empty(1 << n)
    for start in range(0, 1 << n, VOTING_CHUNK):  # bounds the 0/1 member matrix
        masks = np.arange(start, min(start + VOTING_CHUNK, 1 << n))
        member = (masks[:, None] >> np.arange(n)) & 1
        wins[start : start + masks.size] = member @ wvec >= quota
    return PseudoBooleanFunction(n, wins)
