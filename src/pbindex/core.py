"""Dense pseudo-Boolean functions and exact transforms on the subset lattice.

A pseudo-Boolean function assigns a real worth f(T) to every coalition T of
the player set N = {1, ..., n}.  Coalitions are bitmasks: bit i set means
player i+1 belongs to T, so the whole function is a table of 2**n float64
values indexed by mask.  This module holds the combinatorial workhorses the
rest of the package builds on: the Mobius and zeta (subset-sum) transforms,
:func:`axis_map`, the per-axis 2x2 kernel of the whole-lattice maps (it also
folds axes away), discrete S-derivatives, the switch operator sigma_S,
unanimity games and :func:`split_view` (the lattice split by S).

All objects are immutable after construction and every function is pure, so
the module is safe for concurrent reads without locking.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

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


def split_view(v: np.ndarray, S: Coalition) -> np.ndarray:
    """The 2**n table ``v`` as a (2,)*n view that writes through to it: the axes of S, then
    those outside S, each from the highest player down, so in C order entry (r, d) is
    v[R_r | D_d] for R_r and D_d the ascending submasks of S and of N - S."""
    n = v.size.bit_length() - 1
    return v.reshape((2,) * n).transpose(sorted(range(n), key=lambda a: not S >> (n - 1 - a) & 1))


def _face(v: np.ndarray, S: Coalition, bit: int) -> np.ndarray:
    """The face R = S (bit 1) or R = 0 (bit 0) of :func:`split_view`: entry d is v[D_d | R]."""
    return split_view(v, S)[(bit,) * S.bit_count() + (...,)]


def _grid(v: np.ndarray, S: Coalition) -> np.ndarray:
    """A fresh copy of :func:`split_view`, rows r by R_r and columns d by D_d: row 0 is R = 0,
    and |D_d| is the bit count of d."""
    return np.array(split_view(v, S), order="C").reshape(1 << S.bit_count(), -1)


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
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} needs numeric entries: {exc}") from exc
    if arr.shape != (1 << n,):
        raise ValidationError(
            f"{what} needs exactly 2**{n} = {1 << n} entries, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr.view()  # numpy refuses to make a view of a frozen array writeable


def _write_once(obj, name: str, *value) -> None:
    # __setattr__ and __delattr__ of the shared frozen classes: set a slot while None
    if getattr(obj, name, None) is not None or not value:
        raise AttributeError(f"{type(obj).__name__}.{name} is read-only")
    object.__setattr__(obj, name, *value)


class PseudoBooleanFunction:
    """Worth table of a game: ``values[mask]`` is f(T) for the coalition T.

    The table is copied and frozen at construction; the Mobius transform is
    computed once on first request and cached on the instance.
    """

    __slots__ = ("n", "values", "_mobius_cache")
    __setattr__ = __delattr__ = _write_once

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
    __setattr__ = __delattr__ = _write_once

    def __init__(self, n: int, coeffs):
        check_players(n)
        self.n = n
        self.coeffs = _as_table(coeffs, n, "Mobius table")

    def __repr__(self) -> str:
        return f"MobiusRepresentation(n={self.n}, coeffs={self.coeffs.tolist()!r})"


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _butterfly_inplace(v: np.ndarray, n: int, op: np.ufunc) -> None:
    # axis i pairs masks differing in bit i, and v1 becomes op(v1, v0).  Near the
    # float range this may overflow: the finiteness check of the frozen result
    # then raises ValidationError, so numpy's warning is silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            pairs = v.reshape(-1, 2, 1 << i)
            op(pairs[:, 1, :], pairs[:, 0, :], out=pairs[:, 1, :])


def axis_map(v: np.ndarray, maps: Sequence[tuple[float, ...]]) -> np.ndarray:
    """A contiguous 2**n table with a 2x2 map applied on every axis; ``v`` is not written.

    ``maps[i] = (m00, m01, m10, m11)`` sends each pair (v0, v1) of entries
    whose masks differ only in bit i to (m00 v0 + m01 v1, m10 v0 + m11 v1),
    row 0 at the mask without bit i.  ``maps[i] = (m00, m01)`` folds axis i
    away: only row 0 is kept, and the table halves.  Axes go 0..n-1, so a
    kept entry gets the bits of the full map.  The first axis writes a new
    table, and kept axes after it map that in place: O(n 2**n) in all.
    """
    if v.shape != (1 << len(maps),) or not v.flags.c_contiguous:
        raise ValidationError(
            f"axis map needs a contiguous table of 2**{len(maps)} entries, got shape {v.shape}"
        )
    out, k = v, 0  # k: the bit of the next axis in ``out``
    for m in maps:
        pairs = out.reshape(-1, 2, 1 << k)
        v0, v1 = pairs[:, 0, :], pairs[:, 1, :]
        row0 = m[0] * v0
        row0 += m[1] * v1
        if len(m) == 2:
            out = row0.reshape(-1)
            continue
        w0, w1 = v0, v1
        if out is v:  # the first kept axis writes the new table
            out = np.empty_like(v)
            w0, w1 = out.reshape(-1, 2, 1 << k).transpose(1, 0, 2)
        np.multiply(v1, m[3], out=w1)
        w1 += m[2] * v0
        w0[...] = row0
        k += 1
    return v.copy() if out is v else out


def mobius(f: PseudoBooleanFunction) -> MobiusRepresentation:
    """Mobius transform a(S) = sum_{T subseteq S} (-1)^(|S|-|T|) f(T).

    Runs the in-place subset-sum butterfly in O(n 2**n).  The result is
    cached on ``f``, so repeated index queries share one transform.
    """
    if f._mobius_cache is None:
        work = f.values.copy()
        _butterfly_inplace(work, f.n, np.subtract)
        f._mobius_cache = MobiusRepresentation(f.n, work)
    return f._mobius_cache


def zeta(a: MobiusRepresentation) -> PseudoBooleanFunction:
    """Inverse of :func:`mobius`: f(S) = sum_{T subseteq S} a(T)."""
    work = a.coeffs.copy()
    _butterfly_inplace(work, a.n, np.add)
    return PseudoBooleanFunction(a.n, work)


# ---------------------------------------------------------------------------
# difference and switch operators
# ---------------------------------------------------------------------------

def s_difference(f: PseudoBooleanFunction, S: Coalition) -> PseudoBooleanFunction:
    """Discrete S-derivative Delta_S f by iterated single-variable differences.

    The result no longer depends on the coordinates in S; it is stored as a
    full table with those coordinates zeroed, i.e. g(T) = g(T minus S).
    Each bit i of S, lowest first, halves axis n-1-i of the (2,)*n view.
    """
    check_mask(S, f.n)
    work = f.values.reshape((2,) * f.n)
    for i in range(f.n):
        if S >> i & 1:
            work = np.diff(work, axis=f.n - 1 - i)
    return PseudoBooleanFunction(f.n, np.broadcast_to(work, (2,) * f.n).reshape(-1))


def sigma_s(f: PseudoBooleanFunction, S: Coalition) -> PseudoBooleanFunction:
    """Switch operator: (sigma_S f)(x) = f(x | x_i=1 on S) - f(x | x_i=0 on S).

    Constant in the S-coordinates; stored with the same zeroed convention as
    :func:`s_difference`.
    """
    check_mask(S, f.n)
    work = np.empty(1 << f.n)
    split_view(work, S)[...] = _face(f.values, S, 1) - _face(f.values, S, 0)  # alike in R
    return PseudoBooleanFunction(f.n, work)


def unanimity_game(n: int, T: Coalition) -> PseudoBooleanFunction:
    """u_T: worth 1 exactly on supersets of T (u_emptyset is the constant 1)."""
    check_players(n)
    check_mask(T, n)
    pairs = [(0.0, 1.0) if T >> i & 1 else (1.0, 1.0) for i in range(n)]
    return PseudoBooleanFunction(n, product_table(pairs))


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
