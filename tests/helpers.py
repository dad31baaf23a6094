"""Shared test utilities: random inputs and independent brute-force oracles.

The oracles stay deliberately naive (plain Python loops over all subsets) so
they share no code path with the implementations they check.
"""

import numpy as np

from pbindex import PseudoBooleanFunction, ProbabilityProfile


def random_game(rng, n, lo=-1.0, hi=1.0):
    return PseudoBooleanFunction(n, rng.uniform(lo, hi, 1 << n))


def random_profile(rng, n, lo=0.05, hi=0.95):
    return ProbabilityProfile(rng.uniform(lo, hi, n))


def monotone_game(rng, n):
    """Random game made nondecreasing by cumulative max over the subset lattice."""
    vals = rng.uniform(0.0, 1.0, 1 << n)
    for i in range(n):
        pairs = vals.reshape(-1, 2, 1 << i)
        np.maximum(pairs[:, 1, :], pairs[:, 0, :], out=pairs[:, 1, :])
    return PseudoBooleanFunction(n, vals)


def dense_table(n, entries):
    """The float64 table over all 2**n masks holding ``entries`` (mask -> value), 0.0 elsewhere."""
    out = np.zeros(1 << n)
    out[list(entries)] = list(entries.values())
    return out


def bits_of(mask, n):
    return [i for i in range(n) if mask >> i & 1]


def brute_mobius(values, n):
    """a(S) = sum over T inside S of (-1)^(|S|-|T|) f(T), straight from the sum."""
    out = np.zeros(1 << n)
    for S in range(1 << n):
        acc = 0.0
        for T in range(1 << n):
            if T & S == T:
                sign = (-1.0) ** (bin(S).count("1") - bin(T).count("1"))
                acc += sign * values[T]
        out[S] = acc
    return out


def brute_zeta(coeffs, n):
    out = np.zeros(1 << n)
    for S in range(1 << n):
        out[S] = sum(coeffs[T] for T in range(1 << n) if T & S == T)
    return out


def brute_weight(p, T, n):
    w = 1.0
    for i in range(n):
        w *= p[i] if T >> i & 1 else 1.0 - p[i]
    return w


def brute_influence(f, S, p):
    """Weighted average of marginal contributions, from the raw definition."""
    n = f.n
    comp = [i for i in range(n) if not S >> i & 1]
    total = 0.0
    for bits in range(1 << len(comp)):
        T = 0
        coeff = 1.0
        for j, i in enumerate(comp):
            if bits >> j & 1:
                T |= 1 << i
                coeff *= p.p[i]
            else:
                coeff *= 1.0 - p.p[i]
        total += coeff * (f.values[T | S] - f.values[T])
    return total


def brute_interaction(f, S, p):
    """E[(Delta_S f)(C)] computed as an explicit sum over all coalitions."""
    n = f.n
    total = 0.0
    for T in range(1 << n):
        # Delta_S f (T) = sum over R inside S of (-1)^(|S|-|R|) f((T-S) u R)
        base = T & ~S
        d = 0.0
        R = 0
        while True:
            sign = (-1.0) ** (bin(S).count("1") - bin(R).count("1"))
            d += sign * f.values[base | R]
            if R == S:
                break
            R = (R - S) & S
        total += brute_weight(p.p, T, n) * d
    return total
