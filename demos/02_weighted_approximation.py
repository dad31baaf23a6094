"""Best approximations under an independent-coalition product measure.

Fix per-player participation probabilities p.  The functions
v_{T,p}(x) = prod_{i in T} (x_i - p_i)/sqrt(p_i(1-p_i)) are orthonormal for
the weighted inner product, so projecting a game onto "functions of the
variables in S" (or "degree at most k") is just a coefficient readout.
"""

import numpy as np

from pbindex import (
    PseudoBooleanFunction,
    ProbabilityProfile,
    banzhaf_interaction,
    basis_function,
    best_k_approximation,
    best_s_approximation,
    inner_product,
    mask_from_players,
    residual_norm,
)

rng = np.random.default_rng(7)
n = 6
f = PseudoBooleanFunction(n, rng.uniform(-1, 1, 1 << n))
p = ProbabilityProfile([0.2, 0.35, 0.5, 0.5, 0.65, 0.8])

print("== the basis really is orthonormal ==")
worst = 0.0
for _ in range(200):
    T, R = rng.integers(0, 1 << n, size=2)
    got = inner_product(p, basis_function(p, int(T)), basis_function(p, int(R)))
    worst = max(worst, abs(got - (1.0 if T == R else 0.0)))
print(f"max |<v_T, v_R> - delta| over 200 random pairs: {worst:.2e}")

print()
print("== projecting onto the variables of S ==")
S = mask_from_players([1, 2, 5], n)
approx = best_s_approximation(f, S, p)
print("coefficients of the approximant (only subsets of S appear):")
print("  basis <f, v_T> in approx.fourier and unanimity u_T in approx.unanimity,")
print("  both aligned with the masks in approx.keys")
for T, c, u in zip(approx.keys.tolist(), approx.fourier.tolist(), approx.unanimity.tolist()):
    print(f"  T={T:06b}: <f, v_T> {c: .6f}   u_T {u: .6f}")
print(f"leading coefficient      {approx.unanimity[-1]: .6f}")
print(f"interaction index I_B,p  {banzhaf_interaction(f, S, p): .6f}   (same number)")

print()
print("== residuals shrink as S grows ==")
chain = [[], [1], [1, 2], [1, 2, 5], [1, 2, 4, 5], [1, 2, 3, 4, 5, 6]]
for players in chain:
    Sk = mask_from_players(players, n)
    res = residual_norm(f, best_s_approximation(f, Sk, p), p)
    print(f"  S={str(players):<20} residual {res:.6f}")

print()
print("== degree-k approximations ==")
for k in range(n + 1):
    res = residual_norm(f, best_k_approximation(f, k, p), p)
    print(f"  degree <= {k}: residual {res:.6f}")
