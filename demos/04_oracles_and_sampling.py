"""Cross-validating the fast routes against independent oracles.

Everything the package computes analytically can be reproduced a second way:
a Gram-system solve for the projections, seeded Monte Carlo for the
expectation identities, Gauss-Legendre quadrature for the probability
integrals.  This script runs each pair side by side.
"""

import numpy as np

from pbindex import (
    PseudoBooleanFunction,
    ProbabilityProfile,
    banzhaf_influence,
    banzhaf_interaction,
    best_s_approximation,
    cdf_integral_check,
    cube_average,
    diagonal_quadrature,
    expectation,
    lsq_normal_equations,
    mc_expectation,
    shapley_generalized_value,
    sigma_s,
)
from pbindex.measure import multilinear_expectation

rng = np.random.default_rng(2024)
n = 7
f = PseudoBooleanFunction(n, rng.uniform(-1, 1, 1 << n))
p = ProbabilityProfile(rng.uniform(0.2, 0.8, n))
S = 0b0101100

print("== projection vs normal equations ==")
fast = best_s_approximation(f, S, p)
gram = lsq_normal_equations(f, S, p)
gap = np.max(np.abs(fast.multilinear.coeffs - gram.multilinear.coeffs))
print(f"max coefficient gap between the two solvers: {gap:.2e}")

print()
print("== Monte Carlo vs closed forms (100k coalitions, seed 42) ==")
pairs = [
    ("mean worth     E[f(C)]", "identity", expectation(p, f)),
    ("influence      E[(sigma_S f)(C)]", "sigma", banzhaf_influence(f, S, p)),
    ("interaction    E[(Delta_S f)(C)]", "delta", banzhaf_interaction(f, S, p)),
]
for label, transform, truth in pairs:
    est = mc_expectation(f, transform, S, p, 100_000, seed=42)
    sigmas = abs(est.mean - truth) / est.std_error
    print(f"  {label:<36} {est.mean: .5f} +/- {est.std_error:.5f}   truth {truth: .5f}  ({sigmas:.1f} SE)")

print()
print("== any product of unit-interval distributions with mean p works ==")
est = cdf_integral_check(f, S, p, 100_000, seed=42)
truth = banzhaf_influence(f, S, p)
print(f"  Beta(2p, 2(1-p)) integral: {est.mean:.5f} +/- {est.std_error:.5f}   truth {truth:.5f}")
point = multilinear_expectation(p, sigma_s(f, S))
print(f"  point mass at p:           {point:.5f}   (exact)")

print()
print("== integrals over the probability parameter ==")
print("averaging the influence over a shared p recovers the Shapley value:")
print(f"  Gauss-Legendre on the diagonal: {diagonal_quadrature(f, S): .6f}")
print(f"  Shapley generalized value:      {shapley_generalized_value(f, S): .6f}")
print("averaging over the whole cube recovers the uniform influence:")
uniform = ProbabilityProfile.uniform(n)
print(f"  exact cube average:             {cube_average(f, S): .6f}")
print(f"  influence at p = 1/2:           {banzhaf_influence(f, S, uniform): .6f}")
