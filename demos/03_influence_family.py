"""The Banzhaf-type index family on a weighted voting game.

One projection problem induces the whole family: the interaction index is
the leading coefficient of the best S-approximation, the influence index is
its endpoint gap f_S(S) - f_S(0), the Shapley generalized value averages the
influence over a shared participation probability, and the normalized index
turns influence into a correlation.
"""

import numpy as np

from pbindex import (
    ProbabilityProfile,
    banzhaf_influence,
    banzhaf_interaction,
    ben_or_linial_influence,
    interaction_table,
    mask_from_players,
    normalized_influence,
    players_from_mask,
    shapley_generalized_value,
    taylor_reconstruct,
    weighted_voting_game,
)
from pbindex.indices import INFLUENCE_METHODS

# [3; 2, 2, 1]: players 1 and 2 carry weight 2, player 3 weight 1, quota 3
game = weighted_voting_game(3, [2, 2, 1])
n = game.n
uniform = ProbabilityProfile.uniform(n)
skewed = ProbabilityProfile([0.9, 0.5, 0.1])

print("== four equivalent routes to the influence index ==")
S = mask_from_players([1, 3], n)
for profile, name in ((uniform, "uniform"), (skewed, "p=(0.9,0.5,0.1)")):
    vals = [banzhaf_influence(game, S, profile, method=m) for m in INFLUENCE_METHODS]
    spread = max(vals) - min(vals)
    print(f"  {name:<16} Phi(S={{1,3}}) = {vals[0]: .6f}   route spread {spread:.1e}")

print()
print("== the family, subset by subset (uniform profile) ==")
print(f"  {'S':<8} {'I_B':>9} {'Phi_B':>9} {'Phi_Sh':>9} {'BoL':>9} {'r':>9}")
for S in range(1, 1 << n):
    label = "{" + ",".join(map(str, players_from_mask(S))) + "}"
    r = normalized_influence(game, S, uniform)
    print(
        f"  {label:<8}"
        f" {banzhaf_interaction(game, S, uniform):>9.4f}"
        f" {banzhaf_influence(game, S, uniform):>9.4f}"
        f" {shapley_generalized_value(game, S):>9.4f}"
        f" {ben_or_linial_influence(game, S):>9.4f}"
        f" {r:>9.4f}"
    )
print("(the game is monotone, so the Ben-Or-Linial column equals Phi_B)")

print()
print("== weight is not power ==")
print("player 3 carries half the weight of the others, yet [3; 2,2,1] is")
print("secretly 2-out-of-3 majority, so everyone's power is equal:")
for i in range(n):
    print(f"  power of player {i + 1}: {banzhaf_influence(game, 1 << i, uniform):.4f}")

print()
print("== the interaction table is a lossless encoding ==")
table = interaction_table(game, skewed)  # one array, entry S = I_B,p(S)
for S in range(1 << n):
    label = "{" + ",".join(map(str, players_from_mask(S))) + "}"
    print(f"  I_B,p({label}) = {table[S]: .4f}")
rebuilt = taylor_reconstruct(table, skewed)
print("max reconstruction error:", np.max(np.abs(rebuilt.values - game.values)))

print()
print("== influence inside S ignores the probabilities of S's own members ==")
for p1 in (0.1, 0.5, 0.9):
    profile = ProbabilityProfile([p1, 0.5, 0.25])
    print(f"  p1={p1}: Phi({{1}}) = {banzhaf_influence(game, 0b001, profile):.6f}")
print("  (only p2 and p3 matter for S={1})")
