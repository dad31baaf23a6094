"""Dense results cost a few 2**n tables, not a Python object per coalition."""

import tracemalloc

import numpy as np
import pytest

from pbindex import (
    banzhaf_influence,
    best_k_approximation,
    best_s_approximation,
    cube_average,
    gv_p_to_q,
    influence_value_coefficients,
    interaction_table,
    mobius,
    shapley_generalized_value,
)
from helpers import random_game, random_profile

N = 16
TABLE_BYTES = 8 << N  # one float64 or int64 entry per coalition

CALLS = {
    "best_k_approximation": lambda f, p: best_k_approximation(f, N, p),
    "best_s_approximation": lambda f, p: best_s_approximation(f, (1 << N) - 1, p),
    "interaction_table": lambda f, p: interaction_table(f, p),
    "gv_p_to_q": lambda f, p: gv_p_to_q(influence_value_coefficients(1, p)),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_traced_peak_stays_within_eight_tables(name):
    rng = np.random.default_rng(16)
    f = random_game(rng, N)
    p = random_profile(rng, N)
    tracemalloc.start()
    try:
        result = CALLS[name](f, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is not None
    assert peak <= 8 * TABLE_BYTES, f"{name} peaked at {peak / TABLE_BYTES:.1f} tables"


S4 = 0b1000_0100_0010_0001  # |S| = 4: the sums run over the 2**16 - 2**12 masks meeting S

# the per-subset sums gather their terms from the split of the lattice by S
SPLIT_CALLS = {
    "banzhaf_influence": lambda f, p: banzhaf_influence(f, S4, p),
    "shapley_generalized_value": lambda f, p: shapley_generalized_value(f, S4),
    "cube_average": lambda f, p: cube_average(f, S4),
}


@pytest.mark.parametrize("name", list(SPLIT_CALLS))
def test_per_subset_sums_peak_within_three_and_a_half_tables(name):
    rng = np.random.default_rng(16)
    f = random_game(rng, N)
    p = random_profile(rng, N)
    mobius(f)  # cached on the game, as for repeated queries
    tracemalloc.start()
    try:
        SPLIT_CALLS[name](f, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * TABLE_BYTES, f"{name} peaked at {peak / TABLE_BYTES:.1f} tables"
