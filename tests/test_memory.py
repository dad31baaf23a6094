"""Dense results cost a few 2**n tables, not a Python object per coalition."""

import tracemalloc

import numpy as np
import pytest

from pbindex import (
    best_k_approximation,
    best_s_approximation,
    gv_p_to_q,
    influence_value_coefficients,
    interaction_table,
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
