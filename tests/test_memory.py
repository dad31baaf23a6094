"""Dense results cost a few 2**n tables, not a Python object per coalition."""

import math
import tracemalloc

import numpy as np
import pytest

from pbindex import (
    MobiusRepresentation,
    PseudoBooleanFunction,
    banzhaf_influence,
    ben_or_linial_influence,
    best_k_approximation,
    best_s_approximation,
    cdf_integral_check,
    cube_average,
    eval_multilinear_extension,
    g_function,
    gv_p_to_q,
    gv_q_to_p,
    influence_value_coefficients,
    interaction_table,
    mobius,
    residual_norm,
    s_difference,
    shapley_generalized_value,
    sigma_s,
    unanimity_game,
)
from pbindex import checks
from pbindex.games import parse_game, serialize_game
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

# the per-subset sums copy their terms into one grid of the split of the lattice by S
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


def test_inner_product_route_holds_the_two_gathered_halves():
    # at |S| = 1 the faces R = S and R = 0 hold half a table each: the two weighted
    # halves and their concatenation, with no index or mask array or g values beside them
    rng = np.random.default_rng(16)
    f = random_game(rng, N)
    p = random_profile(rng, N)
    p.weights()  # cached on the profile, as for repeated queries
    tracemalloc.start()
    try:
        banzhaf_influence(f, 1, p, "inner-product")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * TABLE_BYTES, f"the inner-product route peaked at {peak / TABLE_BYTES:.2f} tables"


def test_a_game_parsed_from_a_list_holds_one_table():
    values = np.random.default_rng(16).random(1 << N).tolist()
    tracemalloc.start()
    try:
        f = PseudoBooleanFunction(N, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.values.tolist() == values
    assert peak <= 1.5 * TABLE_BYTES, f"the table build peaked at {peak / TABLE_BYTES:.1f} tables"


def test_cdf_oracle_evaluates_the_table_outside_s():
    # sigma_S f's extension runs on the 2**12 masks with no bit of S, so its
    # product tables hold 2**6 entries per row instead of 2**8
    rng = np.random.default_rng(16)
    f = random_game(rng, N)
    p = random_profile(rng, N)
    tracemalloc.start()
    try:
        cdf_integral_check(f, S4, p, 10_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * TABLE_BYTES, f"the CDF oracle peaked at {peak / TABLE_BYTES:.1f} tables"


def test_cdf_oracle_at_the_grand_coalition_allocates_no_draws():
    # every draw of sigma_N f is f(N) - f(emptyset): 10**6 of them would take 7.6 MiB
    f = random_game(np.random.default_rng(4), 4)
    tracemalloc.start()
    try:
        estimate = cdf_integral_check(f, 0b1111, random_profile(np.random.default_rng(4), 4), 10**6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate.mean.hex() == float(f.values[-1] - f.values[0]).hex()
    assert estimate.std_error == 0.0
    assert peak < 1 << 20, f"the CDF oracle at S = N peaked at {peak / (1 << 20):.1f} MiB"


def test_projection_route_builds_no_whole_lattice_table():
    # the approximant's coefficients sit on the 2**4 submasks of S, so its two
    # endpoints need no zeta over all 2**16 masks
    rng = np.random.default_rng(16)
    f = random_game(rng, N)
    p = random_profile(rng, N)
    tracemalloc.start()
    try:
        banzhaf_influence(f, S4, p, "projection")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * TABLE_BYTES, f"the projection route peaked at {peak / TABLE_BYTES:.1f} tables"


def test_orthonormality_check_holds_its_basis_rows_once():
    # the 64 basis rows are filled into one (64, 2**16) table, with no list
    # of the rows beside it; one weighted block of 16 rows is the only copy
    rows_bytes = 64 * TABLE_BYTES
    rng = np.random.default_rng(16)
    f = random_game(rng, N)
    p = random_profile(rng, N)
    tracemalloc.start()
    try:
        check = checks._check_orthonormality(f, p, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak <= 1.3 * rows_bytes, f"the check peaked at {peak / rows_bytes:.2f} row tables"


def test_multilinear_extension_sums_no_list_of_its_terms():
    # at n = 20 the subset products and the terms take at most two 8 MiB
    # tables; a Python list of the 2**20 terms would take 48 MiB
    rng = np.random.default_rng(20)
    a = MobiusRepresentation(20, rng.normal(size=1 << 20))
    x = rng.random(20)
    tracemalloc.start()
    try:
        eval_multilinear_extension(a, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 << 20, f"peaked at {peak / (1 << 20):.1f} MiB"


def test_unanimity_game_holds_its_table_and_one_frozen_copy():
    # at n = 20 the 0/1 product table, the game's frozen copy and the
    # constructor's one-byte finiteness mask: 2.125 tables of 8 MiB
    table_bytes = 8 << 20
    unanimity_game(20, 0b1011)
    tracemalloc.start()
    try:
        unanimity_game(20, 0b1011)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * table_bytes, f"peaked at {peak / table_bytes:.2f} tables"


@pytest.mark.parametrize("call", ["table", "residual_norm"])
def test_an_approximation_is_broadcast_from_the_lattice_of_its_keys(call):
    # at n = 20 with |S| = 4 the approximant's 16 values fill one 8 MiB table:
    # table() adds the game's frozen copy and its finiteness mask (2.125
    # tables), residual_norm the difference from the game and its weighted
    # terms.  The profile's weights are cached, as after any expectation.
    table_bytes = 8 << 20
    rng = np.random.default_rng(20)
    f = random_game(rng, 20)
    p = random_profile(rng, 20)
    approx = best_s_approximation(f, 0b1000_0100_0010_0001 << 4, p)
    p.weights()
    tracemalloc.start()
    try:
        approx.table() if call == "table" else residual_norm(f, approx, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * table_bytes, f"{call} peaked at {peak / table_bytes:.2f} tables"


@pytest.mark.parametrize(
    "call, bound",
    [("influence_value_coefficients", 1.75), ("gv_q_to_p", 2.75)],
)
def test_a_coefficient_table_checks_its_support_with_a_boolean_mask(call, bound):
    # the support check clears the face R = 0 of a boolean table through the
    # 2**12 submasks of N - S, with no int64 scan of the 2**16 masks
    p = random_profile(np.random.default_rng(16), N)
    q_form = gv_p_to_q(influence_value_coefficients(S4, p))
    tracemalloc.start()
    try:
        influence_value_coefficients(S4, p) if call == "influence_value_coefficients" else gv_q_to_p(q_form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * TABLE_BYTES, f"{call} peaked at {peak / TABLE_BYTES:.2f} tables"


@pytest.mark.parametrize(
    "call, bound",
    [("ben_or_linial_influence", 1.5), ("gv_q_to_p", 2.0), ("gv_p_to_q", 3.0), ("sigma_s", 2.5)],
)
def test_the_split_by_s_is_read_through_a_view(call, bound):
    # the faces and the grid of core.split_view come with no int64 mask table:
    # a call holds its float copies and its result
    rng = np.random.default_rng(16)
    f = random_game(rng, N)
    p = random_profile(rng, N)
    q_form = gv_p_to_q(influence_value_coefficients(S4, p))
    calls = {
        "ben_or_linial_influence": lambda: ben_or_linial_influence(f, S4),
        "gv_q_to_p": lambda: gv_q_to_p(q_form),
        "gv_p_to_q": lambda: gv_p_to_q(influence_value_coefficients(S4, p)),
        "sigma_s": lambda: sigma_s(f, S4),
    }
    tracemalloc.start()
    try:
        calls[call]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * TABLE_BYTES, f"{call} peaked at {peak / TABLE_BYTES:.2f} tables"


def test_s_difference_of_the_grand_coalition_holds_one_table():
    # every axis halves the (2,)*n view, so S = N leaves one value, and its
    # broadcast is the game's frozen copy with its finiteness mask
    f = random_game(np.random.default_rng(16), N)
    tracemalloc.start()
    try:
        s_difference(f, (1 << N) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * TABLE_BYTES, f"s_difference peaked at {peak / TABLE_BYTES:.2f} tables"


@pytest.mark.parametrize("S", [0, S4, (1 << N) - 1])
def test_the_contrast_function_writes_its_two_faces_into_one_table(S):
    # a zero table with 1/p_S on the masks containing S and -1/q_S on those
    # missing it, and the game's frozen copy: no mask or int64 table beside them
    p = random_profile(np.random.default_rng(16), N)
    tracemalloc.start()
    try:
        g = g_function(S, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    T = np.arange(1 << N)
    inv_p = math.prod(1.0 / p.p[i] for i in range(N) if S >> i & 1)
    inv_q = math.prod(1.0 / (1.0 - p.p[i]) for i in range(N) if S >> i & 1)
    assert g.values.tobytes() == (((T & S) == S) * inv_p - ((T & S) == 0) * inv_q).tobytes()
    assert peak <= 2.25 * TABLE_BYTES, f"g_function peaked at {peak / TABLE_BYTES:.2f} tables"


@pytest.mark.usefixtures("parse_cache")
def test_a_parse_from_a_path_keeps_only_the_last_game(tmp_path):
    large, small = tmp_path / "large.json", tmp_path / "small.json"
    serialize_game(random_game(np.random.default_rng(16), N), large)
    serialize_game(random_game(np.random.default_rng(2), 2), small)
    tracemalloc.start()
    try:
        parse_game(large)
        kept = tracemalloc.get_traced_memory()[0]
        parse_game(small)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept >= TABLE_BYTES > after, f"{kept / TABLE_BYTES:.2f} then {after / TABLE_BYTES:.2f} tables kept"


@pytest.mark.usefixtures("parse_cache")
def test_a_parse_that_misses_drops_the_kept_game_and_peaks_with_the_text_and_the_list(tmp_path):
    # at n = 16 the file's text is 2.6 tables and json.loads' list of floats 4:
    # a text-mode read of the file peaked at 6.68 tables; the kept game (one
    # table) is dropped before the parse and the file's bytes (2.6 tables)
    # are released before the list is built
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    serialize_game(random_game(np.random.default_rng(16), N), one)
    serialize_game(random_game(np.random.default_rng(17), N), two)
    tracemalloc.start()
    try:
        parse_game(one)
        tracemalloc.reset_peak()
        parse_game(two)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.81 * TABLE_BYTES, f"the parse peaked at {peak / TABLE_BYTES:.2f} tables"
