"""Power, interaction and influence indexes for cooperative games.

The package works with dense pseudo-Boolean functions (games) on up to 24
players, projects them onto subspaces under an independent-coalition product
measure, and computes the whole Banzhaf-type index family those projections
induce, with brute-force and Monte Carlo oracles for cross-validation.
"""

from .approx import Approximation, best_k_approximation, best_s_approximation, residual_norm
from .core import (
    Coalition,
    MAX_PLAYERS,
    MobiusRepresentation,
    PseudoBooleanFunction,
    full_mask,
    mask_from_players,
    mobius,
    players_from_mask,
    s_difference,
    sigma_s,
    subsets_of,
    unanimity_game,
    weighted_voting_game,
    zeta,
)
from .errors import (
    DegenerateFunction,
    DimensionError,
    DomainError,
    EmptySubset,
    IncompleteTable,
    InvalidCoefficients,
    ParseError,
    PbindexError,
    SingularSystem,
    SumOverflow,
    ValidationError,
)
from .indices import (
    GeneralizedValueCoefficients,
    IndexReport,
    banzhaf_influence,
    banzhaf_interaction,
    ben_or_linial_influence,
    g_function,
    g_std,
    gv_p_to_q,
    gv_q_to_p,
    index_report,
    influence_interaction_expansion,
    influence_value_coefficients,
    interaction_table,
    normalized_influence,
    shapley_generalized_value,
    taylor_reconstruct,
)
from .measure import (
    ProbabilityProfile,
    basis_function,
    covariance,
    eval_multilinear_extension,
    expectation,
    inner_product,
    variance,
)
from .oracle import (
    SampleEstimate,
    cdf_integral_check,
    cube_average,
    diagonal_quadrature,
    lsq_normal_equations,
    mc_expectation,
    sample_coalitions,
)

__version__ = "0.1.0"
