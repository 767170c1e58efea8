"""Exact Markov logic engine for small domains.

Everything is computed by exhaustive enumeration in log space: clause
grounding and world weights, partition functions, restriction marginals,
cross-domain-size bound quantities with their full verification suite, and
regularized maximum-likelihood weight learning.
"""

from .bounds import (
    BoundsReport,
    CheckRecord,
    CrossBounds,
    KWeightExtrema,
    cross_weight_bounds,
    extremal_k_weights,
    log_spread,
    verify_all,
)
from .datagen import (
    Database,
    DbParseError,
    SampleSpec,
    db_to_world,
    domain_spec_for,
    generate_friends_smokers,
    parse_db,
    serialize_db,
    subsample,
)
from .learning import (
    LearnConfig,
    LearnResult,
    SweepResult,
    gradient,
    lambda_sweep,
    learn,
    target_log_likelihoods,
)
from .logic import (
    Atom,
    Clause,
    Formula,
    MlnModel,
    MlnParseError,
    Predicate,
    Signature,
    arity_partition,
    formula_to_text,
    normalize_distinct,
    parse_formula,
    parse_mln,
    serialize_mln,
)
from .model import (
    GroundingTable,
    apply_da_scaling,
    count_true_groundings,
    da_scale_factors,
    log_marginal,
    log_partition,
    log_probability,
    log_weight,
    marginal_log_probs,
    max_split_factorization_error,
    max_tuple_factorization_error,
)
from .worlds import (
    AtomIndex,
    DomainSpec,
    DomainTooLargeError,
    World,
    cross_atom_count,
    cross_tuples,
    enumerate_worlds,
    ordered_tuples,
    restrict,
    restriction_positions,
    split_subsets,
)

__version__ = "0.1.0"
