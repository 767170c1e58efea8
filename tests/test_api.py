"""The public namespace of the package, pinned: a new entry point is added on purpose."""

import types

import mlnexact

PUBLIC = [
    "Atom",
    "AtomIndex",
    "BoundsReport",
    "CheckRecord",
    "Clause",
    "CrossBounds",
    "DaScaling",
    "Database",
    "DbParseError",
    "DomainSpec",
    "DomainTooLargeError",
    "Formula",
    "GroundingTable",
    "KWeightExtrema",
    "LearnConfig",
    "LearnResult",
    "MlnModel",
    "MlnParseError",
    "Predicate",
    "SampleSpec",
    "Signature",
    "SweepResult",
    "World",
    "apply_da_scaling",
    "arity_partition",
    "count_true_groundings",
    "cross_atom_count",
    "cross_tuples",
    "cross_weight_bounds",
    "da_scale_factors",
    "db_to_world",
    "domain_spec_for",
    "enumerate_worlds",
    "extremal_k_weights",
    "formula_to_text",
    "generate_friends_smokers",
    "gradient",
    "is_sigma_determinate",
    "lambda_sweep",
    "learn",
    "log_k_weight",
    "log_marginal",
    "log_partition",
    "log_probability",
    "log_spread",
    "log_weight",
    "marginal_log_probs",
    "max_split_factorization_error",
    "max_tuple_factorization_error",
    "normalize_distinct",
    "ordered_tuples",
    "parse_db",
    "parse_formula",
    "parse_mln",
    "permute",
    "restrict",
    "restriction_positions",
    "serialize_db",
    "serialize_mln",
    "split_subsets",
    "subsample",
    "target_log_likelihoods",
    "verify_all",
    "weight_sandwich_slacks",
]


def public_names() -> list[str]:
    # Submodules become package attributes once imported; they are not entry points.
    return sorted(
        name
        for name, value in vars(mlnexact).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_public_names_are_pinned():
    assert public_names() == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(mlnexact, name) is not None, name
