"""The public namespace of the package, pinned: a new entry point or knob is added on purpose."""

import dataclasses
import inspect
import types
from pathlib import Path

import mlnexact
from mlnexact.experiment import ExperimentConfig

PUBLIC = [
    "Atom",
    "AtomIndex",
    "BoundsReport",
    "CheckRecord",
    "Clause",
    "CrossBounds",
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
    "lambda_sweep",
    "learn",
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
    "restrict",
    "restriction_positions",
    "serialize_db",
    "serialize_mln",
    "split_subsets",
    "subsample",
    "target_log_likelihoods",
    "verify_all",
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


# Parameter names of every public callable; None where the class has no
# signature of its own (an exception that keeps RuntimeError's constructor).
PARAMETERS = {
    "Atom": ("pred", "args"),
    "AtomIndex": ("signature", "spec"),
    "BoundsReport": ("n", "m", "cross", "log2_extensions", "checks", "kl"),
    "CheckRecord": ("name", "n", "m", "log_spread", "worst_slack", "passed", "details"),
    "Clause": ("formula", "weight", "origin"),
    "CrossBounds": ("n", "m", "log_m_max", "log_m_min", "per_arity", "exponents"),
    "Database": ("signature",),
    "DbParseError": ("message", "line"),
    "DomainSpec": ("sizes", "split_type", "split_at"),
    "DomainTooLargeError": None,
    "Formula": ("ast", "distinct", "vars"),
    "GroundingTable": ("formulas", "index"),
    "KWeightExtrema": ("arity", "log_max", "log_min", "argmax_bits", "argmin_bits"),
    "LearnConfig": ("regularizer", "lam", "da", "max_iter", "tol", "tie_split_weights", "max_atoms"),
    "LearnResult": ("weights", "model", "converged", "iterations", "trace", "objective"),
    "MlnModel": ("signature", "clauses", "normalized"),
    "MlnParseError": ("message", "line", "column"),
    "Predicate": ("name", "arg_types"),
    "SampleSpec": ("sample_type", "size", "seed"),
    "Signature": ("types", "predicates"),
    "SweepResult": ("best_lam", "entries", "fits"),
    "World": ("index", "bits"),
    "apply_da_scaling": ("model", "target_sizes"),
    "arity_partition": ("model",),
    "count_true_groundings": ("clause", "world"),
    "cross_atom_count": ("index",),
    "cross_tuples": ("n", "m", "d"),
    "cross_weight_bounds": ("model", "n", "m"),
    "da_scale_factors": ("model", "target_sizes"),
    "db_to_world": ("db", "spec"),
    "domain_spec_for": ("db",),
    "enumerate_worlds": ("index",),
    "extremal_k_weights": ("model", "k"),
    "formula_to_text": ("formula",),
    "generate_friends_smokers": ("population", "seed"),
    "gradient": ("model", "data"),
    "lambda_sweep": (
        "model",
        "train_worlds",
        "target_worlds",
        "regularizer",
        "grid",
        "config",
        "max_atoms",
    ),
    "learn": ("model", "data", "config"),
    "log_marginal": ("model", "spec", "sub_world"),
    "log_partition": ("model", "index", "max_atoms"),
    "log_probability": ("model", "world"),
    "log_spread": ("model", "n", "m"),
    "log_weight": ("model", "world"),
    "marginal_log_probs": ("model", "spec"),
    "max_split_factorization_error": ("model", "n", "m"),
    "max_tuple_factorization_error": ("model", "n"),
    "normalize_distinct": ("model",),
    "ordered_tuples": ("n", "d"),
    "parse_db": ("text", "signature"),
    "parse_formula": ("text", "signature", "line"),
    "parse_mln": ("text",),
    "restrict": ("world", "keep"),
    "restriction_positions": ("index", "keep"),
    "serialize_db": ("db",),
    "serialize_mln": ("model",),
    "split_subsets": ("spec",),
    "subsample": ("db", "sample"),
    "target_log_likelihoods": ("model", "target_worlds", "max_atoms"),
    "verify_all": ("model", "n", "m", "tol", "max_atoms"),
}

FIELDS = {
    "LearnConfig": PARAMETERS["LearnConfig"],
    "LearnResult": PARAMETERS["LearnResult"],
    "ExperimentConfig": (
        "mln",
        "out",
        "train_dbs",
        "train_sets",
        "train_population",
        "train_size",
        "target_sizes",
        "target_replicates",
        "methods",
        "grid",
        "seed",
        "max_iter",
        "tol",
        "max_atoms",
        "workers",
        "da_eval_only",
        "tie_split_weights",
    ),
}


def parameter_names(obj) -> tuple[str, ...] | None:
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:
        return None


def test_every_public_callable_has_pinned_parameters():
    assert sorted(PARAMETERS) == PUBLIC
    assert {name: parameter_names(getattr(mlnexact, name)) for name in PUBLIC} == PARAMETERS


def test_config_and_result_fields_are_pinned():
    classes = {
        "LearnConfig": mlnexact.LearnConfig,
        "LearnResult": mlnexact.LearnResult,
        "ExperimentConfig": ExperimentConfig,
    }
    assert {
        name: tuple(f.name for f in dataclasses.fields(cls)) for name, cls in classes.items()
    } == FIELDS


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    """README's Library example, run verbatim against the built-in smokers model."""
    from mlnexact.datagen import FRIENDS_SMOKERS_MLN

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "model.mln").write_text(FRIENDS_SMOKERS_MLN, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "ALL CHECKS PASS" in out
    assert out.rstrip().endswith("True")
