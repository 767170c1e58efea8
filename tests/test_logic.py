import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from mlnexact.logic import (
    Atom,
    MlnModel,
    MlnParseError,
    Signature,
    arity_partition,
    formula_to_text,
    is_sigma_determinate,
    normalize_distinct,
    parse_formula,
    parse_mln,
    serialize_mln,
    _set_partitions,
)

from _oracles import canonical_partition, set_partitions_reference
from conftest import EXAMPLE2_TEXT, random_raw_model


class TestParsing:
    def test_minimal_model_domain_keyword(self):
        model = parse_mln("predicate S(p)\ndomain p=2\n0.5 S(x)")
        assert len(model.clauses) == 1
        assert model.clauses[0].weight == 0.5
        assert model.clauses[0].formula.vars == (("x", "p"),)
        assert model.signature.size("p") == 2

    def test_minimal_model_type_keyword(self):
        model = parse_mln("type p = 2\npredicate S(p)\n0.5 S(x)")
        assert model.signature.size("p") == 2
        assert not model.normalized

    def test_unknown_predicate_is_error(self):
        with pytest.raises(MlnParseError, match="unknown predicate"):
            parse_mln("0.5 S(x)")

    def test_arity_mismatch_is_error(self):
        with pytest.raises(MlnParseError, match="expects 1 arguments"):
            parse_mln("type p = 2\npredicate S(p)\n0.5 S(x,y)")

    def test_syntax_error_carries_location(self):
        with pytest.raises(MlnParseError) as err:
            parse_mln("type p = 2\npredicate S(p)\n0.5 S(x")
        assert err.value.line == 3

    def test_unexpected_character(self):
        with pytest.raises(MlnParseError, match="unexpected character"):
            parse_mln("type p = 2\npredicate S(p)\n0.5 S(x) & S(x)")

    def test_conflicting_variable_types(self):
        text = "type a = 2\ntype b = 2\npredicate P(a)\npredicate Q(b)\n0.5 P(x) ^ Q(x)"
        with pytest.raises(MlnParseError, match="conflicting types"):
            parse_mln(text)

    def test_disequality_only_variable_is_error(self):
        with pytest.raises(MlnParseError, match="only in a disequality"):
            parse_mln("type p = 2\npredicate S(p)\n0.5 S(x) ^ x != y")

    def test_nested_disequality_is_error(self):
        with pytest.raises(MlnParseError, match="top-level conjuncts"):
            parse_mln("type p = 2\npredicate S(p)\n0.5 S(x) v x != y")

    def test_v_is_reserved_for_disjunction(self):
        model = parse_mln("type p = 2\npredicate S(p)\npredicate T(p)\n0.5 S(x) v T(x)")
        assert formula_to_text(model.clauses[0].formula) == "(S(x) v T(x))"
        with pytest.raises(MlnParseError):
            parse_mln("type p = 2\npredicate S(p)\n0.5 S(v)")

    def test_comments_and_blank_lines(self):
        model = parse_mln("// header\n\ntype p = 2 // trailing\npredicate S(p)\n\n0.5 S(x)\n")
        assert len(model.clauses) == 1

    def test_example_contagion_model(self, example2_model):
        assert len(example2_model.clauses) == 2
        assert example2_model.clauses[0].formula.vars == (("x", "person"),)
        assert example2_model.clauses[1].formula.vars == (("x", "person"), ("y", "person"))

    def test_operator_precedence(self):
        sig = Signature.make({"p": 2}, {"A": ("p",), "B": ("p",), "C": ("p",)})
        f = parse_formula("A(x) v B(x) ^ C(x) => A(x)", sig)
        # ^ binds tighter than v, which binds tighter than =>
        assert formula_to_text(f) == "((A(x) v (B(x) ^ C(x))) => A(x))"

    def test_implication_right_associative(self):
        sig = Signature.make({"p": 2}, {"A": ("p",), "B": ("p",)})
        f = parse_formula("A(x) => B(x) => A(x)", sig)
        assert formula_to_text(f) == "(A(x) => (B(x) => A(x)))"

    def test_duplicate_predicate_rejected(self):
        with pytest.raises(MlnParseError, match="duplicate predicate"):
            parse_mln("type p = 2\npredicate S(p)\npredicate S(p)\n0.5 S(x)")

    def test_undeclared_type_rejected(self):
        with pytest.raises(MlnParseError, match="undeclared type"):
            parse_mln("predicate S(p)\n0.5 S(x)")


class TestNormalization:
    def test_binary_clause_splits_in_two(self):
        model = parse_mln("type p = 3\npredicate R(p,p)\n1.5 R(x,y)")
        norm = normalize_distinct(model)
        assert norm.normalized
        assert len(norm.clauses) == 2
        merged, split = norm.clauses
        assert merged.formula.ast == Atom("R", ("x", "x"))
        assert merged.formula.arity == 1
        assert split.formula.ast == Atom("R", ("x", "y"))
        assert split.formula.distinct == frozenset({("x", "y")})
        assert merged.weight == split.weight == 1.5
        assert merged.origin == split.origin == 0

    def test_unary_clause_unchanged(self):
        model = parse_mln("type p = 3\npredicate S(p)\n0.5 S(x)")
        norm = normalize_distinct(model)
        assert len(norm.clauses) == 1
        assert norm.clauses[0].formula == model.clauses[0].formula

    def test_ternary_clause_yields_one_clause_per_partition(self):
        model = parse_mln("type p = 3\npredicate R(p,p)\n0.3 R(x,y) ^ R(y,z)")
        norm = normalize_distinct(model)
        reference = set_partitions_reference(["x", "y", "z"])
        assert len(norm.clauses) == len(reference) == 5
        assert all(c.weight == 0.3 for c in norm.clauses)
        arities = sorted(c.formula.arity for c in norm.clauses)
        assert arities == [1, 2, 2, 2, 3]

    def test_idempotent(self):
        model = parse_mln(EXAMPLE2_TEXT)
        once = normalize_distinct(model)
        twice = normalize_distinct(once)
        assert once == twice

    def test_idempotent_structurally(self):
        # Already-normalized content with the flag off: re-normalizing must
        # drop the collapsing identification patterns and keep the clause.
        model = parse_mln("type p = 3\npredicate R(p,p)\n0.4 R(x,y) ^ x != y")
        norm = normalize_distinct(model)
        assert len(norm.clauses) == 1
        assert norm.clauses[0].formula == model.clauses[0].formula

    def test_mixed_type_variables_partition_per_type(self):
        text = "type a = 2\ntype b = 2\npredicate P(a,b)\n0.5 P(x,y)"
        norm = normalize_distinct(parse_mln(text))
        # x and y have different types: no identification possible, no constraint needed
        assert len(norm.clauses) == 1
        assert norm.clauses[0].formula.distinct == frozenset()

    def test_same_type_pair_within_multi_type_clause(self):
        text = "type a = 3\ntype b = 2\npredicate P(a,a)\npredicate Q(b)\n0.5 P(x,y) ^ Q(u)"
        norm = normalize_distinct(parse_mln(text))
        assert len(norm.clauses) == 2
        constraints = {c.formula.distinct for c in norm.clauses}
        assert constraints == {frozenset(), frozenset({("x", "y")})}


class TestArityPartition:
    def test_example_projective_model(self, example3_model):
        parts = arity_partition(normalize_distinct(example3_model))
        assert sorted(parts) == [1, 2]
        assert len(parts[1]) == 1 and parts[1][0].formula.ast == Atom("Covid", ("x",))
        assert len(parts[2]) == 1
        assert parts[2][0].formula.distinct == frozenset({("x", "y")})

    def test_unary_only(self, unary_model):
        parts = arity_partition(normalize_distinct(unary_model))
        assert list(parts) == [1]
        assert len(parts[1]) == 2

    def test_requires_normalized(self, example2_model):
        with pytest.raises(ValueError, match="normalized"):
            arity_partition(example2_model)

    def test_contagion_model_collapses_into_both_groups(self, example2_model):
        parts = arity_partition(normalize_distinct(example2_model))
        assert sorted(parts) == [1, 2]
        assert len(parts[1]) == 2  # the unary clause plus the x=y collapse
        assert len(parts[2]) == 1


class TestSigmaDeterminate:
    def test_projective_example(self, example3_model):
        assert is_sigma_determinate(example3_model)

    def test_contagion_example(self, example2_model):
        assert not is_sigma_determinate(example2_model)

    def test_empty_model(self):
        sig = Signature.make({"p": 2}, {"S": ("p",)})
        assert is_sigma_determinate(MlnModel(sig, ()))


class TestSerialization:
    def test_round_trip_raw(self, example2_model):
        assert parse_mln(serialize_mln(example2_model)) == example2_model

    def test_round_trip_normalized_clauses(self, example2_model):
        norm = normalize_distinct(example2_model)
        back = parse_mln(serialize_mln(norm))
        assert back.clauses == norm.clauses
        assert back.signature == norm.signature

    def test_weights_survive_17_digits(self):
        model = parse_mln("type p = 2\npredicate S(p)\n0.1 S(x)").with_weights([1 / 3])
        assert parse_mln(serialize_mln(model)).clauses[0].weight == 1 / 3

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_random_models(self, seed):
        model = random_raw_model(np.random.default_rng(seed))
        assert parse_mln(serialize_mln(model)) == model
        norm = normalize_distinct(model)
        assert parse_mln(serialize_mln(norm)).clauses == norm.clauses

    def test_pickled_formula_hashes_in_another_interpreter(self, example2_model):
        # Formula caches its hash; string hashes differ between interpreters,
        # so an unpickled formula must rehash rather than carry the old value.
        formula = normalize_distinct(example2_model).clauses[1].formula
        script = (
            "import pickle, sys\n"
            "f = pickle.loads(sys.stdin.buffer.read())\n"
            "assert hash(f) == hash((f.ast, f.distinct, f.vars))\n"
            "assert f in {f: 0}\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        run = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(formula), env=env, timeout=60
        )
        assert run.returncode == 0
        assert hash(formula) == hash((formula.ast, formula.distinct, formula.vars))


class TestSetPartitions:
    @pytest.mark.parametrize("n,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_counts_match_reference(self, n, bell):
        items = list(range(n))
        ours = [canonical_partition(p) for p in _set_partitions(items)]
        reference = {canonical_partition(p) for p in set_partitions_reference(items)}
        assert len(ours) == bell
        assert len(set(ours)) == bell
        assert set(ours) == reference

    def test_merged_block_comes_first(self):
        first = next(iter(_set_partitions(["x", "y"])))
        assert first == [["x", "y"]]
