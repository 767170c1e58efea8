import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnexact import model as model_module
from mlnexact.bounds import (
    cross_weight_bounds,
    extremal_k_weights,
    log_spread,
    verify_all,
    weight_sandwich_slacks,
)
from mlnexact.logic import normalize_distinct, parse_mln
from mlnexact.model import (
    _count_kernel,
    _histogram,
    _table,
    bit_codes,
    count_histogram,
    dense_log_weights,
    log_k_weight,
    log_partition,
    marginal_log_probs,
)
from mlnexact.worlds import (
    AtomIndex,
    DomainSpec,
    World,
    cross_atom_count,
    enumerate_worlds,
    restriction_positions,
    split_subsets,
)

from _oracles import kl_reference
from conftest import dense_restriction_oracle, plain_log_weights, random_raw_model

TOL = 1e-9


def model_from(text: str):
    return normalize_distinct(parse_mln(text))


def named_check(name: str, model, n: int, m: int):
    """The named CheckRecord of the full bound suite at the n|m split."""
    (record,) = [c for c in verify_all(model, n, m).checks if c.name == name]
    return record


class TestExtremalKWeights:
    def test_absent_arity_gives_unit_weight(self, unary_model):
        ex = extremal_k_weights(unary_model, 2)
        assert ex.log_max == ex.log_min == 0.0
        assert ex.argmax_bits is None

    def test_single_directed_clause(self):
        a = 0.8
        model = model_from(f"type p = 4\npredicate R(p,p)\n{a} R(x,y) ^ x != y")
        ex = extremal_k_weights(model, 2)
        assert ex.log_max == pytest.approx(2 * a)
        assert ex.log_min == pytest.approx(0.0)

    def test_triangle_arity_three(self, triangle_model):
        ex = extremal_k_weights(triangle_model, 3)
        assert ex.log_max == pytest.approx(6 * 0.7)
        assert ex.log_min == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_world_level_search(self, seed):
        """Dual route: exhaustive per-world k-weight evaluation via restriction."""
        model = normalize_distinct(random_raw_model(np.random.default_rng(700 + seed)))
        tau = model.signature.types[0][0]
        for k in range(1, model.max_arity + 1):
            ex = extremal_k_weights(model, k)
            index = AtomIndex(model.signature, DomainSpec({tau: k}))
            values = [log_k_weight(model, w, k) for w in enumerate_worlds(index)]
            assert ex.log_max == pytest.approx(max(values), abs=1e-12)
            assert ex.log_min == pytest.approx(min(values), abs=1e-12)

    def test_witnesses_attain_extrema(self):
        model = model_from("type p = 4\npredicate R(p,p)\n0.8 R(x,y) ^ x != y")
        ex = extremal_k_weights(model, 2)
        index = AtomIndex(model.signature, DomainSpec({"p": 2}))
        assert log_k_weight(model, World(index, ex.argmax_bits), 2) == pytest.approx(ex.log_max)
        assert log_k_weight(model, World(index, ex.argmin_bits), 2) == pytest.approx(ex.log_min)


class TestCrossBounds:
    def test_unary_only_spread_is_zero(self, unary_model):
        assert log_spread(unary_model, 2, 2) == 0.0

    def test_single_binary_clause_exponent(self):
        a = 0.8
        model = model_from(f"type p = 4\npredicate R(p,p)\n{a} R(x,y) ^ x != y")
        cb = cross_weight_bounds(model, 2, 2)
        assert cb.exponents == (0, 4)
        assert cb.log_m_max == pytest.approx(4 * 2 * a)
        assert cb.log_m_min == pytest.approx(0.0)
        assert cb.log_spread == pytest.approx(8 * a)

    def test_zero_weights(self):
        model = model_from("type p = 4\npredicate R(p,p)\n0 R(x,y)")
        cb = cross_weight_bounds(model, 2, 2)
        assert cb.log_m_max == cb.log_m_min == 0.0

    def test_homogeneity_single_clause_per_arity(self):
        model = model_from("type p = 4\npredicate R(p,p)\n1.1 R(x,y) ^ x != y")
        base = log_spread(model, 2, 2)
        for t in (0.25, 0.5, 0.75):
            scaled = model.with_weights([w * t for w in model.weights()])
            assert log_spread(scaled, 2, 2) == pytest.approx(t * base, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("t", (0.3, 0.7))
    def test_shrinking_higher_arity_weights_never_grows_spread(self, seed, t):
        model = normalize_distinct(random_raw_model(np.random.default_rng(800 + seed)))
        shrunk = model.with_weights(
            [w * t if c.formula.arity >= 2 else w for c, w in zip(model.clauses, model.weights())]
        )
        assert log_spread(shrunk, 2, 2) <= log_spread(model, 2, 2) + 1e-9

    def test_multi_type_rejected(self):
        model = parse_mln(
            "type a = 2\ntype b = 2\npredicate P(a)\npredicate Q(b)\n0.5 P(x)\n0.5 Q(y)"
        )
        with pytest.raises(ValueError, match="single-type"):
            log_spread(model, 2, 1)


class TestWeightSandwich:
    def test_zero_weights_exact_equality(self):
        model = model_from("type p = 4\npredicate R(p,p)\n0 R(x,y)")
        rec = named_check("weight_sandwich", model, 2, 2)
        assert rec.passed
        assert rec.details["upper_slack"] == pytest.approx(0.0, abs=1e-12)
        assert rec.details["lower_slack"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_models_pass(self, seed):
        model = normalize_distinct(random_raw_model(np.random.default_rng(900 + seed)))
        assert named_check("weight_sandwich", model, 2, 2).passed

    def test_triangle_tight_at_complete_and_empty_worlds(self, triangle_model):
        model = normalize_distinct(triangle_model)
        spec = DomainSpec({"node": 4}, split_type="node", split_at=2)
        index = AtomIndex(model.signature, spec)
        upper, _ = weight_sandwich_slacks(model, 2, 2, World.all_true(index))
        _, lower = weight_sandwich_slacks(model, 2, 2, World.all_false(index))
        assert abs(upper) <= TOL
        assert abs(lower) <= TOL

    def test_slack_world_must_match_spec(self, triangle_model):
        model = normalize_distinct(triangle_model)
        wrong = AtomIndex(model.signature, DomainSpec({"node": 4}))
        with pytest.raises(ValueError, match="split domain"):
            weight_sandwich_slacks(model, 2, 2, World(wrong, 0))


class TestPartitionSandwich:
    def test_zero_weights_equality(self):
        model = model_from("type p = 4\npredicate R(p,p)\n0 R(x,y)")
        rec = named_check("partition_sandwich", model, 2, 2)
        assert rec.passed
        assert rec.details["upper_slack"] == pytest.approx(0.0, abs=1e-9)
        assert rec.details["lower_slack"] == pytest.approx(0.0, abs=1e-9)

    def test_projective_example(self, example3_model):
        assert named_check("partition_sandwich", example3_model, 2, 2).passed

    def test_contagion_example(self, example2_model):
        assert named_check("partition_sandwich", example2_model, 2, 2).passed


class TestMarginalRatio:
    def test_unary_only_ratio_zero(self, unary_model):
        rec = named_check("marginal_ratio", unary_model, 2, 2)
        assert rec.passed
        assert rec.log_spread == 0.0
        assert rec.details["max_abs_log_ratio"] <= TOL

    def test_single_binary_clause(self):
        model = model_from("type p = 3\npredicate R(p,p)\n0.9 R(x,y) ^ x != y")
        rec = named_check("marginal_ratio", model, 2, 1)
        assert rec.passed
        assert rec.details["max_abs_log_ratio"] <= rec.log_spread

    def test_triangle(self, triangle_model):
        rec = named_check("marginal_ratio", triangle_model, 2, 2)
        assert rec.passed


class TestKl:
    def test_zero_weights(self):
        model = model_from("type p = 4\npredicate R(p,p)\n0 R(x,y)")
        assert verify_all(model, 2, 2).kl == pytest.approx(0.0, abs=1e-12)

    def test_projective_fragment_is_projective_but_spread_is_not_zero(self, example3_model):
        kl = verify_all(example3_model, 2, 2).kl
        assert 0.0 <= kl <= TOL
        assert log_spread(example3_model, 2, 2) > 1.0

    def test_kl_below_spread_and_matches_reference(self, example2_model):
        model = normalize_distinct(example2_model)
        kl = verify_all(model, 2, 1).kl
        tau = "person"
        spec = DomainSpec({tau: 3}, split_type=tau, split_at=2)
        sub_index, marg = marginal_log_probs(model, spec)
        direct = dense_log_weights(model, sub_index) - log_partition(model, index=sub_index)
        assert kl == pytest.approx(kl_reference(marg.tolist(), direct.tolist()), abs=1e-12)
        assert 0.0 <= kl <= log_spread(model, 2, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_holds_on_random_models(self, seed):
        model = normalize_distinct(random_raw_model(np.random.default_rng(1000 + seed)))
        assert named_check("kl_bound", model, 2, 2).passed


class TestLoglikBound:
    def test_unary_only_equality(self, unary_model):
        rec = named_check("loglik_bound", unary_model, 2, 2)
        assert rec.passed
        assert abs(rec.worst_slack) <= TOL  # spread 0 makes the bound tight

    @pytest.mark.parametrize("seed", range(5))
    def test_random_models_pass(self, seed):
        model = normalize_distinct(random_raw_model(np.random.default_rng(1100 + seed)))
        assert named_check("loglik_bound", model, 2, 2).passed

    def test_triangle(self, triangle_model):
        assert named_check("loglik_bound", triangle_model, 2, 2).passed


class TestVerifyAll:
    def test_aggregates_all_checks(self, example2_model):
        report = verify_all(example2_model, 2, 1)
        assert report.all_passed
        assert [c.name for c in report.checks] == [
            "weight_sandwich",
            "partition_sandwich",
            "marginal_ratio",
            "kl_bound",
            "loglik_bound",
        ]
        text = report.to_text()
        assert "ALL CHECKS PASS" in text
        assert "log spread" in text

    def test_extension_count_recorded(self, triangle_model):
        report = verify_all(triangle_model, 2, 2)
        assert report.log2_extensions == 8

    def test_kl_surface(self, example3_model):
        report = verify_all(example3_model, 2, 2)
        assert report.kl <= TOL
        assert report.cross.log_spread > 0


def _lse(v: np.ndarray) -> float:
    shift = float(v.max())
    return shift + math.log(float(np.exp(v - shift).sum()))


def _split_pass_oracle(model, n, m) -> dict:
    """Everything ``verify_all`` and ``marginal_log_probs`` report for an n|m
    split, from the plain per-block kernel, ``bit_codes`` and ``np.logaddexp.at``."""
    tau = model.signature.types[0][0]
    spec = DomainSpec({tau: n + m}, split_type=tau, split_at=n)
    index = AtomIndex(model.signature, spec)
    front, back = split_subsets(spec)
    sub_n, pos_n = restriction_positions(index, front)
    sub_m, pos_m = restriction_positions(index, back)
    lw, buckets = dense_restriction_oracle(model, index, pos_n)
    lw_n = plain_log_weights(model, sub_n)
    lw_m = plain_log_weights(model, sub_m)
    worlds = np.arange(1 << index.n_atoms, dtype=np.uint64)
    base = lw_n[bit_codes(worlds, pos_n)] + lw_m[bit_codes(worlds, pos_m)]

    cross = cross_weight_bounds(model, n, m)
    spread = cross.log_spread
    log_z, log_z_n, log_z_m = _lse(lw), _lse(lw_n), _lse(lw_m)
    marg = buckets - log_z
    ratio = marg - (lw_n - log_z_n)
    kl = float(np.exp(marg) @ ratio)
    log_c = cross_atom_count(index) * math.log(2.0)
    up = float((base + cross.log_m_max - lw).min())
    lo = float((lw - base - cross.log_m_min).min())
    z_up = log_z_n + log_z_m + log_c + cross.log_m_max - log_z
    z_lo = log_z - log_z_n - log_z_m - log_c - cross.log_m_min
    r_up = float((spread - ratio).min())
    r_lo = float((spread + ratio).min())
    per_world = float((ratio + spread).min())
    checks = {  # check name -> (worst slack, details)
        "weight_sandwich": (min(up, lo), {"upper_slack": up, "lower_slack": lo}),
        "partition_sandwich": (min(z_up, z_lo), {"upper_slack": z_up, "lower_slack": z_lo}),
        "marginal_ratio": (
            min(r_up, r_lo),
            {"upper_slack": r_up, "lower_slack": r_lo, "max_abs_log_ratio": np.abs(ratio).max()},
        ),
        "kl_bound": (spread - kl, {"kl": kl}),
        "loglik_bound": (min(per_world, spread - kl), {"per_world_slack": per_world}),
    }
    return {
        "spec": spec,
        "index": index,
        "pos": (pos_n, pos_m),
        "checks": checks,
        "kl": kl,
        "marginal": marg,
        "log_z": log_z,
    }


def _assert_matches_oracle(report, marginal, oracle) -> None:
    assert [c.name for c in report.checks] == list(oracle["checks"])
    for check in report.checks:
        worst, details = oracle["checks"][check.name]
        assert abs(check.worst_slack - worst) <= 1e-9, check.name
        for key, value in details.items():
            assert abs(check.details[key] - value) <= 1e-9, (check.name, key)
    assert abs(report.kl - oracle["kl"]) <= 1e-9
    assert np.abs(marginal - oracle["marginal"]).max() <= 1e-9


class TestSplitPassOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        split=st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]),
        ternary=st.booleans(),
    )
    def test_slacks_and_marginal_match_dense_oracle(self, seed, split, ternary):
        n, m = split
        model = normalize_distinct(
            random_raw_model(np.random.default_rng(seed), include_ternary_clause=ternary)
        )
        oracle = _split_pass_oracle(model, n, m)
        report = verify_all(model, n, m)
        _, marginal = marginal_log_probs(model, oracle["spec"])
        _assert_matches_oracle(report, marginal, oracle)

        index = oracle["index"]
        _, slacks = oracle["checks"]["weight_sandwich"]
        sandwich = report.checks[0].details
        up_at, _ = weight_sandwich_slacks(model, n, m, World(index, sandwich["upper_witness"]))
        _, lo_at = weight_sandwich_slacks(model, n, m, World(index, sandwich["lower_witness"]))
        assert abs(up_at - slacks["upper_slack"]) <= 1e-9
        assert abs(lo_at - slacks["lower_slack"]) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        split=st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]),
        ternary=st.booleans(),
        chunk_bits=st.integers(2, 5),
    )
    def test_shrunken_chunks_match_dense_oracle(self, seed, split, ternary, chunk_bits):
        # Blocks of 2^2..2^5 worlds put groundings on both sides of the
        # low/high boundary of GroundingTable.chunk_counts.
        n, m = split
        model = normalize_distinct(
            random_raw_model(np.random.default_rng(seed), include_ternary_clause=ternary)
        )
        oracle = _split_pass_oracle(model, n, m)
        index = oracle["index"]
        gt, _ = _table(model.formulas(), index).relaid(*oracle["pos"])
        # At most 2^7 blocks per pass keeps the widest signatures (G=20) quick.
        chunk = 1 << max(chunk_bits, index.n_atoms - 7)
        with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk):
            blocks = 0
            for worlds, counts in gt.chunk_counts():
                assert worlds.shape[0] == min(chunk, 1 << index.n_atoms)
                assert int(worlds[0]) == blocks * chunk
                assert np.array_equal(counts, _count_kernel(gt.entries, worlds))
                blocks += 1
            assert blocks == max(1, (1 << index.n_atoms) // chunk)
            report = verify_all(model, n, m)
            _, marginal = marginal_log_probs(model, oracle["spec"])
            _histogram.cache_clear()
            hist = count_histogram(model, index)
        _assert_matches_oracle(report, marginal, oracle)
        assert count_histogram(model, index) is hist
        assert abs(log_partition(model, index=index) - oracle["log_z"]) <= 1e-9
