import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlnexact import bounds
from mlnexact import model as model_module
from mlnexact.bounds import (
    cross_weight_bounds,
    extremal_k_weights,
    log_spread,
    verify_all,
)
from mlnexact.datagen import FRIENDS_SMOKERS_MLN
from mlnexact.logic import normalize_distinct, parse_mln
from mlnexact.model import (
    _histogram,
    _table,
    count_histogram,
    dense_log_weights,
    log_partition,
    marginal_log_probs,
)
from mlnexact.worlds import (
    AtomIndex,
    DomainSpec,
    DomainTooLargeError,
    World,
    cross_atom_count,
    enumerate_worlds,
    restriction_positions,
    split_subsets,
)

from _oracles import (
    bit_codes,
    counts_matrix,
    kl_reference,
    log_k_weight,
    weight_sandwich_slacks,
)
from conftest import (
    WIDE_SPAN_TEXT,
    dense_restriction_oracle,
    plain_log_weights,
    random_raw_model,
    world_blocks,
)

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


class TestEmptyHalfSpread:
    """With an empty half no tuple straddles the split, so ``log_spread``
    returns 0.0 without the extrema, after the same checks."""

    SPLITS = [(0, 0), (0, 1), (0, 3), (2, 0), (4, 0)]

    @pytest.mark.parametrize(("n", "m"), SPLITS)
    def test_equals_the_cross_bounds(self, n, m, example2_model, triangle_model, unary_model):
        models = [example2_model, triangle_model, unary_model, model_from(FRIENDS_SMOKERS_MLN)]
        models += [random_raw_model(np.random.default_rng(seed)) for seed in range(4)]
        for model in models:
            want = cross_weight_bounds(model, n, m).log_spread
            assert log_spread(model, n, m) == want == 0.0
            assert math.copysign(1.0, log_spread(model, n, m)) == 1.0

    def test_skips_the_extrema(self, monkeypatch, example2_model):
        monkeypatch.setattr(bounds, "extremal_k_weights", mock.Mock(side_effect=AssertionError))
        assert log_spread(example2_model, 0, 3) == log_spread(example2_model, 3, 0) == 0.0
        with pytest.raises(AssertionError):
            log_spread(example2_model, 3, 1)

    @pytest.mark.parametrize(("n", "m"), SPLITS)
    def test_multi_type_rejected(self, n, m):
        model = parse_mln(
            "type a = 2\ntype b = 2\npredicate P(a)\npredicate Q(b)\n0.5 P(x)\n0.5 Q(y)"
        )
        with pytest.raises(ValueError, match="single-type"):
            cross_weight_bounds(model, n, m)
        with pytest.raises(ValueError, match="single-type"):
            log_spread(model, n, m)

    @pytest.mark.parametrize(("n", "m"), [(0, -1), (-2, 0)])
    def test_negative_sizes_rejected(self, n, m, example2_model):
        with pytest.raises(ValueError):
            cross_weight_bounds(example2_model, n, m)
        with pytest.raises(ValueError):
            log_spread(example2_model, n, m)

    def test_too_many_atoms_for_the_extrema_rejected(self):
        model = model_from("type p = 4\npredicate R(p,p,p)\npredicate S(p)\n0.5 R(x,y,z) ^ S(x)")
        with pytest.raises(DomainTooLargeError):
            cross_weight_bounds(model, 0, 2)
        with pytest.raises(DomainTooLargeError):
            log_spread(model, 0, 2)


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

    def test_kl_does_not_depend_on_the_blas_threads(self):
        # As a BLAS dot, the 3|1 KL of smokers at seed 7 read
        # 0.0010104862655162354 under one OpenBLAS thread and ...632 under two.
        code = (
            "import numpy as np\n"
            "from mlnexact import bounds\n"
            "from mlnexact.datagen import FRIENDS_SMOKERS_MLN\n"
            "from mlnexact.logic import normalize_distinct, parse_mln\n"
            "model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))\n"
            "rng = np.random.default_rng(7)\n"
            "model = model.with_weights(rng.uniform(-1.5, 1.5, len(model.clauses)))\n"
            "print(repr(bounds.verify_all(model, 3, 1).kl))\n"
        )
        src = str(Path(bounds.__file__).resolve().parents[1])
        kls = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
            )
            kls.append(out.stdout.strip())
        assert kls[0] == kls[1]
        assert 0.0 < float(kls[0]) < 1e-2


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -0.5])
    def test_a_tol_that_is_not_finite_and_nonnegative_names_tol(self, example2_model, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_all(example2_model, 2, 1, tol=tol)


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

    def test_shrunken_chunks_match_dense_oracle(self):
        # Blocks of 2^2..2^5 worlds put groundings on both sides of the
        # low/high boundary of GroundingTable.pair_counts. Each pass reduces
        # per pair over runs of blocks that share their split bits: one run
        # while the split bits lie in a block's low bits, 2^(bits past them)
        # runs otherwise. The draws must reach one run and several runs over
        # several blocks. At an empty half verify_all runs no pass, and the
        # marginal's runs are one block each.
        runs = set()

        @settings(max_examples=20, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            split=st.sampled_from(
                [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (0, 3), (3, 0), (0, 2), (2, 0)]
            ),
            ternary=st.booleans(),
            chunk_bits=st.integers(2, 5),
        )
        # G=20 at blocks of 2^13: F+B = 12 bits are one run, 14 bits are 2^1 runs.
        @example(seed=0, split=(2, 2), ternary=False, chunk_bits=2)
        @example(seed=0, split=(3, 1), ternary=False, chunk_bits=2)
        def check(seed, split, ternary, chunk_bits):
            n, m = split
            model = normalize_distinct(
                random_raw_model(np.random.default_rng(seed), include_ternary_clause=ternary)
            )
            oracle = _split_pass_oracle(model, n, m)
            index = oracle["index"]
            gt, _ = _table(model.formulas(), index).relaid(*oracle["pos"])
            # At most 2^7 blocks per pass keeps the widest signatures (G=20) quick.
            chunk = 1 << max(chunk_bits, index.n_atoms - 7)
            n_worlds = min(chunk, 1 << index.n_atoms)
            split_bits = sum(len(p) for p in oracle["pos"])
            extremes = model_module._pair_extremes
            with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk), mock.patch.object(
                bounds, "_pair_extremes", wraps=extremes
            ) as per_pair, mock.patch.object(
                model_module, "_pair_extremes", wraps=extremes
            ) as marginal_per_pair:
                blocks = 0
                stream = gt.pair_counts(np.eye(len(gt.entries), dtype=np.int64))
                for start, counts in world_blocks(stream):
                    assert counts.shape[0] == n_worlds
                    assert start == blocks * chunk
                    worlds = np.arange(start, start + counts.shape[0], dtype=np.uint64)
                    assert np.array_equal(counts, counts_matrix(gt.entries, worlds))
                    blocks += 1
                assert blocks == max(1, (1 << index.n_atoms) // chunk)
                report = verify_all(model, n, m)
                _, marginal = marginal_log_probs(model, oracle["spec"])
                _histogram.cache_clear()
                hist = count_histogram(model, index)
            block_bits = n_worlds.bit_length() - 1
            passes = 0 if 0 in split else 1 << max(0, split_bits - block_bits)
            assert per_pair.call_count == passes
            assert marginal_per_pair.call_count == 1 << max(0, len(oracle["pos"][0]) - block_bits)
            if blocks > 1:
                runs.add(per_pair.call_count > 1)
            _assert_matches_oracle(report, marginal, oracle)
            assert count_histogram(model, index) is hist
            assert abs(log_partition(model, index=index) - oracle["log_z"]) <= 1e-9
            sandwich = report.checks[0].details
            up_at, _ = weight_sandwich_slacks(model, n, m, World(index, sandwich["upper_witness"]))
            _, lo_at = weight_sandwich_slacks(model, n, m, World(index, sandwich["lower_witness"]))
            assert abs(up_at - sandwich["upper_slack"]) <= 1e-9
            assert abs(lo_at - sandwich["lower_slack"]) <= 1e-9

        check()
        assert runs == {True, False}

    @pytest.mark.parametrize("chunk_bits", [18, 10])
    @pytest.mark.parametrize("split", [(2, 1), (1, 2)])
    def test_a_span_wider_than_a_block_matches_dense_oracle(self, split, chunk_bits):
        # Smokers plus three Friends clauses at n+m=3: 11 clauses whose
        # count-key span, 3.9e7, is past a block of 2^18 worlds and of 2^10,
        # so every block of both passes decodes its pair keys.
        model = normalize_distinct(parse_mln(WIDE_SPAN_TEXT))
        weights = np.random.default_rng(11).uniform(-1.5, 1.5, len(model.clauses))
        model = model.with_weights(weights)
        n, m = split
        oracle = _split_pass_oracle(model, n, m)
        gt = _table(model.formulas(), oracle["index"])
        assert len(gt.entries) == 11
        assert model_module._count_keys(gt.entries)[0] > 1 << 18
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << chunk_bits):
            report = verify_all(model, n, m)
            _, marginal = marginal_log_probs(model, oracle["spec"])
        _assert_matches_oracle(report, marginal, oracle)
        assert report.all_passed

    def test_tiles_keep_every_bit(self):
        # Each run gathers its per-offset values one tile of DEFAULT_TILE
        # offsets at a time. Tiles of 2^2..2^6 offsets must give the records
        # (witnesses included), the KL and the marginal of one tile per block,
        # under ==: with the front buckets wider and no wider than a tile, over
        # several tiles and blocks, in one run and in several runs, where the
        # marginal may still be one run.
        reached = set()

        @settings(max_examples=20, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            split=st.sampled_from(
                [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (0, 3), (3, 0), (0, 2), (2, 0)]
            ),
            ternary=st.booleans(),
            chunk_bits=st.integers(4, 10),
            tile_bits=st.integers(2, 6),
        )
        # G=12: F=6, B=2 and F=2, B=6 are one run in blocks of 2^8; F+B=8 is
        # 2^2 runs in blocks of 2^6, where the marginal's F=2 is one run.
        @example(seed=0, split=(2, 1), ternary=False, chunk_bits=8, tile_bits=4)
        @example(seed=0, split=(1, 2), ternary=False, chunk_bits=8, tile_bits=5)
        @example(seed=0, split=(1, 2), ternary=False, chunk_bits=6, tile_bits=3)
        # A bucket's max is mostly in its first rows; here 72 are not.
        @example(seed=4, split=(2, 1), ternary=False, chunk_bits=8, tile_bits=2)
        def check(seed, split, ternary, chunk_bits, tile_bits):
            n, m = split
            model = normalize_distinct(
                random_raw_model(np.random.default_rng(seed), include_ternary_clause=ternary)
            )
            tau = model.signature.types[0][0]
            spec = DomainSpec({tau: n + m}, split_type=tau, split_at=n)
            index = AtomIndex(model.signature, spec)
            front, back = split_subsets(spec)
            front_bits = restriction_positions(index, front)[0].n_atoms
            split_bits = front_bits + restriction_positions(index, back)[0].n_atoms
            # At most 2^7 blocks per pass keeps the widest signatures (G=20) quick.
            chunk = 1 << max(chunk_bits, index.n_atoms - 7)
            n_worlds = min(chunk, 1 << index.n_atoms)

            def run(tile: int):
                with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk), mock.patch.object(
                    model_module, "DEFAULT_TILE", tile
                ):
                    return verify_all(model, n, m), marginal_log_probs(model, spec)[1]

            tiled, tiled_marginal = run(1 << tile_bits)
            whole, whole_marginal = run(n_worlds)
            assert tiled.checks == whole.checks
            assert tiled.kl == whole.kl
            assert tiled_marginal.tobytes() == whole_marginal.tobytes()
            if 1 << tile_bits < n_worlds < 1 << index.n_atoms:
                one_run = 1 << split_bits <= n_worlds
                reached.add((one_run, one_run and front_bits > tile_bits))

        check()
        assert reached == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("ternary", [False, True])
    @pytest.mark.parametrize("split", [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)])
    def test_empty_halves_match_dense_oracle(self, split, ternary):
        # No tuple straddles an empty half and one half is the whole domain,
        # so every slack is 0 and the witnesses are the all-false world.
        n, m = split
        smokers = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        rng = np.random.default_rng(sum(split) + 10 * ternary)
        models = [smokers.with_weights(rng.uniform(-1.5, 1.5, len(smokers.clauses)))]
        models += [
            normalize_distinct(random_raw_model(rng, include_ternary_clause=ternary))
            for _ in range(3)
        ]
        for model in models:
            oracle = _split_pass_oracle(model, n, m)
            report = verify_all(model, n, m)
            _, marginal = marginal_log_probs(model, oracle["spec"])
            _assert_matches_oracle(report, marginal, oracle)
            sandwich = report.checks[0].details
            assert sandwich["upper_witness"] == sandwich["lower_witness"] == 0
            assert all(c.worst_slack == 0.0 for c in report.checks)
            assert report.kl == 0.0

    def test_smokers_empty_halves_stay_below_32_mb(self):
        # At 4|0 the whole domain is one half: its dense log weights alone
        # are 2^24 float64 (134 MB), and the pass reads every world.
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        model = model.with_weights(np.random.default_rng(7).uniform(-1.5, 1.5, len(model.clauses)))
        for run in (
            lambda: verify_all(model, 4, 0).all_passed,
            lambda: verify_all(model, 0, 4).all_passed,
            lambda: model_module.max_split_factorization_error(model, 4, 0) == 0.0,
        ):
            tracemalloc.start()
            try:
                assert run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 32e6

    def test_smokers_g24_verify_stays_below_4_5_mb(self):
        # Both G=24 splits reduce per pair; the per-offset pass holds one tile
        # of 2^14 offsets per array and the pair ranking no 2^18-long int64
        # array. Untiled, the two calls peaked at 9.5 MB traced; tiled, 2.3 MB.
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        model = model.with_weights(np.random.default_rng(7).uniform(-1.5, 1.5, len(model.clauses)))
        _table.cache_clear()
        tracemalloc.start()
        try:
            reports = [verify_all(model, 2, 2), verify_all(model, 3, 1)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.all_passed for r in reports)
        assert peak <= 4.5e6

    @pytest.mark.parametrize("split", [(2, 2), (3, 1)])
    def test_smokers_witnesses_attain_their_slacks(self, split):
        # G=24: both splits reduce per (low key, shared code) pair. A witness
        # is the lowest offset attaining its minimum, in the first block where
        # that offset's pair reaches its extreme log weight.
        n, m = split
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        model = model.with_weights(np.random.default_rng(7).uniform(-1.5, 1.5, len(model.clauses)))
        with mock.patch.object(bounds, "_pair_extremes", wraps=model_module._pair_extremes) as per_pair:
            report = verify_all(model, n, m)
        assert per_pair.call_count == 1
        index = AtomIndex(model.signature, DomainSpec({"person": 4}, split_type="person", split_at=n))
        assert index.n_atoms == 24
        sandwich = report.checks[0].details
        up_at, _ = weight_sandwich_slacks(model, n, m, World(index, sandwich["upper_witness"]))
        _, lo_at = weight_sandwich_slacks(model, n, m, World(index, sandwich["lower_witness"]))
        assert abs(up_at - sandwich["upper_slack"]) <= 1e-12
        assert abs(lo_at - sandwich["lower_slack"]) <= 1e-12

    def test_smokers_pass_imports_no_masked_arrays(self):
        # np.setdiff1d reaches np.ma.is_masked, whose lazy import of numpy.ma
        # cost 25-35 ms of a cold G=24 verify; no pass needs it.
        code = (
            "import sys\n"
            "from mlnexact import bounds\n"
            "from mlnexact.datagen import FRIENDS_SMOKERS_MLN\n"
            "from mlnexact.logic import normalize_distinct, parse_mln\n"
            "model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "bounds.verify_all(model, 2, 2)\n"
            "bounds.verify_all(model, 3, 1)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(bounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "False"
