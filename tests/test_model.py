import hashlib
import math
import tracemalloc
from dataclasses import replace
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlnexact import bounds, learning
from mlnexact import model as model_module
from mlnexact.datagen import FRIENDS_SMOKERS_MLN
from mlnexact.logic import MlnModel, arity_partition, normalize_distinct, parse_mln
from mlnexact.model import (
    GroundingTable,
    apply_da_scaling,
    count_histogram,
    count_true_groundings,
    da_scale_factors,
    dense_log_weights,
    log_marginal,
    log_partition,
    log_probability,
    log_weight,
    marginal_log_probs,
    max_split_factorization_error,
    max_tuple_factorization_error,
    _count_kernel,
    _grounded_formula,
    _histogram,
    _table,
)
from mlnexact.worlds import (
    AtomIndex,
    DomainSpec,
    DomainTooLargeError,
    World,
    cross_tuples,
    enumerate_worlds,
    ordered_tuples,
    restrict,
    restriction_positions,
    split_subsets,
)

from _oracles import (
    bit_codes,
    count_groundings_direct,
    counts_matrix,
    log_k_weight,
    log_weights,
    permute,
    raw_log_probs,
    raw_log_weight,
    world_chunks,
)
from conftest import (
    WIDE_SPAN_TEXT,
    dense_restriction_oracle,
    plain_log_weights,
    random_raw_model,
    world_blocks,
)


# Each x != y grounding touches 9 ground atoms, past byte-wide codes.
NINE_ATOM_TEXT = (
    "type p = 2\npredicate R(p,p)\npredicate S(p)\npredicate T(p)\npredicate U(p)\n"
    "1 R(x,y) v R(y,x) v !R(x,x) v R(y,y) v S(x) v !S(y) v T(x) v T(y) v U(x)"
)


# Nine clauses over eight unary predicates: a count-key span of 3^9, which is
# not a power of two, so a block as long as the span is longer than it.
NINE_CLAUSE_TEXT = (
    "type p = 2\n"
    + "".join(f"predicate {c}(p)\n" for c in "ABCDEFGH")
    + "".join(f"1 {c}(x)\n" for c in "ABCDEFGH")
    + "1 A(x) v B(x)\n"
)

# Eight ternary clauses over three unary predicates: 40 clauses once
# normalized, with a count-key span of about 2^145 at p = 4: three key words.
WORDS_TEXT = (
    "type p = 4\npredicate A(p)\npredicate B(p)\npredicate C(p)\n"
    "1 A(x) ^ B(y) => C(z)\n1 A(x) v B(y) v C(z)\n1 A(x) ^ A(y) => B(z)\n"
    "1 B(x) ^ C(y) => A(z)\n1 C(x) ^ C(y) => C(z)\n1 A(x) ^ B(y) ^ C(z)\n"
    "1 B(x) v B(y) => A(z)\n1 !A(x) v C(y) v B(z)\n"
)

# Models on both sides of the count-key span rule, as (name, n).
SPAN_CASES = [
    ("smokers", 2),
    ("smokers", 3),
    ("smokers_reversed", 3),
    ("random", 3),
    ("random_ternary", 3),
    ("nine_clauses", 2),
]


def span_case_model(name: str, rng: np.random.Generator) -> MlnModel:
    if name == "nine_clauses":
        return normalize_distinct(parse_mln(NINE_CLAUSE_TEXT))
    if name.startswith("smokers"):
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        if name == "smokers_reversed":  # the Friends clause reaches the high bits
            model = MlnModel(model.signature, model.clauses[::-1], normalized=True)
        return model
    return random_raw_model(rng, include_ternary_clause=name == "random_ternary")


def model_from(text: str) -> MlnModel:
    return normalize_distinct(parse_mln(text))


def index_for(model: MlnModel, n: int, type_name: str | None = None) -> AtomIndex:
    tau = type_name or model.signature.types[0][0]
    return AtomIndex(model.signature, DomainSpec({tau: n}))


class TestCounting:
    def test_single_unary_atom(self):
        model = model_from("type p = 2\npredicate Smokes(p)\n1.0 Smokes(x)")
        index = index_for(model, 2)
        world = World.from_true_atoms(index, [("Smokes", (1,))])
        assert count_true_groundings(model.clauses[0], world) == 1

    def test_mutual_relation_counts_ordered_assignments(self):
        model = model_from("type p = 2\npredicate R(p,p)\n1.0 R(x,y) ^ R(y,x) ^ x != y")
        index = index_for(model, 2)
        world = World.from_true_atoms(index, [("R", (1, 2)), ("R", (2, 1))])
        assert count_true_groundings(model.clauses[0], world) == 2

    def test_triangle_all_true_counts_all_injections(self, triangle_model):
        norm = normalize_distinct(triangle_model)
        (tri,) = [c for c in norm.clauses if c.formula.arity == 3]
        index = index_for(norm, 3)
        world = World.all_true(index)
        assert count_true_groundings(tri, world) == 6
        assert count_groundings_direct(tri, world) == 6

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_match_direct_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        model = normalize_distinct(random_raw_model(rng))
        index = index_for(model, 3)
        for bits in rng.integers(0, 1 << index.n_atoms, size=8):
            world = World(index, int(bits))
            for clause in model.clauses:
                assert count_true_groundings(clause, world) == count_groundings_direct(
                    clause, world
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_raw_counts_match_direct_evaluation(self, seed):
        # Un-normalized clauses count assignments with repetitions allowed.
        rng = np.random.default_rng(100 + seed)
        model = random_raw_model(rng)
        index = index_for(model, 3)
        for bits in rng.integers(0, 1 << index.n_atoms, size=8):
            world = World(index, int(bits))
            for clause in model.clauses:
                assert count_true_groundings(clause, world) == count_groundings_direct(
                    clause, world
                )

    def test_unary_world_past_64_atoms(self):
        model = model_from("type p = 70\npredicate S(p)\n0.5 S(x)")
        index = index_for(model, 70)
        world = World(index, (1 << 70) - 1 - (1 << 3))
        assert count_true_groundings(model.clauses[0], world) == 69
        assert _table(model.formulas(), index).counts_world(world).tolist() == [69]
        assert log_weight(model, world) == 0.5 * 69

    def test_friends_smokers_world_past_64_atoms(self):
        # n=9: 9 + 9 + 81 = 99 ground atoms.
        model = model_from(FRIENDS_SMOKERS_MLN).with_weights([0.5, -1.0, 0.25, 2.0, -0.75])
        index = index_for(model, 9)
        rng = np.random.default_rng(9)
        world = World(index, int.from_bytes(rng.bytes(13), "little") >> 5)
        direct = [count_groundings_direct(c, world) for c in model.clauses]
        assert [count_true_groundings(c, world) for c in model.clauses] == direct
        assert _table(model.formulas(), index).counts_world(world).tolist() == direct
        assert log_weight(model, world) == pytest.approx(raw_log_weight(model, world), abs=1e-12)

    def test_grounding_total_is_falling_factorial(self):
        model = model_from("type p = 5\npredicate R(p,p)\n1.0 R(x,y)")
        for clause in model.clauses:
            k = clause.formula.arity
            entry = _grounded_formula(clause.formula, index_for(model, 5))
            total = entry.total
            assert total == math.perm(5, k)


class TestLogWeight:
    def test_zero_weights(self):
        model = model_from("type p = 3\npredicate S(p)\n0 S(x)")
        index = index_for(model, 3)
        assert log_weight(model, World(index, 5)) == 0.0

    def test_single_clause_three_groundings(self):
        model = model_from(f"type p = 3\npredicate S(p)\n{math.log(2)} S(x)")
        index = index_for(model, 3)
        assert log_weight(model, World.all_true(index)) == pytest.approx(3 * math.log(2))

    def test_projective_example_hand_evaluated(self, example3_model):
        model = normalize_distinct(example3_model)
        index = index_for(model, 2)
        world = World.from_true_atoms(
            index, [("Covid", (1,)), ("Contact", (1, 2)), ("Contact", (2, 1))]
        )
        # one Covid plus one mutual-contact pair counted in both orders
        assert log_weight(model, world) == pytest.approx(0.6 * 1 + 0.9 * 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_raw_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        model = normalize_distinct(random_raw_model(rng))
        index = index_for(model, 3)
        for bits in rng.integers(0, 1 << index.n_atoms, size=5):
            world = World(index, int(bits))
            assert log_weight(model, world) == pytest.approx(
                raw_log_weight(model, world), abs=1e-12
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        model = normalize_distinct(random_raw_model(rng))
        index = index_for(model, 3)
        world = World(index, int(rng.integers(0, 1 << index.n_atoms)))
        reference = log_weight(model, world)
        for perm in permutations((1, 2, 3)):
            mapping = {i + 1: p for i, p in enumerate(perm)}
            assert log_weight(model, permute(world, mapping)) == pytest.approx(reference)

    def test_grounding_table_is_shared_across_weight_vectors(self):
        # A clause structure no other test grounds, so the first call misses.
        model = model_from("type p = 2\npredicate Q(p,p)\n0.3 Q(x,y) ^ Q(y,x) => Q(x,x)")
        world = World(index_for(model, 2), 6)
        before = _table.cache_info()
        first = log_weight(model, world)
        second = log_weight(model.with_weights([-1.7] * len(model.clauses)), world)
        after = _table.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert first != second


class TestWorldCountsMemo:
    """A grounding table keeps the counts of the single worlds it was asked for."""

    def test_memo_equals_the_kernel_and_is_read_only(self):
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        index = index_for(model, 3)
        gt = GroundingTable(model.formulas(), index)
        rng = np.random.default_rng(5)
        for bits in map(int, rng.integers(0, 1 << index.n_atoms, size=8)):
            for _ in range(2):  # a miss, then a hit
                counts = gt.counts_world(World(index, bits))
                assert counts.tobytes() == _count_kernel(gt.entries, bits).tobytes()
                assert not counts.flags.writeable
                with pytest.raises(ValueError):
                    counts[0] = 0

    def test_a_hit_does_not_count_again(self):
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        index = index_for(model, 3)
        gt = GroundingTable(model.formulas(), index)
        with mock.patch.object(model_module, "_count_kernel", wraps=_count_kernel) as kernel:
            first = gt.counts_world(World(index, 12345))
            second = gt.counts_world(World(index, 12345))
        assert kernel.call_count == 1
        assert second is first

    def test_memo_is_bounded_and_keeps_the_recent_worlds(self):
        model = model_from("type p = 3\npredicate S(p)\npredicate R(p,p)\n1 R(x,y) => S(x)")
        index = index_for(model, 3)
        gt = GroundingTable(model.formulas(), index)
        limit = model_module.WORLD_COUNTS_MEMO
        assert 1 << index.n_atoms > limit + 40
        with mock.patch.object(model_module, "_count_kernel", wraps=_count_kernel) as kernel:
            for bits in range(1, limit + 40):
                gt.counts_world(World(index, bits))
                gt.counts_world(World(index, 0))  # world 0 stays the most recently used
        assert kernel.call_count == limit + 40  # every world counted once
        assert len(gt._world_counts) == limit
        assert 0 in gt._world_counts and limit + 39 in gt._world_counts
        assert 1 not in gt._world_counts

    def test_the_same_bits_over_another_index_give_other_counts(self):
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        small, large = index_for(model, 2), index_for(model, 3)
        bits = 0b1011
        weights = [0.5, -0.25, 1.0, 0.75, -1.5][: len(model.clauses)]
        model = model.with_weights(weights)
        seen = []
        for index in (small, large, small, large):  # each index's memo is filled, then hit
            world = World(index, bits)
            gt = _table(model.formulas(), index)
            counts = gt.counts_world(world)
            assert counts.tobytes() == _count_kernel(gt.entries, bits).tobytes()
            assert log_weight(model, world) == pytest.approx(
                raw_log_weight(model, world), abs=1e-12
            )
            seen.append(counts.tolist())
        assert seen[0] == seen[2] and seen[1] == seen[3]
        assert seen[0] != seen[1]

    def test_a_relaid_copy_counts_its_own_worlds(self):
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        index = index_for(model, 3)
        gt = GroundingTable(model.formulas(), index)
        relaid, _ = gt.relaid(np.arange(index.n_atoms)[::-1].copy())
        differ = 0
        for bits in range(1, 1 << 12, 97):
            world = World(index, bits)
            original = gt.counts_world(world).tolist()
            copied = relaid.counts_world(world)
            assert copied.tobytes() == _count_kernel(relaid.entries, bits).tobytes()
            differ += copied.tolist() != original
        assert differ > 0


class TestKWeights:
    def test_no_clauses_of_that_arity(self, unary_model):
        model = normalize_distinct(unary_model)
        sub_index = index_for(model, 2, "item")
        assert log_k_weight(model, World(sub_index, 3), 2) == 0.0

    def test_mutual_pair_value(self):
        model = model_from("type p = 4\npredicate R(p,p)\n0.8 R(x,y) ^ R(y,x) ^ x != y")
        pair_index = index_for(model, 2)
        world = World.from_true_atoms(pair_index, [("R", (1, 2)), ("R", (2, 1))])
        assert log_k_weight(model, world, 2) == pytest.approx(2 * 0.8)

    def test_tuple_decomposition_single_world(self):
        rng = np.random.default_rng(11)
        model = normalize_distinct(random_raw_model(rng))
        n = 3
        index = index_for(model, n)
        world = World(index, int(rng.integers(0, 1 << index.n_atoms)))
        d = model.max_arity
        total = 0.0
        for k in range(1, d + 1):
            for c in ordered_tuples(n, k):
                total += log_k_weight(model, restrict(world, c), k)
        assert total == pytest.approx(log_weight(model, world), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_tuple_factorization_all_worlds(self, seed):
        model = normalize_distinct(random_raw_model(np.random.default_rng(300 + seed)))
        assert max_tuple_factorization_error(model, 3) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_tuple_factorization_with_ternary_clause(self, seed):
        model = normalize_distinct(
            random_raw_model(
                np.random.default_rng(350 + seed),
                weight_range=(-2.0, 2.0),
                include_ternary_clause=True,
            )
        )
        assert model.max_arity == 3
        assert max_tuple_factorization_error(model, 3) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_split_factorization_all_worlds(self, seed):
        model = normalize_distinct(random_raw_model(np.random.default_rng(400 + seed)))
        assert max_split_factorization_error(model, 2, 2) <= 1e-9


def _identity_terms(model: MlnModel, index: AtomIndex, tuples) -> list:
    """The factorization identity's ``(positions, table)`` terms from the
    plain block kernel: one per k-tuple of ``tuples``, over the tuple's
    restriction positions, with the arity-k clauses' log weights at k constants."""
    tau = model.signature.types[0][0]
    terms = []
    for k, clauses in arity_partition(model).items():
        sub_index = index_for(model, k)
        lw_k = plain_log_weights(replace(model, clauses=tuple(clauses)), sub_index)
        terms += [(restriction_positions(index, {tau: c})[1], lw_k) for c in tuples(k)]
    return terms


def _gap_oracle(model: MlnModel, index: AtomIndex, terms) -> float:
    """Worst per-world ``|log weight - sum(table[code])|``, every world's
    code gathered with ``bit_codes``."""
    lw = plain_log_weights(model, index)
    total = np.zeros_like(lw)
    for worlds in world_chunks(index.n_atoms):
        at = slice(int(worlds[0]), int(worlds[0]) + worlds.shape[0])
        for positions, table in terms:
            total[at] += table[bit_codes(worlds, positions)]
    return float(np.abs(lw - total).max())


class TestFactorizationGap:
    """``_max_gap`` sums restriction tables per block of the pair stream. In
    blocks of 16 worlds every term has positions past a block's low bits,
    which each block fixes from its start."""

    @pytest.mark.parametrize("ternary", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_checks_match_the_per_world_oracle(self, seed, ternary):
        model = normalize_distinct(
            random_raw_model(np.random.default_rng(700 + seed), include_ternary_clause=ternary)
        )
        index3 = index_for(model, 3)
        tau = model.signature.types[0][0]
        spec = DomainSpec({tau: 3}, split_type=tau, split_at=2)
        split_index = AtomIndex(model.signature, spec)
        halves = []
        for half in split_subsets(spec):
            sub_index, positions = restriction_positions(split_index, half)
            halves.append((positions, plain_log_weights(model, sub_index)))
        tuple_oracle = _gap_oracle(
            model, index3, _identity_terms(model, index3, lambda k: ordered_tuples(3, k))
        )
        cross = _identity_terms(model, split_index, lambda k: cross_tuples(2, 1, k))
        split_oracle = _gap_oracle(model, split_index, halves + cross)
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 4):
            assert max_tuple_factorization_error(model, 3) == pytest.approx(tuple_oracle, abs=1e-12)
            assert max_split_factorization_error(model, 2, 1) == pytest.approx(
                split_oracle, abs=1e-12
            )
        assert max(tuple_oracle, split_oracle) <= 1e-9

    @pytest.mark.parametrize("chunk_bits", [18, 4])
    def test_a_shifted_table_entry_shows_as_the_gap(self, chunk_bits):
        # The exact identity's gap is rounding; shifting one table entry of
        # one term by 0.25 moves every world that reads that entry by 0.25.
        model = normalize_distinct(random_raw_model(np.random.default_rng(701)))
        index = index_for(model, 3)
        terms = model_module._tuple_terms(model, index, lambda k: ordered_tuples(3, k))
        positions, table = terms[-1]
        shifted = table.copy()
        shifted[table.shape[0] // 2] += 0.25
        terms[-1] = (positions, shifted)
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << chunk_bits):
            assert model_module._max_gap(model, index, terms) == pytest.approx(0.25, abs=1e-12)
        assert _gap_oracle(model, index, terms) == pytest.approx(0.25, abs=1e-12)

    def test_smokers_g24_tuple_check_stays_below_32_mb(self):
        # The check held two 2^24 float64 vectors (268 MB) and their
        # difference: it peaked at 541 MB traced, and 7 MB per block.
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        index = index_for(model, 4)
        assert index.n_atoms == 24
        tracemalloc.start()
        try:
            gap = max_tuple_factorization_error(model, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap <= 1e-9
        assert peak <= 32e6


class TestPartition:
    def test_zero_weights_binary(self):
        model = model_from("type p = 2\npredicate R(p,p)\n0 R(x,y)")
        assert log_partition(model, index_for(model, 2)) == pytest.approx(math.log(16))

    def test_unary_closed_form(self):
        a = 0.85
        model = model_from(f"type p = 3\npredicate S(p)\n{a} S(x)")
        expected = 3 * math.log1p(math.exp(a))
        assert log_partition(model, index_for(model, 3)) == pytest.approx(expected, abs=1e-12)

    def test_projective_example_closed_form(self, example3_model):
        """Independence across persons and pairs factorizes the sum exactly."""
        a1, a2 = 0.6, 0.9
        model = normalize_distinct(example3_model)
        expected = math.log((1 + math.exp(a1)) ** 2 * (3 + math.exp(2 * a2)) * 4)
        assert log_partition(model, index_for(model, 2)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_guard(self):
        model = model_from("type p = 8\npredicate R(p,p)\n0.5 R(x,y)")
        with pytest.raises(DomainTooLargeError):
            log_partition(model, index_for(model, 8), max_atoms=28)

    def test_index_over_another_signature_is_rejected(self):
        # Scored over S(p) and R(p,p), this model would give log Z 4.7207, not 1.9482.
        model = model_from("type p = 2\npredicate S(p)\n0.5 S(x)")
        other = model_from("type p = 2\npredicate S(p)\npredicate R(p,p)\n0.5 S(x)")
        index = AtomIndex(other.signature, DomainSpec({"p": 2}))
        assert log_partition(model, index_for(model, 2)) == pytest.approx(1.9482, abs=1e-4)
        with pytest.raises(ValueError, match="signature"):
            log_partition(model, index=index)
        with pytest.raises(ValueError, match="signature"):
            count_histogram(model, index)


def _logsumexp(x: np.ndarray) -> float:
    shift = float(x.max())
    return shift + math.log(float(np.exp(x - shift).sum()))


class TestCountKernel:
    def test_log_weights_are_counts_times_weights(self):
        rng = np.random.default_rng(3)
        model = normalize_distinct(random_raw_model(rng, include_ternary_clause=True))
        index = index_for(model, 3)
        gt = GroundingTable(model.formulas(), index)
        worlds = next(world_chunks(index.n_atoms))
        counts = counts_matrix(gt.entries, worlds)
        lw = log_weights(gt.entries, worlds, model.weights())
        assert np.abs(lw - counts @ np.array(model.weights())).max() <= 1e-12
        for bits in (0, 5, int(worlds[-1])):
            world = World(index, bits)
            assert gt.counts_world(world).tolist() == counts[bits].tolist()
            per_clause = [count_true_groundings(c, world) for c in model.clauses]
            assert per_clause == counts[bits].tolist()

    def test_groundings_over_more_than_eight_atoms(self):
        model = parse_mln(NINE_ATOM_TEXT)
        index = index_for(model, 2)
        gt = GroundingTable(model.formulas(), index)
        assert max(g.cols.shape[1] for e in gt.entries for g in e.groups) == 9
        counts = counts_matrix(gt.entries, next(world_chunks(index.n_atoms)))
        direct = [raw_log_weight(model, World(index, b)) for b in range(1 << index.n_atoms)]
        assert counts[:, 0].tolist() == direct


def _block_worlds(start: int, keys: np.ndarray) -> np.ndarray:
    """The worlds of the ``world_blocks`` block that starts at ``start``."""
    return np.arange(start, start + keys.shape[0], dtype=np.uint64)


LAYOUTS = {
    "identity": lambda gt: np.eye(len(gt.entries), dtype=np.int64),
    "mixed_radix": lambda gt: model_module._count_keys(gt.entries)[1],
}


def _per_world_table_sums(n_bits: int, terms, dtype) -> np.ndarray:
    """The sum of every term's table entry in every assignment, evaluated
    one assignment at a time."""
    out = np.zeros(1 << n_bits, dtype=dtype)
    for x in range(1 << n_bits):
        for positions, table in terms:
            out[x] += table[sum((x >> int(p) & 1) << j for j, p in enumerate(positions))]
    return out


class TestTableSums:
    @pytest.mark.parametrize(
        ("n_bits", "positions"),
        [
            (12, [[0], [7, 2], [5, 1, 6]]),  # below the inner 8 bits
            (12, [[3, 9], [10, 0, 7], [8, 7]]),  # across them
            (12, [[8], [11, 9], [10, 8, 11]]),  # above them
            (12, [[2, 9], [9, 2], [11, 3, 10], [3, 10, 11]]),  # one set of high bits, two orders
            (5, [[0], [4, 2], [1, 3, 0]]),  # fewer bits than the inner run
            (8, [[7, 0], [6, 5, 4]]),  # exactly the inner run
            (3, []),
        ],
        ids=["below", "across", "above", "shared_high_bits", "n5", "n8", "no_terms"],
    )
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_matches_per_world_evaluation(self, n_bits, positions, dtype):
        rng = np.random.default_rng(n_bits)
        terms = [((), np.array([3], dtype=dtype))]  # a term over no bits adds everywhere
        terms += [(p, rng.integers(0, 4, size=1 << len(p)).astype(dtype)) for p in positions]
        got = model_module._table_sums(n_bits, terms, np.dtype(dtype))
        assert got.dtype == dtype and got.shape == (1 << n_bits,)
        assert np.array_equal(got, _per_world_table_sums(n_bits, terms, dtype))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_terms_match_per_world_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        n_bits = int(rng.integers(0, 13))
        terms = []
        for _ in range(int(rng.integers(0, 6))):
            positions = rng.permutation(n_bits)[: int(rng.integers(0, min(n_bits, 4) + 1))]
            table = rng.integers(0, 9, size=1 << positions.shape[0]).astype(np.uint16)
            terms.append((positions, table))
        got = model_module._table_sums(n_bits, terms, np.dtype(np.uint16))
        assert np.array_equal(got, _per_world_table_sums(n_bits, terms, np.uint16))


class TestChunkCounts:
    @pytest.mark.parametrize("chunk_bits", [18, 2])
    @pytest.mark.parametrize(("n", "dtype"), [(7, np.uint8), (8, np.uint16)])
    def test_identity_keys_are_as_narrow_as_the_grounding_total(self, n, dtype, chunk_bits):
        # n(n-1)(n-2) groundings: 210 fit a byte, 336 do not. Under the
        # identity layout a world's keys are its counts.
        model = parse_mln(
            f"type p = {n}\npredicate S(p)\n1 (S(x) v S(y) v S(z)) ^ x != y ^ x != z ^ y != z"
        )
        index = index_for(model, n)
        gt = GroundingTable(model.formulas(), index)
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << chunk_bits):
            stream = gt.pair_counts(LAYOUTS["identity"](gt))
            counts = np.concatenate([c for _, c in world_blocks(stream)])
        assert counts.dtype == dtype
        assert int(counts.max()) == n * (n - 1) * (n - 2)
        clause = model.clauses[0]
        assert counts[:, 0].tolist() == [
            count_true_groundings(clause, World(index, b)) for b in range(1 << n)
        ]

    def test_identity_keys_past_two_bytes_are_int32(self):
        # 18 * 17 * 16 * 15 = 73,440 groundings. Blocks of 16 worlds put the 24
        # groundings over atoms 0..3 in the base and the rest in the high part;
        # only the first block is counted, as the whole pass is 2^18 worlds.
        model = parse_mln(
            "type p = 18\npredicate S(p)\n"
            "1 (!S(x) v !S(y) v !S(z) v !S(w)) ^ x != y ^ x != z ^ x != w ^ y != z ^ y != w"
            " ^ z != w"
        )
        index = index_for(model, 18)
        gt = GroundingTable(model.formulas(), index)
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 4):
            start, counts = next(world_blocks(gt.pair_counts(LAYOUTS["identity"](gt))))
        assert start == 0 and counts.shape == (16, 1)
        assert counts.dtype == np.int32
        assert counts[0, 0] == count_true_groundings(model.clauses[0], World(index, 0)) == 73440
        # With atoms 0..3 true, only their 4! orderings are false.
        assert counts[15, 0] == 73440 - 24

    @pytest.mark.parametrize("chunk_bits", [2, 1])
    @pytest.mark.parametrize(
        ("top", "dtype"),
        [
            (255, np.uint8),
            (256, np.uint16),
            (65535, np.uint16),
            (65536, np.int32),
            ((1 << 31) - 1, np.int32),
            (1 << 31, np.int64),
            ((1 << 63) - 1, np.int64),
        ],
    )
    def test_keys_take_the_narrowest_dtype_of_the_largest_key(self, top, dtype, chunk_bits):
        # Atoms S(1) and R(1), each clause true in one grounding: under
        # strides (a, b) the four worlds have keys 0, a, b and a + b = top.
        # Blocks of two worlds put R in the high bits, where its truth table
        # is scaled by b.
        model = model_from("type p = 1\npredicate S(p)\npredicate R(p)\n1 S(x)\n1 R(x)")
        index = index_for(model, 1)
        gt = GroundingTable(model.formulas(), index)
        a, b = top // 2, top - top // 2
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << chunk_bits):
            blocks = list(world_blocks(gt.pair_counts(np.array([a, b]))))
        assert [start for start, _ in blocks] == list(range(0, 4, 1 << chunk_bits))
        keys = np.concatenate([k for _, k in blocks])
        assert keys.dtype == dtype
        assert keys.tolist() == [0, a, b, top]
        with pytest.raises(ValueError, match="int64"):
            next(world_blocks(gt.pair_counts(np.array([1 << 62, 1 << 62]))))

    def test_wide_groundings_straddle_a_shrunken_block(self):
        # Groundings over 9 atoms take int64 codes; blocks of 16 worlds split
        # some of them between the low and the high bits.
        model = parse_mln(NINE_ATOM_TEXT)
        index = index_for(model, 2)
        gt = GroundingTable(model.formulas(), index)
        cols = np.concatenate([g.cols for e in gt.entries for g in e.groups])
        assert cols.shape[1] == 9
        assert ((cols.min(axis=1) < 4) & (cols.max(axis=1) >= 4)).any()
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 4):
            for start, counts in world_blocks(gt.pair_counts(LAYOUTS["identity"](gt))):
                worlds = _block_worlds(start, counts)
                assert np.array_equal(counts, counts_matrix(gt.entries, worlds))
                direct = [raw_log_weight(model, World(index, int(b))) for b in worlds]
                assert counts[:, 0].tolist() == direct

    @pytest.mark.parametrize("text", [NINE_ATOM_TEXT, FRIENDS_SMOKERS_MLN])
    def test_strides_add_the_clause_columns_into_one_key(self, text):
        # Blocks of 16 worlds put groundings on both sides of the low/high split.
        model = normalize_distinct(parse_mln(text))
        index = index_for(model, 2)
        gt = GroundingTable(model.formulas(), index)
        strides = np.arange(len(gt.entries), dtype=np.int64) * 7 + 3
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 4):
            blocks = list(world_blocks(gt.pair_counts(strides)))
        assert len(blocks) == 1 << (index.n_atoms - 4)
        for start, key in blocks:
            assert key.shape == (16,)
            worlds = _block_worlds(start, key)
            assert np.array_equal(key, counts_matrix(gt.entries, worlds) @ strides)

    @pytest.mark.parametrize(
        ("text", "n", "shared"),
        [
            ("type p = 6\npredicate S(p)\n0.5 S(x)", 6, "none"),  # one atom per grounding
            (FRIENDS_SMOKERS_MLN, 2, "some"),  # Friends(x,y) also reads Smokes(x), Smokes(y)
            (NINE_ATOM_TEXT, 2, "all"),  # every high grounding reads all four R atoms
        ],
    )
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_shared_table_matches_the_kernel(self, text, n, shared, layout):
        # Blocks of 16 worlds; the high groundings reach past bit 4 and read
        # none, some or all of the four low atoms.
        model = normalize_distinct(parse_mln(text))
        index = index_for(model, n)
        gt = GroundingTable(model.formulas(), index)
        rows = [row for e in gt.entries for g in e.groups for row in g.cols if row.max() >= 4]
        low_atoms = {int(p) for row in rows for p in row if p < 4}
        assert rows
        assert {"none": 0, "some": 2, "all": 4}[shared] == len(low_atoms)
        strides = LAYOUTS[layout](gt)
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 4):
            blocks = list(world_blocks(gt.pair_counts(strides)))
        assert len(blocks) == 1 << (index.n_atoms - 4)
        for start, keys in blocks:
            expected = counts_matrix(gt.entries, _block_worlds(start, keys)) @ strides
            assert np.array_equal(keys, expected)

    def test_key_words_hold_their_own_clauses(self):
        # Blocks of 16 worlds; clauses 0-2 go to word 0 and 3-4 to word 1.
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        index = index_for(model, 2)
        gt = GroundingTable(model.formulas(), index)
        strides = np.array([[9, 0], [3, 0], [1, 0], [0, 3], [0, 1]])
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 4):
            blocks = list(world_blocks(gt.pair_counts(strides)))
        assert len(blocks) == 1 << (index.n_atoms - 4)
        for start, key in blocks:
            assert key.shape == (16, 2)
            counts = counts_matrix(gt.entries, _block_worlds(start, key))
            assert np.array_equal(key, counts @ strides)
            assert np.array_equal(model_module._decode_keys(key, strides, np.full(5, 3)), counts)

    @pytest.mark.parametrize("chunk_bits", [18, 4])
    def test_blocks_tile_the_worlds_and_only_the_first_builds_them(self, chunk_bits):
        # Smokers at n=3 (G=15) over two layouts and every pass built on
        # pair_counts, gathered to the worlds by world_blocks: the block starts
        # are 0, chunk, 2 chunk, ... below 2^G. No pass builds a block's
        # worlds: the engine has no world_chunks or bit_codes to build them with.
        assert not hasattr(model_module, "world_chunks")
        assert not hasattr(model_module, "bit_codes")
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        index = index_for(model, 3)
        gt = GroundingTable(model.formulas(), index)
        chunk = 1 << chunk_bits
        tiles = list(range(0, 1 << index.n_atoms, chunk))
        passes = mock.patch.object(
            GroundingTable, "pair_counts", autospec=True, side_effect=GroundingTable.pair_counts
        )
        with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk), passes as counted:
            for layout in LAYOUTS.values():
                blocks = list(world_blocks(gt.pair_counts(layout(gt))))
                assert [start for start, _ in blocks] == tiles
                assert all(keys.shape[0] == min(chunk, 1 << index.n_atoms) for _, keys in blocks)
            assert [s for s, _ in gt.pair_log_weights(model.weights()).blocks] == tiles
            assert counted.call_count == 3
            _histogram.cache_clear()
            learning._counts_cached.cache_clear()
            count_histogram(model, index)
            learning._counts_cached(model.formulas(), index)
            dense_log_weights(model, index)
            marginal_log_probs(model, DomainSpec({"person": 3}, split_type="person", split_at=2))
            max_tuple_factorization_error(model, 3)
            max_split_factorization_error(model, 2, 1)
            bounds.verify_all(model, 2, 1)
            assert counted.call_count > 3
        _histogram.cache_clear()
        learning._counts_cached.cache_clear()


def _two_word_strides(gt: GroundingTable) -> np.ndarray:
    """Mixed-radix strides over two key words: the first half of the clauses
    in word 0, the rest in word 1."""
    radix = [e.total + 1 for e in gt.entries]
    strides = np.zeros((len(radix), 2), dtype=np.int64)
    half = len(radix) // 2
    for word, clauses in enumerate((range(half), range(half, len(radix)))):
        span = 1
        for c in reversed(clauses):
            strides[c, word] = span
            span *= radix[c]
    return strides


PAIR_LAYOUTS = {**LAYOUTS, "two_words": _two_word_strides}


class TestPairCounts:
    @pytest.mark.parametrize(
        ("source", "n", "chunk_bits"),
        [
            (FRIENDS_SMOKERS_MLN, 2, 4),
            (FRIENDS_SMOKERS_MLN, 3, 4),
            (NINE_ATOM_TEXT, 2, 4),
            (0, 3, 4),
            (1, 3, 4),
            (2, 4, 4),
            (0, 4, 18),
        ],
        ids=[
            "smokers-2",
            "smokers-3",
            "nine_atoms-2",
            "random0-3",
            "random1-3",
            "random2-4",
            "random0-4-full_chunk",
        ],
    )
    @pytest.mark.parametrize("layout", sorted(PAIR_LAYOUTS))
    def test_pair_keys_gather_to_every_world_s_key(self, source, n, chunk_bits, layout):
        # Every block's pair keys, gathered by inverse, are the kernel's keys
        # of its worlds, and inverse is as narrow as the pair count allows. An
        # integer source is the seed of a random raw model with a ternary
        # clause; the G=20 draw runs at the full DEFAULT_CHUNK.
        if isinstance(source, int):
            rng = np.random.default_rng(source)
            model = normalize_distinct(random_raw_model(rng, include_ternary_clause=True))
        else:
            model = model_from(source)
        index = index_for(model, n)
        gt = GroundingTable(model.formulas(), index)
        strides = PAIR_LAYOUTS[layout](gt)
        chunk = 1 << chunk_bits
        assert index.n_atoms > chunk_bits
        with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk):
            stream = gt.pair_counts(strides)
            blocks = list(stream.blocks)
        pairs = stream.mult.shape[0]
        assert stream.n_worlds == chunk and stream.inverse.shape == (chunk,)
        assert stream.inverse.dtype == model_module._count_dtype(pairs - 1)
        assert chunk_bits > 4 or stream.inverse.dtype == np.uint8
        assert stream.mult.tolist() == np.bincount(stream.inverse, minlength=pairs).tolist()
        assert [start for start, _ in blocks] == list(range(0, 1 << index.n_atoms, chunk))
        for start, keys in blocks:
            assert keys.shape[0] == pairs
            worlds = np.arange(start, start + chunk, dtype=np.uint64)
            expected = counts_matrix(gt.entries, worlds) @ strides
            assert np.array_equal(stream.per_world(keys), expected)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_shared_atoms_past_the_inner_bits(self, layout):
        # WORDS_TEXT at p=4 (G=12, 40 clauses, three key words under
        # mixed-radix strides) in blocks of 2^10 worlds: the high groundings
        # read all ten low atoms, so their tables are laid out over shared
        # positions above the lowest 8 bits.
        model = model_from(WORDS_TEXT)
        index = index_for(model, 4)
        gt = GroundingTable(model.formulas(), index)
        rows = [row for e in gt.entries for g in e.groups for row in g.cols if row.max() >= 10]
        assert len({int(p) for row in rows for p in row if p < 10}) == 10
        strides = LAYOUTS[layout](gt)
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 10):
            stream = gt.pair_counts(strides)
            blocks = list(stream.blocks)
        assert len(blocks) == 4
        for start, keys in blocks:
            worlds = np.arange(start, start + (1 << 10), dtype=np.uint64)
            expected = counts_matrix(gt.entries, worlds) @ strides
            assert np.array_equal(stream.per_world(keys), expected)

    @pytest.mark.parametrize(("n", "split", "pairs"), [(4, (2, 2), 332), (4, (3, 1), 332)])
    def test_smokers_blocks_share_few_pairs(self, n, split, pairs):
        # G=24 smokers relaid for a bound split: the 2^18 worlds of a block
        # fall into a few hundred (low key, shared code) pairs.
        model = model_from(FRIENDS_SMOKERS_MLN)
        spec = DomainSpec({"person": n}, split_type="person", split_at=split[0])
        index = AtomIndex(model.signature, spec)
        positions = [restriction_positions(index, half)[1] for half in split_subsets(spec)]
        gt, _ = GroundingTable(model.formulas(), index).relaid(*positions)
        stream = gt.pair_counts(model_module._count_keys(gt.entries)[1])
        assert stream.n_worlds == model_module.DEFAULT_CHUNK
        assert stream.mult.shape == (pairs,)
        assert int(stream.mult.sum()) == stream.n_worlds
        assert stream.inverse.dtype == np.uint16

    def test_a_single_block_without_high_groundings_is_deduped_into_pairs(self):
        # G=15 smokers is one block, so no grounding reaches the high bits:
        # the pairs are the distinct low keys, one per distinct count vector.
        model = model_from(FRIENDS_SMOKERS_MLN)
        index = index_for(model, 3)
        gt = GroundingTable(model.formulas(), index)
        strides = model_module._count_keys(gt.entries)[1]
        stream = gt.pair_counts(strides)
        ((start, keys),) = list(stream.blocks)
        assert stream.n_worlds == 1 << index.n_atoms == 2**15
        assert stream.mult.shape == keys.shape == (44,)
        assert int(stream.mult.sum()) == 2**15
        assert stream.inverse.dtype == np.uint8
        worlds = _block_worlds(start, stream.inverse)
        assert np.array_equal(stream.per_world(keys), counts_matrix(gt.entries, worlds) @ strides)

    @pytest.mark.parametrize("words", [1, 2])
    def test_presence_table_and_unique_keys_rank_pairs_alike(self, words):
        # One-word pairs whose table fits go through the presence table; a
        # second key word forces _unique_keys. Both give the same ranks.
        rng = np.random.default_rng(words)
        low = rng.integers(0, 40, size=4096).astype(np.uint16)
        code = rng.integers(0, 8, size=4096)
        packed = model_module._pairs(low, code, 3)
        sorted_ = model_module._pairs(np.stack([low] * words, axis=1), code, 3)
        assert packed[0].dtype == np.uint16 and packed[2].dtype == np.uint16
        assert np.array_equal(sorted_[0], np.stack([packed[0]] * words, axis=1))
        assert np.array_equal(sorted_[1], packed[1])
        assert sorted_[2].tobytes() == packed[2].tobytes()
        assert np.array_equal(packed[0][packed[2]], low)
        assert np.array_equal(packed[1][packed[2]], code)

    @pytest.mark.parametrize(
        ("top", "code_bits"),
        [(254, 0), (256, 0), (63, 2), (64, 2), (65534, 0), (65536, 0), (16383, 2), (16384, 2)],
        ids=["2^8-1", "2^8+1", "2^8", "2^8+4", "2^16-1", "2^16+1", "2^16", "2^16+4"],
    )
    def test_tiled_presence_table_ranks_like_unique_keys(self, top, code_bits):
        # A presence table of (top + 1) << code_bits entries, every one a pair,
        # over 2^17 low keys: eight tiles of DEFAULT_TILE. The table positions,
        # the ranks and the inverse each take the narrowest dtype, on both
        # sides of the uint8 and uint16 limits, and at +4 the positions
        # outgrow the low keys' dtype; _unique_keys is the oracle.
        table = (top + 1) << code_bits
        rng = np.random.default_rng(table)
        fill = rng.integers(0, table, (1 << 17) - table)
        packed = rng.permutation(np.concatenate([np.arange(table), fill]))
        low = (packed >> code_bits).astype(model_module._count_dtype(top))
        mask = (1 << code_bits) - 1
        code = (packed & mask).astype(model_module._count_dtype(mask))
        assert low.shape[0] > 4 * model_module.DEFAULT_TILE
        tiled = model_module._pairs(low, code, code_bits)
        sorted_ = model_module._pairs(low[:, None], code, code_bits)
        assert tiled[0].shape == (table,)
        assert np.array_equal(sorted_[0], tiled[0][:, None])
        assert np.array_equal(sorted_[1], tiled[1])
        assert tiled[2].dtype == sorted_[2].dtype == model_module._count_dtype(table - 1)
        assert tiled[2].tobytes() == sorted_[2].tobytes()
        assert np.array_equal(tiled[0][tiled[2]], low)
        assert np.array_equal(tiled[1][tiled[2]], code)

    def test_learning_count_table_keeps_its_bytes(self):
        # G=15 smokers is one block: _distinct_counts is byte-identical to its
        # all-worlds np.unique, which this digest was taken from.
        model = model_from(FRIENDS_SMOKERS_MLN)
        rows, mult, inverse = model_module._distinct_counts(model.formulas(), index_for(model, 3))
        assert (rows.dtype, mult.dtype, inverse.dtype) == (np.int64,) * 3
        digest = hashlib.sha256(rows.tobytes() + mult.tobytes() + inverse.tobytes()).hexdigest()
        assert digest == "fa26512d1ed7c1b9ae3b821325e461248ce43857687d5dc2cad72ae2e58eec73"

    @pytest.mark.parametrize(
        ("text", "n"),
        [(FRIENDS_SMOKERS_MLN, 2), (NINE_ATOM_TEXT, 2)],
        ids=["smokers-2", "nine_atoms-2"],
    )
    def test_learning_count_table_is_the_same_over_many_blocks(self, text, n):
        # Blocks of 16 worlds: the pair keys of every block, deduped at once
        # and gathered to the worlds, give the one-block table byte for byte.
        model = model_from(text)
        index = index_for(model, n)
        whole = model_module._distinct_counts(model.formulas(), index)
        _table.cache_clear()
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 4):
            blocked = model_module._distinct_counts(model.formulas(), index)
        _table.cache_clear()
        assert index.n_atoms > 4
        for a, b in zip(whole, blocked):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_relaid_order_equals_setdiff1d(self, seed):
        model = model_from(FRIENDS_SMOKERS_MLN)
        gt = GroundingTable(model.formulas(), index_for(model, 3))
        rng = np.random.default_rng(seed)
        lead = [rng.permutation(15)[: rng.integers(0, 16)] for _ in range(2)]
        lead = [lead[0], np.setdiff1d(lead[1], lead[0])]
        _, order = gt.relaid(*lead)
        want = np.concatenate([*lead, np.setdiff1d(np.arange(15), np.concatenate(lead))])
        assert order.dtype == want.dtype and order.tolist() == want.tolist()


class TestPairSetupMemo:
    """A grounding table keeps ``pair_counts``' setup per (strides, block
    size); only the blocks' keys and the log weights are made per call."""

    def test_one_setup_per_strides_and_block_size(self):
        model = model_from(FRIENDS_SMOKERS_MLN)
        gt = GroundingTable(model.formulas(), index_for(model, 3))
        weights = np.random.default_rng(3).uniform(-1.5, 1.5, len(model.clauses))
        with mock.patch.object(model_module, "_pairs", wraps=model_module._pairs) as pairs:
            for _ in range(3):
                for chunk in (model_module.DEFAULT_CHUNK, 1 << 10):
                    with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk):
                        for layout in LAYOUTS.values():
                            list(gt.pair_counts(layout(gt)).blocks)
                        list(gt.pair_log_weights(weights).blocks)  # the mixed-radix setup
        assert pairs.call_count == 4
        assert len(gt._pair_setups) == 4

    def test_a_table_first_used_in_small_blocks_streams_like_a_fresh_one(self):
        # The setup of blocks of 16 worlds must not serve the full block size:
        # its inverse and per-block layouts belong to that size.
        model = model_from(FRIENDS_SMOKERS_MLN)
        model = model.with_weights(np.random.default_rng(4).uniform(-1.5, 1.5, len(model.clauses)))
        index = index_for(model, 3)
        strides = LAYOUTS["mixed_radix"](GroundingTable(model.formulas(), index))
        _table.cache_clear()
        try:
            with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 4):
                small = dense_log_weights(model, index)
            used = _table(model.formulas(), index).pair_counts(strides)
            fresh = GroundingTable(model.formulas(), index).pair_counts(strides)
            assert used.n_worlds == fresh.n_worlds == 1 << index.n_atoms
            assert used.inverse.tobytes() == fresh.inverse.tobytes()
            assert used.mult.tobytes() == fresh.mult.tobytes()
            for (s, a), (t, b) in zip(used.blocks, fresh.blocks, strict=True):
                assert s == t and a.dtype == b.dtype and a.tobytes() == b.tobytes()
            full = dense_log_weights(model, index)
            assert small.tobytes() == full.tobytes() == plain_log_weights(model, index).tobytes()
        finally:
            _table.cache_clear()

    def test_kept_arrays_are_read_only_and_block_keys_are_not_kept(self):
        model = model_from(FRIENDS_SMOKERS_MLN)
        gt = GroundingTable(model.formulas(), index_for(model, 3))
        strides = LAYOUTS["mixed_radix"](gt)
        first, second = gt.pair_counts(strides), gt.pair_counts(strides)
        assert first.inverse is second.inverse and first.mult is second.mult
        for kept in (first.inverse, first.mult):
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 1
        ((_, keys),), ((_, again),) = list(first.blocks), list(second.blocks)
        assert keys is not again and keys.flags.writeable
        before = again.copy()
        keys += 1
        assert again.tobytes() == before.tobytes()

    def test_a_relaid_copy_keeps_its_own_setups(self):
        model = model_from(FRIENDS_SMOKERS_MLN)
        index = index_for(model, 3)
        gt = GroundingTable(model.formulas(), index)
        strides = LAYOUTS["mixed_radix"](gt)
        original = gt.pair_counts(strides)
        relaid, _ = gt.relaid(np.arange(index.n_atoms)[::-1].copy())
        assert relaid._pair_setups == {} and len(gt._pair_setups) == 1
        stream = relaid.pair_counts(strides)
        assert stream.inverse is not original.inverse
        assert stream.inverse.tobytes() != original.inverse.tobytes()
        ((start, keys),) = list(world_blocks(stream))
        worlds = _block_worlds(start, keys)
        assert np.array_equal(keys, counts_matrix(relaid.entries, worlds) @ strides)
        assert len(gt._pair_setups) == 1

    @pytest.mark.parametrize(
        ("text", "n"), [(FRIENDS_SMOKERS_MLN, 3), (WIDE_SPAN_TEXT, 3)], ids=["smokers", "wide"]
    )
    @pytest.mark.parametrize("chunk_bits", [18, 10])
    def test_weight_vectors_through_one_table_match_fresh_tables(self, text, n, chunk_bits):
        # Smokers' key span fits a block, so its log weights are looked up by
        # key; the wide span's are decoded per block. A second weight vector
        # reuses the first one's setup and gets a fresh table's floats.
        base = model_from(text)
        index = index_for(base, n)
        rng = np.random.default_rng(chunk_bits)
        models = [base.with_weights(rng.uniform(-1.5, 1.5, len(base.clauses))) for _ in range(2)]
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << chunk_bits):
            _table.cache_clear()
            fresh = []
            for model in models:
                fresh.append(dense_log_weights(model, index))
                _table.cache_clear()
            with mock.patch.object(model_module, "_pairs", wraps=model_module._pairs) as pairs:
                shared = [dense_log_weights(model, index) for model in models + models]
            _table.cache_clear()
        assert pairs.call_count == 1
        for got, want in zip(shared, fresh + fresh):
            assert got.tobytes() == want.tobytes()
        assert fresh[0].tobytes() != fresh[1].tobytes()

    def test_smokers_g24_table_keeps_below_0_75_mb(self):
        # The kept setup of the G=24 table is its 2^18-entry uint16 inverse
        # (0.5 MB) and a few per-pair and per-grounding arrays: 0.54 MB. A
        # kept array of one entry per world of a block, at one byte, would
        # add 0.26 MB.
        model = model_from(FRIENDS_SMOKERS_MLN)
        index = index_for(model, 4)
        assert index.n_atoms == 24
        _table.cache_clear()
        try:
            _table(model.formulas(), index)  # the compiled groundings are not the memo's
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                lw = dense_log_weights(model, index)
                del lw
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(_table(model.formulas(), index)._pair_setups) == 1
        finally:
            _table.cache_clear()
        assert kept <= 0.75e6


class TestPairLogWeights:
    @pytest.mark.parametrize(("name", "n"), SPAN_CASES)
    def test_key_lookup_matches_plain_log_weights_on_both_sides_of_the_span(self, name, n):
        # A block as long as the count-key span looks log weights up by key;
        # one shorter decodes its pair keys. Both give one value per pair,
        # and gathered to the worlds they equal the plain kernel's log
        # weights, bit for bit.
        rng = np.random.default_rng(5)
        model = span_case_model(name, rng)
        model = model.with_weights(rng.uniform(-1.5, 1.5, len(model.clauses)))
        index = index_for(model, n)
        gt = GroundingTable(model.formulas(), index)
        span = math.prod(e.total + 1 for e in gt.entries)
        above = 1 << (span - 1).bit_length()
        expected = plain_log_weights(model, index)
        for keyed, chunk in ((True, above), (False, above >> 1)):
            with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk):
                assert (model_module._count_keys(gt.entries)[0] <= chunk) is keyed
                stream = gt.pair_log_weights(model.weights())
                blocks = list(stream.blocks)
            assert len(blocks) == max(1, (1 << index.n_atoms) // chunk)
            assert all(values.shape == stream.mult.shape for _, values in blocks)
            lw = np.concatenate([stream.per_world(values) for _, values in blocks])
            assert lw.dtype == np.float64
            assert lw.tobytes() == expected.tobytes()
            assert [start for start, _ in blocks] == list(range(0, lw.shape[0], chunk))

    @pytest.mark.parametrize("chunk_bits", [18, 10, 4])
    @pytest.mark.parametrize(
        ("text", "n", "words"), [(WIDE_SPAN_TEXT, 3, 1), (WORDS_TEXT, 4, 3)], ids=["wide", "words"]
    )
    def test_a_span_wider_than_a_block_gives_one_value_per_pair(self, text, n, words, chunk_bits):
        # Past the span each block decodes its pair keys, of one key word or
        # several, so it yields one log weight per pair; gathered to the
        # worlds they are the plain kernel's, bit for bit.
        model = model_from(text)
        rng = np.random.default_rng(n)
        model = model.with_weights(rng.uniform(-1.5, 1.5, len(model.clauses)))
        index = index_for(model, n)
        gt = GroundingTable(model.formulas(), index)
        span, strides, _ = model_module._count_keys(gt.entries)
        assert span > 1 << chunk_bits
        assert strides.reshape(len(gt.entries), -1).shape[1] == words
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << chunk_bits):
            stream = gt.pair_log_weights(model.weights())
            blocks = list(stream.blocks)
        assert len(blocks) == max(1, (1 << index.n_atoms) >> chunk_bits)
        assert int(stream.mult.sum()) == stream.n_worlds
        for start, values in blocks:
            assert len(values) == len(stream.mult)
            worlds = np.arange(start, start + stream.n_worlds, dtype=np.uint64)
            expected = log_weights(gt.entries, worlds, model.weights())
            assert stream.per_world(values).tobytes() == expected.tobytes()


class TestLogWeightRule:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 40),
        length=st.one_of(st.sampled_from([1, 3, 17, 4097]), st.integers(1, 1 << 13)),
    )
    # Row counts at which a BLAS product A[idx] @ w rounded unlike (A @ w)[idx].
    @example(seed=0, k=3, length=1)
    @example(seed=0, k=3, length=3)
    @example(seed=0, k=40, length=17)
    @example(seed=0, k=40, length=4097)
    def test_a_row_subset_gets_the_rows_of_the_whole(self, seed, k, length):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 1 << 12, size=(1 << 13, k))
        weights = rng.uniform(-1.5, 1.5, k)
        whole = model_module._log_weights(counts, weights)
        rows = rng.integers(0, counts.shape[0], size=length)
        assert model_module._log_weights(counts[rows], weights).tobytes() == whole[rows].tobytes()
        assert np.allclose(whole, counts @ weights, rtol=1e-12, atol=1e-9)


class TestCountHistogram:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        normalized=st.booleans(),
        ternary=st.booleans(),
    )
    def test_matches_per_world_oracles(self, seed, n, normalized, ternary):
        rng = np.random.default_rng(seed)
        model = random_raw_model(rng, include_ternary_clause=ternary)
        if normalized:
            model = normalize_distinct(model)
        index = index_for(model, n)
        hist = count_histogram(model, index)
        assert int(hist.mult.sum()) == 1 << index.n_atoms
        log_z = log_partition(model, index=index)
        assert abs(log_z - _logsumexp(plain_log_weights(model, index))) <= 1e-9
        if index.n_atoms <= 12:
            oracle = np.array(raw_log_probs(model, index))
            worlds = [World(index, b) for b in range(1 << index.n_atoms)]
            direct = np.array([raw_log_weight(model, w) for w in worlds])
            assert np.abs((direct - oracle) - log_z).max() <= 1e-9

        other = model.with_weights(rng.uniform(-1.5, 1.5, len(model.clauses)))
        hits = _histogram.cache_info().hits
        assert count_histogram(other, index) is hist
        assert _histogram.cache_info().hits == hits + 1
        assert abs(
            log_partition(other, index=index) - _logsumexp(plain_log_weights(other, index))
        ) <= 1e-9

    def test_several_world_chunks_fold_into_one_histogram(self):
        # 2^20 worlds: four chunks of DEFAULT_CHUNK merged into the running result.
        model = parse_mln(
            "type p = 4\npredicate R(p,p)\npredicate S(p)\n"
            "0.7 R(x,y) ^ S(x) => S(y)\n-0.4 S(x)\n0.3 R(x,x)"
        )
        index = index_for(model, 4)
        assert index.n_atoms == 20
        hist = count_histogram(model, index)
        assert int(hist.mult.sum()) == 1 << 20
        assert len({tuple(r) for r in hist.counts.tolist()}) == hist.counts.shape[0]
        log_z = log_partition(model, index=index)
        assert abs(log_z - _logsumexp(plain_log_weights(model, index))) <= 1e-9

    def test_smokers_n3_collapses(self):
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        hist = count_histogram(model, index_for(model, 3))
        assert hist.counts.shape == (44, 5)
        assert int(hist.mult.sum()) == 1 << 15

    def test_cold_smokers_g24_build_stays_below_12_mb(self):
        # A cold G=24 build holds one block of low keys and shared codes, no
        # uint64 worlds, bit columns or count matrix: it peaked at 15.2 MB
        # traced with the per-world kernel on the first block, 6.2 MB with
        # table sums, and 2.0 MB with the pairs ranked tile by tile (see
        # test_cold_smokers_g24_build_stays_below_4_mb).
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        index = index_for(model, 4)
        _histogram.cache_clear()
        tracemalloc.start()
        try:
            hist = count_histogram(model, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _histogram.cache_clear()
        assert int(hist.mult.sum()) == 1 << 24
        assert peak <= 12e6

    def test_cold_smokers_g24_build_stays_below_4_mb(self):
        # The pairs are ranked and counted one tile of low keys at a time, in
        # the narrowest dtypes, so no 2^18-long int64 array exists: the build
        # peaked at 6.2 MB traced with whole-block int64 ranks, and 2.0 MB tiled.
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        index = index_for(model, 4)
        _histogram.cache_clear()
        tracemalloc.start()
        try:
            hist = count_histogram(model, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _histogram.cache_clear()
        assert int(hist.mult.sum()) == 1 << 24
        assert peak <= 4e6

    @pytest.mark.parametrize(("name", "n"), SPAN_CASES)
    def test_one_block_and_many_blocks_tally_alike(self, name, n):
        # Every block's pair keys are merged into the running distinct keys.
        # One block of every world and blocks of 16 worlds, with groundings
        # on both sides of the low/high boundary, must give the same
        # histogram, bit for bit.
        model = span_case_model(name, np.random.default_rng(1))
        index = index_for(model, n)
        assert index.n_atoms > 4
        results = []
        for chunk in (model_module.DEFAULT_CHUNK, 1 << 4):
            _histogram.cache_clear()
            with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk):
                results.append(count_histogram(model, index))
        _histogram.cache_clear()
        whole, blocked = results
        assert whole.counts.tobytes() == blocked.counts.tobytes()
        assert whole.mult.tobytes() == blocked.mult.tobytes()
        assert whole.log_mult.tobytes() == blocked.log_mult.tobytes()
        assert int(whole.mult.sum()) == 1 << index.n_atoms

    @pytest.mark.parametrize(("name", "n"), SPAN_CASES)
    def test_learning_count_table_is_the_histogram(self, name, n):
        # The learner dedupes all 2^G keys at once; the histogram tallies
        # block by block. Both must give the same rows in the same order.
        model = span_case_model(name, np.random.default_rng(1))
        index = index_for(model, n)
        counts = learning._counts_cached(model.formulas(), index)
        hist = count_histogram(model, index)
        rows = hist.counts.shape[0]
        assert counts.rows[:rows].tobytes() == hist.counts.tobytes()
        assert counts.log_mult[:rows].tobytes() == hist.log_mult.tobytes()
        assert np.all(counts.log_mult[rows:] == -np.inf)
        entries = _table(model.formulas(), index).entries
        worlds = np.concatenate(
            [counts_matrix(entries, w) for w in world_chunks(index.n_atoms)]
        ).astype(np.float64)
        assert counts.rows[counts.inverse].tobytes() == worlds.tobytes()
        assert counts.worlds.tobytes() == worlds.tobytes()

    def test_key_words_past_int64(self):
        model = model_from(WORDS_TEXT)
        index = index_for(model, 4)
        gt = GroundingTable(model.formulas(), index)
        span, strides, radix = model_module._count_keys(gt.entries)
        assert (len(model.clauses), index.n_atoms, span.bit_length()) == (40, 12, 145)
        assert strides.shape == (40, 3) and (np.count_nonzero(strides, axis=1) == 1).all()
        counts = counts_matrix(gt.entries, next(world_chunks(index.n_atoms)))
        tally: dict[tuple[int, ...], int] = {}
        for row in map(tuple, counts.tolist()):
            tally[row] = tally.get(row, 0) + 1
        hist = count_histogram(model, index)
        assert hist.counts.shape[0] == 330
        assert list(map(tuple, hist.counts.astype(np.int64).tolist())) == sorted(tally)
        assert hist.mult.tolist() == [tally[r] for r in sorted(tally)]
        log_z = log_partition(model, index=index)
        assert abs(log_z - _logsumexp(plain_log_weights(model, index))) <= 1e-9
        table = learning._counts_cached(model.formulas(), index)
        assert np.array_equal(table.rows[:330], hist.counts)
        assert np.array_equal(table.rows[table.inverse], counts)

    @pytest.mark.parametrize("words", [2, 3, 4])
    def test_multi_word_dedupe_equals_np_unique(self, words):
        rng = np.random.default_rng(words)
        pool = rng.integers(0, 1 << 62, size=(40, words))
        pool[::3, 0] = pool[0, 0]  # equal leading words: a later word decides
        pool[::6, 1] = pool[0, 1]
        keys = pool[rng.integers(0, 40, size=1000)]
        want = np.unique(keys, axis=0, return_inverse=True)
        got = model_module._unique_keys(keys)
        assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
        assert got[1].dtype == want[1].dtype
        assert got[1].tobytes() == want[1].reshape(-1).tobytes()
        one = model_module._unique_keys(keys[:1])
        assert [a.tolist() for a in one] == [keys[:1].tolist(), [0]]

    def test_key_words_are_sorted_without_np_unique(self):
        # np.unique sorts several key words as a structured view; a lexsort
        # does the same work several times faster. Short blocks make the
        # histogram merge the distinct keys of every block.
        model = model_from(WORDS_TEXT)
        index = index_for(model, 4)
        results = []
        for chunk in (model_module.DEFAULT_CHUNK, 1 << 6):
            _histogram.cache_clear()
            learning._counts_cached.cache_clear()
            with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk), mock.patch.object(
                np, "unique", wraps=np.unique
            ) as unique:
                results.append(count_histogram(model, index))
                table = learning._counts_cached(model.formulas(), index)
            assert not unique.called
            assert np.array_equal(table.rows[: results[-1].counts.shape[0]], results[-1].counts)
        _histogram.cache_clear()
        learning._counts_cached.cache_clear()
        assert results[0].counts.tobytes() == results[1].counts.tobytes()
        assert results[0].mult.tobytes() == results[1].mult.tobytes()

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_clause_less_model_is_one_empty_vector(self, n):
        model = parse_mln("type p = 2\npredicate S(p)\npredicate R(p,p)\n")
        assert model.clauses == ()
        index = index_for(model, n)
        hist = count_histogram(model, index)
        assert hist.counts.shape == (1, 0)
        assert hist.mult.tolist() == [1 << index.n_atoms]
        log_z = log_partition(model, index=index)
        assert log_z == pytest.approx(index.n_atoms * math.log(2), abs=1e-12)

    def test_empty_domain_is_one_zero_vector(self):
        model = parse_mln("type p = 2\npredicate S(p)\n0.5 S(x) v S(y)")
        hist = count_histogram(model, index_for(model, 0))
        assert hist.counts.tolist() == [[0.0]]
        assert hist.mult.tolist() == [1]
        assert log_partition(model, index=index_for(model, 0)) == 0.0


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_before_any_pass(self, bad):
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        with pytest.raises(ValueError, match="finite"):
            log_partition(model.with_weights([bad, 0, 0, 0, 0]), index_for(model, 2))

    def test_rejected_by_the_parser(self):
        with pytest.raises(ValueError, match="finite"):
            parse_mln("type p = 2\npredicate S(p)\n1e999 S(x)")


class TestProbability:
    def test_uniform_at_zero_weights(self):
        model = model_from("type p = 2\npredicate R(p,p)\n0 R(x,y)")
        index = index_for(model, 2)
        for bits in (0, 7, 15):
            assert log_probability(model, World(index, bits)) == pytest.approx(
                -4 * math.log(2)
            )

    def test_probabilities_sum_to_one(self):
        model = normalize_distinct(random_raw_model(np.random.default_rng(5)))
        index = index_for(model, 2)
        logs = dense_log_weights(model, index)
        logs = logs - log_partition(model, index=index)
        assert np.exp(logs).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_raw_oracle_distribution(self, seed):
        # Raw model evaluated directly vs the engine on the same raw model,
        # and vs the engine on the normalized model: all three agree.
        model = random_raw_model(np.random.default_rng(500 + seed))
        index = index_for(model, 3)
        oracle = raw_log_probs(model, index)
        engine_raw = dense_log_weights(model, index)
        engine_raw = engine_raw - log_partition(model, index=index)
        norm = normalize_distinct(model)
        engine_norm = dense_log_weights(norm, index)
        engine_norm = engine_norm - log_partition(norm, index=index)
        assert np.abs(engine_raw - np.array(oracle)).max() <= 1e-9
        assert np.abs(engine_norm - np.array(oracle)).max() <= 1e-9

    def test_exchangeability(self):
        model = normalize_distinct(random_raw_model(np.random.default_rng(17)))
        index = index_for(model, 3)
        log_z = log_partition(model, index=index)
        world = World(index, 0b10110)
        reference = log_weight(model, world) - log_z
        for perm in permutations((1, 2, 3)):
            mapping = {i + 1: p for i, p in enumerate(perm)}
            image = permute(world, mapping)
            assert log_weight(model, image) - log_z == pytest.approx(reference, abs=1e-12)


class TestMarginal:
    def test_uniform_marginal_at_zero_weights(self):
        model = model_from("type p = 3\npredicate R(p,p)\n0 R(x,y)")
        spec = DomainSpec({"p": 3}, split_type="p", split_at=2)
        sub_index, logs = marginal_log_probs(model, spec)
        assert sub_index.n_atoms == 4
        assert np.allclose(logs, -4 * math.log(2), atol=1e-12)

    def test_marginal_sums_to_one(self):
        model = normalize_distinct(random_raw_model(np.random.default_rng(23)))
        tau = model.signature.types[0][0]
        spec = DomainSpec({tau: 3}, split_type=tau, split_at=2)
        _, logs = marginal_log_probs(model, spec)
        assert np.exp(logs).sum() == pytest.approx(1.0, abs=1e-9)

    def test_marginal_matches_slow_restriction_sum(self):
        model = normalize_distinct(random_raw_model(np.random.default_rng(29)))
        tau = model.signature.types[0][0]
        spec = DomainSpec({tau: 3}, split_type=tau, split_at=2)
        full_index = AtomIndex(model.signature, spec)
        sub_index, logs = marginal_log_probs(model, spec)
        log_z = log_partition(model, index=full_index)
        sums = np.zeros(1 << sub_index.n_atoms)
        for world in enumerate_worlds(full_index):
            sums[restrict(world, {tau: (1, 2)}).bits] += math.exp(
                log_weight(model, world) - log_z
            )
        assert np.abs(np.exp(logs) - sums).max() <= 1e-12

    def test_projective_fragment_marginal_equals_direct(self, example3_model):
        model = normalize_distinct(example3_model)
        spec = DomainSpec({"person": 3}, split_type="person", split_at=2)
        sub_index, marg = marginal_log_probs(model, spec)
        direct = dense_log_weights(model, sub_index)
        direct = direct - log_partition(model, index=sub_index)
        assert np.abs(marg - direct).max() <= 1e-9

    def test_multi_type_front_half_wider_than_a_chunk(self):
        # G=21 and F=20: each 2^18-world chunk fills one quarter of the buckets.
        model = parse_mln(
            "type p = 2\ntype q = 19\npredicate R(p)\npredicate U(q)\n"
            "0.7 R(x) ^ U(y)\n-0.4 U(y)\n0.9 R(x)"
        )
        spec = DomainSpec({"p": 2, "q": 19}, split_type="p", split_at=1)
        index = AtomIndex(model.signature, spec)
        front, _ = split_subsets(spec)
        _, positions = restriction_positions(index, front)
        sub_index, logs = marginal_log_probs(model, spec)
        assert (index.n_atoms, sub_index.n_atoms) == (21, 20)
        lw, buckets = dense_restriction_oracle(model, index, positions)
        assert np.abs(logs - (buckets - _logsumexp(lw))).max() <= 1e-9

    def test_log_marginal_validates_world(self, example3_model):
        model = normalize_distinct(example3_model)
        spec = DomainSpec({"person": 3}, split_type="person", split_at=2)
        wrong_index = AtomIndex(model.signature, DomainSpec({"person": 3}))
        with pytest.raises(ValueError, match="front half"):
            log_marginal(model, spec, World(wrong_index, 0))
        sub_index, logs = marginal_log_probs(model, spec)
        assert log_marginal(model, spec, World(sub_index, 3)) == pytest.approx(logs[3])


class TestSplitRuns:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        split=st.sampled_from(
            [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (0, 3), (3, 0), (0, 2), (2, 0)]
        ),
        ternary=st.booleans(),
        chunk_bits=st.integers(2, 8),
        front_only=st.booleans(),
    )
    # G=20 at blocks of 2^13: F+B=14 gives 2 runs of 2^6 blocks, F=12 one run.
    @example(seed=0, split=(3, 1), ternary=False, chunk_bits=2, front_only=False)
    @example(seed=0, split=(3, 1), ternary=False, chunk_bits=2, front_only=True)
    # G=12 at blocks of 2^5, all split bits: 2^7 runs of one block.
    @example(seed=0, split=(3, 0), ternary=False, chunk_bits=2, front_only=False)
    def test_every_block_of_a_run_reads_its_split_code_at_each_offset(
        self, seed, split, ternary, chunk_bits, front_only
    ):
        # A split pass reduces per pair within a run, so every block of run g
        # must hold split code ``code | offset`` at each offset: 2^top runs of
        # 2^C blocks, top the split bits past a block's and C the other atoms.
        model = normalize_distinct(
            random_raw_model(np.random.default_rng(seed), include_ternary_clause=ternary)
        )
        tau = model.signature.types[0][0]
        spec = DomainSpec({tau: sum(split)}, split_type=tau, split_at=split[0])
        index = AtomIndex(model.signature, spec)
        halves = [restriction_positions(index, h)[1] for h in split_subsets(spec)]
        if front_only:
            halves = halves[:1]
        positions = np.concatenate(halves)
        gt = GroundingTable(model.formulas(), index)
        chunk = 1 << max(chunk_bits, index.n_atoms - 7)
        with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk):
            order, runs = model_module._split_runs(gt, positions, model.weights())
            codes, starts = [], []
            for code, run in runs:
                codes.append(code)
                starts.append([start for start, _ in run.blocks])
        block_bits = min(chunk.bit_length() - 1, index.n_atoms)
        top = max(0, positions.shape[0] - block_bits)
        other = index.n_atoms - positions.shape[0]
        assert codes == [g << block_bits for g in range(1 << top)]
        blocks = [s for run_starts in starts for s in run_starts]
        assert blocks == list(range(0, 1 << index.n_atoms, 1 << block_bits))
        assert {len(s) for s in starts} == {1 << (index.n_atoms - block_bits - top)}
        if top:
            assert {len(s) for s in starts} == {1 << other}
        relaid_at = np.argsort(order)[positions]  # the relaid bit of each split position
        offsets = np.arange(1 << block_bits)
        for code, run_starts in zip(codes, starts):
            for start in run_starts:
                worlds = np.arange(start, start + offsets.shape[0], dtype=np.uint64)
                split_code = (code | offsets) & ((1 << positions.shape[0]) - 1)
                assert np.array_equal(bit_codes(worlds, relaid_at), split_code)
        if not top:
            assert order.tolist() == gt.relaid(*halves)[1].tolist()


class TestNormalizationPreservesSemantics:
    @pytest.mark.parametrize("seed", range(5))
    def test_distribution_unchanged_at_n3(self, seed):
        raw = random_raw_model(
            np.random.default_rng(600 + seed), include_ternary_clause=(seed % 2 == 0)
        )
        norm = normalize_distinct(raw)
        index = index_for(raw, 3)
        oracle = np.array(raw_log_probs(raw, index))
        engine = dense_log_weights(norm, index) - log_partition(norm, index=index)
        assert np.abs(engine - oracle).max() <= 1e-9


class TestDaScaling:
    def test_every_atom_full_vars_gives_one(self, example3_model):
        factors = da_scale_factors(normalize_distinct(example3_model), {"person": 500})
        assert all(s == 1.0 for s in factors)

    def test_contagion_rule_scales_with_missing_variable(self, example2_model):
        factors = da_scale_factors(example2_model, {"person": 500})
        # antecedent-only atoms miss one variable each: factor 500
        assert factors == (1.0, 500.0)

    def test_unary_clause(self):
        model = parse_mln("type p = 9\npredicate S(p)\n0.5 S(x)")
        assert da_scale_factors(model, {"p": 9}) == (1.0,)

    def test_identity_scaling_keeps_model(self, example3_model):
        model = normalize_distinct(example3_model)
        scaled = apply_da_scaling(model, {"person": 10})
        assert scaled == model

    def test_weight_division(self):
        model = parse_mln("type p = 4\npredicate R(p,p)\npredicate S(p)\n2.0 R(x,y) ^ S(x)")
        scaled = apply_da_scaling(model, {"p": 4})
        assert scaled.clauses[0].weight == pytest.approx(0.5)

    def test_missing_type_size(self, example2_model):
        with pytest.raises(ValueError, match="no target size"):
            da_scale_factors(example2_model, {})
        with pytest.raises(ValueError, match="no target size"):
            apply_da_scaling(example2_model, {})
