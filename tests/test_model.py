import math
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnexact import learning
from mlnexact import model as model_module
from mlnexact.datagen import FRIENDS_SMOKERS_MLN
from mlnexact.logic import MlnModel, normalize_distinct, parse_mln
from mlnexact.model import (
    DaScaling,
    GroundingTable,
    apply_da_scaling,
    count_histogram,
    count_true_groundings,
    da_scale_factors,
    dense_log_weights,
    log_k_weight,
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
    world_chunks,
)
from mlnexact.worlds import (
    AtomIndex,
    DomainSpec,
    DomainTooLargeError,
    World,
    enumerate_worlds,
    ordered_tuples,
    permute,
    restrict,
    restriction_positions,
    split_subsets,
)

from _oracles import count_groundings_direct, raw_log_probs, raw_log_weight
from conftest import dense_restriction_oracle, plain_log_weights, random_raw_model


# Each x != y grounding touches 9 ground atoms, past byte-wide codes.
NINE_ATOM_TEXT = (
    "type p = 2\npredicate R(p,p)\npredicate S(p)\npredicate T(p)\npredicate U(p)\n"
    "1 R(x,y) v R(y,x) v !R(x,x) v R(y,y) v S(x) v !S(y) v T(x) v T(y) v U(x)"
)


# Nine clauses over eight unary predicates: a count-key span of 3^9, which is
# not a multiple of four, so the span's log-weight product ends in a partial
# block of rows.
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

    def test_requires_matching_domain(self):
        model = model_from("type p = 4\npredicate R(p,p)\n0.8 R(x,y) ^ x != y")
        with pytest.raises(ValueError, match="exactly k constants"):
            log_k_weight(model, World(index_for(model, 3), 0), 2)

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


class TestPartition:
    def test_zero_weights_binary(self):
        model = model_from("type p = 2\npredicate R(p,p)\n0 R(x,y)")
        assert log_partition(model, DomainSpec({"p": 2})) == pytest.approx(math.log(16))

    def test_unary_closed_form(self):
        a = 0.85
        model = model_from(f"type p = 3\npredicate S(p)\n{a} S(x)")
        expected = 3 * math.log1p(math.exp(a))
        assert log_partition(model, DomainSpec({"p": 3})) == pytest.approx(expected, abs=1e-12)

    def test_projective_example_closed_form(self, example3_model):
        """Independence across persons and pairs factorizes the sum exactly."""
        a1, a2 = 0.6, 0.9
        model = normalize_distinct(example3_model)
        expected = math.log((1 + math.exp(a1)) ** 2 * (3 + math.exp(2 * a2)) * 4)
        assert log_partition(model, DomainSpec({"person": 2})) == pytest.approx(
            expected, abs=1e-12
        )

    def test_guard(self):
        model = model_from("type p = 8\npredicate R(p,p)\n0.5 R(x,y)")
        with pytest.raises(DomainTooLargeError):
            log_partition(model, DomainSpec({"p": 8}), max_atoms=28)

    def test_index_over_another_signature_is_rejected(self):
        # Scored over S(p) and R(p,p), this model would give log Z 4.7207, not 1.9482.
        model = model_from("type p = 2\npredicate S(p)\n0.5 S(x)")
        other = model_from("type p = 2\npredicate S(p)\npredicate R(p,p)\n0.5 S(x)")
        index = AtomIndex(other.signature, DomainSpec({"p": 2}))
        assert log_partition(model, DomainSpec({"p": 2})) == pytest.approx(1.9482, abs=1e-4)
        with pytest.raises(ValueError, match="signature"):
            log_partition(model, index=index)
        with pytest.raises(ValueError, match="signature"):
            count_histogram(model, index)

    def test_spec_that_differs_from_the_index_is_rejected(self):
        model = model_from("type p = 2\npredicate S(p)\n0.5 S(x)")
        spec, index = DomainSpec({"p": 2}), index_for(model, 3)
        with pytest.raises(ValueError, match="spec"):
            log_partition(model, spec, index=index)
        same = log_partition(model, DomainSpec({"p": 3}), index=index)
        assert same == log_partition(model, index=index)


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
        counts = gt.counts_matrix(worlds)
        lw = gt.log_weights(worlds, model.weights())
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
        counts = gt.counts_matrix(next(world_chunks(index.n_atoms)))
        direct = [raw_log_weight(model, World(index, b)) for b in range(1 << index.n_atoms)]
        assert counts[:, 0].tolist() == direct


class TestChunkCounts:
    @pytest.mark.parametrize("chunk_bits", [18, 2])
    @pytest.mark.parametrize(("n", "dtype"), [(7, np.uint8), (8, np.uint16)])
    def test_counts_are_as_narrow_as_the_grounding_total(self, n, dtype, chunk_bits):
        # n(n-1)(n-2) groundings: 210 fit a byte, 336 do not.
        model = parse_mln(
            f"type p = {n}\npredicate S(p)\n1 (S(x) v S(y) v S(z)) ^ x != y ^ x != z ^ y != z"
        )
        index = index_for(model, n)
        gt = GroundingTable(model.formulas(), index)
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << chunk_bits):
            counts = np.concatenate([c for _, c in gt.chunk_counts()])
        assert counts.dtype == dtype
        assert int(counts.max()) == n * (n - 1) * (n - 2)
        clause = model.clauses[0]
        assert counts[:, 0].tolist() == [
            count_true_groundings(clause, World(index, b)) for b in range(1 << n)
        ]

    def test_counts_past_two_bytes(self):
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
            _, counts = next(gt.chunk_counts())
        assert counts.dtype == np.int32
        assert counts[0, 0] == count_true_groundings(model.clauses[0], World(index, 0)) == 73440
        # With atoms 0..3 true, only their 4! orderings are false.
        assert counts[15, 0] == 73440 - 24

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
            for worlds, counts in gt.chunk_counts():
                assert np.array_equal(counts, _count_kernel(gt.entries, worlds))
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
            blocks = list(gt.chunk_counts(strides))
        assert len(blocks) == 1 << (index.n_atoms - 4)
        for worlds, key in blocks:
            assert key.dtype == np.int32 and key.shape == worlds.shape
            assert np.array_equal(key, _count_kernel(gt.entries, worlds) @ strides)

    @pytest.mark.parametrize(
        ("text", "n", "shared"),
        [
            ("type p = 6\npredicate S(p)\n0.5 S(x)", 6, "none"),  # one atom per grounding
            (FRIENDS_SMOKERS_MLN, 2, "some"),  # Friends(x,y) also reads Smokes(x), Smokes(y)
            (NINE_ATOM_TEXT, 2, "all"),  # every high grounding reads all four R atoms
        ],
    )
    @pytest.mark.parametrize("keyed", [False, True])
    def test_shared_table_matches_the_kernel(self, text, n, shared, keyed):
        # Blocks of 16 worlds; the high groundings reach past bit 4 and read
        # none, some or all of the four low atoms.
        model = normalize_distinct(parse_mln(text))
        index = index_for(model, n)
        gt = GroundingTable(model.formulas(), index)
        rows = [row for e in gt.entries for g in e.groups for row in g.cols if row.max() >= 4]
        low_atoms = {int(p) for row in rows for p in row if p < 4}
        assert rows
        assert {"none": 0, "some": 2, "all": 4}[shared] == len(low_atoms)
        strides = np.arange(len(gt.entries), dtype=np.int64) * 5 + 1 if keyed else None
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 4):
            blocks = list(gt.chunk_counts(strides))
        assert len(blocks) == 1 << (index.n_atoms - 4)
        for worlds, counts in blocks:
            expected = _count_kernel(gt.entries, worlds)
            if keyed:
                assert counts.dtype == np.int32
                expected = expected @ strides
            assert np.array_equal(counts, expected)

    def test_keys_at_and_past_int32_are_int64(self):
        # Smokers at n=2 has 2 groundings per clause: the largest key is
        # 2 * sum(strides), one short of 2^31, exactly 2^31, or far past it.
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        index = index_for(model, 2)
        gt = GroundingTable(model.formulas(), index)
        assert [e.total for e in gt.entries] == [2] * 5
        fits = np.array([(1 << 28) - 1, 1 << 28, 1 << 28, 1 << 28, 0])
        for strides, dtype, top in (
            (fits, np.int32, (1 << 31) - 2),
            (fits + [1, 0, 0, 0, 0], np.int64, 1 << 31),
            (np.full(5, 1 << 40), np.int64, 10 << 40),
        ):
            (worlds, key), = gt.chunk_counts(strides)
            assert key.dtype == dtype
            assert np.array_equal(key, _count_kernel(gt.entries, worlds) @ strides)
            assert int(key.max()) == top
        with pytest.raises(ValueError, match="int64"):
            next(gt.chunk_counts(np.full(5, 1 << 61)))

    def test_key_words_hold_their_own_clauses(self):
        # Blocks of 16 worlds; clauses 0-2 go to word 0 and 3-4 to word 1.
        model = normalize_distinct(parse_mln(FRIENDS_SMOKERS_MLN))
        index = index_for(model, 2)
        gt = GroundingTable(model.formulas(), index)
        strides = np.array([[9, 0], [3, 0], [1, 0], [0, 3], [0, 1]])
        with mock.patch.object(model_module, "DEFAULT_CHUNK", 1 << 4):
            blocks = list(gt.chunk_counts(strides))
        assert len(blocks) == 1 << (index.n_atoms - 4)
        for worlds, key in blocks:
            assert key.dtype == np.int32 and key.shape == (worlds.shape[0], 2)
            counts = _count_kernel(gt.entries, worlds)
            assert np.array_equal(key, counts @ strides)
            assert np.array_equal(model_module._decode_keys(key, strides, np.full(5, 3)), counts)


class TestChunkLogWeights:
    @pytest.mark.parametrize(("name", "n"), SPAN_CASES)
    def test_key_lookup_matches_plain_log_weights_on_both_sides_of_the_span(self, name, n):
        # A block as long as the count-key span looks log weights up by key;
        # one shorter multiplies counts by the weights. Both must equal the
        # plain kernel's log weights, bit for bit.
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
                blocks = list(gt.chunk_log_weights(model.weights()))
            assert len(blocks) == max(1, (1 << index.n_atoms) // chunk)
            lw = np.concatenate([lw for _, lw in blocks])
            assert lw.dtype == np.float64
            assert np.array_equal(lw, expected)
            assert np.array_equal(np.concatenate([w for w, _ in blocks]), np.arange(lw.shape[0]))


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

    @pytest.mark.parametrize(("name", "n"), SPAN_CASES)
    def test_bincount_and_unique_tallies_match_on_both_sides_of_the_span(self, name, n):
        # The span is the product of (grounding total + 1) over the clauses.
        # A block as long as the span tallies count keys with bincount; one
        # shorter takes np.unique of every block's keys. Both must give the
        # same histogram, bit for bit.
        model = span_case_model(name, np.random.default_rng(1))
        index = index_for(model, n)
        span = math.prod(e.total + 1 for e in GroundingTable(model.formulas(), index).entries)
        above = 1 << (span - 1).bit_length()
        results = {}
        for keyed, chunk in ((True, above), (False, above >> 1)):
            assert (span <= chunk) is keyed
            _histogram.cache_clear()
            with mock.patch.object(model_module, "DEFAULT_CHUNK", chunk), mock.patch.object(
                np, "unique", wraps=np.unique
            ) as unique:
                results[keyed] = count_histogram(model, index)
            assert unique.called is not keyed
        _histogram.cache_clear()
        keyed, deduped = results[True], results[False]
        assert np.array_equal(keyed.counts, deduped.counts)
        assert np.array_equal(keyed.mult, deduped.mult)
        assert keyed.log_mult.tobytes() == deduped.log_mult.tobytes()
        assert int(keyed.mult.sum()) == 1 << index.n_atoms

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
        worlds = np.concatenate(
            [_table(model.formulas(), index).counts_matrix(w) for w in world_chunks(index.n_atoms)]
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
        counts = gt.counts_matrix(next(world_chunks(index.n_atoms)))
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
            log_partition(model.with_weights([bad, 0, 0, 0, 0]), DomainSpec({"person": 2}))

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
        scaling = da_scale_factors(normalize_distinct(example3_model), {"person": 500})
        assert all(s == 1.0 for s in scaling.factors)

    def test_contagion_rule_scales_with_missing_variable(self, example2_model):
        factors = da_scale_factors(example2_model, {"person": 500}).factors
        # antecedent-only atoms miss one variable each: factor 500
        assert factors == (1.0, 500.0)

    def test_unary_clause(self):
        model = parse_mln("type p = 9\npredicate S(p)\n0.5 S(x)")
        assert da_scale_factors(model, {"p": 9}).factors == (1.0,)

    def test_identity_scaling_keeps_model(self, example3_model):
        model = normalize_distinct(example3_model)
        scaled = apply_da_scaling(model, da_scale_factors(model, {"person": 10}))
        assert scaled == model

    def test_weight_division(self):
        model = parse_mln("type p = 4\npredicate R(p,p)\npredicate S(p)\n2.0 R(x,y) ^ S(x)")
        scaled = apply_da_scaling(model, da_scale_factors(model, {"p": 4}))
        assert scaled.clauses[0].weight == pytest.approx(0.5)

    def test_mismatched_scaling_rejected(self, example2_model):
        with pytest.raises(ValueError, match="different clause list"):
            apply_da_scaling(example2_model, DaScaling((1.0,)))

    def test_missing_type_size(self, example2_model):
        with pytest.raises(ValueError, match="no target size"):
            da_scale_factors(example2_model, {})
