import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnexact.logic import Signature
from mlnexact.model import bit_codes
from mlnexact.worlds import (
    AtomIndex,
    DomainSpec,
    DomainTooLargeError,
    World,
    cross_atom_count,
    cross_tuples,
    enumerate_worlds,
    ordered_tuples,
    permute,
    restrict,
    restriction_positions,
    split_subsets,
)


def single_pred_index(arity: int, n: int, name: str = "R") -> AtomIndex:
    sig = Signature.make({"t": n}, {name: tuple("t" for _ in range(arity))})
    return AtomIndex(sig, DomainSpec({"t": n}))


@pytest.fixture
def graph_index():
    """Two binary relations over four nodes, as in the worked restriction example."""
    sig = Signature.make({"node": 4}, {"G": ("node", "node"), "B": ("node", "node")})
    return AtomIndex(sig, DomainSpec({"node": 4}))


@pytest.fixture
def graph_world(graph_index):
    return World.from_true_atoms(
        graph_index,
        [("G", (2, 1)), ("B", (2, 4)), ("G", (3, 3)), ("B", (3, 4))],
    )


class TestEnumeration:
    def test_unary_two_constants_gives_four_worlds(self):
        worlds = list(enumerate_worlds(single_pred_index(1, 2)))
        assert len(worlds) == 4

    def test_binary_two_constants_gives_sixteen_worlds(self):
        worlds = list(enumerate_worlds(single_pred_index(2, 2)))
        assert len(worlds) == 16

    def test_two_binary_predicates_two_constants(self):
        sig = Signature.make({"t": 2}, {"G": ("t", "t"), "B": ("t", "t")})
        index = AtomIndex(sig, DomainSpec({"t": 2}))
        worlds = list(enumerate_worlds(index))
        assert len(worlds) == 256
        assert [w.bits for w in worlds] == list(range(256))
        assert len({w.bits for w in worlds}) == 256

    def test_guard(self):
        with pytest.raises(DomainTooLargeError):
            list(enumerate_worlds(single_pred_index(2, 6)))

    def test_atom_order_lexicographic(self, graph_index):
        atoms = graph_index.atoms
        assert atoms[0] == ("G", (1, 1))
        assert atoms[1] == ("G", (1, 2))
        assert atoms[16] == ("B", (1, 1))
        for i, atom in enumerate(atoms):
            assert graph_index.index_of(*atom) == i


class TestRestriction:
    def test_front_half_keeps_only_inner_edge(self, graph_world):
        sub = restrict(graph_world, [1, 2])
        assert sub.index.spec.size("node") == 2
        assert sub.true_atoms() == [("G", (2, 1))]

    def test_back_half_reindexes(self, graph_world):
        sub = restrict(graph_world, [3, 4])
        # constants 3,4 become 1,2: the self-loop at 3 and the edge 3->4
        assert set(sub.true_atoms()) == {("G", (1, 1)), ("B", (1, 2))}

    def test_full_domain_is_identity(self, graph_world):
        sub = restrict(graph_world, [1, 2, 3, 4])
        assert sub == graph_world

    def test_out_of_range_subset(self, graph_world):
        with pytest.raises(ValueError, match="not contained"):
            restrict(graph_world, [1, 5])

    @settings(max_examples=30, deadline=None)
    @given(bits=st.integers(min_value=0, max_value=(1 << 9) - 1))
    def test_composition(self, bits):
        # restrict(w, J) equals restricting through any superset I of J, with
        # J renamed to its positions inside I.
        index = single_pred_index(2, 3)
        world = World(index, bits)
        through_i = restrict(restrict(world, [1, 3]), [2])  # constant 3 is position 2 in {1,3}
        assert through_i == restrict(world, [3])
        assert restrict(restrict(world, [1, 3]), [1, 2]) == restrict(world, [1, 3])


class TestTuples:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_ordered_tuple_counts(self, n, d):
        tuples = ordered_tuples(n, d)
        assert len(tuples) == math.comb(n, d)
        assert all(all(t[i] < t[i + 1] for i in range(d - 1)) for t in tuples)

    def test_ordered_examples(self):
        assert len(ordered_tuples(4, 2)) == 6
        assert ordered_tuples(3, 3) == [(1, 2, 3)]
        assert ordered_tuples(2, 3) == []

    def test_cross_two_two(self):
        assert cross_tuples(2, 2, 2) == [(1, 3), (1, 4), (2, 3), (2, 4)]

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (4, 1)])
    def test_cross_arity_one_is_empty(self, n, m):
        assert cross_tuples(n, m, 1) == []

    def test_cross_three_two_three(self):
        got = cross_tuples(3, 2, 3)
        reference = [
            c
            for c in combinations(range(1, 6), 3)
            if c not in set(combinations(range(1, 4), 3)) | set(combinations(range(4, 6), 3))
        ]
        assert got == reference
        assert len(got) == math.comb(5, 3) - math.comb(3, 3) - math.comb(2, 3) == 9

    @pytest.mark.parametrize("n,m,d", [(2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 2, 3)])
    def test_cross_count_formula(self, n, m, d):
        expected = math.comb(n + m, d) - math.comb(n, d) - math.comb(m, d)
        assert len(cross_tuples(n, m, d)) == expected


class TestPermutation:
    def test_identity(self, graph_world):
        assert permute(graph_world, {}) == graph_world

    def test_involution(self, graph_world):
        swap = {1: 2, 2: 1}
        assert permute(permute(graph_world, swap), swap) == graph_world

    def test_swap_moves_edge(self, graph_world):
        swapped = permute(graph_world, {1: 2, 2: 1})
        assert swapped.truth("G", (1, 2))
        assert not swapped.truth("G", (2, 1))

    def test_non_bijection_rejected(self, graph_world):
        with pytest.raises(ValueError, match="bijection"):
            permute(graph_world, {1: 2, 2: 2})

    def test_all_permutations_preserve_popcount(self):
        index = single_pred_index(2, 3)
        world = World(index, 0b101010011)
        for perm in permutations((1, 2, 3)):
            mapping = {i + 1: p for i, p in enumerate(perm)}
            assert bin(permute(world, mapping).bits).count("1") == bin(world.bits).count("1")


class TestSplitAccounting:
    def test_cross_atom_count_binary(self):
        sig = Signature.make({"t": 4}, {"R": ("t", "t")})
        index = AtomIndex(sig, DomainSpec({"t": 4}, split_type="t", split_at=2))
        assert cross_atom_count(index) == 8  # 16 - 4 - 4

    def test_cross_atom_count_unary_only(self):
        sig = Signature.make({"t": 4}, {"S": ("t",)})
        index = AtomIndex(sig, DomainSpec({"t": 4}, split_type="t", split_at=2))
        assert cross_atom_count(index) == 0

    def test_cross_atom_count_two_binary(self):
        sig = Signature.make({"t": 4}, {"G": ("t", "t"), "B": ("t", "t")})
        index = AtomIndex(sig, DomainSpec({"t": 4}, split_type="t", split_at=2))
        assert cross_atom_count(index) == 16

    def test_reconstruction_bijection(self):
        """front-half, back-half, and straddling bits determine the world; each
        (front, back) pair has exactly 2^cross extensions."""
        sig = Signature.make({"t": 4}, {"R": ("t", "t")})
        spec = DomainSpec({"t": 4}, split_type="t", split_at=2)
        index = AtomIndex(sig, spec)
        front, back = split_subsets(spec)
        _, pos_n = restriction_positions(index, front)
        _, pos_m = restriction_positions(index, back)
        cross_pos = sorted(set(range(index.n_atoms)) - set(pos_n.tolist()) - set(pos_m.tolist()))
        assert len(cross_pos) == cross_atom_count(index) == 8
        worlds = np.arange(1 << index.n_atoms, dtype=np.uint64)
        triples = list(
            zip(
                bit_codes(worlds, pos_n).tolist(),
                bit_codes(worlds, pos_m).tolist(),
                bit_codes(worlds, cross_pos).tolist(),
            )
        )
        assert len(set(triples)) == len(worlds)
        fixed = [t for t in triples if t[0] == 5 and t[1] == 9]
        assert len(fixed) == 2 ** cross_atom_count(index)

    def test_split_requires_split_spec(self):
        sig = Signature.make({"t": 4}, {"R": ("t", "t")})
        index = AtomIndex(sig, DomainSpec({"t": 4}))
        with pytest.raises(ValueError, match="split"):
            cross_atom_count(index)


class TestDomainSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DomainSpec({"t": -1})
        with pytest.raises(ValueError):
            DomainSpec({"t": 2}, split_type="u", split_at=1)
        with pytest.raises(ValueError):
            DomainSpec({"t": 2}, split_type="t", split_at=3)

    def test_equality_and_hash(self):
        a = DomainSpec({"t": 3})
        b = DomainSpec({"t": 3})
        assert a == b and hash(a) == hash(b)
        assert a != DomainSpec({"t": 3}, split_type="t", split_at=2)

    def test_index_equality_by_content(self):
        sig = Signature.make({"t": 3}, {"S": ("t",)})
        assert AtomIndex(sig, DomainSpec({"t": 3})) == AtomIndex(sig, DomainSpec({"t": 3}))
