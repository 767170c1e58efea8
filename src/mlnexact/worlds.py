"""Interpretations over finite typed domains.

A world is a truth assignment to every ground atom of a signature over a
``DomainSpec``, stored as a bit vector packed into a Python integer so that
exhaustive enumeration is integer counting. Constants of each type are the
integers ``1..size``; an optional split point on one designated type
partitions its constants into a front segment ``1..split_at`` and a back
segment ``split_at+1..size``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .logic import Signature

FORCED_MAX_ATOMS = 34  # the hard cap: --force-guard and --max-atoms go no higher


class DomainTooLargeError(RuntimeError):
    """The ground-atom count exceeds the enumeration guard."""


def _guard(n_atoms: int, max_atoms: int) -> None:
    if n_atoms > max_atoms:
        raise DomainTooLargeError(
            f"{n_atoms} ground atoms exceed the enumeration guard of {max_atoms}"
        )


class DomainSpec:
    """Per-type constant counts, plus an optional front/back split on one type."""

    __slots__ = ("sizes", "split_type", "split_at")

    def __init__(
        self,
        sizes: Mapping[str, int] | Sequence[tuple[str, int]],
        split_type: str | None = None,
        split_at: int = 0,
    ):
        if isinstance(sizes, Mapping):
            sizes = tuple(sizes.items())
        self.sizes: tuple[tuple[str, int], ...] = tuple((str(t), int(c)) for t, c in sizes)
        self.split_type = split_type
        self.split_at = int(split_at)
        seen = set()
        for t, c in self.sizes:
            if t in seen:
                raise ValueError(f"duplicate type in domain spec: {t}")
            if c < 0:
                raise ValueError(f"negative count for type {t}")
            seen.add(t)
        if split_type is not None:
            if split_type not in seen:
                raise ValueError(f"split type {split_type} not in domain spec")
            if not 0 <= self.split_at <= self.size(split_type):
                raise ValueError("split point outside 0..size")

    @property
    def types(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.sizes)

    def size(self, type_name: str) -> int:
        for t, c in self.sizes:
            if t == type_name:
                return c
        raise KeyError(f"unknown type: {type_name}")

    def constants(self, type_name: str) -> range:
        return range(1, self.size(type_name) + 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DomainSpec)
            and self.sizes == other.sizes
            and self.split_type == other.split_type
            and self.split_at == other.split_at
        )

    def __hash__(self) -> int:
        return hash((self.sizes, self.split_type, self.split_at))

    def __repr__(self) -> str:
        split = f", split={self.split_type}@{self.split_at}" if self.split_type else ""
        return f"DomainSpec({dict(self.sizes)}{split})"


GroundAtom = tuple[str, tuple[int, ...]]


class AtomIndex:
    """Dense bijection between ground atoms and bit positions.

    Atoms are ordered by predicate (signature order) then argument tuple
    (row-major over constants), so the indexing is deterministic given the
    signature and domain spec.
    """

    __slots__ = ("signature", "spec", "atoms", "_pos")

    def __init__(self, signature: Signature, spec: DomainSpec):
        for pred in signature.predicates:
            for t in pred.arg_types:
                spec.size(t)  # raises KeyError for missing types
        self.signature = signature
        self.spec = spec
        atoms: list[GroundAtom] = []
        for pred in signature.predicates:
            ranges = [spec.constants(t) for t in pred.arg_types]
            atoms.extend((pred.name, args) for args in product(*ranges))
        self.atoms: tuple[GroundAtom, ...] = tuple(atoms)
        self._pos = {atom: i for i, atom in enumerate(atoms)}

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def index_of(self, pred: str, args: tuple[int, ...]) -> int:
        try:
            return self._pos[(pred, args)]
        except KeyError:
            raise KeyError(f"no such ground atom: {pred}{args}") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AtomIndex)
            and self.signature == other.signature
            and self.spec == other.spec
        )

    def __hash__(self) -> int:
        return hash((self.signature, self.spec))

    def __repr__(self) -> str:
        return f"AtomIndex({self.n_atoms} atoms over {self.spec!r})"


@dataclass(frozen=True)
class World:
    """Truth assignment to all ground atoms of an index, packed as an integer."""

    index: AtomIndex
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < 1 << self.index.n_atoms:
            raise ValueError(f"world bits {self.bits} outside [0, 2^{self.index.n_atoms})")

    def truth(self, pred: str, args: tuple[int, ...]) -> bool:
        return bool(self.bits >> self.index.index_of(pred, args) & 1)

    def true_atoms(self) -> list[GroundAtom]:
        return [a for i, a in enumerate(self.index.atoms) if self.bits >> i & 1]

    @classmethod
    def all_false(cls, index: AtomIndex) -> "World":
        return cls(index, 0)

    @classmethod
    def all_true(cls, index: AtomIndex) -> "World":
        return cls(index, (1 << index.n_atoms) - 1)

    @classmethod
    def from_true_atoms(cls, index: AtomIndex, atoms: Iterable[GroundAtom]) -> "World":
        bits = 0
        for pred, args in atoms:
            bits |= 1 << index.index_of(pred, tuple(args))
        return cls(index, bits)


def enumerate_worlds(index: AtomIndex) -> Iterator[World]:
    """Yield all 2^G worlds in increasing bit-vector order."""
    _guard(index.n_atoms, FORCED_MAX_ATOMS)
    for bits in range(1 << index.n_atoms):
        yield World(index, bits)


def _normalize_subset(
    spec: DomainSpec, keep: Mapping[str, Iterable[int]] | Iterable[int]
) -> dict[str, tuple[int, ...]]:
    if not isinstance(keep, Mapping):
        if len(spec.sizes) != 1:
            raise ValueError("bare constant collections only allowed for single-type domains")
        keep = {spec.sizes[0][0]: keep}
    full: dict[str, tuple[int, ...]] = {}
    for t, size in spec.sizes:
        if t in keep:
            chosen = tuple(sorted(set(int(c) for c in keep[t])))
            if any(c < 1 or c > size for c in chosen):
                raise ValueError(f"subset for type {t} not contained in 1..{size}")
            full[t] = chosen
        else:
            full[t] = tuple(range(1, size + 1))
    for t in keep:
        if t not in full:
            raise ValueError(f"subset mentions unknown type {t}")
    return full


def restriction_positions(
    index: AtomIndex, keep: Mapping[str, Iterable[int]] | Iterable[int]
) -> tuple[AtomIndex, np.ndarray]:
    """Sub-domain atom index plus, per sub atom, its bit position in the full index.

    Kept constants are renumbered densely (1..k per type, order preserved).
    """
    subset = _normalize_subset(index.spec, keep)
    sub_spec = DomainSpec({t: len(cs) for t, cs in subset.items()})
    sub_index = AtomIndex(index.signature, sub_spec)
    back = {t: {new: old for new, old in enumerate(cs, start=1)} for t, cs in subset.items()}
    positions = np.empty(sub_index.n_atoms, dtype=np.int64)
    for j, (pred_name, args) in enumerate(sub_index.atoms):
        arg_types = index.signature.predicate(pred_name).arg_types
        old_args = tuple(back[t][a] for a, t in zip(args, arg_types))
        positions[j] = index.index_of(pred_name, old_args)
    return sub_index, positions


def restrict(world: World, keep: Mapping[str, Iterable[int]] | Iterable[int]) -> World:
    """Keep exactly the atoms all of whose constants lie in the subset; reindex densely."""
    sub_index, positions = restriction_positions(world.index, keep)
    bits = 0
    for j, p in enumerate(positions):
        if world.bits >> int(p) & 1:
            bits |= 1 << j
    return World(sub_index, bits)


def ordered_tuples(n: int, d: int) -> list[tuple[int, ...]]:
    """All strictly increasing d-tuples from 1..n."""
    if d < 1:
        raise ValueError("tuple arity must be >= 1")
    return list(combinations(range(1, n + 1), d))


def cross_tuples(n: int, m: int, d: int) -> list[tuple[int, ...]]:
    """Increasing d-tuples from 1..n+m that straddle the n|m boundary."""
    if d < 1:
        raise ValueError("tuple arity must be >= 1")
    return [c for c in combinations(range(1, n + m + 1), d) if c[0] <= n < c[-1]]


def split_subsets(spec: DomainSpec) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]:
    """Constant subsets for the front and back halves of a split domain spec."""
    if spec.split_type is None:
        raise ValueError("domain spec has no split point")
    front: dict[str, tuple[int, ...]] = {}
    back: dict[str, tuple[int, ...]] = {}
    for t, size in spec.sizes:
        if t == spec.split_type:
            front[t] = tuple(range(1, spec.split_at + 1))
            back[t] = tuple(range(spec.split_at + 1, size + 1))
        else:
            front[t] = tuple(range(1, size + 1))
            back[t] = tuple(range(1, size + 1))
    return front, back


def cross_atom_count(index: AtomIndex) -> int:
    """Number of ground atoms with split-type constants on both sides of the split.

    This is the base-2 log of the number of ways a front-half and a back-half
    interpretation extend to a full one: the straddling atoms are exactly the
    free choices.
    """
    spec = index.spec
    if spec.split_type is None:
        raise ValueError("domain spec has no split point")
    boundary = spec.split_at
    count = 0
    for pred_name, args in index.atoms:
        arg_types = index.signature.predicate(pred_name).arg_types
        split_args = [a for a, t in zip(args, arg_types) if t == spec.split_type]
        if split_args and min(split_args) <= boundary < max(split_args):
            count += 1
    return count
