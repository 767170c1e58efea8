"""Exact Markov logic semantics on enumerable domains.

Clauses are compiled once per (formula, atom index) into grounding tables:
for every grounding, the positions of the ground atoms it touches plus a
truth table over their joint assignments. World enumeration is then integer
counting, and one counts kernel turns a block of worlds into true-grounding
counts; log weights are counts @ w. Groundings are grouped by the
variable-identification pattern of the assignment, so raw clauses (repeated
constants allowed) and distinct-constant normalized clauses share one code
path.

Every pass over all 2^G worlds reads its counts from
``GroundingTable.chunk_counts``. Worlds come in blocks of ``DEFAULT_CHUNK``
aligned to their length, so all blocks share their low log2(DEFAULT_CHUNK)
bits and differ only in the high bits, which are constant within a block.
Groundings whose atoms all lie in the low bits are counted once, on the first
block, by the counts kernel. A grounding that reaches the high bits sees a
block only through the few low atoms it touches (the shared atoms) and the
block's high bits: each block sums those groundings over every assignment of
the shared atoms into a small table, and one gather by each world's
shared-atom code, computed on the first block, adds it to the low counts.
The plain per-block kernel (``counts_matrix``, ``log_weights``) serves the
tests. A single world (``counts_world``, ``log_weight``) is unpacked from its
integer, so it may exceed 64 atoms, and each grounding group is counted with
one gather into its truth table.

A world's weight depends on it only through its count vector, whose count
key is its mixed-radix code (radix = grounding total + 1, clause 0 most
significant). ``chunk_counts`` builds the key straight from the groundings,
and while its span fits in one block every weighted pass works in key space:
``chunk_log_weights`` computes the log weight of each key in the span once and
looks every world's up, so no pass casts a block's counts to float64 and
multiplies them by the weights; a wider span falls back to that product. The
partition function has one path: one enumeration per (clause structure, atom
index) collapses all 2^G worlds into a cached histogram of distinct count
vectors with multiplicities, and log Z for any weight vector is a logsumexp
over that histogram. The build tallies the count keys with one bincount per
block; its memory is one block of worlds plus a count table no longer than a
block. Past a block, the build takes ``np.unique`` of every block's keys
(int64 past 2^31, several int64 words from 2^63) and merges them into the
running distinct keys; learning dedupes its worlds by key in the same way.

Restriction marginals make one pass over every world against a split-aware
copy of the grounding table: the front-half atoms take the low F bits, in the
front sub-index's order, so a world's restriction code is ``world & (2^F - 1)``.
Worlds and chunks are powers of two, so a chunk's log weights reshape to rows
of front buckets (or one slice of them) and fold into a 2^F log-space
accumulator; the bound suite folds its pass through the same accumulator. The
public ``AtomIndex`` order is unchanged. The factorization checks gather
restriction codes with ``bit_codes``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from typing import Iterator, Mapping, Sequence

import numpy as np

from .logic import (
    Clause,
    Formula,
    MlnModel,
    arity_partition,
    distinct_atoms,
    eval_node,
    substitute,
)
from .worlds import (
    AtomIndex,
    DomainSpec,
    World,
    _guard,
    cross_tuples,
    ordered_tuples,
    restriction_positions,
    split_subsets,
)

DEFAULT_MAX_ATOMS = 28
DEFAULT_DENSE_MAX_ATOMS = 24
DEFAULT_CHUNK = 1 << 18


def _logsumexp(log_values: np.ndarray) -> float:
    """log(sum(exp(v))) of a non-empty vector of finite values."""
    shift = float(log_values.max())
    return shift + math.log(float(np.exp(log_values - shift).sum()))


def world_chunks(n_atoms: int) -> Iterator[np.ndarray]:
    """World integers 0..2^G-1 in consecutive uint64 blocks of DEFAULT_CHUNK
    (one block of 2^G when that is smaller), so every block is a power of two
    aligned to its length."""
    total = 1 << n_atoms
    for start in range(0, total, DEFAULT_CHUNK):
        yield np.arange(start, min(start + DEFAULT_CHUNK, total), dtype=np.uint64)


def bit_codes(worlds: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Pack the given bit positions of each world integer into dense codes."""
    code = np.zeros(worlds.shape[0], dtype=np.int64)
    one = np.uint64(1)
    for j, p in enumerate(positions):
        code |= ((worlds >> np.uint64(int(p))) & one).astype(np.int64) << j
    return code


# ---------------------------------------------------------------------------
# Grounding tables
# ---------------------------------------------------------------------------


@dataclass
class _Group:
    cols: np.ndarray  # (n_groundings, n_slots) int64, atom bit positions
    table: np.ndarray  # (2^n_slots,) uint8, clause truth per joint assignment


@dataclass
class _GroundedFormula:
    const_count: int  # groundings that are true under every world
    groups: list[_Group]
    total: int  # all groundings surviving the disequality constraints


@lru_cache(maxsize=4096)
def _grounded_formula(formula: Formula, index: AtomIndex) -> _GroundedFormula:
    spec = index.spec
    names = formula.var_names
    types = tuple(t for _, t in formula.vars)
    domains = [spec.constants(t) for t in types]
    same_type_pairs = [
        (names.index(a), names.index(b))
        for a, b in formula.distinct
        if formula.var_type(a) == formula.var_type(b)
    ]

    by_pattern: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    total = 0
    for values in product(*domains):
        if any(values[i] == values[j] for i, j in same_type_pairs):
            continue
        total += 1
        pattern = []
        for i in range(len(values)):
            leader = i
            for j in range(i):
                if types[j] == types[i] and values[j] == values[i]:
                    leader = j
                    break
            pattern.append(leader)
        by_pattern.setdefault(tuple(pattern), []).append(values)

    const_count = 0
    groups: list[_Group] = []
    for pattern, assignments in by_pattern.items():
        rep = {names[i]: names[p] for i, p in enumerate(pattern)}
        merged = substitute(formula.ast, rep)
        slots = distinct_atoms(merged)
        table = np.empty(1 << len(slots), dtype=np.uint8)
        for code in range(table.shape[0]):
            values_map = {a: bool(code >> i & 1) for i, a in enumerate(slots)}
            table[code] = eval_node(merged, values_map)
        if not table.any():
            continue
        if table.all():
            const_count += len(assignments)
            continue
        cols = np.empty((len(assignments), len(slots)), dtype=np.int64)
        for r, values in enumerate(assignments):
            env = dict(zip(names, values))
            for s, atom in enumerate(slots):
                cols[r, s] = index.index_of(atom.pred, tuple(env[v] for v in atom.args))
        groups.append(_Group(cols, table))
    return _GroundedFormula(const_count, groups, total)


def _bit_columns(worlds: np.ndarray, positions) -> dict[int, np.ndarray]:
    """Bit ``p`` of every world, one uint8 column per position."""
    one = np.uint64(1)
    return {p: ((worlds >> np.uint64(p)) & one).astype(np.uint8) for p in positions}


def _row_code(bits: Mapping[int, np.ndarray], row: np.ndarray) -> np.ndarray:
    """Truth-table code of one grounding in every world: bit j is atom ``row[j]``.

    Byte-wide while a grounding touches at most 8 atoms, int64 beyond.
    """
    code_dtype = np.uint8 if row.shape[0] <= 8 else np.int64
    code = bits[int(row[0])].astype(code_dtype)
    for j in range(1, row.shape[0]):
        code |= bits[int(row[j])].astype(code_dtype, copy=False) << j
    return code


def _count_dtype(total: int) -> np.dtype:
    """The narrowest count dtype that holds ``total``."""
    for dtype in (np.uint8, np.uint16):
        if total <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int32)


def _count_keys(entries: Sequence[_GroundedFormula]) -> tuple[int, np.ndarray, np.ndarray]:
    """``(span, strides, radix)`` of the count key.

    A count vector's key is its mixed-radix code, radix grounding total + 1
    per clause and clause 0 most significant: ``key = counts @ strides`` and
    ``counts = _decode_keys(key, strides, radix)``, so keys order count
    vectors lexicographically. ``span`` is the product of the radices. Below
    2^63 the key is one int64 word and ``strides`` one vector; from 2^63 the
    clauses are packed, in order and greedily from the last one, into words
    whose spans stay below 2^63, and ``strides`` is a (clauses, words) matrix
    with one nonzero per row: each word holds its own clauses' key.
    """
    radix = np.array([e.total + 1 for e in entries], dtype=np.int64)
    strides = np.zeros((radix.shape[0], 1), dtype=np.int64)
    word_span = 1  # radix product of the later clauses in the word being filled
    for c in reversed(range(radix.shape[0])):
        if word_span * int(radix[c]) >= 1 << 63:
            strides = np.pad(strides, ((0, 0), (1, 0)))
            word_span = 1
        strides[c, 0] = word_span
        word_span *= int(radix[c])
    span = math.prod(radix.tolist())
    return span, strides[:, 0] if strides.shape[1] == 1 else strides, radix


def _decode_keys(keys: np.ndarray, strides: np.ndarray, radix: np.ndarray) -> np.ndarray:
    """The count vector of every count key: ``key // stride % radix`` per
    clause, read from the clause's word."""
    if strides.ndim == 1:
        return keys[:, None] // strides % radix
    return keys[:, strides.argmax(axis=1)] // strides.max(axis=1) % radix


def _world_atoms(world: int, entries: Sequence[_GroundedFormula]) -> np.ndarray:
    """Bit ``p`` of one world integer at index ``p``, up to the highest atom the
    entries touch; the integer may be of any width."""
    top = max((int(g.cols.max(initial=0)) for e in entries for g in e.groups), default=0)
    n_bytes = max(top // 8 + 1, (world.bit_length() + 7) // 8)
    packed = np.frombuffer(world.to_bytes(n_bytes, "little"), dtype=np.uint8)
    return np.unpackbits(packed, bitorder="little")


def _count_kernel(entries: Sequence[_GroundedFormula], worlds: np.ndarray | int) -> np.ndarray:
    """(n_worlds, n_entries) int32 true-grounding counts: the one counts kernel.
    ``worlds`` is a uint64 block, or one world as an integer of any width."""
    if not isinstance(worlds, np.ndarray):
        atoms = _world_atoms(int(worlds), entries)
        counts = [
            e.const_count
            + sum(
                int(g.table[(atoms[g.cols] << np.arange(g.cols.shape[1])).sum(1)].sum())
                for g in e.groups
            )
            for e in entries
        ]
        return np.array([counts], dtype=np.int32)
    used = sorted({int(p) for e in entries for g in e.groups for p in g.cols.flat})
    n_worlds, bits = worlds.shape[0], _bit_columns(worlds, used)
    out = np.empty((n_worlds, len(entries)), dtype=np.int32)
    for ci, entry in enumerate(entries):
        acc = np.full(n_worlds, entry.const_count, dtype=np.int32)
        for g in entry.groups:
            for row in g.cols:
                acc += np.take(g.table, _row_code(bits, row))
        out[:, ci] = acc
    return out


class GroundingTable:
    """Per-clause compiled groundings for one clause structure over one atom index."""

    def __init__(self, formulas: Sequence[Formula], index: AtomIndex):
        self.index = index
        self.entries = [_grounded_formula(f, index) for f in formulas]

    def counts_world(self, world: World) -> np.ndarray:
        """True-grounding count of every clause in a single world."""
        return _count_kernel(self.entries, world.bits)[0]

    def counts_matrix(self, worlds: np.ndarray) -> np.ndarray:
        """(n_worlds, n_clauses) true-grounding counts, vectorized over worlds."""
        return _count_kernel(self.entries, worlds)

    def log_weights(self, worlds: np.ndarray, weights: Sequence[float]) -> np.ndarray:
        """Per-world log weight: the weighted sum of true-grounding counts.

        The plain per-block path; whole passes read ``chunk_counts`` instead.
        """
        return _count_kernel(self.entries, worlds) @ np.asarray(weights, dtype=np.float64)

    def chunk_counts(
        self, strides: Sequence[int] | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(worlds, counts)`` for every block of ``world_chunks``, where
        ``counts`` equals ``counts_matrix(worlds)``.

        Blocks are aligned to ``DEFAULT_CHUNK``, so every block holds the same
        low log2(DEFAULT_CHUNK) bits. Groundings whose atoms all lie in those
        bits are counted once, on the first block. A grounding that reaches the
        high bits sees a block only through the low atoms it touches, the
        ``shared`` atoms, and the block's high bits, which are constant across
        the block. Each world's ``shared`` code is computed once, on the first
        block; each block sums its high groundings over the 2^|shared|
        assignments into one small table and adds it to the first block's
        counts with one gather. Counts are as narrow as the largest grounding
        total.

        With ``strides``, one integer per clause or a (clauses, words) matrix
        of them, ``counts`` is instead the key ``counts_matrix(worlds) @
        strides``: each clause's truth tables are scaled by its stride and
        added into its word's column. Keys are int32 while the largest key is
        below 2^31 and int64 up to 2^63; past that they raise ``ValueError``.
        """
        low_bits = DEFAULT_CHUNK.bit_length() - 1
        keyed = strides is not None
        if keyed:
            strides = np.asarray(strides, dtype=np.int64)
            per_word = strides if strides.ndim == 2 else strides[:, None]
            top = max(sum(int(s) * e.total for s, e in zip(w, self.entries)) for w in per_word.T)
            if top >= 1 << 63:
                raise ValueError(f"count keys reach {top}, past the int64 range")
            dtype = np.dtype(np.int32 if top < 1 << 31 else np.int64)
        else:
            dtype = _count_dtype(max((e.total for e in self.entries), default=0))
        one_word = keyed and strides.ndim == 1
        low = copy.copy(self)
        low.entries = []
        high: list[tuple[int, np.ndarray, np.ndarray]] = []  # (column, atoms, table)
        for ci, e in enumerate(self.entries):
            groups = []
            for g in e.groups:
                reach = g.cols.max(axis=1) >= low_bits
                groups.append(_Group(g.cols[~reach], g.table))
                if keyed:
                    for w in np.flatnonzero(per_word[ci]):
                        table = g.table.astype(dtype) * dtype.type(per_word[ci, w])
                        high.extend((w, row, table) for row in g.cols[reach])
                else:
                    high.extend((ci, row, g.table) for row in g.cols[reach])
            low.entries.append(replace(e, groups=groups))
        shared = sorted({int(p) for _, row, _ in high for p in row if p < low_bits})
        # Assignment i of the shared atoms as a world: bit shared[j] is bit j of
        # i, and every high bit is 0 until a block ORs its own in.
        sub = np.arange(1 << len(shared), dtype=np.uint64)
        assign = np.zeros_like(sub)
        for j, p in enumerate(shared):
            assign |= (sub >> np.uint64(j) & np.uint64(1)) << np.uint64(p)
        bits = _bit_columns(assign, {int(p) for _, row, _ in high for p in row})
        codes = [_row_code(bits, row) for _, row, _ in high]
        base = shared_code = None
        for worlds in world_chunks(self.index.n_atoms):
            if base is None:
                base = low.counts_matrix(worlds)
                if keyed:
                    base = base @ per_word.astype(dtype)
                base = base.astype(dtype, copy=False)
                shared_code = bit_codes(worlds, shared) if high else None
            if not high:
                yield worlds, base[:, 0] if one_word else base
                continue
            high_counts = np.zeros((assign.shape[0], base.shape[1]), dtype=dtype)
            start = int(worlds[0])
            for (col, row, table), code in zip(high, codes):
                high_code = sum((start >> int(p) & 1) << j for j, p in enumerate(row))
                high_counts[:, col] += np.take(table, code | high_code)
            counts = np.take(high_counts, shared_code, axis=0)
            counts += base
            yield worlds, counts[:, 0] if one_word else counts

    def chunk_log_weights(
        self, weights: Sequence[float]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(worlds, log weights)`` for every block of ``world_chunks``, equal
        to ``log_weights(worlds, weights)``.

        While the count-key span fits in one block, the log weight of every
        key in the span is computed once and each block looks its keys up;
        past it, each block's counts are multiplied by the weights.
        """
        weights = np.asarray(weights, dtype=np.float64)
        span, strides, radix = _count_keys(self.entries)
        if span > DEFAULT_CHUNK:
            for worlds, counts in self.chunk_counts():
                yield worlds, counts @ weights
            return
        table = _decode_keys(np.arange(span), strides, radix) @ weights
        for worlds, key in self.chunk_counts(strides):
            yield worlds, np.take(table, key)

    def relaid(self, *leading: np.ndarray) -> tuple[GroundingTable, np.ndarray]:
        """A copy over a permuted bit layout, plus that layout's ``order``.

        The given index positions take the low bits, in the order given, and
        the other atoms follow in index order: bit j of a relaid world is the
        atom at index position ``order[j]``.
        """
        lead = np.concatenate(leading)
        order = np.concatenate([lead, np.setdiff1d(np.arange(self.index.n_atoms), lead)])
        new_pos = np.argsort(order)
        out = copy.copy(self)
        out.entries = [
            replace(e, groups=[_Group(new_pos[g.cols], g.table) for g in e.groups])
            for e in self.entries
        ]
        return out, order


@lru_cache(maxsize=256)
def _table(formulas: tuple[Formula, ...], index: AtomIndex) -> GroundingTable:
    return GroundingTable(formulas, index)


# ---------------------------------------------------------------------------
# Weights and probabilities
# ---------------------------------------------------------------------------


def count_true_groundings(clause: Clause, world: World) -> int:
    """Satisfying variable assignments of one clause in one world.

    Assignments respect the clause's disequality constraints, so clauses in
    distinct-constants form are counted over injective assignments only.
    """
    entry = _grounded_formula(clause.formula, world.index)
    return int(_count_kernel([entry], world.bits)[0, 0])


def log_weight(model: MlnModel, world: World) -> float:
    """Weighted true-grounding count of all clauses (the log of the world weight)."""
    counts = _table(model.formulas(), world.index).counts_world(world)
    return float(np.dot(np.array(model.weights()), counts))


def log_k_weight(model: MlnModel, partial: World, k: int) -> float:
    """Log weight restricted to the arity-k clause group, on a k-constant sub-world."""
    if not model.normalized:
        raise ValueError("log_k_weight requires a normalized model")
    spec = partial.index.spec
    if len(spec.sizes) != 1 or spec.sizes[0][1] != k:
        raise ValueError("partial world must cover exactly k constants of a single type")
    clauses = tuple(arity_partition(model).get(k, ()))
    if not clauses:
        return 0.0
    return log_weight(replace(model, clauses=clauses), partial)


def dense_log_weights(
    model: MlnModel, index: AtomIndex, *, max_atoms: int = DEFAULT_DENSE_MAX_ATOMS
) -> np.ndarray:
    """Log weight of every world over the index, as one 2^G vector."""
    _guard(index.n_atoms, max_atoms)
    out = np.empty(1 << index.n_atoms, dtype=np.float64)
    for worlds, lw in _table(model.formulas(), index).chunk_log_weights(model.weights()):
        start = int(worlds[0])
        out[start : start + worlds.shape[0]] = lw
    return out


# ---------------------------------------------------------------------------
# Count histogram and the partition function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountHistogram:
    """Distinct true-grounding count vectors over all worlds of one atom index."""

    counts: np.ndarray  # (n_distinct, n_clauses) float64
    mult: np.ndarray  # (n_distinct,) int64 worlds per count vector; sums to 2^G
    log_mult: np.ndarray  # (n_distinct,) float64


def count_histogram(
    model: MlnModel, index: AtomIndex, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> CountHistogram:
    """The model's count histogram over the index: one enumeration per clause
    structure and index, cached and shared by every weight vector. The index
    must be over the model's signature."""
    if index.signature != model.signature:
        raise ValueError("atom index is not over the model's signature")
    _guard(index.n_atoms, max_atoms)
    return _histogram(model.formulas(), index)


@lru_cache(maxsize=64)
def _histogram(formulas: tuple[Formula, ...], index: AtomIndex) -> CountHistogram:
    """Every block's count keys are tallied: while the key span fits in one
    block, with one bincount into a table of the span; past it, with one
    ``np.unique`` per block, merged into the running distinct keys. Both give
    the distinct vectors in lexicographic order."""
    gt = GroundingTable(formulas, index)
    span, strides, radix = _count_keys(gt.entries)
    if span <= DEFAULT_CHUNK:
        tally = np.zeros(span, dtype=np.int64)
        for _, key in gt.chunk_counts(strides):
            tally += np.bincount(key, minlength=span)
        keys = np.flatnonzero(tally)
        mult = tally[keys]
    else:
        keys, mult = np.zeros((0, *strides.shape[1:]), dtype=np.int64), np.zeros(0)
        for _, key in gt.chunk_counts(strides):
            k, m = np.unique(key, axis=0, return_counts=True)
            keys, inverse = np.unique(np.concatenate([keys, k]), axis=0, return_inverse=True)
            # Float bincount sums are exact: multiplicities stay below 2^53.
            mult = np.bincount(inverse.reshape(-1), weights=np.concatenate([mult, m]))
        mult = mult.astype(np.int64)
    rows = _decode_keys(keys, strides, radix)
    out = CountHistogram(rows.astype(np.float64), mult, np.log(mult))
    for a in (out.counts, out.mult, out.log_mult):
        a.setflags(write=False)
    return out


def log_partition(
    model: MlnModel,
    spec: DomainSpec | None = None,
    *,
    index: AtomIndex | None = None,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> float:
    """Log of the normalization constant: logsumexp(U @ w + log mult) over the
    cached count histogram. A spec given along with an index must be the
    index's spec."""
    if index is None:
        if spec is None:
            raise ValueError("provide a domain spec or an atom index")
        index = AtomIndex(model.signature, spec)
    elif spec is not None and spec != index.spec:
        raise ValueError("domain spec differs from the atom index's spec")
    hist = count_histogram(model, index, max_atoms=max_atoms)
    return _logsumexp(hist.counts @ np.array(model.weights(), dtype=np.float64) + hist.log_mult)


def log_probability(model: MlnModel, world: World) -> float:
    """Exact log probability of one world, which must be over the model's signature."""
    if world.index.signature != model.signature:
        raise ValueError("world is not over the model's signature")
    return log_weight(model, world) - log_partition(model, index=world.index)


def _fold_front_buckets(acc: np.ndarray, start: int, lw: np.ndarray) -> None:
    """Fold one chunk's log weights into the per-front-world log-sum-exp ``acc``.

    The chunk holds the consecutive relaid worlds ``start .. start + len(lw) - 1``
    and the front bucket of a world is ``world & (len(acc) - 1)``. Both lengths
    are powers of two and chunks are aligned to their length, so the chunk is
    either whole rows of every bucket or one contiguous slice of them.
    """
    width = min(acc.shape[0], lw.shape[0])
    rows = lw.reshape(-1, width)
    shift = rows.max(axis=0)
    chunk_logs = shift + np.log(np.exp(rows - shift).sum(axis=0))
    at = start % acc.shape[0]
    np.logaddexp(acc[at : at + width], chunk_logs, out=acc[at : at + width])


def marginal_log_probs(model: MlnModel, spec: DomainSpec) -> tuple[AtomIndex, np.ndarray]:
    """Log marginal probability of every front-half world under the split spec.

    One pass over the full enumeration, with the front-half atoms in the low
    bits, folds log-sum-exp per restriction bucket; entry ``b`` of the result
    is the log probability that a full-domain world restricts to the
    front-half world with bit vector ``b``.
    """
    index = AtomIndex(model.signature, spec)
    _guard(index.n_atoms, DEFAULT_MAX_ATOMS)
    front, _ = split_subsets(spec)
    sub_index, positions = restriction_positions(index, front)
    _guard(sub_index.n_atoms, DEFAULT_DENSE_MAX_ATOMS)
    gt, _ = _table(model.formulas(), index).relaid(positions)
    bucket_logs = np.full(1 << sub_index.n_atoms, -np.inf)
    for worlds, lw in gt.chunk_log_weights(model.weights()):
        _fold_front_buckets(bucket_logs, int(worlds[0]), lw)
    return sub_index, bucket_logs - _logsumexp(bucket_logs)


def log_marginal(model: MlnModel, spec: DomainSpec, sub_world: World) -> float:
    """Log marginal probability of one front-half world (computes the full vector)."""
    sub_index, logs = marginal_log_probs(model, spec)
    if sub_world.index != sub_index:
        raise ValueError("sub-world is not over the front half of the split spec")
    return float(logs[sub_world.bits])


# ---------------------------------------------------------------------------
# Weight-factorization identities (exhaustively checkable)
# ---------------------------------------------------------------------------


def _single_type(model: MlnModel) -> str:
    if len(model.signature.types) != 1:
        raise ValueError(
            "weight decomposition over constant tuples requires a single-type signature"
        )
    return model.signature.types[0][0]


def max_tuple_factorization_error(model: MlnModel, n: int) -> float:
    """Worst absolute gap between each world's log weight and the sum of the
    per-tuple arity-k log weights of its restrictions, over all worlds at size n."""
    tau = _single_type(model)
    if not model.normalized:
        raise ValueError("factorization identities require a normalized model")
    index = AtomIndex(model.signature, DomainSpec({tau: n}))
    full = dense_log_weights(model, index)
    total = np.zeros_like(full)
    for k, clauses in arity_partition(model).items():
        tuples = ordered_tuples(n, k)
        if tuples:  # every k-tuple restricts to the same k-constant sub-index
            sub_index = AtomIndex(model.signature, DomainSpec({tau: k}))
            lw_k = dense_log_weights(replace(model, clauses=tuple(clauses)), sub_index)
        for c in tuples:
            _, positions = restriction_positions(index, {tau: c})
            for worlds in world_chunks(index.n_atoms):
                start = int(worlds[0])
                codes = bit_codes(worlds, positions)
                total[start : start + worlds.shape[0]] += lw_k[codes]
    return float(np.abs(full - total).max())


def max_split_factorization_error(model: MlnModel, n: int, m: int) -> float:
    """Worst absolute gap, over all worlds at size n+m, between the full log
    weight and front-half + back-half + straddling-tuple contributions."""
    tau = _single_type(model)
    if not model.normalized:
        raise ValueError("factorization identities require a normalized model")
    spec = DomainSpec({tau: n + m}, split_type=tau, split_at=n)
    index = AtomIndex(model.signature, spec)
    _guard(index.n_atoms, DEFAULT_MAX_ATOMS)
    front, back = split_subsets(spec)
    sub_n, pos_n = restriction_positions(index, front)
    sub_m, pos_m = restriction_positions(index, back)
    lw_n = dense_log_weights(model, sub_n)
    lw_m = dense_log_weights(model, sub_m)
    cross: list[tuple[np.ndarray, np.ndarray]] = []
    for k, clauses in arity_partition(model).items():
        tuples = cross_tuples(n, m, k)
        if tuples:  # every k-tuple restricts to the same k-constant sub-index
            sub_index = AtomIndex(model.signature, DomainSpec({tau: k}))
            lw_k = dense_log_weights(replace(model, clauses=tuple(clauses)), sub_index)
        cross += [(restriction_positions(index, {tau: c})[1], lw_k) for c in tuples]
    worst = 0.0
    for worlds, lw in _table(model.formulas(), index).chunk_log_weights(model.weights()):
        acc = lw_n[bit_codes(worlds, pos_n)] + lw_m[bit_codes(worlds, pos_m)]
        for pos_c, lw_c in cross:
            acc += lw_c[bit_codes(worlds, pos_c)]
        worst = max(worst, float(np.abs(lw - acc).max()))
    return worst


# ---------------------------------------------------------------------------
# Domain-size-aware weight scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DaScaling:
    """Per-clause scale-down factors for a target domain size."""

    factors: tuple[float, ...]


def da_scale_factors(model: MlnModel, target_sizes: Mapping[str, int]) -> DaScaling:
    """Scale-down factor per clause: the largest, over the clause's atoms, of the
    product of target-domain sizes of the clause variables missing from that atom."""
    factors = []
    for clause in model.clauses:
        f = clause.formula
        s = 1.0
        for atom in distinct_atoms(f.ast):
            present = set(atom.args)
            prod = 1.0
            for v, t in f.vars:
                if v not in present:
                    try:
                        prod *= target_sizes[t]
                    except KeyError:
                        raise ValueError(f"no target size for type {t}") from None
            s = max(s, prod)
        factors.append(s)
    return DaScaling(tuple(factors))


def apply_da_scaling(model: MlnModel, scaling: DaScaling) -> MlnModel:
    """Divide each clause weight by its scale factor."""
    if len(scaling.factors) != len(model.clauses):
        raise ValueError("scaling was computed for a different clause list")
    return model.with_weights(
        [c.weight / s for c, s in zip(model.clauses, scaling.factors)]
    )
