"""Exact Markov logic semantics on enumerable domains.

Clauses are compiled once per (formula, atom index) into grounding tables:
for every grounding, the positions of the ground atoms it touches plus a
truth table over their joint assignments. World enumeration is then integer
counting, and sums of those truth tables give every world's true-grounding
counts. Groundings are grouped by the variable-identification pattern of the
assignment, so raw clauses (repeated constants allowed) and distinct-constant
normalized clauses share one code path.

Every pass over all 2^G worlds reads one stream,
``GroundingTable.pair_counts(strides)``. Blocks of ``DEFAULT_CHUNK`` worlds
are aligned to their length, so all blocks share their low
log2(DEFAULT_CHUNK) bits and differ only in the high bits, which are constant
within a block. No pass builds a block's worlds. Groundings whose atoms all
lie in the low bits are counted once, over the low-bit assignments, into each
world's low count key ``counts @ strides`` (under ``np.eye`` the keys are the
counts): a grounding's stride-scaled truth table reads only its own atoms'
bits, so the low keys are a sum of small tables broadcast over the low bits
(``_table_sums``), as are the shared-atom codes below. A grounding that
reaches the high bits sees a block only through the few low atoms it touches
(the shared atoms) and the block's high bits: each block sums those
groundings' stride-scaled truth tables over every assignment of the shared
atoms into a small table, indexed by each world's shared-atom code. So a
world's key depends on its low bits only through the pair (low key, shared
code): the low-bit assignments are deduped into these pairs once (332 pairs
for the 2^18 of G=24 smokers relaid for a bound split, 44 for the 2^15 of
G=15 smokers, which has no high groundings), and each block yields one key
per pair, with ``inverse`` giving every low world's pair. Passes that reduce
across blocks per pair never look at single worlds until the end, and then
one tile of ``DEFAULT_TILE`` offsets at a time (``_tiles``), as do the pair
ranking and the pair multiplicities, so such a pass holds no 2^18-long
temporary wider than the keys. A single world (``counts_world``,
``log_weight``) is unpacked from its integer, so it may exceed 64 atoms, and
each grounding group is counted with one gather into its truth table. The
table memoizes the counts of the last ``WORLD_COUNTS_MEMO`` single worlds, so
scoring fixed worlds under many weight vectors counts each of them once.

A world's weight depends on it only through its count vector, whose count
key is its mixed-radix code (radix = grounding total + 1, clause 0 most
significant). A count vector's log weight has one rule, ``_log_weights``:
its counts times the weights, summed column by column in clause order, so a
row's value does not depend on the rows computed with it. Every weighted pass
reads ``pair_log_weights``, one log weight per pair and block, which are the
floats of every world of the pair: while the key span fits in one block, the
log weight of each key in the span is computed once and every pair's is
looked up; past it, each block decodes its pairs' keys. No pass casts a
block's counts to float64 and multiplies them by the weights. The partition
function has one path: one enumeration per (clause structure, atom index)
collapses all 2^G worlds into a cached histogram of distinct count vectors
with multiplicities, and log Z for any weight vector is a logsumexp over that
histogram. The build merges every block's pair keys, weighted by the pairs'
world counts, into the running distinct keys with ``_unique_keys`` (from
2^63, several int64 words, sorted by one lexsort). Learning's count table
comes from ``_distinct_counts``, which dedupes the pair keys of all blocks at
once in the same way; the key format stays inside this module.

Restriction marginals make one pass over every world against a split-aware
copy of the grounding table laid out by ``_split_runs``: the front-half atoms,
in the front sub-index's order, take a block's low bits, as many as fit, the
other atoms the next bits, and the front atoms that did not fit the top bits.
So blocks come in runs that share their top bits, within which a world's
bucket, its front code, depends only on its offset in the block. Each run
reduces per pair across its blocks with ``_pair_extremes``, and its pairs'
log-sum-exps are folded into the buckets once, tile by tile
(``_fold_pair_buckets``): every bucket when they fit in a block, one
block-wide slice of them otherwise. The bound suite runs its pass through the
same three helpers, with the back-half atoms after the front. The public
``AtomIndex`` order is unchanged.

The factorization checks read ``pair_log_weights`` too (``_max_gap``): each
block sums the restriction tables of the identity's terms over its offsets
with ``_broadcast_sum``, a term's positions past the block's low bits fixed
from the block's start (``_block_terms``, which ``pair_counts`` uses for its
high groundings), and compares the sum with the block's log weights.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice, product
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
DEFAULT_TILE = 1 << 14  # block offsets per tile of a per-pair pass's per-world work
WORLD_COUNTS_MEMO = 256  # single-world count vectors a grounding table keeps


def _logsumexp(log_values: np.ndarray) -> float:
    """log(sum(exp(v))) of a non-empty vector of finite values."""
    shift = float(log_values.max())
    return shift + math.log(float(np.exp(log_values - shift).sum()))


def _tiles(n: int) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` of consecutive tiles of ``DEFAULT_TILE`` offsets covering ``0 .. n - 1``."""
    for lo in range(0, n, DEFAULT_TILE):
        yield lo, min(lo + DEFAULT_TILE, n)


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


def _layout(n_bits: int, reads) -> tuple[tuple[int, ...], np.ndarray]:
    """``(outer, index)`` of a truth table that reads ``(table bit, position)``
    pairs of an ``n_bits``-bit assignment: its positions at or above the
    lowest 8 bits, ascending, and the (2^len(outer), 2^min(n_bits, 8)) table
    index of every assignment of them (bit i is ``outer[i]``) and of the
    lowest bits. Table bits that read no position are 0."""
    inner = min(n_bits, 8)
    lo_world = np.arange(1 << inner)
    lo_code = np.zeros(1 << inner, dtype=np.int64)
    outer = []  # (position, table bit)
    for j, p in reads:
        if p < inner:
            lo_code |= (lo_world >> int(p) & 1) << j
        else:
            outer.append((int(p), j))
    outer.sort()
    h = np.arange(1 << len(outer))
    hi_code = np.zeros(h.shape[0], dtype=np.int64)
    for i, (_, j) in enumerate(outer):
        hi_code |= (h >> i & 1) << j
    return tuple(p for p, _ in outer), hi_code[:, None] | lo_code


def _broadcast_sum(n_bits: int, laid, dtype: np.dtype) -> np.ndarray:
    """The sum of ``(outer, values)`` terms over every assignment of
    ``n_bits`` bits, where ``values`` is laid out as ``_layout``'s index:
    ``values[h, l]`` is the term where its outer positions take ``h`` and the
    lowest bits ``l``. Terms over the same outer positions are summed first;
    each sum is then added, in ``dtype``, into a view of the result that
    broadcasts it over the bits it does not read, so the innermost loop runs
    over the 256 assignments of the lowest bits, not over one bit."""
    inner = min(n_bits, 8)
    by_outer: dict[tuple[int, ...], np.ndarray] = {}
    for outer, values in laid:
        if outer in by_outer:
            by_outer[outer] += values
        else:
            by_outer[outer] = values
    out = np.zeros(1 << n_bits, dtype=dtype)
    for outer, values in by_outer.items():
        # From the top bit down: a run of unread bits, then one read bit, per position.
        shape, values_shape, top = [], [], n_bits
        for p in reversed(outer):
            shape += [1 << (top - p - 1), 2]
            values_shape += [1, 2]
            top = p
        view = out.reshape(*shape, 1 << (top - inner), 1 << inner)
        view += values.reshape(*values_shape, 1, 1 << inner)
    return out


def _table_sums(n_bits: int, terms, dtype: np.dtype) -> np.ndarray:
    """``out[x] = sum(table[code_x] for positions, table in terms)`` for every
    assignment ``x`` of ``n_bits`` bits, where bit j of ``code_x`` is bit
    ``positions[j]`` of ``x``, the kernel's convention; a term over no
    positions adds ``table[0]`` everywhere. The sums are exact, in ``dtype``,
    and no assignment is built: each table is gathered into its ``_layout``
    and the terms are added by ``_broadcast_sum``."""
    laid = []
    for positions, table in terms:
        outer, index = _layout(n_bits, enumerate(positions))
        laid.append((outer, np.take(table, index)))
    return _broadcast_sum(n_bits, laid, dtype)


def _block_terms(n_bits: int, terms, slot: Mapping[int, int] | None = None):
    """The ``_broadcast_sum`` terms of a block, as a function of its start.

    A term ``(positions, table)`` reads bit j of its table code from
    ``positions[j]``, the kernel's convention. Its positions in a block's
    low log2(DEFAULT_CHUNK) bits read bit ``slot[p]`` of an ``n_bits``-bit
    assignment (bit ``p`` without a slot map) and are laid out once with
    ``_layout``. The others are constant across a block, so each block
    takes them from its start and gathers the table at them."""
    low_bits = DEFAULT_CHUNK.bit_length() - 1
    laid = []  # (table, (position, table bit) of the high positions, outer, index)
    for positions, table in terms:
        reads = [(j, int(p)) for j, p in enumerate(positions)]
        lows = [(j, p if slot is None else slot[p]) for j, p in reads if p < low_bits]
        highs = [(p, j) for j, p in reads if p >= low_bits]
        laid.append((table, highs, *_layout(n_bits, lows)))

    def at(start: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
        return [
            (outer, np.take(table, index | sum((start >> p & 1) << j for p, j in highs)))
            for table, highs, outer, index in laid
        ]

    return at


def _count_dtype(top: int) -> np.dtype:
    """The narrowest count-key dtype that holds ``top``."""
    for dtype in (np.uint8, np.uint16, np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError(f"count keys reach {top}, past the int64 range")


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


def _unique_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, axis=0, return_inverse=True)`` of count keys, one
    word or several.

    One-word keys go to ``np.unique``. On several words it sorts the rows as a
    structured view, so they are sorted here with one ``np.lexsort``, word 0
    most significant, which gives the same distinct keys in the same order;
    the inverse comes back flat.
    """
    if keys.ndim == 1:
        return np.unique(keys, axis=0, return_inverse=True)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return ordered[np.flatnonzero(first)], inverse


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


def _count_kernel(entries: Sequence[_GroundedFormula], world: int) -> np.ndarray:
    """(n_entries,) int32 true-grounding counts of one world, an integer of
    any width: each grounding group is counted with one gather into its
    truth table."""
    atoms = _world_atoms(world, entries)
    counts = [
        e.const_count
        + sum(
            int(g.table[(atoms[g.cols] << np.arange(g.cols.shape[1])).sum(1)].sum())
            for g in e.groups
        )
        for e in entries
    ]
    return np.array(counts, dtype=np.int32)


def _log_weights(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The log weight ``counts @ weights`` of every row of a count matrix,
    summed column by column in clause order. Each row's value depends only
    on that row, so any subset of rows gets the same floats as the same rows
    of the whole matrix; a BLAS product may round a row differently with
    the number of rows."""
    out = np.zeros(counts.shape[0])
    for c in range(counts.shape[1]):
        out += counts[:, c] * weights[c]
    return out


@dataclass(frozen=True)
class PairStream:
    """One pass over all worlds, one value per (low key, shared code) pair
    and block (see ``GroundingTable.pair_counts``): world ``start + i`` of
    the block that starts at ``start`` takes the value of pair
    ``inverse[i]``. Every stream has this shape, at every key span."""

    inverse: np.ndarray  # (n_worlds,) the pair of each offset, as narrow as the pair count
    mult: np.ndarray  # (n_pairs,) int64 worlds of a block per pair
    n_worlds: int  # worlds per block
    blocks: Iterator[tuple[int, np.ndarray]]  # (start, per-pair values), in start order

    def per_world(self, values: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Per-pair values gathered to the worlds of a block, or to its offsets
        ``lo .. hi - 1``."""
        return np.take(values, self.inverse[lo:hi], axis=0)


def _pairs(
    low: np.ndarray, code: np.ndarray, code_bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pair_low, pair_code, inverse)``: the distinct rows of ``(low,
    code)`` in lexicographic order and each row's pair, as narrow as the
    pair count allows. ``low`` holds one key or a row of key words per world
    and ``code < 2^code_bits``. One-word pairs are ranked through a presence
    table over ``low << code_bits | code`` while that table is no longer than
    ``low``: it is filled, and its ranks gathered, one ``_tiles`` tile of
    ``low`` at a time, with table positions in the narrowest dtype that
    holds them, so no temporary is as long as ``low``. Otherwise the rows are
    deduped by ``_unique_keys``."""
    table = (int(low.max()) + 1) << code_bits if low.ndim == 1 else math.inf
    if table <= low.shape[0]:
        position = _count_dtype(table - 1)

        def packed(lo: int, hi: int) -> np.ndarray:
            return low[lo:hi].astype(position) << code_bits | code[lo:hi]

        present = np.zeros(table, dtype=bool)
        for lo, hi in _tiles(low.shape[0]):
            present[packed(lo, hi)] = True
        pairs = np.flatnonzero(present)
        ranks = np.cumsum(present, dtype=_count_dtype(pairs.shape[0]))
        inverse = np.empty(low.shape[0], dtype=_count_dtype(pairs.shape[0] - 1))
        for lo, hi in _tiles(low.shape[0]):
            inverse[lo:hi] = np.take(ranks, packed(lo, hi)) - 1
        pair_low, pair_code = pairs >> code_bits, pairs & ((1 << code_bits) - 1)
    else:
        rows = np.column_stack([low.reshape(low.shape[0], -1).astype(np.int64), code])
        rows, inverse = _unique_keys(rows)
        pair_low, pair_code = rows[:, :-1].reshape(-1, *low.shape[1:]), rows[:, -1]
        inverse = inverse.reshape(-1).astype(_count_dtype(pair_code.shape[0] - 1))
    return pair_low.astype(low.dtype), pair_code, inverse


class GroundingTable:
    """Per-clause compiled groundings for one clause structure over one atom index."""

    def __init__(self, formulas: Sequence[Formula], index: AtomIndex):
        self.index = index
        self.entries = [_grounded_formula(f, index) for f in formulas]
        self._world_counts: dict[int, np.ndarray] = {}

    def counts_world(self, world: World) -> np.ndarray:
        """True-grounding count of every clause in a single world, read-only.

        The table keeps the counts of the last ``WORLD_COUNTS_MEMO`` worlds
        it was asked for, keyed by their bits; a table belongs to one atom
        index, so the bits name one world.
        """
        counts = self._world_counts.pop(world.bits, None)
        if counts is None:
            counts = _count_kernel(self.entries, world.bits)
            counts.setflags(write=False)
            if len(self._world_counts) >= WORLD_COUNTS_MEMO:
                del self._world_counts[next(iter(self._world_counts))]
        self._world_counts[world.bits] = counts  # most recently used last
        return counts

    def pair_counts(self, strides: Sequence[int] | np.ndarray) -> PairStream:
        """The count keys of every block of ``DEFAULT_CHUNK`` worlds, one per
        (low key, shared code) pair: ``stream.per_world(keys)`` of the block that
        starts at ``start`` equals ``counts @ strides`` of its worlds' count
        matrix, where ``strides`` is one integer per clause, giving one key
        per world, or a (clauses, words) matrix of them, giving a row of key
        words per world. Under ``np.eye`` the keys are the counts.

        Blocks are aligned to ``DEFAULT_CHUNK``, so every block holds the same
        low log2(DEFAULT_CHUNK) bits. Groundings whose atoms all lie in those
        bits are counted once, into the ``low`` keys of every low-bit
        assignment: per key word, ``_table_sums`` of their truth tables scaled
        by their clause's stride, plus ``const_count`` times the stride, so
        no block's worlds are built. A grounding that reaches the high bits
        sees a block only through the low atoms it touches, the ``shared``
        atoms, and the block's high bits, which are constant across the
        block. So world ``start + i`` has the key ``low[i] +
        high[shared_code[i]]``, where each block gathers its high groundings'
        scaled truth tables at its high bits and sums them over the
        2^|shared| shared assignments with ``_broadcast_sum``, into one small
        table ``high`` per word; each grounding is laid out over the shared
        assignments once. A world's key thus depends on its low bits only
        through the pair ``(low[i], shared_code[i])``, and the shared codes
        are a table sum too. The pairs are deduped once, and each block
        gathers only its pairs' keys. Without high groundings every shared
        code is 0 and the pairs are the distinct low keys. Keys take
        ``_count_dtype`` of the largest key; past int64 they raise
        ``ValueError``.
        """
        low_bits = DEFAULT_CHUNK.bit_length() - 1
        n_bits = min(self.index.n_atoms, low_bits)
        strides = np.asarray(strides, dtype=np.int64)
        per_word = strides if strides.ndim == 2 else strides[:, None]
        dtype = _count_dtype(
            max(sum(int(s) * e.total for s, e in zip(w, self.entries)) for w in per_word.T)
        )
        # Per key word, (atoms, stride-scaled table) terms of the low and the
        # high groundings; a clause's always-true groundings are a term over no atoms.
        low: list[list[tuple[Sequence[int], np.ndarray]]] = [[] for _ in per_word.T]
        high: list[list[tuple[Sequence[int], np.ndarray]]] = [[] for _ in per_word.T]
        for e, clause_strides in zip(self.entries, per_word):
            for w in np.flatnonzero(clause_strides):
                stride = dtype.type(clause_strides[w])
                low[w].append(((), np.array([e.const_count], dtype=dtype) * stride))
                for g in e.groups:
                    table = g.table.astype(dtype) * stride
                    reach = g.cols.max(axis=1) >= low_bits
                    low[w].extend((row, table) for row in g.cols[~reach])
                    high[w].extend((row, table) for row in g.cols[reach])
        base = np.stack([_table_sums(n_bits, terms, dtype) for terms in low], axis=-1)
        base = base.reshape(base.shape[0], *strides.shape[1:])
        n_worlds = base.shape[0]
        shared = sorted({int(p) for terms in high for row, _ in terms for p in row if p < low_bits})
        slot = {p: j for j, p in enumerate(shared)}
        high_terms = [_block_terms(len(shared), terms, slot) for terms in high]
        code_dtype = _count_dtype((1 << len(shared)) - 1)
        code_table = np.arange(1 << len(shared), dtype=code_dtype)
        shared_code = _table_sums(n_bits, [(shared, code_table)], code_dtype)
        pair_base, pair_code, inverse = _pairs(base, shared_code, len(shared))
        del base, shared_code

        def blocks() -> Iterator[tuple[int, np.ndarray]]:
            for start in range(0, 1 << self.index.n_atoms, n_worlds):
                high_keys = np.stack(
                    [_broadcast_sum(len(shared), at(start), dtype) for at in high_terms], axis=-1
                )
                keys = np.take(high_keys.reshape(-1, *strides.shape[1:]), pair_code, axis=0)
                keys += pair_base
                yield start, keys

        mult = np.zeros(pair_code.shape[0], dtype=np.int64)
        for lo, hi in _tiles(n_worlds):  # bincount casts its input to intp
            mult += np.bincount(inverse[lo:hi], minlength=mult.shape[0])
        return PairStream(inverse, mult, n_worlds, blocks())

    def pair_log_weights(self, weights: Sequence[float]) -> PairStream:
        """The log weights of every block of ``pair_counts`` under the
        mixed-radix strides, one per pair: ``_log_weights`` of the pair's
        count vector, the floats of every world of the pair.

        While the count-key span fits in one block, the log weight of every
        key in the span is computed once and each block looks its pairs' keys
        up. Past it, each block decodes its pairs' keys into count vectors,
        one key word or several.
        """
        weights = np.asarray(weights, dtype=np.float64)
        span, strides, radix = _count_keys(self.entries)
        stream = self.pair_counts(strides)
        if span <= DEFAULT_CHUNK:
            table = _log_weights(_decode_keys(np.arange(span), strides, radix), weights)
            blocks = ((start, np.take(table, k)) for start, k in stream.blocks)
        else:
            blocks = (
                (start, _log_weights(_decode_keys(k, strides, radix), weights))
                for start, k in stream.blocks
            )
        return replace(stream, blocks=blocks)

    def relaid(self, *leading: np.ndarray) -> tuple[GroundingTable, np.ndarray]:
        """A copy over a permuted bit layout, plus that layout's ``order``.

        The given index positions take the low bits, in the order given, and
        the other atoms follow in index order: bit j of a relaid world is the
        atom at index position ``order[j]``.
        """
        lead = np.concatenate(leading)
        rest = np.ones(self.index.n_atoms, dtype=bool)
        rest[lead] = False
        order = np.concatenate([lead, np.flatnonzero(rest)])
        new_pos = np.argsort(order)
        out = copy.copy(self)  # with its own empty world-count memo
        out.entries = [
            replace(e, groups=[_Group(new_pos[g.cols], g.table) for g in e.groups])
            for e in self.entries
        ]
        out._world_counts = {}
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
    return int(_count_kernel([entry], world.bits)[0])


def log_weight(model: MlnModel, world: World) -> float:
    """Weighted true-grounding count of all clauses (the log of the world weight).

    The counts come from the clause structure's cached grounding table, which
    memoizes the counts of the worlds it has seen (``counts_world``): scoring
    the same worlds under many weight vectors counts each world once.
    """
    counts = _table(model.formulas(), world.index).counts_world(world)
    return float(np.dot(np.array(model.weights()), counts))


def dense_log_weights(
    model: MlnModel, index: AtomIndex, *, max_atoms: int = DEFAULT_DENSE_MAX_ATOMS
) -> np.ndarray:
    """Log weight of every world over the index, as one 2^G vector."""
    _guard(index.n_atoms, max_atoms)
    out = np.empty(1 << index.n_atoms, dtype=np.float64)
    stream = _table(model.formulas(), index).pair_log_weights(model.weights())
    for start, lw in stream.blocks:
        out[start : start + stream.n_worlds] = stream.per_world(lw)
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
    """Every block's pair keys, weighted by the pair multiplicities, are
    merged into the running distinct keys with one ``_unique_keys`` per
    block, which gives the distinct vectors in lexicographic order. Float
    bincount sums are exact: multiplicities stay below 2^53."""
    gt = GroundingTable(formulas, index)
    _, strides, radix = _count_keys(gt.entries)
    stream = gt.pair_counts(strides)
    keys, mult = np.zeros((0, *strides.shape[1:]), dtype=np.int64), np.zeros(0)
    for _, key in stream.blocks:
        keys, inverse = _unique_keys(np.concatenate([keys, key]))
        mult = np.bincount(inverse.reshape(-1), weights=np.concatenate([mult, stream.mult]))
    mult = mult.astype(np.int64)
    rows = _decode_keys(keys, strides, radix)
    out = CountHistogram(rows.astype(np.float64), mult, np.log(mult))
    for a in (out.counts, out.mult, out.log_mult):
        a.setflags(write=False)
    return out


def _distinct_counts(
    formulas: tuple[Formula, ...], index: AtomIndex
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, mult, inverse)``: the distinct count vectors over all 2^G
    worlds as int64 rows in ``count_histogram`` order, their multiplicities,
    and each world's row, so ``rows[inverse]`` is every world's count vector.
    The pair keys of all blocks are deduped at once."""
    gt = _table(formulas, index)
    _, strides, radix = _count_keys(gt.entries)
    stream = gt.pair_counts(strides)
    blocks = [k for _, k in stream.blocks]
    keys, inverse = _unique_keys(np.concatenate(blocks))
    # The inverse's shape varies across numpy 2.x releases.
    inverse = inverse.reshape(len(blocks), -1)
    mult = np.bincount(inverse.reshape(-1), weights=np.tile(stream.mult, len(blocks)))
    inverse = np.take(inverse, stream.inverse, axis=1)
    return _decode_keys(keys, strides, radix), mult.astype(np.int64), inverse.reshape(-1)


def log_partition(
    model: MlnModel, index: AtomIndex, *, max_atoms: int = DEFAULT_MAX_ATOMS
) -> float:
    """Log of the normalization constant over the index: logsumexp(U @ w + log
    mult) over the cached count histogram."""
    hist = count_histogram(model, index, max_atoms=max_atoms)
    return _logsumexp(hist.counts @ np.array(model.weights(), dtype=np.float64) + hist.log_mult)


def log_probability(model: MlnModel, world: World) -> float:
    """Exact log probability of one world, which must be over the model's signature."""
    if world.index.signature != model.signature:
        raise ValueError("world is not over the model's signature")
    return log_weight(model, world) - log_partition(model, world.index)


def _fold_pair_buckets(run: PairStream, lse: np.ndarray, code: int, buckets: np.ndarray) -> None:
    """Fold one run's per-pair log-sum-exp into the front buckets, one tile at a time.

    Offset ``i`` of the run's blocks takes the value ``lse`` of its pair, its
    log-sum-exp over the run, and falls in bucket ``(code | i) & (len(buckets)
    - 1)``: every bucket while they fit in a block, one block-wide slice of
    them otherwise. A first pass over the tiles takes each bucket's max,
    which is exact; a second adds each offset's ``exp(value - max)`` into its
    bucket's sum in offset order, so the fold does not depend on the tile.
    Runs come in code order, so the first run to reach a bucket is the one
    whose code is below ``len(buckets)``: it writes the bucket, and later runs
    add to it with ``np.logaddexp``.
    """
    n_buckets = min(buckets.shape[0], run.n_worlds)

    def tiles() -> Iterator[tuple[slice, np.ndarray]]:
        """Each tile's buckets and its values as rows over them."""
        for lo, hi in _tiles(run.n_worlds):
            at = lo % n_buckets
            cols = slice(at, at + min(hi - lo, n_buckets))
            yield cols, run.per_world(lse, lo, hi).reshape(-1, cols.stop - at)

    shift = np.full(n_buckets, -np.inf)
    for cols, rows in tiles():
        np.maximum(shift[cols], rows.max(axis=0), out=shift[cols])
    total = np.zeros(n_buckets)
    for cols, rows in tiles():
        terms = np.exp(rows - shift[cols])
        terms[0] += total[cols]
        total[cols] = np.add.accumulate(terms, axis=0, out=terms)[-1]
    at = code & (buckets.shape[0] - 1)
    out = buckets[at : at + n_buckets]
    if code < buckets.shape[0]:
        np.add(shift, np.log(total), out=out)
    else:
        np.logaddexp(out, shift + np.log(total), out=out)


def _pair_extremes(run: PairStream) -> tuple[np.ndarray, ...]:
    """``(lse, hi, hi_at, lo, lo_at)`` of a log-weight ``PairStream``, per
    pair over its blocks: the log-sum-exp of its log weights, their max and
    min, and the first block start at which each extreme is reached."""
    blocks = iter(run.blocks)
    start, lw = next(blocks)
    lse, hi, lo = lw.copy(), lw.copy(), lw
    hi_at = np.full(lw.shape[0], start, dtype=np.int64)
    lo_at = hi_at.copy()
    for start, lw in blocks:
        np.logaddexp(lse, lw, out=lse)
        for extreme, at, better in ((hi, hi_at, lw > hi), (lo, lo_at, lw < lo)):
            np.copyto(extreme, lw, where=better)
            at[better] = start
    return lse, hi, hi_at, lo, lo_at


def _split_runs(
    gt: GroundingTable, split: np.ndarray, weights: Sequence[float]
) -> tuple[np.ndarray, Iterator[tuple[int, PairStream]]]:
    """The layout of a split pass over ``gt`` and its log weights, run by run.

    The split positions take a block's low bits, as many as fit, the other
    atoms the next bits, and the split positions that did not fit the top
    bits. So the blocks come in runs of consecutive blocks that share their
    top bits, and offset ``i`` of every block of a run has the split code
    ``code | i``, where ``code`` is the run's top bits shifted past a block's
    bits. While the split fits in a block, all blocks are one run of code 0,
    the split code is the low bits of the offset, and the layout is that of
    ``relaid(split)``. Returns ``(order, runs)``: the layout's order, and per
    run, in start order, its code and the relaid table's
    ``pair_log_weights`` over its blocks. Each run must be drained before the
    next is read.
    """
    n_bits = min(DEFAULT_CHUNK.bit_length() - 1, gt.index.n_atoms)
    other = np.ones(gt.index.n_atoms, dtype=bool)
    other[split] = False
    relaid, order = gt.relaid(split[:n_bits], np.flatnonzero(other), split[n_bits:])
    stream = relaid.pair_log_weights(weights)
    n_runs = 1 << max(0, split.shape[0] - n_bits)
    per_run = (1 << gt.index.n_atoms) // stream.n_worlds // n_runs
    runs = (
        (r << n_bits, replace(stream, blocks=islice(stream.blocks, per_run)))
        for r in range(n_runs)
    )
    return order, runs


def marginal_log_probs(model: MlnModel, spec: DomainSpec) -> tuple[AtomIndex, np.ndarray]:
    """Log marginal probability of every front-half world under the split spec.

    One pass over the full enumeration, laid out by ``_split_runs`` with the
    front-half atoms as the split, folds log-sum-exp per restriction bucket;
    entry ``b`` of the result is the log probability that a full-domain world
    restricts to the front-half world with bit vector ``b``. Within a run a
    world's bucket depends only on its offset in the block, so each pair's
    log-sum-exp over the run is folded once by ``_fold_pair_buckets``, one
    tile of offsets at a time.
    """
    index = AtomIndex(model.signature, spec)
    _guard(index.n_atoms, DEFAULT_MAX_ATOMS)
    front, _ = split_subsets(spec)
    sub_index, positions = restriction_positions(index, front)
    _guard(sub_index.n_atoms, DEFAULT_DENSE_MAX_ATOMS)
    _, runs = _split_runs(_table(model.formulas(), index), positions, model.weights())
    bucket_logs = np.empty(1 << sub_index.n_atoms)
    for code, run in runs:
        _fold_pair_buckets(run, _pair_extremes(run)[0], code, bucket_logs)
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


def _max_gap(model: MlnModel, index: AtomIndex, terms) -> float:
    """The worst ``|log weight - sum(table[code])|`` over every world of the
    index, where a ``(positions, table)`` term reads its code from the
    world's bits at ``positions``, bit j from ``positions[j]``. Each block of
    ``pair_log_weights`` sums the terms over its offsets with
    ``_block_terms`` and ``_broadcast_sum``, so no 2^G vector is built."""
    stream = _table(model.formulas(), index).pair_log_weights(model.weights())
    n_bits = stream.n_worlds.bit_length() - 1
    at = _block_terms(n_bits, terms)
    worst = 0.0
    for start, pair_lw in stream.blocks:
        total = _broadcast_sum(n_bits, at(start), np.float64)
        worst = max(worst, float(np.abs(stream.per_world(pair_lw) - total).max()))
    return worst


def _tuple_terms(model: MlnModel, index: AtomIndex, tuples_of) -> list:
    """One ``(positions, table)`` term per tuple ``tuples_of(k)`` of each
    arity k: the tuple's restriction positions and the dense log weights of
    the arity-k clauses at k constants, computed once per arity."""
    tau = _single_type(model)
    terms = []
    for k, clauses in arity_partition(model).items():
        tuples = tuples_of(k)
        if tuples:  # every k-tuple restricts to the same k-constant sub-index
            sub_index = AtomIndex(model.signature, DomainSpec({tau: k}))
            lw_k = dense_log_weights(replace(model, clauses=tuple(clauses)), sub_index)
            terms += [(restriction_positions(index, {tau: c})[1], lw_k) for c in tuples]
    return terms


def max_tuple_factorization_error(model: MlnModel, n: int) -> float:
    """Worst absolute gap between each world's log weight and the sum of the
    per-tuple arity-k log weights of its restrictions, over all worlds at size n."""
    tau = _single_type(model)
    if not model.normalized:
        raise ValueError("factorization identities require a normalized model")
    index = AtomIndex(model.signature, DomainSpec({tau: n}))
    _guard(index.n_atoms, DEFAULT_MAX_ATOMS)
    return _max_gap(model, index, _tuple_terms(model, index, lambda k: ordered_tuples(n, k)))


def max_split_factorization_error(model: MlnModel, n: int, m: int) -> float:
    """Worst absolute gap, over all worlds at size n+m, between the full log
    weight and front-half + back-half + straddling-tuple contributions. With
    an empty half the identity reads W = W, so the gap is 0.0 without a pass."""
    tau = _single_type(model)
    if not model.normalized:
        raise ValueError("factorization identities require a normalized model")
    spec = DomainSpec({tau: n + m}, split_type=tau, split_at=n)
    index = AtomIndex(model.signature, spec)
    _guard(index.n_atoms, DEFAULT_MAX_ATOMS)
    if n == 0 or m == 0:
        return 0.0
    halves = []
    for half in split_subsets(spec):
        sub_index, positions = restriction_positions(index, half)
        halves.append((positions, dense_log_weights(model, sub_index)))
    cross = _tuple_terms(model, index, lambda k: cross_tuples(n, m, k))
    return _max_gap(model, index, halves + cross)


# ---------------------------------------------------------------------------
# Domain-size-aware weight scaling
# ---------------------------------------------------------------------------


def da_scale_factors(model: MlnModel, target_sizes: Mapping[str, int]) -> tuple[float, ...]:
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
    return tuple(factors)


def apply_da_scaling(model: MlnModel, target_sizes: Mapping[str, int]) -> MlnModel:
    """Divide each clause weight by its ``da_scale_factors`` factor."""
    factors = da_scale_factors(model, target_sizes)
    return model.with_weights([c.weight / s for c, s in zip(model.clauses, factors)])
