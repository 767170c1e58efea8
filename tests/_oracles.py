"""Independent brute-force references the engine is validated against.

Everything here but the block kernel and its world primitives recomputes
quantities from first principles with plain loops: no grounding tables, no
vectorization. Slow on purpose; only usable at toy sizes. Only
``weight_sandwich_slacks`` reads the engine, for its cross extrema and the
half restrictions of a world.

The block kernel (``counts_matrix``, ``log_weights``) is the plain path the
engine's passes are checked against: it reads a grounding table's compiled
groundings, but evaluates every grounding in every world of a block, one
truth-table gather per grounding, where the engine counts each block's few
(low key, shared code) pairs. ``world_chunks`` builds the blocks' world
integers and ``bit_codes`` packs their bits at given positions, the codes the
engine's passes read without building a world.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, Mapping, Sequence

import numpy as np

from mlnexact import model as model_module
from mlnexact.bounds import cross_weight_bounds
from mlnexact.logic import And, Atom, Iff, Implies, MlnModel, Not, Or
from mlnexact.worlds import World, restrict, split_subsets


def eval_ground(node, env: dict, world: World) -> bool:
    if isinstance(node, Atom):
        return world.truth(node.pred, tuple(env[v] for v in node.args))
    if isinstance(node, Not):
        return not eval_ground(node.sub, env, world)
    if isinstance(node, And):
        return eval_ground(node.lhs, env, world) and eval_ground(node.rhs, env, world)
    if isinstance(node, Or):
        return eval_ground(node.lhs, env, world) or eval_ground(node.rhs, env, world)
    if isinstance(node, Implies):
        return (not eval_ground(node.lhs, env, world)) or eval_ground(node.rhs, env, world)
    if isinstance(node, Iff):
        return eval_ground(node.lhs, env, world) == eval_ground(node.rhs, env, world)
    raise TypeError(node)


def count_groundings_direct(clause, world: World) -> int:
    """Satisfying assignments by looping over every type-respecting assignment."""
    f = clause.formula
    spec = world.index.spec
    names = [v for v, _ in f.vars]
    types = {v: t for v, t in f.vars}
    count = 0
    for values in product(*[spec.constants(t) for _, t in f.vars]):
        env = dict(zip(names, values))
        if any(types[a] == types[b] and env[a] == env[b] for a, b in f.distinct):
            continue
        if eval_ground(f.ast, env, world):
            count += 1
    return count


def raw_log_weight(model: MlnModel, world: World) -> float:
    return sum(c.weight * count_groundings_direct(c, world) for c in model.clauses)


def log_k_weight(model: MlnModel, partial: World, k: int) -> float:
    """The arity-k clauses' part of ``raw_log_weight``, on a k-constant sub-world
    of a normalized model."""
    clauses = [c for c in model.clauses if c.formula.arity == k]
    return sum(c.weight * count_groundings_direct(c, partial) for c in clauses)


def weight_sandwich_slacks(model: MlnModel, n: int, m: int, world: World) -> tuple[float, float]:
    """(upper, lower) weight-sandwich slack of one world over the n|m split
    domain: the engine's cross extrema against direct counts of the world and
    of its two half restrictions."""
    cross = cross_weight_bounds(model, n, m)
    front, back = split_subsets(world.index.spec)
    base = sum(raw_log_weight(model, restrict(world, half)) for half in (front, back))
    lw = raw_log_weight(model, world)
    return base + cross.log_m_max - lw, lw - base - cross.log_m_min


def permute(world: World, mapping: Mapping[int, int]) -> World:
    """Rename a single-type world's constants by a bijection (constants it
    leaves out stay put); atom truth follows the renaming."""
    bits = 0
    for pred, args in world.true_atoms():
        bits |= 1 << world.index.index_of(pred, tuple(mapping.get(a, a) for a in args))
    return World(world.index, bits)


def raw_log_probs(model: MlnModel, index) -> list[float]:
    """Log probability of every world by direct summation (float-safe shift)."""
    logs = [raw_log_weight(model, World(index, b)) for b in range(1 << index.n_atoms)]
    shift = max(logs)
    z = shift + math.log(sum(math.exp(x - shift) for x in logs))
    return [x - z for x in logs]


def dense_nll_grad_hessian(counts, data_counts, theta):
    """Negative log-likelihood, gradient and Hessian of the learning objective,
    each a plain pass over the (2^G, k) count matrix of every world."""
    logw = counts @ theta
    shift = logw.max()
    w = np.exp(logw - shift)
    z = w.sum()
    p = w / z
    value = float(shift + math.log(z) - data_counts @ theta)
    expected = p @ counts
    hessian = (counts * p[:, None]).T @ counts - np.outer(expected, expected)
    return value, expected - data_counts, hessian


def dense_nll(counts, data_counts, theta) -> float:
    """The negative log-likelihood alone, as a logsumexp over every world."""
    logw = counts @ theta
    shift = float(logw.max())
    return float(shift + math.log(float(np.exp(logw - shift).sum())) - data_counts @ theta)


def set_partitions_reference(items: list) -> list[list[list]]:
    """All set partitions by recursive block insertion (not the engine's algorithm)."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions_reference(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[first] + part[i]] + part[i + 1 :])
        out.append([[first]] + part)
    return out


def canonical_partition(part) -> frozenset:
    return frozenset(frozenset(block) for block in part)


def fd_gradient(fn, weights, h: float = 1e-5):
    """Central finite differences of a scalar function of the weight vector."""
    out = []
    for i in range(len(weights)):
        up = list(weights)
        down = list(weights)
        up[i] += h
        down[i] -= h
        out.append((fn(up) - fn(down)) / (2 * h))
    return out


def kl_reference(p_logs, q_logs) -> float:
    return sum(math.exp(p) * (p - q) for p, q in zip(p_logs, q_logs))


def world_chunks(n_atoms: int) -> Iterator[np.ndarray]:
    """World integers 0..2^G-1 in consecutive uint64 blocks of DEFAULT_CHUNK
    (one block of 2^G when that is smaller), so every block is a power of two
    aligned to its length."""
    total = 1 << n_atoms
    for start in range(0, total, model_module.DEFAULT_CHUNK):
        yield np.arange(start, min(start + model_module.DEFAULT_CHUNK, total), dtype=np.uint64)


def bit_codes(worlds: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Pack the given bit positions of each world integer into dense codes."""
    code = np.zeros(worlds.shape[0], dtype=np.int64)
    one = np.uint64(1)
    for j, p in enumerate(positions):
        code |= ((worlds >> np.uint64(int(p))) & one).astype(np.int64) << j
    return code


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


def counts_matrix(entries, worlds: np.ndarray) -> np.ndarray:
    """(n_worlds, n_entries) int32 true-grounding counts of a uint64 block of
    world integers, for a grounding table's ``entries``."""
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


def log_weights(entries, worlds: np.ndarray, weights) -> np.ndarray:
    """Per-world log weight of a block: its counts times the weights, summed
    column by column in clause order, the engine's rule, so the engine's
    values must equal these bit for bit."""
    counts = counts_matrix(entries, worlds)
    out = np.zeros(worlds.shape[0])
    for c, w in enumerate(np.asarray(weights, dtype=np.float64)):
        out += counts[:, c] * w
    return out
